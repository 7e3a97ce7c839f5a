"""Tests for the partition sum, feasibility, and the shift solver."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from qentropy import core, shift
from qentropy import (
    ConvergenceError,
    DomainError,
    InfeasibleError,
    QentropyError,
    QParam,
    SingularityError,
    Spectrum,
    domain_interval,
    feasibility,
    partition_derivative,
    partition_value,
    shifted_distribution,
    solve_shift,
)

PAIR = Spectrum([0.0, 0.4])
UNIT = Spectrum([0.0, 1.0])
# ranges so wide that the largest probability is 1 to double precision
HUGE_RANGES = [(Spectrum([0.0, 1e300]), QParam(0.5)), (Spectrum([0.0, 1e40]), QParam(0.5))]
#: the spectra of the benchmark's small-spectra workload that fail at q = 1 - 1e-9
FAILING_SLICE = [[0.0, 0.4], [0.0, 0.4, 1.3], [0.0, 0.25, 0.5, 1.0], [0.0, 0.1, 0.7, 0.9, 2.0],
                 [0.3, 0.4], [0.0, 1.0, 2.0]]


def recipe_spectrum(rng, q):
    """The benchmark's small-spectra recipe: W log-uniform in [2, 256], span
    log-uniform in [0.1, 5], and q > 1 spectra scaled to an endpoint sum of 0.25."""
    w = int(math.exp(rng.uniform(math.log(2), math.log(257))))
    x = rng.random(w) * math.exp(rng.uniform(math.log(0.1), math.log(5.0)))
    if q > 1.0 and oracles.endpoint_sum(x, q) > 0.25:
        x = x.min() + (x - x.min()) * (0.25 / oracles.endpoint_sum(x, q)) ** (q - 1.0)
    return Spectrum(x)


def kernel_pass(x, a, q):
    """p of the shift solve's kernel pass at shift a, over the whole of x, in a new array."""
    qm1 = q - 1.0
    with np.errstate(**shift._KERNEL_ERRORS):
        base = shift._base(x, a, qm1, np.empty(x.size))
        return shift._deformed_exp(base, qm1, float(np.minimum.reduce(base)), base)


class TestPartitionValue:
    def test_linear_at_q2(self):
        assert partition_value(-0.3, PAIR, QParam(2)) == pytest.approx(1.0, abs=1e-15)

    def test_single_state_at_origin(self):
        for q in (0.5, 1.0, 2.0, 3.0):
            assert partition_value(0.0, Spectrum([0.0]), QParam(q)) == 1.0

    def test_direct_substitution_subunit(self):
        assert partition_value(-2.0, UNIT, QParam(0.5)) == pytest.approx(0.41, abs=1e-15)

    def test_outside_domain_raises(self):
        with pytest.raises(DomainError):
            partition_value(-2.0, PAIR, QParam(2))  # below the q > 1 endpoint
        with pytest.raises(DomainError):
            partition_value(2.5, UNIT, QParam(0.5))  # above the q < 1 endpoint

    def test_matches_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            values = rng.uniform(0, 1, rng.integers(1, 12)).tolist()
            q = float(rng.uniform(0.1, 0.9))
            endpoint = min(values) - 1.0 / (q - 1.0)
            a = endpoint - rng.uniform(0.05, 3.0)
            got = partition_value(a, Spectrum(values), QParam(q))
            assert got == pytest.approx(oracles.partition(a, values, q), rel=1e-13)

    def test_strictly_increasing(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            values = rng.uniform(0, 1, rng.integers(1, 64)).tolist()
            q = float(rng.uniform(0.1, 0.9)) if rng.random() < 0.5 else 1.0
            spectrum = Spectrum(values)
            qp = QParam(q)
            _, hi_dom = domain_interval(spectrum, qp)
            anchor = min(hi_dom - 0.1, 0.0) if math.isfinite(hi_dom) else 0.0
            a1, a2 = sorted(anchor - rng.uniform(0, 4, 2))
            if a1 == a2:
                continue
            assert partition_value(a1, spectrum, qp) < partition_value(a2, spectrum, qp)


class TestPartitionDerivative:
    def test_equals_state_count_at_q2(self):
        assert partition_derivative(-0.3, PAIR, QParam(2)) == 2.0
        assert partition_derivative(5.0, Spectrum([0, 1, 2]), QParam(2)) == 3.0

    def test_direct_substitution_subunit(self):
        assert partition_derivative(-2.0, UNIT, QParam(0.5)) == pytest.approx(0.189, abs=1e-15)

    @pytest.mark.parametrize("q", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_matches_central_difference(self, q):
        rng = np.random.default_rng(int(q * 10))
        spectrum = Spectrum(rng.uniform(0, 1, 8).tolist())
        qp = QParam(q)
        lo_dom, hi_dom = domain_interval(spectrum, qp)
        if math.isfinite(lo_dom):
            a = lo_dom + 0.7
        elif math.isfinite(hi_dom):
            a = hi_dom - 0.7
        else:
            a = -0.2
        h = 1e-6
        numeric = (partition_value(a + h, spectrum, qp) - partition_value(a - h, spectrum, qp)) / (2 * h)
        analytic = partition_derivative(a, spectrum, qp)
        assert analytic == pytest.approx(numeric, rel=1e-6)

    def test_singular_at_endpoint_when_exponent_negative(self):
        for q in (0.5, 3.0):
            spectrum = UNIT
            qp = QParam(q)
            lo_dom, hi_dom = domain_interval(spectrum, qp)
            endpoint = lo_dom if math.isfinite(lo_dom) else hi_dom
            with pytest.raises(SingularityError):
                partition_derivative(endpoint, spectrum, qp)

    def test_regular_at_endpoint_for_q_between_one_and_two(self):
        qp = QParam(1.5)
        endpoint = domain_interval(UNIT, qp)[0]
        assert partition_derivative(endpoint, UNIT, qp) > 0.0

    @pytest.mark.parametrize("q, values, expected", [
        (1.5, [0.0], 5e307),  # p = base^2 overflows; the slope is the base itself
        (1.9, [0.0], math.exp(math.log(0.9e308) / 9.0)),
        (2.5, [0.0], math.exp(-math.log(1.5e308) / 3.0)),
        (3.0, [0.0], 2.0**-0.5 * 1e-154),  # the base 2e308 overflows too
        (4.0, [0.0], math.exp(-2.0 / 3.0 * (math.log(3.0) + math.log(1e308)))),
        # a - x_i = 2e308 overflows as well; the sum 1/sqrt(4e308 + 1) + 1/sqrt(2e308 + 1)
        # from 200-bit mpmath
        (3.0, [-1e308, 0.0], 1.2071067811865476e-154),
    ], ids=["1.5", "1.9", "2.5", "3", "4", "3-difference"])
    def test_finite_where_p_overflows(self, q, values, expected):
        # f'(a) = [1 + (q-1) a]^((2-q)/(q-1)) on {0}; p/base was nan or inf here
        assert partition_derivative(1e308, Spectrum(values), QParam(q)) == pytest.approx(
            expected, rel=1e-13, abs=0)

    def test_an_overflowing_sum_is_inf_without_a_warning(self):
        # each term, 5e307, is finite; their sum overflowed outside the kernel's error
        # state, and the test configuration makes that RuntimeWarning an error
        assert partition_derivative(1e308, Spectrum([0.0] * 4), QParam(1.5)) == math.inf


class TestFeasibility:
    def test_pair_feasible(self):
        rep = feasibility(PAIR, QParam(2))
        assert rep.endpoint_value == pytest.approx(0.4, abs=1e-15)
        assert rep.feasible

    def test_wide_pair_infeasible(self):
        rep = feasibility(Spectrum([0.0, 2.0]), QParam(2))
        assert rep.endpoint_value == pytest.approx(2.0, abs=1e-15)
        assert not rep.feasible

    def test_flat_spectrum_feasible(self):
        rep = feasibility(Spectrum([0.7, 0.7, 0.7]), QParam(2.5))
        assert rep.endpoint_value == 0.0
        assert rep.feasible

    def test_trivial_below_one(self):
        for q in (0.5, 1.0):
            rep = feasibility(Spectrum([0.0, 5.0]), QParam(q))
            assert rep.endpoint_value == 0.0
            assert rep.feasible

    def test_overflowing_sums_are_infinite_and_infeasible(self):
        rep = feasibility(Spectrum([0.0, 1e300]), QParam(1.5))
        assert rep.endpoint_value == math.inf
        assert not rep.feasible


def count_endpoint_sums(monkeypatch):
    """A list that grows by one for each exact endpoint sum formed from here on."""
    calls, exact = [], shift._endpoint_sum

    def counted(*args):
        calls.append(None)
        return exact(*args)

    monkeypatch.setattr(shift, "_endpoint_sum", counted)
    return calls


def solve_outcome(spectrum, q):
    """The exception type a solve at q raises, or its solution, which must meet the contract."""
    try:
        solution = solve_shift(spectrum, QParam(q))
    except (InfeasibleError, ConvergenceError) as exc:
        return type(exc)
    assert abs(solution.residual) <= shift.RESIDUAL_BOUND
    return solution


class TestFeasibilityCertificate:
    """How a q > 1 solve decides from its bracket that a root exists, and when it forms
    the exact endpoint sum."""

    @pytest.mark.parametrize("q", [1.0 + 1e-9, 1.0 + 1e-5, 1.001, 1.05])
    def test_near_one_forms_no_endpoint_sum(self, monkeypatch, q):
        rng = np.random.default_rng(89)
        spectra = [recipe_spectrum(rng, q) for _ in range(60)]
        spectra += [Spectrum(1e4 + spectrum.as_array()) for spectrum in spectra[:20]]
        spectra += [Spectrum([0.37]), Spectrum([0.7, 0.7, 0.7])]
        calls = count_endpoint_sums(monkeypatch)
        outcomes = [solve_outcome(spectrum, q) for spectrum in spectra]
        # x_min - z_2W lies far above the endpoint x_max - 1/(q - 1)
        assert len(calls) == 0
        # within 1e-9 of q = 1 most of these raise ConvergenceError at the rounding floor
        assert any(isinstance(outcome, shift.ShiftSolution) for outcome in outcomes)

    @given(w=st.integers(min_value=1, max_value=300),
           log_span=st.floats(min_value=-300.0, max_value=300.0),
           q=st.floats(min_value=1.0, max_value=50.0, exclude_min=True),
           offset=st.floats(min_value=-1e8, max_value=1e8),
           spread=st.sampled_from(["half at x_min", "two points", "uniform"]),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_infeasible_exactly_where_the_endpoint_sum_exceeds_one(self, w, log_span, q, offset,
                                                                    spread, seed):
        # states at x_min reach the largest term
        rng = np.random.default_rng(seed)
        u = rng.random(w)
        if spread == "half at x_min":
            u[1:][u[1:] < 0.5] = 0.0
        elif spread == "two points":
            u = (u < rng.random()).astype(float)
        u[0] = 1.0
        spectrum = Spectrum(offset + 10.0**log_span * u)
        outcome = solve_outcome(spectrum, q)
        assert (outcome is InfeasibleError) == (not feasibility(spectrum, QParam(q)).feasible)

    def test_infeasible_exactly_where_the_endpoint_sum_exceeds_one_near_the_boundary(self):
        # two-point spectra whose endpoint sums lie within a relative 1e-12 of 1, at offsets
        # up to 1e8: a pass within the tolerance of f = 1 there proves no root
        rng = np.random.default_rng(113)
        infeasible = 0
        for _ in range(400):
            w, qm1 = int(rng.integers(2, 301)), math.exp(rng.uniform(math.log(1e-3), math.log(49.0)))
            at_min = int(rng.integers(1, w))
            total = math.exp(rng.normal() * 1e-12)  # the endpoint sum at qm1 span = at_min^qm1
            span = (total / at_min) ** qm1 / qm1
            offset = float(rng.choice([-1.0, 0.0, 1.0])) * 10.0 ** rng.uniform(-3.0, 8.0)
            spectrum = Spectrum(offset + np.r_[np.zeros(at_min), np.full(w - at_min, span)])
            feasible = feasibility(spectrum, QParam(1.0 + qm1)).feasible
            infeasible += not feasible
            assert (solve_outcome(spectrum, 1.0 + qm1) is InfeasibleError) == (not feasible)
        assert 100 <= infeasible <= 300

    @pytest.mark.parametrize("values, q", [
        ([0.0] * 140 + [1.1930980478475088] * 4, 1.2471366029316306),
        ([-28.416160795487777] * 2 + [-28.167253872392003] * 7, 2.4601777426084714),
    ])
    def test_a_pass_within_the_tolerance_proves_no_root(self, values, q):
        # the endpoint sum exceeds 1 by less than the tolerance, and the first pass, on
        # the endpoint, meets it
        spectrum = Spectrum(values)
        assert 1.0 < feasibility(spectrum, QParam(q)).endpoint_value < 1.0 + 1e-12
        with pytest.raises(InfeasibleError):
            solve_shift(spectrum, QParam(q))

    def test_a_pass_rounded_below_one_proves_no_root(self, monkeypatch):
        # an endpoint sum of 1 + 3e-8 on states 2.5e-10 apart at an offset of -12: probes
        # within the rounding of the endpoint drop the x_max term, and f there rounds below
        # 1, so that steps and bisections towards it end outside the contract only after 47
        # passes.  The first Newton step from f > 1 reaches the endpoint, and the sum decides
        spectrum = Spectrum([-12.000060429848038] * 15 + [-12.000060429599072] * 25)
        q = 8.425556653765577
        assert feasibility(spectrum, QParam(q)).endpoint_value > 1.0
        passes, pass_ = [], shift._sum_pass
        monkeypatch.setattr(shift, "_sum_pass", lambda *args: passes.append(None) or pass_(*args))
        with pytest.raises(InfeasibleError):
            solve_shift(spectrum, QParam(q))
        assert len(passes) <= 2

    @pytest.mark.parametrize("values, q", [
        ([-1e308, 1e308], 1.0 + 1e-9),   # the span overflows to inf
        ([0.0, 1e300], 1.5),             # qm1 span finite, far above 1
        ([1e308, 1.5e308, 1.7e308], 1.5),  # the mean overflows
    ])
    def test_degenerate_inputs_fall_back_to_the_exact_sum(self, values, q):
        spectrum = Spectrum(values)
        if feasibility(spectrum, QParam(q)).feasible:
            assert abs(solve_shift(spectrum, QParam(q)).residual) <= 1e-10
        else:
            with pytest.raises(InfeasibleError):
                solve_shift(spectrum, QParam(q))

    @pytest.mark.parametrize("values, q", [
        ([0.37], 1.5),                   # W = 1
        ([0.7, 0.7, 0.7], 1.001),        # a span of 0
        ([-2.5] * 4, 3.0),               # and where the moment model is undefined
        ([0.0, 5e-324], 1.25),           # qm1 span underflows to 0, and so does its power
    ])
    def test_zero_endpoint_sums_are_certified(self, monkeypatch, values, q):
        # the exact sum is 0, and the bracket shows a root without forming it
        spectrum = Spectrum(values)
        assert feasibility(spectrum, QParam(q)).endpoint_value == 0.0
        calls = count_endpoint_sums(monkeypatch)
        assert abs(solve_shift(spectrum, QParam(q)).residual) <= 1e-10
        assert len(calls) == 0

    def test_forms_no_endpoint_sum_on_the_benchmark_spectra_at_three_halves(self, monkeypatch):
        # uniform gaps at an endpoint sum of 0.25, where lo is the endpoint: the first pass
        # shows f(a) less its x_max term below 1
        x = np.random.default_rng(1).random(10**4)
        spectrum = Spectrum(x * (0.25 / oracles.endpoint_sum(x, 1.5)) ** 0.5)
        lo = spectrum.x_min - shift._z(math.log(2.0 * spectrum.W), 0.5)
        assert domain_interval(spectrum, QParam(1.5))[0] > lo
        calls = count_endpoint_sums(monkeypatch)
        assert abs(solve_shift(spectrum, QParam(1.5)).residual) <= 1e-10
        assert len(calls) == 0


class TestSolveShift:
    def test_closed_form_q2(self):
        sol = solve_shift(PAIR, QParam(2))
        assert sol.a0 == pytest.approx(-0.3, abs=1e-15)
        # f is linear at q = 2, and the moment-model start is its root
        assert sol.iterations == 1

    def test_closed_form_classical(self):
        sol = solve_shift(UNIT, QParam(1))
        assert sol.a0 == pytest.approx(-math.log(1 + math.exp(-1)), abs=1e-15)

    def test_subunit_against_bisection_oracle(self):
        sol = solve_shift(UNIT, QParam(0.5))
        expected = oracles.solve_shift([0.0, 1.0], 0.5)
        assert sol.a0 == pytest.approx(expected, abs=1e-10)
        # frozen from an independent 40-digit root solve
        assert sol.a0 == pytest.approx(-0.45332625271905566, abs=1e-12)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            solve_shift(Spectrum([0.0, 2.0]), QParam(2))

    def test_single_state_closed_form(self):
        for q in (0.3, 1.0, 2.0, 2.9):
            sol = solve_shift(Spectrum([0.37]), QParam(q))
            assert sol.a0 == 0.37
            assert sol.iterations == 1

    def test_boundary_endpoint_value_exactly_one(self):
        # endpoint sum for {0, 1} at q = 2 is exactly 1: root sits on the endpoint, where
        # the iteration starts, and its first pass confirms it
        sol = solve_shift(UNIT, QParam(2))
        assert sol.a0 == 0.0
        assert abs(sol.residual) <= 1e-10
        assert (sol.iterations, sol.bracket) == (1, (0.0, 0.0))
        # one ulp wider the sum exceeds 1, and one ulp narrower the root lies inside the
        # domain; the exact sum decides each
        with pytest.raises(InfeasibleError):
            solve_shift(Spectrum([0.0, 1.0 + 2.0**-52]), QParam(2))
        inside = solve_shift(Spectrum([0.0, 1.0 - 2.0**-53]), QParam(2))
        assert inside.a0 > -2.0**-53
        assert abs(inside.residual) <= 1e-10

    @pytest.mark.parametrize("values, q", [
        ([0.0] * 2 + [3.1343995066786614] * 80, 1.2654265161063123),
        ([0.0] * 3 + [0.4017507525898788, 0.6618208565692297], 1.6786475069835154),
    ])
    def test_endpoint_root_below_x_min(self, values, q):
        # the endpoint sums round to exactly 1, and the endpoint lies below x_min, under the
        # moment-model start.  Once a step forms the sum, the steps start again on the
        # endpoint, whose first pass confirms it; else they settle a few ulps above it
        spectrum = Spectrum(values)
        assert feasibility(spectrum, QParam(q)).endpoint_value == 1.0
        endpoint = domain_interval(spectrum, QParam(q))[0]
        solution = solve_shift(spectrum, QParam(q))
        assert (solution.a0, solution.iterations, solution.bracket) == (endpoint, 1, (endpoint, 0.0))
        assert abs(solution.residual) <= 2.0**-52

    @pytest.mark.parametrize("values, q", [([0.0, 0.5], 3.0), ([0.0, 0.25], 5.0)])
    def test_endpoint_root_where_the_slope_is_singular(self, values, q):
        # the endpoint sum is exactly 1, and f' is singular at the endpoint, where the
        # iteration starts; its first pass confirms the root
        spectrum = Spectrum(values)
        assert feasibility(spectrum, QParam(q)).endpoint_value == 1.0
        solution = solve_shift(spectrum, QParam(q))
        assert (solution.a0, solution.iterations) == (0.0, 1)
        assert abs(solution.residual) <= 1e-12

    def test_residual_contract_and_domain_placement(self):
        rng = np.random.default_rng(23)
        cases = [(Spectrum(rng.uniform(0, 1, rng.integers(1, 64)).tolist()),
                  QParam(rng.uniform(0.1, 0.9))) for _ in range(150)]
        cases += HUGE_RANGES
        for spectrum, q in cases:
            sol = solve_shift(spectrum, q)
            assert sol.iterations <= 8
            assert abs(sol.residual) <= 1e-10
            assert sol.a0 <= spectrum.x_min - 1.0 / (q.q - 1.0)
            assert abs(partition_value(sol.a0, spectrum, q) - 1.0) <= 1e-10

    def test_shift_equivariance(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            values = rng.uniform(0, 1, rng.integers(2, 32)).tolist()
            q = QParam(float(rng.uniform(0.1, 0.9)))
            offset = float(rng.uniform(-5, 5))
            base_dist, base_sol = shifted_distribution(Spectrum(values), q)
            moved_dist, moved_sol = shifted_distribution(Spectrum(np.add(values, offset)), q)
            assert moved_sol.a0 == pytest.approx(base_sol.a0 + offset, abs=1e-10)
            np.testing.assert_allclose(
                moved_dist.as_array(), base_dist.as_array(), rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("offset", [0.0, 1e4, -1e4, 1e6])
    @pytest.mark.parametrize("span", [1e-3, 1.0, 1e3])
    def test_classical_closed_form_within_two_ulps(self, span, offset):
        values = np.random.default_rng(41).uniform(0.0, span, 100_000) + offset
        expected = oracles.classical_shift(values.tolist())
        assert abs(solve_shift(Spectrum(values), QParam(1)).a0 - expected) <= 2 * math.ulp(expected)

    @pytest.mark.parametrize("q", [0.5, 0.8, 1.0, 1.5, 2.0])
    def test_peak_memory_is_two_arrays(self, q):
        w = 100_000
        # a span of 1e-6 keeps q = 1.5 and q = 2 feasible at this W
        spectrum = Spectrum(np.random.default_rng(43).uniform(0.0, 1e-6, w))
        tracemalloc.start()
        try:
            for solve in (solve_shift, shifted_distribution):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                solve(spectrum, QParam(q))
                assert tracemalloc.get_traced_memory()[1] - before <= 2 * 8 * w + 64 * 1024
        finally:
            tracemalloc.stop()

    @staticmethod
    def _count_passes(monkeypatch):
        """A list whose length counts the kernel passes, not their blocks, of every later solve."""
        passes, summed = [], shift._sum_pass

        def counted(*args, **kwargs):
            passes.append(None)
            return summed(*args, **kwargs)

        monkeypatch.setattr(shift, "_sum_pass", counted)
        return passes

    def test_kernel_pass_count_over_seeded_spectra(self, monkeypatch):
        rng = np.random.default_rng(59)
        cases = [(recipe_spectrum(rng, q), QParam(q))
                 for q in (0.3, 0.5, 0.8, 1.0 + 1e-5, 1.0 - 1e-5, 1.5, 2.5, 3.0) for _ in range(50)]
        passes = self._count_passes(monkeypatch)
        for spectrum, q in cases:
            _, solution = shifted_distribution(spectrum, q)
            assert abs(solution.residual) <= 1e-10
        # 810 passes measured; 1225 from the start x_max - z_W, 1682 from there
        # without the ulp and rounding-floor stops, and Newton steps on f itself took 2401
        assert len(passes) <= 810

    @pytest.mark.parametrize("q", [1.0 + 1e-5, 1.0 - 1e-5])
    def test_near_one_stops_at_the_rounding_floor(self, monkeypatch, q):
        # f - 1 is a rounding staircase a few 1e-12 high here, which the default
        # tol of 1e-12 alone would bisect through to float exhaustion
        rng = np.random.default_rng(83)
        floor = max(1e-12, 2.0**-53 / abs(q - 1.0))
        passes = self._count_passes(monkeypatch)
        for _ in range(150):
            spectrum = recipe_spectrum(rng, q)
            passes.clear()
            _, solution = shifted_distribution(spectrum, QParam(q))
            assert len(passes) <= 4
            assert abs(solution.residual) <= floor

    def test_newton_step_below_one_ulp_stops(self, monkeypatch):
        # the third pass finds the root to within half an ulp of a; bisecting the
        # bracket down to that float again took 23 passes
        x = np.random.default_rng(0).random(200)
        spectrum = Spectrum(x * (0.25 / oracles.endpoint_sum(x, 3.0)) ** 2)
        passes = self._count_passes(monkeypatch)
        solution = solve_shift(spectrum, QParam(3.0))
        assert len(passes) <= 4
        assert solution.a0 == float.fromhex("-0x1.fffc7075aa18fp-2")

    def test_which_inputs_solve_at_extreme_q(self):
        # which recipe inputs meet the bound and which raise ConvergenceError: a stop
        # that ends a solve early may shorten a failure, never change the outcome
        failing = {
            1.0 - 1e-7: [1, 5, 10, 14, 19, 26, 36],
            1.0 + 1e-7: [1, 5, 8, 26, 36, 38],
            4.0: [32, 39],
            5.0: [2, 12, 17, 21, 23, 25, 28, 32, 33, 34, 37, 39],
            10.0: [0, 2, 3, 4, 6, 9, 11, 12, 13, 15, 16, 17, 19, 20, 21, 22, 23, 24, 25, 27, 28,
                   29, 30, 31, 32, 33, 34, 35, 37, 39],
        }
        for q, expected in failing.items():
            rng = np.random.default_rng(61)
            failed = []
            for i in range(40):
                spectrum = recipe_spectrum(rng, q)
                try:
                    _, solution = shifted_distribution(spectrum, QParam(q))
                except ConvergenceError:
                    failed.append(i)
                    continue
                assert abs(solution.residual) <= shift.RESIDUAL_BOUND
            assert failed == expected, q

    @pytest.mark.parametrize("w", [2, 10, 256])
    def test_classical_solve_takes_one_pass(self, monkeypatch, w):
        # the q = 1 start is the log-sum-exp root, whose sum is one pass at x_min, and
        # the first pass of the iteration confirms it
        spectrum = Spectrum(np.random.default_rng(w).random(w))
        passes = self._count_passes(monkeypatch)
        solution = solve_shift(spectrum, QParam(1))
        assert len(passes) == 2 and solution.iterations == 1
        assert abs(solution.residual) <= 1e-12

    def test_classical_root_is_the_log_sum_exp_bit_for_bit(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            x = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-3, 6) + rng.random(
                int(rng.integers(1, 300))) * 10.0 ** rng.uniform(-3, 3)
            x_min = float(np.min(x))
            expected = x_min - math.log(float(np.add.reduce(np.exp(x_min - x))))
            assert solve_shift(Spectrum(x), QParam(1)).a0 == expected

    def test_q2_at_a_large_offset_solves(self):
        # f is linear here, but its closed-form root (1 - W + sum x)/W rounds to a
        # residual of 3.49e-10 at this offset; Newton steps from the start reach 0
        solution = solve_shift(Spectrum([1e6, 1e6 + 0.0005, 1e6 + 0.001]), QParam(2))
        assert abs(solution.residual) <= 1e-10
        assert solution.a0 == pytest.approx(999999.3338333333, rel=0, abs=1e-9)

    @pytest.mark.parametrize("q", [0.5, 1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("spectrum", [Spectrum([0.37]), Spectrum([0.2] * 50)],
                             ids=["single", "flat"])
    def test_exact_start_takes_one_pass(self, monkeypatch, spectrum, q):
        # the start is the root itself for W = 1 and a flat spectrum: the moment-model
        # start, and at q = 1 the log-sum-exp root, whose sum is one more pass
        passes = self._count_passes(monkeypatch)
        solution = solve_shift(spectrum, QParam(q))
        assert len(passes) == 1 + (q == 1.0) and solution.iterations == 1
        assert abs(solution.residual) <= 1e-12

    def test_recipe_spectra_at_three_halves_solve_in_one_pass(self, monkeypatch):
        # e_q is quadratic at q = 3/2, so the second-order moment model is f itself
        # wherever no base is cut off: at every root above the domain endpoint
        rng = np.random.default_rng(89)
        spectra = [recipe_spectrum(rng, 1.5) for _ in range(100)]
        passes = self._count_passes(monkeypatch)
        for spectrum in spectra:
            passes.clear()
            solution = solve_shift(spectrum, QParam(1.5))
            assert len(passes) == 1
            assert abs(solution.residual) <= 1e-12

    def test_pass_counts_at_a_million(self, monkeypatch):
        # one uniform[0, 1) draw, scaled to an endpoint sum of 0.25 at q > 1; the start
        # x_max - z_W took 2, 2, 3 and 4 passes
        x = np.random.default_rng(1).random(10**6)
        expected = {0.3: 1, 0.5: 1, 0.8: 2, 1.5: 1}
        passes = self._count_passes(monkeypatch)
        for q, count in expected.items():
            values = x * (0.25 / oracles.endpoint_sum(x, q)) ** (q - 1.0) if q > 1.0 else x
            passes.clear()
            solution = solve_shift(Spectrum(values), QParam(q))
            assert len(passes) == count, q
            assert abs(solution.residual) <= 1e-12

    def test_model_start(self):
        # exact at q = 3/2, where f(a) = W (b^2 + s2/4) with b = 1 - (m - a)/2
        x = np.random.default_rng(97).random(2000) * 0.01
        m, s2 = float(np.mean(x)), float(np.var(x))
        exact = m - 2.0 * (1.0 - math.sqrt(1.0 / x.size - s2 / 4.0))
        moments = shift._moments(core._blocks(x), x.size)
        assert moments[1] == pytest.approx(s2 * x.size, rel=1e-13)
        assert shift._model_start(x.size, *moments, 0.5) == pytest.approx(exact, rel=0, abs=1e-15)
        # undefined where c/b^2 = -2 (q = 3), and beyond a double at q = 300: both
        # fall back to Jensen's m - z_W
        for values, qm1 in (([0.0, 1.0], 2.0), ([0.0] + [1e-300] * 99, 299.0)):
            x = np.array(values)
            jensen = float(np.mean(x)) - shift._z(math.log(x.size), qm1)
            moments = shift._moments(core._blocks(x), x.size)
            assert shift._model_start(x.size, *moments, qm1) == jensen

    @pytest.mark.parametrize("q, values", [
        (30.0, [1e-300] + [0.0] * 99),  # f underflows to 0 at a probe, where log1p raises
        (300.0, [0.0] + [1e-300] * 99),  # f^(q-1) overflows a double at a probe
        (3000.0, [0.0] + [1e-300] * 99),  # so does the start's W^(2(q-1))
        (30.0, [1e308] * 3),  # the mean overflows to inf, and the start with it
    ], ids=["f-underflows", "h-overflows", "start-overflows", "mean-overflows"])
    def test_extreme_transform_gives_a_typed_result(self, q, values):
        try:
            solution = solve_shift(Spectrum(values), QParam(q))
        except ConvergenceError:
            return  # the root lies closer to the endpoint than one ulp of a resolves
        assert abs(solution.residual) <= 1e-10

    @pytest.mark.parametrize("q", [0.3, 0.8, 1.0 - 1e-5, 1.0, 1.0 + 1e-5, 1.5, 2.0, 3.0])
    def test_residual_is_f_minus_one(self, q):
        rng = np.random.default_rng(73)
        for _ in range(20):
            x = rng.random(int(rng.integers(2, 100)))
            if q > 1.0 and oracles.endpoint_sum(x, q) > 0.25:
                x = x * (0.25 / oracles.endpoint_sum(x, q)) ** (q - 1.0)
            spectrum = Spectrum(x)
            solution = solve_shift(spectrum, QParam(q))
            assert solution.residual == partition_value(solution.a0, spectrum, QParam(q)) - 1.0

    @pytest.mark.parametrize("q", [0.5, 1.0, 1.5])
    def test_residual_is_f_minus_one_over_several_blocks(self, q):
        # partition_value is the solve's own blocked pass, so the sums of several blocks
        # round alike in both; a whole-array sum missed this identity in 1 of these 4
        rng = np.random.default_rng(3)
        for _ in range(4):
            x = rng.random(int(rng.integers(2**15 + 1, 2**17)))
            spectrum = Spectrum(x * 1e-3 if q > 1.0 else x)  # feasible at q = 1.5
            assert len(core._blocks(spectrum.as_array())) > 1
            solution = solve_shift(spectrum, QParam(q))
            assert solution.residual == partition_value(solution.a0, spectrum, QParam(q)) - 1.0

    @staticmethod
    def _spy_lowest(monkeypatch):
        """A list of (lowest, np.minimum.reduce(base)) pairs, one per later kernel pass."""
        seen, kernel = [], shift._deformed_exp

        def spied(base, qm1, lowest, out):
            seen.append((lowest, np.minimum.reduce(base)))
            return kernel(base, qm1, lowest, out)

        monkeypatch.setattr(shift, "_deformed_exp", spied)
        return seen

    def test_lowest_is_the_smallest_base_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(67)
        cases = []
        for q in (0.3, 0.5, 0.8, 1.0 - 1e-5, 1.0 + 1e-5, 1.5, 2.0, 3.0, 10.0):
            for offset in (0.0, -3.0, 1e8):
                for span in (1e-3, 1e-1, 1e1, 1e3):
                    x = offset + span * rng.random(int(rng.integers(2, 60)))
                    if q > 1.0 and oracles.endpoint_sum(x, q) > 0.25:
                        scale = (0.25 / oracles.endpoint_sum(x, q)) ** (q - 1.0)
                        x = x.min() + (x - x.min()) * scale
                    cases.append((Spectrum(x), QParam(q)))
        # within 1e-9 of q = 1 these bisect through f's rounding noise to the last float
        cases += [(Spectrum(values), QParam(q)) for q in (1.0 - 1e-9, 1.0 + 1e-9)
                  for values in FAILING_SLICE]
        seen = self._spy_lowest(monkeypatch)
        for spectrum, q in cases:
            try:
                solve_shift(spectrum, q)
            except ConvergenceError:
                pass  # offset 1e8 with a span of 1e-3 can sit below the rounding of f
        assert len(seen) > 4 * len(cases)
        for lowest, smallest in seen:
            assert np.float64(lowest).tobytes() == smallest.tobytes()

    def test_one_error_state_per_solve(self, monkeypatch):
        rng = np.random.default_rng(71)
        x = rng.random(200)
        cases = [(Spectrum(x), 0.5), (Spectrum(x), 1.0),
                 (Spectrum(x * 1e-4), 2.0), (Spectrum([0.0, 1.0]), 2.0),
                 (Spectrum(x * (0.25 / oracles.endpoint_sum(x, 3.0)) ** 2), 3.0),
                 # ConvergenceError: f cannot resolve its root in doubles, and a Newton
                 # step rounds back to its point on the second pass
                 (Spectrum(x * (0.25 / oracles.endpoint_sum(x, 5.0)) ** 4), 5.0),
                 # 33 passes through f's rounding noise, then ConvergenceError
                 (Spectrum([0.0, 0.4, 1.3]), 1.0 - 1e-9),
                 (Spectrum([-1e308, 1e308]), 0.5)]
        made, errstate = [], np.errstate

        def counted(**kwargs):
            made.append(kwargs)
            return errstate(**kwargs)

        monkeypatch.setattr(np, "errstate", counted)
        passes = self._count_passes(monkeypatch)
        most = 0
        for spectrum, q in cases:
            for solve in (lambda: solve_shift(spectrum, QParam(q)),
                          lambda: shifted_distribution(spectrum, QParam(q))):
                made.clear()
                passes.clear()
                try:
                    solve()
                except ConvergenceError:
                    assert q in (5.0, 1.0 - 1e-9)
                assert made == [{"over": "ignore", "divide": "ignore", "invalid": "ignore"}]
                most = max(most, len(passes))
        assert most >= 16

    @pytest.mark.parametrize("q", [0.5, 1.5])
    def test_only_stepping_passes_compute_the_slope(self, monkeypatch, q):
        # a pass that meets tol ends the iteration, so it needs no f': no divide
        # and no second sum; and no pass reduces the base for its minimum.  A span
        # of 100, and at q > 1 an endpoint sum of 0.9, put the moment-model start
        # a Newton step from the root; on uniform[0, 1) it is the root at this W
        x = 100.0 * np.random.default_rng(79).random(10**6)
        if q > 1.0:
            x = x * (0.9 / oracles.endpoint_sum(x, q)) ** (q - 1.0)
        spectrum = Spectrum(x)
        blocks = len(core._blocks(x))
        events, slope_sum, slope, divide = [], shift._slope_sum, shift._slope, np.divide
        minimum = np.minimum

        class Minimum:
            def reduce(self, *args, **kwargs):
                events.append("minimum")
                return minimum.reduce(*args, **kwargs)

        def spied_slope_sum(*args):
            events.append("slope pass")
            return slope_sum(*args)

        def spied_slope(*args):
            events.append("slope")
            return slope(*args)

        def spied_divide(*args, **kwargs):
            events.append("divide")
            return divide(*args, **kwargs)

        monkeypatch.setattr(shift, "_slope_sum", spied_slope_sum)
        monkeypatch.setattr(shift, "_slope", spied_slope)
        monkeypatch.setattr(np, "divide", spied_divide)
        monkeypatch.setattr(np, "minimum", Minimum())
        passes = self._count_passes(monkeypatch)
        solution = solve_shift(spectrum, QParam(q))
        steps = len(passes) - 1
        assert abs(solution.residual) <= 1e-12 and steps >= 1 and blocks > 1
        assert "minimum" not in events
        assert events.count("slope pass") == steps
        # one slope, and its one divide, per block of each stepping pass
        assert events.count("slope") == events.count("divide") == steps * blocks

    @pytest.mark.parametrize("span, q, passes_made", [(1.0, 0.5, 1), (1.0, 1.0, 2),
                                                      (100.0, 0.5, None), (100.0, 1.5, None)])
    def test_each_base_is_formed_once_per_pass_and_slope(self, monkeypatch, span, q,
                                                         passes_made):
        # the measure is summed in the pass, block by block, while each base is in the
        # scratch; only the slope's loop forms the bases of several blocks again.  The
        # span-100 spectra are those of test_only_stepping_passes_compute_the_slope
        x = span * np.random.default_rng(79 if span > 1.0 else 1).random(10**6)
        if q > 1.0:
            x = x * (0.9 / oracles.endpoint_sum(x, q)) ** (q - 1.0)
        blocks = len(core._blocks(x))
        bases, slope_sums, base, slope_sum = [], [], shift._base, shift._slope_sum

        def counted_base(*args):
            bases.append(None)
            return base(*args)

        def counted_slope_sum(*args):
            slope_sums.append(None)
            return slope_sum(*args)

        monkeypatch.setattr(shift, "_base", counted_base)
        monkeypatch.setattr(shift, "_slope_sum", counted_slope_sum)
        passes = self._count_passes(monkeypatch)
        dist, solution = shifted_distribution(Spectrum(x), QParam(q))
        assert abs(solution.residual) <= 1e-12 and dist._measured is not None and blocks > 1
        assert len(passes) == passes_made if passes_made else len(slope_sums) >= 1
        assert len(bases) == blocks * len(passes) + blocks * len(slope_sums)

    @pytest.mark.parametrize("values, q", [
        (np.linspace(0.0, 1.0, 30), 0.5),  # the Newton iteration
        (np.linspace(0.0, 1.0, 30), 1.0),  # from the q = 1 start, the closed-form root
        ([0.0, 1.0], 2.0),  # the q > 1 domain endpoint, where f(endpoint) = 1
    ], ids=["generic", "closed-form", "endpoint"])
    def test_nan_residual_is_not_a_solution(self, monkeypatch, values, q):
        # the solve ignores invalid values, so a NaN f must fail its residual check
        kernel = shift._deformed_exp

        def poisoned(*args):
            p = kernel(*args)
            p *= math.nan
            return p

        monkeypatch.setattr(shift, "_deformed_exp", poisoned)
        with pytest.raises(ConvergenceError):
            solve_shift(Spectrum(values), QParam(q))

    def test_iteration_budget_is_respected(self, monkeypatch):
        # this solve takes 4 passes; after 3 its residual is 3e-6
        monkeypatch.setattr(shift, "_SHIFT_PASSES", 3)
        with pytest.raises(ConvergenceError):
            solve_shift(Spectrum([0.0, 1.0, 2.0, 50.0]), QParam(0.5), tol=1e-15)


class TestShiftedDistribution:
    def test_pair_example(self):
        dist, sol = shifted_distribution(PAIR, QParam(2))
        assert dist.probs[0] == pytest.approx(0.7, abs=1e-12)
        assert dist.probs[1] == pytest.approx(0.3, abs=1e-12)
        assert sol.a0 == pytest.approx(-0.3, abs=1e-15)

    def test_flat_spectrum_is_uniform(self):
        for q in (0.4, 1.0, 1.8):
            dist, _ = shifted_distribution(Spectrum([0.2, 0.2, 0.2, 0.2]), QParam(q))
            np.testing.assert_allclose(dist.as_array(), 0.25, rtol=0, atol=1e-12)

    def test_classical_softmax(self):
        dist, _ = shifted_distribution(UNIT, QParam(1))
        z = 1 + math.exp(-1)
        assert dist.probs[0] == pytest.approx(1 / z, abs=1e-12)
        assert dist.probs[1] == pytest.approx(math.exp(-1) / z, abs=1e-12)

    @pytest.mark.parametrize("q", [0.5, 1.0])
    def test_overflowing_span_below_one(self, q):
        # x_i - a and the q = 1 start's x_min - x_i overflowed with a
        # RuntimeWarning; the inf difference's term is exactly 0
        dist, solution = shifted_distribution(Spectrum([-1e308, 1e308]), QParam(q))
        assert dist.probs == (1.0, 0.0)
        assert solution.residual == 0.0

    def test_overflowing_span_above_one_is_infeasible(self):
        # feasibility's gaps overflowed with a RuntimeWarning before it raised
        with pytest.raises(InfeasibleError):
            shifted_distribution(Spectrum([-1e308, 1e308]), QParam(1.5))

    def test_probs_are_the_solves_own_last_pass(self, monkeypatch):
        rng = np.random.default_rng(53)
        # W = 1, q = 1 and q = 2 start at their roots
        cases = [(Spectrum([0.3]), 2.5), (Spectrum(rng.random(40)), 1.0),
                 (Spectrum(rng.random(40) * 0.01), 2.0)]
        for q in (0.5, 1.5, 2.5, 3.0):
            x = rng.random(int(rng.integers(2, 200)))
            cases.append((Spectrum(x * (0.25 / oracles.endpoint_sum(x, q)) ** (q - 1.0)
                                   if q > 1.0 else x), q))
        # at q = 1 - 1e-7 this solve bisects through f's rounding noise, and its best
        # point comes before its last pass, so the solve itself takes one more pass at a0
        cases.append((Spectrum(np.random.default_rng(1).random(10)), 1.0 - 1e-7))
        passes = 0
        kernel = shift._deformed_exp

        def counted(*args):
            nonlocal passes
            passes += 1
            return kernel(*args)

        monkeypatch.setattr(shift, "_deformed_exp", counted)
        for spectrum, q in cases:
            passes = 0
            solution = solve_shift(spectrum, QParam(q))
            solve_passes = passes
            passes = 0
            dist, same = shifted_distribution(spectrum, QParam(q))
            assert same == solution
            assert passes == solve_passes
            expected = kernel_pass(spectrum.as_array(), solution.a0, q)
            assert dist.as_array().tobytes() == expected.tobytes()
        assert solve_passes == solution.iterations + 1

    def test_list_and_array_inputs_give_identical_probs(self):
        values = np.random.default_rng(11).random(300)
        for q, scale in ((0.5, 1.0), (1.0, 1.0), (1.5, 0.01), (3.0, 1e-6)):
            xs = values * scale
            from_list = shifted_distribution(Spectrum(xs.tolist()), QParam(q))
            from_array = shifted_distribution(Spectrum(xs), QParam(q))
            assert from_list[0].probs == from_array[0].probs
            assert from_list[1] == from_array[1]

    def test_sum_and_order(self):
        rng = np.random.default_rng(37)
        cases = [(rng.uniform(0, 1, rng.integers(2, 48)).tolist(),
                  QParam(float(rng.uniform(0.15, 0.95)))) for _ in range(40)]
        cases += [(list(spectrum.values), q) for spectrum, q in HUGE_RANGES]
        for values, q in cases:
            dist, sol = shifted_distribution(Spectrum(values), q)
            assert all(0.0 <= p <= 1.0 for p in dist.probs)
            assert abs(math.fsum(dist.probs) - 1.0) <= 1e-10
            # larger value => smaller probability, in the input order
            order = np.argsort(values)
            probs = dist.as_array()[order]
            assert (np.diff(probs) <= 1e-15).all()


class TestBlocks:
    """A W-length pass runs over blocks of ``core._BLOCK`` elements, with one block's scratch."""

    @staticmethod
    def _solve(spectrum, q):
        """(outcome, kernel passes) of a solve: (solution, p, numerator), or the exception type."""
        passes, summed = [], shift._sum_pass

        def counted(*args):
            passes.append(None)
            return summed(*args)

        shift._sum_pass = counted
        try:
            return shift._solve(spectrum, QParam(q), shift._SHIFT_TOL), len(passes)
        except QentropyError as exc:
            return type(exc), len(passes)
        finally:
            shift._sum_pass = summed

    def _assert_as_one_block(self, monkeypatch, spectrum, q, block):
        """A solve in blocks of ``block`` matches one in one block, up to the roundings of sums."""
        monkeypatch.setattr(core, "_BLOCK", spectrum.W)
        one, one_passes = self._solve(spectrum, q)
        monkeypatch.setattr(core, "_BLOCK", block)
        blocked, passes = self._solve(spectrum, q)
        monkeypatch.undo()
        assert passes == one_passes
        if not isinstance(one, tuple):
            assert blocked is one
            return None
        (solution, p, numerator), (one_solution, one_p, one_numerator) = blocked, one
        assert solution.iterations == one_solution.iterations
        # both roots meet the stop rule |f - 1| <= max(tol, eps_q), eps_q near q = 1
        stop = 1e-12 if q == 1.0 else max(1e-12, min(2.0**-53 / abs(q - 1.0), 2.5e-11))
        slope = partition_derivative(one_solution.a0, spectrum, QParam(q))
        da0 = abs(solution.a0 - one_solution.a0)
        assert da0 <= 4 * math.ulp(one_solution.a0) + 2 * stop / slope
        # p is the kernel pass at its own a0, bit for bit.  It differs from the one-block
        # p by the slope dp/da = p^(2-q) times the difference in a0 and the rounding of
        # the base 1 - (q-1)(x - a), a few ulps of 1/|q-1| and of x - a in units of a
        with np.errstate(**shift._KERNEL_ERRORS):
            x = spectrum.as_array()
            expected = kernel_pass(x, solution.a0, q)
            steepest = (np.maximum if q <= 2.0 else np.minimum)(p, one_p) ** (2.0 - q)
            grain = 2.0**-51 * ((0.0 if q == 1.0 else 1.0 / abs(q - 1.0))
                                + np.abs(x - one_solution.a0))
            near = np.abs(p - one_p) <= (steepest * (1.01 * da0 + grain)
                                         + 2.0 * np.spacing(np.maximum(p, one_p)))
        assert p.tobytes() == expected.tobytes()
        assert near.all()
        assert (numerator is None) is (one_numerator is None)
        if numerator is not None:
            assert abs(numerator - one_numerator) <= 16 * math.ulp(one_numerator)
        return solution

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8, 1.0, 1.0 - 1e-5, 1.0 + 1e-5, 1.5, 2.0, 3.0,
                                   5.0])
    def test_blocks_of_eight_match_one_block(self, monkeypatch, q):
        rng = np.random.default_rng(113)
        spectra = [recipe_spectrum(rng, q) for _ in range(40)]
        spectra += [Spectrum(rng.random(w)) for w in (2, 7, 8, 9, 17, 300)]
        for spectrum in spectra:
            self._assert_as_one_block(monkeypatch, spectrum, q, 8)

    @pytest.mark.parametrize("w, q", [(10**5, 0.5), (10**5, 1.0 + 1e-5), (10**5, 2.0),
                                      (10**5, 3.0), (10**6, 0.5), (10**6, 0.8), (10**6, 1.0),
                                      (10**6, 1.5)])
    def test_many_blocks_match_one_block(self, monkeypatch, w, q):
        x = np.random.default_rng(127).random(w)
        if q >= 1.5:
            x = x * (0.25 / oracles.endpoint_sum(x, q)) ** (q - 1.0)
        spectrum = Spectrum(x)
        assert len(core._blocks(x)) > 1
        solution = self._assert_as_one_block(monkeypatch, spectrum, q, core._BLOCK)
        # q = 3 raises ConvergenceError at this W, in blocks as in one (ROADMAP item 2)
        assert (solution is None) is (q == 3.0)
        assert solution is None or abs(solution.residual) <= 1e-11

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8, 1.0 - 1e-5, 1.0, 1.0 + 1e-5, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("w", [core._BLOCK + 1, 10**5, 3 * core._BLOCK + 5])
    def test_measure_summed_in_the_pass_is_the_reformed_one(self, w, q):
        # each block's base formed again at a0 and dotted with its part of p, p . (base - 1)
        # with the shortfall of the whole p near q = 1, summed from -0.0 in block order.
        # This draw's q = 2 solves end on a pass that meets tol, so they record a measure
        rng = np.random.default_rng(137)
        if q == 3.0:
            # the solve in a resolves no q = 3 root above the endpoint at this W (ROADMAP
            # item 2): four states at 0 take p = 1/4 on the endpoint, where the rest are 0
            x = rng.permutation(np.where(np.arange(w) < 4, 0.0, 1.0 / 32.0))
        else:
            x = rng.random(w)
            if q > 1.0 + 1e-5:
                x = x * (0.9 / oracles.endpoint_sum(x, q)) ** (q - 1.0)
        solution, p, numerator = shift._solve(Spectrum(x), QParam(q), shift._SHIFT_TOL)
        assert len(core._blocks(x)) > 1 and numerator is not None
        near_one = q != 1.0 and abs(q - 1.0) < core._NEAR_ONE
        total = -0.0
        with np.errstate(**shift._KERNEL_ERRORS):
            for x_b, (base, p_b) in core._blocks(x, p):
                shift._base(x_b, solution.a0, q - 1.0, base)
                total += float(np.dot(p_b, base - 1.0 if near_one else base))
        r = float(np.add.reduce(p)) - 1.0 if near_one else solution.residual
        assert numerator.hex() == core._numerator(q, total, -r).hex()

    def test_blocks_are_nearly_equal_and_cover_x(self):
        x = np.arange(3 * core._BLOCK + 5.0)
        p = np.empty(x.size)
        blocks = core._blocks(x, p)
        lengths = [block.size for block, _ in blocks]
        assert len(blocks) == 4 and max(lengths) - min(lengths) <= 1 and sum(lengths) == x.size
        assert np.array_equal(np.concatenate([block for block, _ in blocks]), x)
        # one scratch of _BLOCK elements for every block, and each block's own part of p
        assert {scratch.base.size for _, (scratch, _) in blocks} == {core._BLOCK}
        assert len({scratch.base.ctypes.data for _, (scratch, _) in blocks}) == 1
        assert all(p_b.base is p for _, (_, p_b) in blocks)
        one = np.arange(core._BLOCK + 0.0)
        (block, (scratch, p)), = core._blocks(one, np.empty(one.size))
        assert block is one and scratch.size == one.size
