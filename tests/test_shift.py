"""Tests for the partition sum, feasibility, and the shift solver."""

import math
import tracemalloc

import numpy as np
import pytest

import oracles
from qentropy import (
    ConvergenceError,
    DomainError,
    InfeasibleError,
    QParam,
    SingularityError,
    SolveMethod,
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


class TestFeasibility:
    def test_pair_feasible(self):
        rep = feasibility(PAIR, QParam(2))
        assert rep.endpoint_value == pytest.approx(0.4, abs=1e-15)
        assert rep.sufficient_bound == pytest.approx(0.8, abs=1e-15)
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
        assert rep.sufficient_bound == math.inf
        assert not rep.feasible

    def test_bound_dominates_exact_value(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            values = rng.uniform(0, 1, rng.integers(1, 64)).tolist()
            rep = feasibility(Spectrum(values), QParam(rng.uniform(1.001, 3.0)))
            assert rep.endpoint_value <= rep.sufficient_bound


class TestSolveShift:
    def test_closed_form_q2(self):
        sol = solve_shift(PAIR, QParam(2))
        assert sol.a0 == pytest.approx(-0.3, abs=1e-15)
        assert sol.method is SolveMethod.CLOSED_FORM

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
            assert sol.method is SolveMethod.CLOSED_FORM

    def test_boundary_endpoint_value_exactly_one(self):
        # endpoint sum for {0, 1} at q = 2 is exactly 1: root sits on the endpoint
        sol = solve_shift(UNIT, QParam(2), use_closed_forms=False)
        assert sol.a0 == 0.0
        assert abs(sol.residual) <= 1e-10

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

    def test_generic_matches_closed_forms(self):
        rng = np.random.default_rng(29)
        for q in (1.0, 2.0):
            done = 0
            while done < 40:
                spectrum = Spectrum(rng.uniform(0, 1, rng.integers(2, 64)).tolist())
                qp = QParam(q)
                if not feasibility(spectrum, qp).feasible:
                    continue
                closed = solve_shift(spectrum, qp).a0
                generic = solve_shift(spectrum, qp, use_closed_forms=False).a0
                assert generic == pytest.approx(closed, abs=1e-10)
                done += 1

    def test_shift_equivariance(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            values = rng.uniform(0, 1, rng.integers(2, 32)).tolist()
            q = QParam(float(rng.uniform(0.1, 0.9)))
            offset = float(rng.uniform(-5, 5))
            base_dist, base_sol = shifted_distribution(Spectrum(values), q)
            moved_dist, moved_sol = shifted_distribution(Spectrum(values).shifted(offset), q)
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

    def test_iteration_budget_is_respected(self):
        with pytest.raises(ConvergenceError):
            solve_shift(UNIT, QParam(0.5), tol=1e-15, max_iter=3, use_closed_forms=False)


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
