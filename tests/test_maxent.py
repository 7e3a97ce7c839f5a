"""Tests for the maximizer at a given beta, beta inversion, and the escort solve."""

import math

import numpy as np
import pytest

import oracles
from qentropy import core, maxent, shift
from qentropy import (
    BracketError,
    ConvergenceError,
    Distribution,
    InfeasibleError,
    QentropyError,
    QParam,
    RangeError,
    Spectrum,
    escort_distribution,
    maxent_distribution,
    mean_energy,
    shifted_distribution,
    solve_beta,
    solve_shift,
    stationarity_residual,
    uncertainty,
)

PAIR = Spectrum([0.0, 0.4])
UNIT = Spectrum([0.0, 1.0])

# frozen from an independent 40-digit fixed-point solve of the escort
# equation at q_tilde = 0.8, energies {0, 1}, beta = 1
ESCORT_FIXED_POINT = (0.71399916017108332, 0.28600083982891668)
# a spectrum whose span, 2e308, overflows a double
OVERFLOWING_SPAN = Spectrum([-1e308, 1e308])
# a numpy scalar's comparison is an np.bool_, which no tuple index accepts
SCALAR_TYPES = [np.float64, np.float32, int]


def beta_problems(rng, qs):
    """(q, energies, target, beta*) on the benchmark's beta-inversion recipe, 8 per q.

    W is log-uniform in [16, 256], the span log-uniform in [0.5, 2], and beta*
    a fraction 0.1-0.8 of its reach, 4 on each side.
    """
    problems = []
    for q in qs:
        for sign in (1.0, -1.0) * 4:
            w = int(math.exp(rng.uniform(math.log(16), math.log(257))))
            span = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
            energies = Spectrum((rng.random(w) * span).tolist())
            u = float(rng.uniform(0.1, 0.8))
            if q > 1.0:
                cap_neg, cap_pos = oracles.feasible_beta_caps(energies.values, q)
                beta_star = u * (cap_pos if sign > 0.0 else cap_neg)
            else:
                beta_star = sign * u * 4.0 / (energies.x_max - energies.x_min)
            dist, _ = maxent_distribution(QParam(q), energies, beta_star)
            problems.append((QParam(q), energies, mean_energy(dist, energies), beta_star))
    return problems


def seeded_spectra(seed, n=20):
    """n spectra of 2-256 uniform values over a span drawn from [0.1, 5]."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield Spectrum(rng.random(int(rng.integers(2, 257))) * rng.uniform(0.1, 5.0))


def count_kernel_passes(monkeypatch) -> list:
    """A one-item list counting the kernel calls of every module that makes them.

    The kernels are the shift pass's ``_deformed_exp`` and the chart's ``_deformed_exp1p``.
    """
    passes = [0]

    def counting(kernel):
        def counted(*args, **kwargs):
            passes[0] += 1
            return kernel(*args, **kwargs)
        return counted

    for name in ("_deformed_exp", "_deformed_exp1p"):
        for module in (shift, maxent):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(getattr(module, name)))
    return passes


class TestMaxentDistribution:
    def test_pair_example(self):
        dist, _ = maxent_distribution(QParam(2), PAIR, 1.0)
        np.testing.assert_allclose(dist.as_array(), [0.7, 0.3], rtol=0, atol=1e-12)
        assert mean_energy(dist, PAIR) == pytest.approx(0.12, abs=1e-12)

    def test_zero_beta_is_uniform(self):
        for q in (0.5, 1.0, 2.5):
            dist, _ = maxent_distribution(QParam(q), Spectrum([0.0, 0.3, 0.9]), 0.0)
            np.testing.assert_allclose(dist.as_array(), 1.0 / 3.0, rtol=0, atol=1e-12)

    def test_classical_softmax(self):
        dist, _ = maxent_distribution(QParam(1), UNIT, 1.0)
        z = 1 + math.exp(-1)
        np.testing.assert_allclose(dist.as_array(), [1 / z, math.exp(-1) / z], rtol=0, atol=1e-14)

    def test_same_path_as_shifted_distribution(self):
        energies = Spectrum([0.1, 0.5, 0.8])
        qp = QParam(0.7)
        direct, sol_direct = shifted_distribution(energies.scaled(1.3), qp)
        via_maxent, sol_maxent = maxent_distribution(qp, energies, 1.3)
        assert via_maxent.probs == direct.probs
        assert sol_maxent.a0 == sol_direct.a0

    @pytest.mark.parametrize("scalar", SCALAR_TYPES)
    def test_scalar_types_of_beta(self, scalar):
        beta = scalar(1)
        dist, solution = maxent_distribution(QParam(1.5), Spectrum([0.0, 0.3, 1.0]), beta)
        want, want_solution = maxent_distribution(QParam(1.5), Spectrum([0.0, 0.3, 1.0]),
                                                  float(beta))
        assert dist.probs == want.probs
        assert solution == want_solution

    def test_overflowing_scaled_spectrum_is_a_range_error(self):
        # numpy's overflow warning escaped in place of the typed error, under the
        # repository's error::RuntimeWarning filter
        with pytest.raises(RangeError):
            Spectrum([0.0, 1e300]).scaled(1e10)
        with pytest.raises(RangeError):
            maxent_distribution(QParam(1.5), Spectrum([0.0, 1e300]), 1e10)


class TestSolveBeta:
    def test_uniform_mean_gives_zero_beta(self):
        energies = Spectrum([0.0, 0.3, 0.9])
        target = float(np.mean(energies.as_array()))
        beta, dist = solve_beta(QParam(0.6), energies, target)
        assert beta == 0.0
        np.testing.assert_allclose(dist.as_array(), 1.0 / 3.0, rtol=0, atol=1e-12)

    def test_pair_inverse_of_forward_example(self):
        beta, dist = solve_beta(QParam(2), PAIR, 0.12)
        assert beta == pytest.approx(1.0, abs=1e-6)
        assert mean_energy(dist, PAIR) == pytest.approx(0.12, abs=1e-10)

    def test_subunit_round_trip(self):
        beta, dist = solve_beta(QParam(0.5), UNIT, 0.4)
        assert abs(mean_energy(dist, UNIT) - 0.4) <= 1e-10
        check, _ = maxent_distribution(QParam(0.5), UNIT, beta)
        assert abs(mean_energy(check, UNIT) - 0.4) <= 1e-10

    @pytest.mark.parametrize("q", [0.5, 0.8, 1.0, 1.5, 2.0, 2.5])
    def test_round_trip_against_oracle_targets(self, q):
        rng = np.random.default_rng(53)
        for _ in range(15):
            values = rng.uniform(0, 1, rng.integers(2, 24)).tolist()
            if q > 1.0:
                cap_neg, cap_pos = oracles.feasible_beta_caps(values, q)
                cap = cap_pos if rng.random() < 0.5 else cap_neg
                beta_star = float(rng.uniform(0.05, 0.95)) * cap
            else:
                beta_star = float(rng.uniform(-3.0, 3.0))
            scaled = [beta_star * v for v in values]
            a0 = oracles.solve_shift(scaled, q)
            target = math.fsum(oracles.q_power(x - a0, q) * v for x, v in zip(scaled, values))
            beta, dist = solve_beta(QParam(q), Spectrum(values), target)
            assert abs(mean_energy(dist, Spectrum(values)) - target) <= 1e-10
            assert beta == pytest.approx(beta_star, rel=1e-6, abs=1e-7)

    def test_target_outside_hull_rejected(self):
        with pytest.raises(RangeError):
            solve_beta(QParam(1), UNIT, 1.0)
        with pytest.raises(RangeError):
            solve_beta(QParam(1), UNIT, -0.2)

    def test_flat_spectrum(self):
        flat = Spectrum([0.4, 0.4])
        beta, dist = solve_beta(QParam(2), flat, 0.4)
        assert beta == 0.0
        np.testing.assert_allclose(dist.as_array(), 0.5, rtol=0, atol=1e-15)
        with pytest.raises(RangeError):
            solve_beta(QParam(2), flat, 0.5)

    @pytest.mark.parametrize("W", [10, 100])
    @pytest.mark.parametrize("q", [5.0, 10.0, 30.0])
    def test_flat_spectrum_at_large_q(self, q, W):
        # beta = 0 in closed form; solving the flat scaled spectrum missed the residual bound
        beta, dist = solve_beta(QParam(q), Spectrum([0.3] * W), 0.3)
        assert beta == 0.0
        assert dist.probs == (1.0 / W,) * W

    def test_kernel_pass_budget(self, monkeypatch):
        problems = beta_problems(np.random.default_rng(61), (0.5, 0.8, 1.0, 1.5, 2.5))
        passes = count_kernel_passes(monkeypatch)
        for qp, energies, target, _ in problems:
            _, dist = solve_beta(qp, energies, target)
            assert abs(mean_energy(dist, energies) - target) <= 1e-10
        # 3.83 passes per call measured: 5.4 when the first probe was the Newton step from
        # s = 0 and the bracketed steps started at its far end, 10.95 when each probe was
        # a shift solve
        assert passes[0] / len(problems) <= 4.0

    def test_each_probe_is_one_kernel_pass(self, monkeypatch):
        probes, chart = [], maxent._Chart.__call__

        def probe(self, s):
            probes.append(s)
            return chart(self, s)

        monkeypatch.setattr(maxent._Chart, "__call__", probe)
        passes = count_kernel_passes(monkeypatch)
        for qp, energies, target, _ in beta_problems(np.random.default_rng(73), (0.5, 1.0, 2.5)):
            probes.clear()
            passes[0] = 0
            solve_beta(qp, energies, target)
            # no pass outside a probe, and no probe twice: the returned p is the last probe's
            assert passes[0] == len(probes) == len(set(probes))

    def test_chart_lowest_is_the_smallest_base_bit_for_bit(self, monkeypatch):
        # the chart hands the kernel its smallest t, the base minus 1, which decides
        # whether the pass clips; it must be the array's own smallest, bit for bit
        seen, kernel = [], core._deformed_exp1p

        def spied(t, qm1, cutoff=False, w=None, lowest=None):
            if lowest is not None:  # a chart pass; the escort's map application finds its own
                seen.append((lowest, np.minimum.reduce(t)))
            return kernel(t, qm1, cutoff, w, lowest)

        monkeypatch.setattr(maxent, "_deformed_exp1p", spied)
        rng = np.random.default_rng(83)
        problems = beta_problems(rng, (0.3, 0.5, 0.8, 1.0 - 1e-5, 1.5, 2.0, 3.0))
        for q in (1.0 + 1e-5, 10.0) * 8:  # near-flat targets: the oracle's caps underflow here
            energies = Spectrum(rng.random(100))
            target = float(energies.as_array().mean() + rng.uniform(-0.05, 0.05))
            problems.append((QParam(q), energies, target, None))
        for qp, energies, target, beta_star in problems:
            for offset in (0.0, -3.0, 1e8):
                for span in (1e-3, 1.0, 1e3):
                    shifted = Spectrum(energies.as_array() * span + offset)
                    try:
                        solve_beta(qp, shifted, target * span + offset)
                        if qp.q < 2.0 and beta_star is not None:
                            escort_distribution(2.0 - qp.q, shifted, beta_star / span)
                    except QentropyError:
                        pass  # offset 1e8 with a span of 1e-3 leaves U coarser than its tol
                    chart = maxent._Chart(qp.q, shifted, 1.0)
                    if qp.q > 1.0:  # on and a hair either side of the feasible boundary
                        with np.errstate(**core._KERNEL_ERRORS):
                            for s in np.nextafter(chart.s_max, [0.0, chart.s_max, math.inf]):
                                chart(float(s))
        assert len(seen) > 2000
        assert any(lowest < -1.0 for lowest, _ in seen)
        for lowest, smallest in seen:
            assert np.float64(lowest).tobytes() == smallest.tobytes()

    def test_chart_passes_at_the_feasible_boundary(self):
        # s_max rounds, so a pass on it or a float past it meets bases a rounding error
        # below 0: they count as 0, with no NaN in u or w.  A zero base's logarithm is
        # -inf, which numpy flags as a division by zero, but no operation is invalid
        rng = np.random.default_rng(83)
        problems = beta_problems(rng, (1.5, 2.0, 3.0))
        problems += [(QParam(q), Spectrum(rng.random(100)), None, None) for q in (1.0 + 1e-5, 10.0)]
        cut = 0
        for qp, energies, _, _ in problems:
            for offset in (0.0, -3.0, 1e8):
                for span in (1e-3, 1.0, 1e3):
                    for sign in (1.0, -1.0):
                        chart = maxent._Chart(qp.q, Spectrum(energies.as_array() * span + offset),
                                              sign)
                        for s in np.nextafter(chart.s_max, [0.0, chart.s_max, math.inf]):
                            with np.errstate(over="ignore", divide="ignore", invalid="raise"):
                                u, w, total = chart(float(s))
                            assert not (np.isnan(u).any() or np.isnan(w).any())
                            assert 0.0 <= u.min() and u.max() == 1.0 and 0.0 <= w.min()
                            assert 1.0 <= total <= energies.W
                            cut += u[np.argmax(chart.d)] == 0.0
        assert cut > len(problems) * 18

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8, 1.0, 1.5, 2.0, 2.5, 3.0])
    def test_agrees_with_cold_solve_over_q(self, q):
        for qp, energies, target, beta_star in beta_problems(np.random.default_rng(79), (q,)):
            beta, dist = solve_beta(qp, energies, target)
            cold, _ = maxent_distribution(qp, energies, beta)
            np.testing.assert_allclose(dist.as_array(), cold.as_array(), rtol=0, atol=1e-12)
            assert beta == pytest.approx(beta_star, rel=1e-6)

    @pytest.mark.parametrize("q, solved", [(5.0, 20), (10.0, 10)])
    def test_near_flat_targets_at_large_q(self, q, solved):
        # each probe was a shift solve of a near-flat scaled spectrum, which missed
        # its residual bound: every one of these raised BracketError
        rng = np.random.default_rng(0)
        outcomes = []
        for _ in range(20):
            energies = Spectrum(rng.random(100))
            target = float(energies.as_array().mean() + rng.uniform(-0.05, 0.05))
            try:
                _, dist = solve_beta(QParam(q), energies, target)
            except BracketError:
                # the target lies beyond the mean energy at the feasible boundary
                sign = 1.0 if target < energies.as_array().mean() else -1.0
                chart = maxent._Chart(q, energies, sign)
                with np.errstate(**core._KERNEL_ERRORS):  # the caller owns the error state
                    u, _, total = chart(chart.s_max)
                edge = chart.ref + chart.sign * chart.scale * float(np.dot(u, chart.d)) / total
                assert sign * (target - edge) < 0.0
                outcomes.append(False)
            else:
                assert abs(mean_energy(dist, energies) - target) <= 1e-10
                outcomes.append(True)
        assert sum(outcomes) == solved

    def test_large_q_needs_no_overflowing_power(self):
        # the endpoint sum to the power q - 1 overflowed: OverflowError.  U(0) = 9.9e-301 is
        # within 1e-10 of the target, which returned beta = 0; the target needs bases near
        # 99^-199, below the smallest double, so no s of the chart reaches it
        with pytest.raises(ConvergenceError):
            solve_beta(QParam(200), Spectrum([0.0] + [1e-300] * 99), 5e-301)
        # at the cap, u^199 and the power of sum u in beta lie below the smallest double
        chart = maxent._Chart(200.0, Spectrum([0.0] + [1e-300] * 99), 1.0)
        with np.errstate(**core._KERNEL_ERRORS):
            chart(maxent._CAP * chart.s_max)
        assert 0.0 < chart.beta() < chart.cap() / maxent._CAP

    @pytest.mark.parametrize("q", [0.5, 1.0])
    def test_overflowing_span_below_one(self, q):
        # the beta = 0 slope overflowed in a dot product with a RuntimeWarning; no beta
        # moves U by 0.5 alone, and U(0) = 0 is the target 0 itself
        with pytest.raises(ConvergenceError):
            solve_beta(QParam(q), OVERFLOWING_SPAN, 0.5)
        assert solve_beta(QParam(q), OVERFLOWING_SPAN, 0.0) == (0.0, Distribution([0.5, 0.5]))

    @pytest.mark.parametrize("q, share", [(1.0, None), (2.0, 0.5), (1.5, 0.995)])
    def test_agrees_with_cold_solve(self, q, share):
        # q = 1 and q = 2 take the closed forms; at q = 1.5 beta* lies within 1% of the cap
        energies = Spectrum(np.random.default_rng(67).random(40).tolist())
        qp = QParam(q)
        cap = oracles.feasible_beta_caps(energies.values, q)[1] if q > 1.0 else None
        beta_star = 2.5 if share is None else share * cap
        reference, _ = maxent_distribution(qp, energies, beta_star)
        beta, dist = solve_beta(qp, energies, mean_energy(reference, energies))
        cold, _ = maxent_distribution(qp, energies, beta)
        np.testing.assert_allclose(dist.as_array(), cold.as_array(), rtol=0, atol=1e-12)

    def test_underflowing_endpoint_sum(self):
        # both q = 1.5 endpoint sums of {0, 1e-200} underflow to 0.0, whose
        # negative power raised ZeroDivisionError
        beta, dist = solve_beta(QParam(1.5), Spectrum([0.0, 1e-200]), 5e-201)
        assert beta == 0.0
        assert dist.probs == (0.5, 0.5)

    @pytest.mark.parametrize("q", [1.2, 1.5, 2.0, 3.0])
    def test_beta_caps_match_oracle(self, q):
        rng = np.random.default_rng(71)
        for _ in range(50):
            values = (rng.random(int(rng.integers(2, 64))) * rng.uniform(0.01, 100.0)).tolist()
            want = [cap * (1.0 - 1e-3) for cap in oracles.feasible_beta_caps(values, q)]
            caps = [sign * maxent._Chart(q, Spectrum(values), sign).cap() for sign in (-1.0, 1.0)]
            np.testing.assert_allclose(caps, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("scalar", SCALAR_TYPES)
    def test_scalar_types_of_target(self, scalar):
        energies = Spectrum([0.0, 0.3, 2.0])
        target = scalar(1) if scalar is int else scalar(0.4)
        for q in (0.5, 1.5):
            beta, dist = solve_beta(QParam(q), energies, target)
            assert (beta, dist) == solve_beta(QParam(q), energies, float(target))
            assert abs(mean_energy(dist, energies) - float(target)) <= 1e-10

    @pytest.mark.parametrize("target, side", [(1.2e308, 1.0), (1.6e308, -1.0)])
    def test_overflowing_plain_mean(self, target, side):
        # the sum of the energies overflows, so their plain mean cannot pick beta's side;
        # the chart's mean does, with no RuntimeWarning
        energies = Spectrum([1e308, 1.5e308, 1.7e308])
        beta, dist = solve_beta(QParam(0.5), energies, target)
        assert math.copysign(1.0, beta) == side
        assert abs(mean_energy(dist, energies) - target) <= 1e-10

    @pytest.mark.parametrize("q", [1.5, 3.0])
    def test_overflowing_span_is_infeasible(self, q):
        # every feasible beta lies below 1/((q - 1) span), and the span is not a double
        with pytest.raises(InfeasibleError):
            solve_beta(QParam(q), OVERFLOWING_SPAN, 0.5)

    def test_unreachable_target_brackets_out(self):
        # at q = 2 the feasible beta range caps the reachable mean energy
        # strictly above the lower hull edge for this three-state spectrum
        with pytest.raises(BracketError):
            solve_beta(QParam(2), Spectrum([0.0, 0.5, 1.0]), 0.05)

    @pytest.mark.parametrize("seed", [208, 332])
    def test_mean_energy_meets_the_target_at_a_large_offset(self, seed):
        # the solve stopped on its own eps_ref + sign 2^k D, and mean_energy's sum on the
        # raw energies missed the target by 1.0004e-10
        energies = Spectrum(1e4 + 0.01 * np.random.default_rng(seed).random(40))
        target = energies.x_min + 0.5 * (energies.x_max - energies.x_min)
        _, dist = solve_beta(QParam(0.5), energies, target)
        assert abs(mean_energy(dist, energies) - target) <= 1e-10

    def test_mean_energy_decides_over_offsets(self):
        # every result meets the contract on mean_energy itself; what cannot raises
        rng = np.random.default_rng(211)
        solved = 0
        for k in range(240):
            q = (0.3, 0.5, 0.8, 1.0, 1.5, 2.5)[k % 6]
            offset = float(rng.choice([0.0, -1.0, 1e2, 1e3, -1e4, 1e4]))
            span = float(np.exp(rng.uniform(math.log(1e-2), math.log(1e2))))
            energies = Spectrum(offset + span * rng.random(int(rng.integers(2, 65))))
            target = energies.x_min + rng.uniform(0.05, 0.95) * (energies.x_max - energies.x_min)
            try:
                _, dist = solve_beta(QParam(q), energies, target)
            except BracketError:
                assert q > 1.0  # beyond the feasible cap
                continue
            assert abs(mean_energy(dist, energies) - target) <= 1e-10
            solved += 1
        assert solved > 160  # every q <= 1, and some q > 1

    def test_no_miss_where_an_ulp_of_u_exceeds_the_tolerance(self):
        # near U = 1e6 an ulp of U is 1.16e-10, and the chart's U and mean_energy's sum
        # round apart by an ulp or two: mean_energy decides, and where no probe meets
        # the contract the solve raises
        outcomes = {}
        for seed in range(6):
            rng = np.random.default_rng(seed)
            for k in range(20):
                energies = Spectrum(1e6 * rng.random(int(rng.integers(2, 17))))
                share = float(rng.choice([0.2, 0.45, 0.55, 0.8]))
                target = energies.x_min + share * (energies.x_max - energies.x_min)
                try:
                    _, dist = solve_beta(QParam((0.5, 1.0, 1.5, 2.5)[k % 4]), energies, target)
                except (BracketError, ConvergenceError) as exc:
                    outcomes[type(exc)] = outcomes.get(type(exc), 0) + 1
                    continue
                assert abs(mean_energy(dist, energies) - target) <= 1e-10
                outcomes[None] = outcomes.get(None, 0) + 1
        # 101 of the 103 feasible ones solve; 97 where mean_energy decided only within
        # the stop rule, and 73 on the parent, which returned 29 misses
        assert outcomes[None] >= 100

    def test_zero_beta_only_at_the_plain_mean(self):
        # the absolute _BETA_TOL returned beta = 0 for any target within 1e-10 of U(0);
        # at this scale that is every target, and p = 1/W has mean energy 1e-12
        with pytest.raises(BracketError):  # as for [0, 1, 2] and 0.2: beyond the cap
            solve_beta(QParam(1.5), Spectrum([0.0, 1e-12, 2e-12]), 0.2e-12)
        beta, dist = solve_beta(QParam(0.5), Spectrum([0.0, 1e-12, 2e-12]), 0.2e-12)
        assert beta > 1e12 and dist.probs[0] > 0.8
        # within an ulp of the largest energy of U(0) it still is beta = 0, in no pass
        energies = Spectrum([1.0, 2.0, 4.0])
        assert solve_beta(QParam(1.5), energies, 7.0 / 3.0) == (0.0, Distribution([1 / 3] * 3))

    def test_a_first_probe_that_misses_by_its_rounding_leaves_the_uniform_p(self, monkeypatch):
        # a target within the tolerance of U(0) but beyond an ulp of it: the first probe's
        # D lies within tol of D*, but mean_energy there misses the target by more than
        # _BETA_TOL, as it does by 2 ulps (1.2e-10) on [415705.3161406435,
        # 415706.82057148626, 415708.4035168331] at 415706.8467429875 and q = 1.5.  So the
        # steps start at s = 0, whose g0 meets tol, and p = 1/W decides.  Platforms round
        # that sum alike only to within an ulp, so the miss is added here
        exact = maxent._mean_energy
        monkeypatch.setattr(maxent, "_mean_energy",
                            lambda p, x: exact(p, x) + (0.0 if p.min() == p.max() else 2e-10))
        energies = Spectrum([0.0, 1.0, 3.0])
        target = 4.0 / 3.0 + 3e-11
        assert solve_beta(QParam(1.5), energies, target) == (0.0, Distribution([1 / 3] * 3))

    def test_a_steep_root_takes_its_best_probe_again(self):
        # at q = 5, next to the cut-off of the farther u, D moves by more than tol between
        # adjacent floats of s: the steps end short of tol, here at a best probe before
        # their last, and the chart takes one more pass there, whose mean_energy decides
        energies = Spectrum([-0.17547977317777183, -0.17547964060280227])
        target = -0.17547964067610733
        beta, dist = solve_beta(QParam(5.0), energies, target)
        assert abs(mean_energy(dist, energies) - target) <= 1e-10
        assert beta < 0.0 and dist.probs[1] > 0.99

    @pytest.mark.parametrize("q", [0.3, 0.5, 1.0, 1.0 + 1e-9, 1.5, 2.5])
    def test_scaling_energies_and_target_scales_beta(self, q):
        # the problem is invariant under (eps, beta, target) -> (c eps, beta / c, c target).
        # The contract is absolute, so at c = 1e6 the energies stay below 2^19, where an
        # ulp of U is below _BETA_TOL
        rng = np.random.default_rng(int(q * 1e3) % 1000)
        for _ in range(8):
            base = 0.5 * rng.random(int(rng.integers(2, 17)))
            share = float(rng.choice([0.2, 0.45, 0.55, 0.8]))
            outcomes = []
            for c in (1.0, 1e-12, 1e6):
                energies = Spectrum(base * c)
                target = energies.x_min + share * (energies.x_max - energies.x_min)
                try:
                    beta, dist = solve_beta(QParam(q), energies, target)
                except BracketError:
                    outcomes.append(None)
                    continue
                assert abs(mean_energy(dist, energies) - target) <= 1e-10
                outcomes.append((beta * c, dist.as_array()))
            if outcomes[0] is None:
                assert outcomes == [None] * 3
                continue
            for beta_c, p in outcomes[1:]:
                assert beta_c == pytest.approx(outcomes[0][0], rel=1e-8)
                np.testing.assert_allclose(p, outcomes[0][1], rtol=0, atol=1e-9)

    def test_which_targets_solve_near_q_one(self):
        # the power kernel carried the rounding of each base times 1/|q - 1| into U(s),
        # and 27, 8, 3 and 18 of these 60 raised ConvergenceError where that noise
        # crossed _BETA_TOL; the log1p kernel forms U to its own rounding, and none fails
        for q in (1.0 - 1e-9, 1.0 - 1e-8, 1.0 + 1e-8, 1.0 + 1e-9):
            for energies in seeded_spectra(62):
                for frac in (0.05, 0.45, 0.9):
                    target = energies.x_min + frac * (energies.x_max - energies.x_min)
                    _, dist = solve_beta(QParam(q), energies, target)
                    assert abs(mean_energy(dist, energies) - target) <= 1e-10


class TestStationarity:
    def test_examples_are_stationary(self):
        assert stationarity_residual(QParam(2), PAIR, 1.0) <= 1e-10
        assert stationarity_residual(QParam(1), UNIT, 1.0) <= 1e-10
        assert stationarity_residual(QParam(1.5), Spectrum([0.2, 0.2, 0.2]), 0.7) <= 1e-10

    def test_holds_within_1e_8_of_q_one(self):
        # the gradient recovers x_i from p_i without cancelling as q -> 1
        assert stationarity_residual(QParam(1 + 1e-8), Spectrum(np.arange(10) / 10), 2.0) <= 1e-8

    def test_randomized_instances(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            energies = Spectrum(rng.uniform(0, 1, rng.integers(2, 32)).tolist())
            roll = rng.random()
            if roll < 0.5:
                qp = QParam(float(rng.uniform(0.1, 0.9)))
                beta = float(rng.uniform(-2, 2))
            elif roll < 0.65:
                qp = QParam(1.0)
                beta = float(rng.uniform(-2, 2))
            else:
                qp = QParam(float(rng.uniform(1.05, 3.0)))
                beta = 0.0  # replaced below by a feasible multiplier
            if qp.is_super_unit:
                cap_neg, cap_pos = oracles.feasible_beta_caps(energies.values, qp.q)
                beta = float(rng.uniform(0.2, 0.8)) * (cap_pos if rng.random() < 0.5 else cap_neg)
            assert stationarity_residual(qp, energies, beta) <= 1e-8

    def test_maximality_against_tangent_perturbations(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            energies = Spectrum(rng.uniform(0, 1, rng.integers(3, 16)).tolist())
            qp = QParam(float(rng.uniform(0.15, 0.9)))
            beta = float(rng.uniform(-1.5, 1.5))
            dist, _ = maxent_distribution(qp, energies, beta)
            probs = dist.as_array()
            best = uncertainty(dist, qp)
            basis = np.linalg.qr(
                np.stack([np.ones(dist.W), energies.as_array()], axis=1)
            )[0]
            for _ in range(25):
                raw = rng.standard_normal(dist.W)
                tangent = raw - basis @ (basis.T @ raw)
                norm = np.abs(tangent).max()
                if norm < 1e-12:
                    continue
                scale = 0.5 * (probs / np.maximum(np.abs(tangent), 1e-300)).min()
                moved = probs + min(scale, 1.0) * tangent
                perturbed = Distribution(moved.tolist())
                assert abs(mean_energy(perturbed, energies) - mean_energy(dist, energies)) <= 1e-9
                assert uncertainty(perturbed, qp) <= best + 1e-12


class TestEscort:
    def test_which_inputs_solve_near_q_tilde_one(self):
        # as for the beta solve: with the power kernel in the chart and the map, 10 and 12
        # of these 60 raised ConvergenceError at 1 -/+ 1e-7, and all 60 at 1 -/+ 1e-9,
        # where the map residual's rounding noise crossed its bound; none fails now
        for q_tilde in (1.0 - 1e-7, 1.0 + 1e-7, 1.0 - 1e-9, 1.0 + 1e-9):
            for energies in seeded_spectra(63):
                for beta in (-2.0, 0.5, 4.0):
                    assert escort_distribution(q_tilde, energies, beta).residual <= 1e-10

    def test_p_is_the_charts_array_read_only(self, monkeypatch):
        arrays, probs = [], maxent._Chart.probs

        def spied(chart, s):
            arrays.append(probs(chart, s))
            return arrays[-1]

        monkeypatch.setattr(maxent._Chart, "probs", spied)
        for q_tilde, beta in ((0.8, 1.0), (1.5, 50.0), (1.0, -2.0)):
            solution = escort_distribution(q_tilde, Spectrum([0.0, 0.3, 1.0]), beta)
            assert solution.p.as_array() is arrays[-1]
            assert not solution.p.as_array().flags.writeable
            assert abs(math.fsum(solution.p.probs) - 1.0) <= 1e-15

    def test_flat_energies_converge_immediately(self):
        solution = escort_distribution(0.7, Spectrum([0.3, 0.3, 0.3]), 2.0)
        np.testing.assert_allclose(solution.p.as_array(), 1.0 / 3.0, rtol=0, atol=1e-15)
        assert solution.iterations == 0
        assert solution.residual == 0.0

    def test_zero_beta_uniform(self):
        solution = escort_distribution(0.8, Spectrum([0.0, 0.7, 1.0]), 0.0)
        np.testing.assert_allclose(solution.p.as_array(), 1.0 / 3.0, rtol=0, atol=1e-15)

    def test_reference_fixed_point(self):
        solution = escort_distribution(0.8, UNIT, 1.0)
        assert solution.converged
        assert solution.residual <= 1e-10
        assert solution.p.probs[0] == pytest.approx(ESCORT_FIXED_POINT[0], abs=2e-10)
        assert solution.p.probs[1] == pytest.approx(ESCORT_FIXED_POINT[1], abs=2e-10)

    def test_differs_from_maxent_at_same_index(self):
        solution = escort_distribution(0.8, UNIT, 1.0)
        reference, _ = maxent_distribution(QParam(0.8), UNIT, 1.0)
        gap = max(abs(a - b) for a, b in zip(solution.p.probs, reference.probs))
        assert gap > 1e-3

    def test_self_reproduction_under_undamped_map(self):
        # the last three have fixed points with every bracket positive that a damped
        # iteration of the map misses: p ~ (0.99853295, 0.00146705) at (1.5, 50), and
        # the maximizer index 2 - q_tilde is at most 0 for the others
        for qt, beta in ((0.8, 1.0), (1.5, 50.0), (2.0, 1.0), (3.0, 1.0)):
            solution = escort_distribution(qt, UNIT, beta)
            x = [0.0, beta]
            p = list(solution.p.probs)
            weights = [pi**qt for pi in p]
            denom = math.fsum(weights)
            xbar = math.fsum(w * xi for w, xi in zip(weights, x)) / denom
            brackets = [1 - (1 - qt) * (xi - xbar) / denom for xi in x]
            assert min(brackets) > 0.0
            raw = [b ** (1 / (1 - qt)) for b in brackets]
            total = math.fsum(raw)
            mapped = [r / total for r in raw]
            assert max(abs(m - pi) for m, pi in zip(mapped, p)) <= 1e-10

    def test_classical_index_returns_softmax(self):
        solution = escort_distribution(1.0, UNIT, 1.0)
        z = 1 + math.exp(-1)
        np.testing.assert_allclose(solution.p.as_array(), [1 / z, math.exp(-1) / z],
                                   rtol=0, atol=1e-14)
        assert solution.converged

    def test_super_unit_index_converges(self):
        solution = escort_distribution(1.4, Spectrum([0.0, 0.2]), 1.0)
        assert solution.converged
        assert solution.residual <= 1e-10

    @pytest.mark.parametrize("q_tilde, beta, error", [
        (0.8, 20.0, InfeasibleError),  # b >= beta / 2^0.4 lies beyond the cap 4.995
        (0.5, 3.0, BracketError),  # b c^2 < beta at the cap 1.998
    ])
    def test_no_fixed_point_with_positive_brackets_raises(self, q_tilde, beta, error):
        with pytest.raises(error):
            escort_distribution(q_tilde, UNIT, beta)

    def test_underflowing_endpoint_sum(self):
        # q = 2 - 0.5 = 1.5, whose endpoint sums of {0, 1e-200} underflow to 0.0
        solution = escort_distribution(0.5, Spectrum([0.0, 1e-200]), 1.0)
        assert solution.residual <= 1e-10
        np.testing.assert_allclose(solution.p.as_array(), 0.5, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("scalar", SCALAR_TYPES)
    def test_scalar_types_of_beta(self, scalar):
        energies = Spectrum([0.0, 0.3, 1.0])
        for q_tilde in (0.8, 1.3):
            solution = escort_distribution(q_tilde, energies, scalar(1))
            assert solution == escort_distribution(q_tilde, energies, 1.0)

    @pytest.mark.parametrize("q_tilde", [0.5, 0.9])
    def test_overflowing_span_is_infeasible(self, q_tilde):
        with pytest.raises(InfeasibleError):
            escort_distribution(q_tilde, OVERFLOWING_SPAN, 1.0)

    def test_rejects_bad_knobs(self):
        with pytest.raises(RangeError):
            escort_distribution(0.0, UNIT, 1.0)
        with pytest.raises(RangeError):
            escort_distribution(0.8, UNIT, math.inf)

    def test_kernel_pass_budget(self, monkeypatch):
        # the benchmark's escort recipe: W log-uniform in [16, 256], span log-uniform
        # in [0.5, 2], |beta| a fraction 0.2-1 of the size that keeps every bracket
        # of every iterate at least 1/2
        rng = np.random.default_rng(71)
        problems = []
        for k in range(40):
            qt = (0.5, 0.7, 0.9, 1.3)[k % 4]
            w = int(math.exp(rng.uniform(math.log(16), math.log(257))))
            span = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
            energies = Spectrum((rng.random(w) * span).tolist())
            floor = 1.0 if qt < 1.0 else w ** (1.0 - qt)
            bound = 0.5 * floor / (abs(1.0 - qt) * (energies.x_max - energies.x_min))
            sign = 1.0 if rng.random() < 0.5 else -1.0
            problems.append((qt, energies, sign * rng.uniform(0.2, 1.0) * bound))
        passes = count_kernel_passes(monkeypatch)
        for qt, energies, beta in problems:
            assert escort_distribution(qt, energies, beta).residual <= 1e-10
        # 4.6 passes per call measured, the map application included; 9.35 when each
        # probe was a shift solve, and the damped iteration took 27.2 map applications
        assert passes[0] / len(problems) <= 5.25

    def test_each_probe_is_one_kernel_pass(self, monkeypatch):
        probes, chart = [], maxent._Chart.__call__

        def probe(self, s):
            probes.append(s)
            return chart(self, s)

        monkeypatch.setattr(maxent._Chart, "__call__", probe)
        passes = count_kernel_passes(monkeypatch)
        rng = np.random.default_rng(83)
        for qt in (0.5, 0.9, 1.0, 1.3, 2.5):
            energies = Spectrum(rng.random(int(rng.integers(16, 257))))
            probes.clear()
            passes[0] = 0
            solution = escort_distribution(qt, energies, 0.3 / (energies.x_max - energies.x_min))
            # one pass per probe, one more for the returned p at most, and the map
            assert solution.iterations == len(set(probes)) >= len(probes) - 1
            assert passes[0] == len(probes) + 1

    @pytest.mark.parametrize("q_tilde, values, share", [
        (0.5, [0.0, 1.0], 0.9988),  # the shift solves raised BracketError here
        (0.5, [0.0, 1.0], 0.999),
        (0.8, [0.0, 0.2, 0.9, 1.0], 0.999),
    ])
    def test_fixed_point_near_the_cap(self, q_tilde, values, share):
        # a fixed point at b within 0.2% of the feasible boundary, where b / cap <= s / s_max
        # alone no longer shows b within the cap, and G falls again nearer the boundary
        q, energies = 2.0 - q_tilde, Spectrum(values)
        cap = oracles.feasible_beta_caps(values, q)[1]
        p, _ = maxent_distribution(QParam(q), energies, share * cap)
        beta = share * cap * float(np.sum(p.as_array() ** q_tilde)) ** 2
        solution = escort_distribution(q_tilde, energies, beta)
        assert solution.residual <= 1e-10
        # p^(q-1) is affine in eps with slope -(q - 1) b, for a b within the cap
        powers = solution.p.as_array() ** (q - 1.0)
        b = (powers[0] - powers[-1]) / ((q - 1.0) * (values[-1] - values[0]))
        assert 0.0 < b <= (1.0 - 1e-3) * cap * (1.0 + 1e-9)

    def test_probs_at_an_earlier_probe_takes_one_more_pass(self):
        # the escort takes the probs of its best probe, which need not be the latest pass:
        # at q_tilde > 250 on a few hundred states its steps can end short of tol so
        chart = maxent._Chart(1.5, Spectrum([0.0, 0.3, 1.0]), 1.0)
        chart(0.5)
        first = chart.probs(0.5).copy()  # the latest pass's
        chart(0.8)
        np.testing.assert_array_equal(chart.probs(0.5), first)
        assert chart.s == 0.5 and math.fsum(first) == pytest.approx(1.0, abs=1e-15)

    def test_large_q_tilde_needs_no_overflowing_power(self):
        # W^(2(q_tilde - 1)) and shift._z overflowed: OverflowError
        energies = Spectrum(np.random.default_rng(0).random(3000))
        assert escort_distribution(60, energies, 1.0).residual <= 1e-10
        # the root lies at log s = 403, below the clip at 707.7, but the map check's
        # p^q_tilde underflowed for 11 of the 12 weights, a residual of 8.65e-4; its
        # weights are (p / max p)^q_tilde now
        for seed in (0, 5):
            energies = Spectrum(np.random.default_rng(seed).random(12))
            for beta in (0.1, 1.0, 3.0):
                assert escort_distribution(300, energies, beta).residual <= 1e-15

    def test_overflowing_span_at_the_classical_index(self):
        # x_i - xbar overflowed with a RuntimeWarning; the softmax puts all weight on -1e308
        solution = escort_distribution(1.0, OVERFLOWING_SPAN, 1.0)
        assert solution.p.probs == (1.0, 0.0)
        assert solution.residual == 0.0


#: each solver that takes a tol, on a solvable input
SOLVERS = {
    "solve_shift": lambda **kw: solve_shift(UNIT, QParam(0.5), **kw),
    "escort_distribution": lambda **kw: escort_distribution(0.8, UNIT, 1.0, **kw),
}


@pytest.mark.parametrize("name, bad", [
    (name, bad) for name in sorted(SOLVERS) for bad in ("tol=nan", "tol=-1")
])
def test_solver_arguments_raise_value_error(name, bad):
    solve = SOLVERS[name]
    with pytest.raises(ValueError):
        solve(tol=math.nan if bad == "tol=nan" else -1.0)
    solve()  # the same call with default arguments solves


def test_a_repeated_solve_repeats_bit_for_bit():
    # what the benchmark checks again whenever a result's fingerprint changes; at
    # W = 10^6 the shift solve runs over many blocks
    energies = Spectrum(np.random.default_rng(1).random(10**6))

    def shift():
        dist, solution = shifted_distribution(energies, QParam(0.8))
        return solution.a0, dist, uncertainty(dist, QParam(0.8))

    def beta():
        value, dist = solve_beta(QParam(0.5), energies, 0.4)
        return value, dist, uncertainty(dist, QParam(0.5))

    def escort():
        solution = escort_distribution(1.3, energies, 2.0)
        return solution.residual, solution.p, uncertainty(solution.p, QParam(0.7))

    for solve, other in ((shift, beta), (beta, escort), (escort, shift)):
        first = solve()
        other()
        again = solve()
        assert (first[0], first[2]) == (again[0], again[2])
        assert first[1].as_array().tobytes() == again[1].as_array().tobytes()
