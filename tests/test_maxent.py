"""Tests for the Lagrange reconstruction, beta inversion, and escort solve."""

import math

import numpy as np
import pytest

import oracles
from qentropy import (
    BracketError,
    Distribution,
    DomainError,
    LagrangeParams,
    NonConvergenceError,
    NormalizationError,
    QParam,
    RangeError,
    Spectrum,
    alpha_from_shift,
    escort_distribution,
    lagrange_distribution,
    maxent_distribution,
    mean_energy,
    shift_from_alpha,
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


class TestMultiplierConversion:
    def test_round_trip(self):
        for q in (0.3, 1.0, 2.4):
            qp = QParam(q)
            assert shift_from_alpha(qp, alpha_from_shift(qp, -0.7)) == pytest.approx(-0.7, abs=1e-15)

    def test_classical_log_normalizer(self):
        assert shift_from_alpha(QParam(1), 1.25) == -1.25


class TestLagrangeDistribution:
    def test_pair_at_q2(self):
        # alpha chosen so the embedded shift is -0.3
        alpha = alpha_from_shift(QParam(2), -0.3)
        params = LagrangeParams(alpha=alpha, beta=1.0, energies=PAIR)
        dist = lagrange_distribution(QParam(2), params)
        np.testing.assert_allclose(dist.as_array(), [0.7, 0.3], rtol=0, atol=1e-12)

    def test_classical_softmax(self):
        alpha = math.log(1 + math.exp(-1))
        params = LagrangeParams(alpha=alpha, beta=1.0, energies=UNIT)
        dist = lagrange_distribution(QParam(1), params)
        z = 1 + math.exp(-1)
        np.testing.assert_allclose(dist.as_array(), [1 / z, math.exp(-1) / z], rtol=0, atol=1e-12)

    def test_flat_energies_give_uniform(self):
        energies = Spectrum([0.3, 0.3, 0.3])
        qp = QParam(1.6)
        _, solution = shifted_distribution(energies, qp)
        params = LagrangeParams(alpha=alpha_from_shift(qp, solution.a0), beta=1.0, energies=energies)
        dist = lagrange_distribution(qp, params)
        np.testing.assert_allclose(dist.as_array(), 1.0 / 3.0, rtol=0, atol=1e-12)

    def test_matches_shift_solution(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            energies = Spectrum(rng.uniform(0, 1, rng.integers(2, 16)).tolist())
            qp = QParam(float(rng.uniform(0.1, 0.9)))
            beta = float(rng.uniform(-2, 2))
            dist, solution = maxent_distribution(qp, energies, beta)
            params = LagrangeParams(
                alpha=alpha_from_shift(qp, solution.a0), beta=beta, energies=energies
            )
            reconstructed = lagrange_distribution(qp, params)
            np.testing.assert_allclose(
                reconstructed.as_array(), dist.as_array(), rtol=0, atol=1e-10
            )

    def test_inconsistent_alpha_rejected(self):
        # embedded shift -0.5 keeps every base positive but sums p to 0.6
        params = LagrangeParams(alpha=alpha_from_shift(QParam(2), -0.5), beta=1.0, energies=PAIR)
        with pytest.raises(NormalizationError):
            lagrange_distribution(QParam(2), params)

    def test_negative_base_rejected(self):
        params = LagrangeParams(alpha=5.0, beta=1.0, energies=PAIR)
        with pytest.raises(DomainError):
            lagrange_distribution(QParam(2), params)


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

    @pytest.mark.parametrize("q", [0.5, 1.0, 1.5, 2.5])
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

    def test_unreachable_target_brackets_out(self):
        # at q = 2 the feasible beta range caps the reachable mean energy
        # strictly above the lower hull edge for this three-state spectrum
        with pytest.raises(BracketError):
            solve_beta(QParam(2), Spectrum([0.0, 0.5, 1.0]), 0.05)


class TestStationarity:
    def test_examples_are_stationary(self):
        assert stationarity_residual(QParam(2), PAIR, 1.0) <= 1e-10
        assert stationarity_residual(QParam(1), UNIT, 1.0) <= 1e-10
        assert stationarity_residual(QParam(1.5), Spectrum([0.2, 0.2, 0.2]), 0.7) <= 1e-10

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
        solution = escort_distribution(0.8, UNIT, 1.0)
        qt, x = 0.8, [0.0, 1.0]
        p = list(solution.p.probs)
        weights = [pi**qt for pi in p]
        denom = math.fsum(weights)
        xbar = math.fsum(w * xi for w, xi in zip(weights, x)) / denom
        raw = [(1 - (1 - qt) * (xi - xbar) / denom) ** (1 / (1 - qt)) for xi in x]
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

    def test_nonconvergence_reports_last_iterate(self):
        with pytest.raises(NonConvergenceError) as excinfo:
            escort_distribution(0.8, UNIT, 1.0, max_iter=3)
        last = excinfo.value.solution
        assert last is not None
        assert not last.converged
        assert last.iterations == 3
        assert last.residual > 1e-10

    def test_rejects_bad_knobs(self):
        with pytest.raises(RangeError):
            escort_distribution(0.0, UNIT, 1.0)
        with pytest.raises(RangeError):
            escort_distribution(0.8, UNIT, 1.0, damping=0.0)


#: each solver on a solvable input, and the smallest max_iter it accepts
SOLVERS = {
    "solve_shift": (lambda **kw: solve_shift(UNIT, QParam(0.5), **kw), 1),
    "solve_beta": (lambda **kw: solve_beta(QParam(0.5), UNIT, 0.3, **kw), 1),
    "escort_distribution": (lambda **kw: escort_distribution(0.8, UNIT, 1.0, **kw), 0),
}


@pytest.mark.parametrize("bad", ["tol=nan", "tol=-1", "max_iter below minimum"])
@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_solver_arguments_raise_value_error(name, bad):
    solve, min_iter = SOLVERS[name]
    kwargs = {"tol=nan": {"tol": math.nan}, "tol=-1": {"tol": -1.0},
              "max_iter below minimum": {"max_iter": min_iter - 1}}[bad]
    with pytest.raises(ValueError):
        solve(**kwargs)
    solve()  # the same call with default arguments solves
