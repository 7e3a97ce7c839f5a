"""Acceptance suite: one test per numbered criterion, each at its stated
tolerance, printing one PASS/FAIL line per criterion (visible with -s).

Criteria are property-based over seeded random instances plus closed-form
oracles; nothing here depends on the implementation paths it checks beyond
the public API.
"""

import contextlib
import math
import time

import numpy as np

import oracles
from qentropy import (
    BracketError,
    Distribution,
    InfeasibleError,
    QParam,
    Spectrum,
    bg_entropy,
    cli,
    compose,
    escort_distribution,
    max_uncertainty,
    maxent_distribution,
    mean_energy,
    shifted_distribution,
    solve_beta,
    solve_shift,
    stationarity_residual,
    uncertainty,
    varentropy_residual,
)


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL  {name}")
        raise
    print(f"[criterion {number:02d}] PASS  {name}")


def random_spectrum(rng, w_lo=1, w_hi=64, x_scale=1.0):
    w = int(rng.integers(w_lo, w_hi + 1))
    return Spectrum((rng.uniform(0.0, x_scale, w)).tolist())


def random_feasible_instance(rng, w_lo=2, w_hi=24, q_sub_lo=0.1):
    """Spectrum, q, and beta with {beta * eps} always solvable."""
    energies = random_spectrum(rng, w_lo, w_hi)
    roll = rng.random()
    if roll < 0.55:
        qp = QParam(float(rng.uniform(q_sub_lo, 0.9)))
        beta = float(rng.uniform(-2.0, 2.0))
    elif roll < 0.7:
        qp = QParam(1.0)
        beta = float(rng.uniform(-2.0, 2.0))
    else:
        qp = QParam(float(rng.uniform(1.05, 3.0)))
        if energies.x_min == energies.x_max:
            beta = float(rng.uniform(-2.0, 2.0))
        else:
            cap_neg, cap_pos = oracles.feasible_beta_caps(energies.values, qp.q)
            side = cap_pos if rng.random() < 0.5 else cap_neg
            beta = float(rng.uniform(0.2, 0.7)) * side
    return energies, qp, beta


def test_criterion_01_shift_solver_contract():
    with criterion(1, "shift-solver residual and domain placement (1000 sub-unit solves, < 5 s)"):
        rng = np.random.default_rng(101)
        instances = [
            (random_spectrum(rng), QParam(float(rng.uniform(0.1, 0.9))))
            for _ in range(1000)
        ]
        started = time.perf_counter()
        solutions = [solve_shift(spectrum, qp) for spectrum, qp in instances]
        elapsed = time.perf_counter() - started
        for (spectrum, qp), solution in zip(instances, solutions):
            assert abs(solution.residual) <= 1e-10
            assert solution.a0 <= spectrum.x_min - 1.0 / (qp.q - 1.0)
        assert elapsed < 5.0, f"1000 solves took {elapsed:.2f}s"


def test_criterion_02_super_unit_feasibility():
    with criterion(2, "q > 1: solve succeeds iff the exact endpoint sum is <= 1"):
        rng = np.random.default_rng(102)
        holds_sufficient = 0
        for _ in range(1000):
            spectrum = random_spectrum(rng)
            q = float(rng.uniform(1.000001, 3.0))
            exact = oracles.endpoint_sum(spectrum.values, q)
            bound = spectrum.W * ((q - 1.0) * (spectrum.x_max - spectrum.x_min)) ** (
                1.0 / (q - 1.0)
            )
            try:
                solution = solve_shift(spectrum, QParam(q))
                succeeded = True
                assert abs(solution.residual) <= 1e-10
            except InfeasibleError:
                succeeded = False
            assert succeeded == (exact <= 1.0)
            if bound <= 1.0:
                holds_sufficient += 1
                assert succeeded, "sufficient bound held but the solve failed"
        assert holds_sufficient > 0  # the sampler exercises the sufficient case


def test_criterion_03_closed_form_oracles():
    with criterion(3, "the shift solve matches the q = 1 and q = 2 closed forms to 1e-10"):
        rng = np.random.default_rng(103)
        for _ in range(200):
            w = int(rng.integers(2, 65))
            values = rng.uniform(0.0, 1.0, w).tolist()
            solved = solve_shift(Spectrum(values), QParam(1)).a0
            closed = -math.log(math.fsum(math.exp(-v) for v in values))
            assert abs(solved - closed) <= 1e-10
        for _ in range(200):
            w = int(rng.integers(2, 65))
            # scale keeps the q = 2 endpoint sum below W * span <= 0.9
            values = rng.uniform(0.0, 0.9 / w, w).tolist()
            solved = solve_shift(Spectrum(values), QParam(2)).a0
            closed = (1.0 - w + math.fsum(values)) / w
            assert abs(solved - closed) <= 1e-10


def test_criterion_04_figure_reproduction(tmp_path):
    with criterion(4, "two-state sweeps: exact zeros, exact peak value, concave columns, < 1 s"):
        started = time.perf_counter()
        tables = {}
        for name, q_arg in (("sub", "0.2,0.5,0.8,1.0"), ("super", "1.5,2,3")):
            out = tmp_path / f"sweep_{name}.csv"
            code = cli.main(["sweep", "--q", q_arg, "--points", "201", "--out", str(out)])
            assert code == 0
            tables[q_arg] = cli.read_sweep_csv(str(out))
        elapsed = time.perf_counter() - started
        for q_arg, table in tables.items():
            q_list = [float(part) for part in q_arg.split(",")]
            grid = [row[0] for row in table.rows]
            assert len(grid) == 201 and grid[0] == 0.0 and grid[-1] == 1.0
            for col, q in enumerate(q_list, start=1):
                column = np.array([row[col] for row in table.rows])
                assert column[0] == 0.0 and column[-1] == 0.0
                if q == 1.0:
                    peak = math.log(2)
                else:
                    peak = (1.0 - 2.0 ** (1.0 - q)) / (q * (q - 1.0))
                assert abs(column[100] - peak) <= 1e-12
                assert column[100] == max(column)
                second = column[2:] - 2.0 * column[1:-1] + column[:-2]
                assert (second <= 1e-12).all()
        assert elapsed < 1.0, f"sweeps took {elapsed:.2f}s"


def test_criterion_05_composition_identity():
    with criterion(5, "composition law exact to 1e-12 over 500 independent pairs"):
        rng = np.random.default_rng(105)
        for _ in range(500):
            w_a, w_b = rng.integers(1, 9, 2)
            p_a = rng.uniform(1e-6, 1.0, w_a)
            p_b = rng.uniform(1e-6, 1.0, w_b)
            dist_a = Distribution((p_a / p_a.sum()).tolist())
            dist_b = Distribution((p_b / p_b.sum()).tolist())
            # q in [0.01, 3]: the identity is exact, but float cancellation
            # scales like 1/q near zero
            q = QParam(float(rng.uniform(0.01, 3.0)))
            result = compose(dist_a, dist_b, q)
            assert abs(result.formula_value - result.direct_value) <= 1e-12


def test_criterion_06_classical_limit():
    with criterion(6, "uncertainty at q = 1 +/- 1e-6 within 1e-5 of the BG entropy"):
        rng = np.random.default_rng(106)
        for _ in range(200):
            w = int(rng.integers(2, 17))
            raw = rng.uniform(1e-9, 1.0, w)
            dist = Distribution((raw / raw.sum()).tolist())
            reference = bg_entropy(dist)
            for q in (1.0 - 1e-6, 1.0 + 1e-6):
                assert abs(uncertainty(dist, QParam(q)) - reference) <= 1e-5


def test_criterion_07_variational_identity():
    with criterion(7, "variational identity: first-order residual over 100 instances"):
        rng = np.random.default_rng(107)
        eps = float(np.finfo(float).eps)
        checked = 0
        while checked < 100:
            # q away from 0 keeps the measure's 1/(q(q-1)) scale, and with
            # it the difference-quotient rounding noise, bounded
            energies, qp, beta = random_feasible_instance(rng, w_lo=2, w_hi=24,
                                                          q_sub_lo=0.3)
            spectrum = energies.scaled(beta)
            dist, _ = shifted_distribution(spectrum, qp)
            probs = dist.as_array()
            if probs.min() <= 1e-9 or probs.max() >= 0.9:
                continue  # keep the inverse map and the step well conditioned
            noise = rng.uniform(-1.0, 1.0, spectrum.W)
            # probability-proportional and exactly zero-sum
            tangent = probs * (noise - float((probs * noise).sum()))
            tangent -= probs * (tangent.sum() / probs.sum())
            norm = float(np.linalg.norm(tangent))
            if norm < 1e-9:
                continue
            resid_full = varentropy_residual(spectrum, qp, tangent.tolist(), 1e-6)
            resid_half = varentropy_residual(spectrum, qp, tangent.tolist(), 5e-7)
            assert resid_full <= 1e-4 * norm
            # halving allowance: second-order term (1e-3 relative) plus the
            # forward-difference rounding floor at the measure's magnitude
            if qp.is_classical:
                magnitude = abs(float((probs * np.log(probs)).sum()))
            else:
                magnitude = float(np.power(probs, qp.q).sum()) / abs(qp.q * (qp.q - 1.0))
            floor = 4.0 * eps * max(1.0, magnitude) / 5e-7
            assert resid_half <= 0.5 * resid_full * (1.0 + 1e-3) + floor
            checked += 1


def test_criterion_08_stationarity_and_maximality():
    with criterion(8, "MaxEnt stationarity <= 1e-8 and maximality vs tangent perturbations"):
        rng = np.random.default_rng(108)
        for _ in range(200):
            energies, qp, beta = random_feasible_instance(rng, w_lo=3, w_hi=32)
            assert stationarity_residual(qp, energies, beta) <= 1e-8
            dist, _ = maxent_distribution(qp, energies, beta)
            probs = dist.as_array()
            best = uncertainty(dist, qp)
            target_u = mean_energy(dist, energies)
            basis = np.linalg.qr(
                np.stack([np.ones(dist.W), energies.as_array()], axis=1)
            )[0]
            for _ in range(100):
                raw = rng.standard_normal(dist.W)
                tangent = raw - basis @ (basis.T @ raw)
                peak = np.abs(tangent).max()
                if peak < 1e-12:
                    continue
                scale = min(1.0, 0.5 * float((probs / np.maximum(np.abs(tangent), 1e-300)).min()))
                perturbed = Distribution((probs + scale * tangent).tolist())
                assert abs(math.fsum(perturbed.probs) - 1.0) <= 1e-9
                assert abs(mean_energy(perturbed, energies) - target_u) <= 1e-9
                # 1e-12 slack absorbs pure roundoff; the perturbations
                # themselves satisfy the constraints to ~1e-15
                assert uncertainty(perturbed, qp) <= best + 1e-12


def test_criterion_09_beta_inversion_round_trip():
    with criterion(9, "beta inversion attains in-hull targets to 1e-9 over 100 instances"):
        rng = np.random.default_rng(109)
        solved = 0
        while solved < 100:
            energies, qp, beta_probe = random_feasible_instance(rng, w_lo=2, w_hi=16)
            if energies.x_min == energies.x_max:
                continue
            if qp.is_super_unit:
                # draw the target inside the attainable range, which for
                # q > 1 is a strict subset of the open energy hull
                lo_dist, _ = maxent_distribution(qp, energies, abs(beta_probe))
                hi_dist, _ = maxent_distribution(qp, energies, -abs(beta_probe))
                u_lo = mean_energy(lo_dist, energies)
                u_hi = mean_energy(hi_dist, energies)
            else:
                u_lo = energies.x_min + 0.05 * (energies.x_max - energies.x_min)
                u_hi = energies.x_max - 0.05 * (energies.x_max - energies.x_min)
            if not u_lo < u_hi:
                continue
            target = float(rng.uniform(u_lo, u_hi))
            try:
                _, dist = solve_beta(qp, energies, target)
            except BracketError:
                continue
            assert abs(mean_energy(dist, energies) - target) <= 1e-9
            solved += 1


def test_criterion_10_escort_contrast():
    with criterion(10, "escort fixed point converges and differs from the direct maximizer"):
        energies = Spectrum([0.0, 1.0])
        solution = escort_distribution(0.8, energies, 1.0)
        assert solution.converged
        assert solution.residual <= 1e-10
        reference, _ = maxent_distribution(QParam(0.8), energies, 1.0)
        gap = max(abs(a - b) for a, b in zip(solution.p.probs, reference.probs))
        assert gap > 1e-3


def test_criterion_11_nonnegativity_and_uniform_maximality():
    with criterion(11, "0 <= uncertainty <= uniform maximum over 1000 random (p, q)"):
        rng = np.random.default_rng(111)
        for index in range(1000):
            w = int(rng.integers(1, 33))
            raw = rng.uniform(1e-9, 1.0, w)
            dist = Distribution((raw / raw.sum()).tolist())
            q = QParam(1.0) if index % 20 == 0 else QParam(float(rng.uniform(0.05, 3.0)))
            value = uncertainty(dist, q)
            assert value >= 0.0
            assert value <= max_uncertainty(w, q) + 1e-14
