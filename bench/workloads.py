"""Seeded inputs, timed operations and their checks, one function per workload.

Each function returns the :class:`Workload` whose ops make up one round; a
run repeats whole rounds.  Every call into qentropy goes through the
module attribute (``lib.shift.shifted_distribution``), so the tracer's
wrappers see it under the name the library itself looks up.

Inputs depend only on the seed, except the fixed failing slice of
small-spectra, which does not depend on it at all.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import reference as ref

#: small-spectra q values, cycled so every round has the same mix:
#: sub-unit, exactly 1, q = 2, other super-unit values and |q - 1| = 1e-5.
SMALL_QS = (0.3, 0.5, 0.8, 1.0, 1.5, 2.0, 3.0, 1.0 + 1e-5, 1.0 - 1e-5)
#: q of the failing slice; every solve there raises ConvergenceError.
FAILING_Q = 1.0 - 1e-9
#: spectra of the failing slice, independent of the seed.
FAILING_SPECTRA = (
    (0.0, 0.4),
    (0.0, 0.4, 1.3),
    (0.0, 0.25, 0.5, 1.0),
    (0.0, 0.1, 0.7, 0.9, 2.0),
    (0.3, 0.4),
    (0.0, 1.0, 2.0),
)
LARGE_QS = (0.5, 0.8, 1.0, 1.5)
BETA_QS = (0.5, 0.8, 1.0, 1.5, 2.5)
ESCORT_QTILDES = (0.5, 0.7, 0.9, 1.3)
SWEEP_QS = "0.2,0.5,0.8,1,1.5,2,3"
SWEEP_POINTS = 2001
PARTITION_POINTS = 200
#: endpoint sum that q > 1 spectra are scaled down to when above it.
FEASIBLE_ENDPOINT_SUM = 0.25


@dataclass
class Op:
    """One timed operation, its reference check and an optional fingerprint.

    ``run`` returns the raw result.  ``check`` raises ref.CheckFailed.
    ``fingerprint`` maps a result to a value that repeats exactly when
    the result does; an op whose fingerprint matches its last checked
    result is not checked again.  Without one, every result is checked.
    """

    run: Callable[[], Any]
    check: Callable[[Any], None]
    fingerprint: Callable[[Any], Any] | None = None
    checked: Any = None


@dataclass
class Workload:
    ops: list[Op]
    #: called with the tracer once per round of a traced run.
    traced_extra: Callable[[Any], None] | None = None


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, sum(name.encode())])


def _log_uniform_int(rng, lo: int, hi: int) -> int:
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi + 1))))


def _feasible(x: np.ndarray, q: float) -> np.ndarray:
    """Scale the gaps of a q > 1 spectrum so its endpoint sum is at most 0.25.

    The endpoint sum scales as s^(1/(q-1)) when every gap x_i - x_min is
    multiplied by s; unscaled uniform spectra are infeasible at q = 1.5
    once W >= 100.
    """
    if q <= 1.0:
        return x
    with np.errstate(under="ignore"):
        s = float(np.sum(((q - 1.0) * (x.max() - x)) ** (1.0 / (q - 1.0))))
    if s <= FEASIBLE_ENDPOINT_SUM:
        return x
    lo = x.min()
    return lo + (x - lo) * (FEASIBLE_ENDPOINT_SUM / s) ** (q - 1.0)


def _dist_fingerprint(result) -> tuple:
    dist, solution, value = result
    return (solution.a0, value, hash(dist.probs))


# --- small-spectra ------------------------------------------------------------

def small_spectra(lib, seed: int, toy: bool = False) -> Workload:
    """Several thousand spectra, W in [2, 256], each solved and measured once."""
    rng = _rng(seed, "small-spectra")
    count = 90 if toy else 2997
    every = count // len(FAILING_SPECTRA)
    ops = []
    for k in range(count):
        q = SMALL_QS[k % len(SMALL_QS)]
        w = _log_uniform_int(rng, 2, 256)
        span = math.exp(rng.uniform(math.log(0.1), math.log(5.0)))
        ops.append(_solve_op(lib, _feasible(rng.random(w) * span, q).tolist(), q))
        if k % every == every - 1 and k // every < len(FAILING_SPECTRA):
            ops.append(_solve_op(lib, list(FAILING_SPECTRA[k // every]), FAILING_Q))
    return Workload(ops)


def _solve_op(lib, xs: list[float], q: float) -> Op:
    spectrum = lib.core.Spectrum(xs)
    qp = lib.core.QParam(q)
    order = ref.ascending(xs)

    def run():
        dist, solution = lib.shift.shifted_distribution(spectrum, qp)
        return dist, solution, lib.entropy.uncertainty(dist, qp)

    def check(result):
        dist, solution, value = result
        ref.check_shift(xs, q, solution.a0, dist.probs, order)
        ref.check_entropy(dist.probs, q, value)

    return Op(run, check, _dist_fingerprint)


# --- large-spectrum -----------------------------------------------------------

def large_spectrum(lib, seed: int, toy: bool = False) -> Workload:
    """One W = 10^6 uniform[0, 1) spectrum per q, each array -> Spectrum -> solve -> entropy.

    The span is fixed: at this W the draws of any seed have the same
    statistics, so the solver does the same work on every seed.
    """
    rng = _rng(seed, "large-spectrum")
    w = 10_000 if toy else 1_000_000
    return Workload([_large_op(lib, _feasible(rng.random(w), q), q) for q in LARGE_QS])


def _large_op(lib, values: np.ndarray, q: float) -> Op:
    qp = lib.core.QParam(q)
    values.flags.writeable = False

    def run():
        spectrum = lib.core.Spectrum(values)
        dist, solution = lib.shift.shifted_distribution(spectrum, qp)
        return dist, solution, lib.entropy.uncertainty(dist, qp)

    def check(result):
        dist, solution, value = result
        ref.check_shift(values.tolist(), q, solution.a0, dist.probs,
                        np.argsort(values, kind="stable").tolist())
        ref.check_entropy(dist.probs, q, value)

    return Op(run, check, _dist_fingerprint)


# --- beta-inversion -----------------------------------------------------------

def _draw_energies(rng, lo: int, hi: int) -> list[float]:
    w = _log_uniform_int(rng, lo, hi)
    span = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    return (rng.random(w) * span).tolist()


def _draw_beta(rng, q: float, energies: list[float]) -> float:
    """beta* strictly inside the feasible caps, away from 0 so its sign is clear."""
    sign = 1.0 if rng.random() < 0.5 else -1.0
    u = rng.uniform(0.1, 0.8)
    if q > 1.0:
        cap_neg, cap_pos = ref.feasible_beta_caps(energies, q)
        return u * (cap_pos if sign > 0 else cap_neg)
    return sign * u * 4.0 / (max(energies) - min(energies))


def target_energy(energies: list[float], q: float, beta: float) -> float:
    """Mean energy of the maximizer at beta, from the reference solve alone."""
    xs = [beta * e for e in energies]
    return ref.mean_energy(ref.probabilities(xs, q, ref.solve_shift(xs, q)), energies)


def beta_inversion(lib, seed: int, toy: bool = False) -> Workload:
    """solve_beta on targets computed from a known beta* by the reference code."""
    rng = _rng(seed, "beta-inversion")
    count = len(BETA_QS) * (1 if toy else 20)
    ops = []
    for k in range(count):
        q = BETA_QS[k % len(BETA_QS)]
        energies = _draw_energies(rng, 16, 256)
        target = target_energy(energies, q, _draw_beta(rng, q, energies))
        ops.append(_beta_op(lib, energies, q, target))
    return Workload(ops)


def _beta_op(lib, energies: list[float], q: float, target: float) -> Op:
    spectrum = lib.core.Spectrum(energies)
    qp = lib.core.QParam(q)

    def run():
        return lib.maxent.solve_beta(qp, spectrum, target)

    def check(result):
        beta, dist = result
        ref.check_beta(energies, q, target, beta, dist.probs)

    return Op(run, check, lambda r: (r[0], hash(r[1].probs)))


# --- escort -------------------------------------------------------------------

def _escort_beta(rng, q_tilde: float, energies: list[float]) -> float:
    """beta whose escort brackets stay positive at every iterate.

    Brackets are 1 - (1 - qt)(x_i - xbar)/sum p^qt with |x_i - xbar| <=
    |beta| span; sum p^qt >= 1 for qt < 1 and >= W^(1 - qt) for qt > 1,
    so |beta| span |1 - qt| <= sum-bound / 2 keeps each bracket >= 1/2.
    """
    span = max(energies) - min(energies)
    floor = 1.0 if q_tilde < 1.0 else len(energies) ** (1.0 - q_tilde)
    bound = 0.5 * floor / (abs(1.0 - q_tilde) * span)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return sign * rng.uniform(0.2, 1.0) * bound


def escort(lib, seed: int, toy: bool = False) -> Workload:
    """escort_distribution on (q_tilde, beta) pairs whose fixed point has positive brackets."""
    rng = _rng(seed, "escort")
    count = len(ESCORT_QTILDES) * (2 if toy else 64)
    ops = []
    for k in range(count):
        q_tilde = ESCORT_QTILDES[k % len(ESCORT_QTILDES)]
        energies = _draw_energies(rng, 16, 256)
        ops.append(_escort_op(lib, energies, q_tilde, _escort_beta(rng, q_tilde, energies)))
    return Workload(ops)


def _escort_op(lib, energies: list[float], q_tilde: float, beta: float) -> Op:
    spectrum = lib.core.Spectrum(energies)
    xs = [beta * e for e in energies]

    def run():
        return lib.maxent.escort_distribution(q_tilde, spectrum, beta)

    def check(solution):
        ref.require(solution.converged, "escort iteration did not converge")
        ref.check_escort(xs, q_tilde, solution.p.probs)

    return Op(run, check, lambda s: (s.iterations, hash(s.p.probs)))


# --- cli ------------------------------------------------------------------------

def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def cli_commands(seed: int, workdir: str) -> list[tuple[str, list[str], Callable]]:
    """The fixed CLI sequence on seeded inputs: (name, argv, check of the report)."""
    rng = _rng(seed, "cli")
    os.makedirs(workdir, exist_ok=True)

    def spectrum_file(name: str, values: list[float]) -> str:
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"values": values, "label": name}, handle)
        return path

    q_shift = float(rng.choice([0.5, 0.8, 1.5, 3.0]))
    xs = _feasible(rng.random(_log_uniform_int(rng, 8, 32)), q_shift).tolist()
    shift_path = spectrum_file("shift.json", xs)
    xs_order = ref.ascending(xs)

    q_beta = float(rng.choice([0.5, 1.5, 2.0]))
    energies = _draw_energies(rng, 8, 32)
    target = target_energy(energies, q_beta, _draw_beta(rng, q_beta, energies))
    beta_path = spectrum_file("maxent.json", energies)

    q_compose = float(rng.choice([0.5, 2.0, 3.0]))
    probs_ab = []
    for _ in range(2):
        raw = rng.random(_log_uniform_int(rng, 2, 5)) + 0.1
        probs_ab.append((raw / raw.sum()).tolist())

    q_tilde = float(rng.choice([0.5, 0.8]))
    esc_energies = _draw_energies(rng, 8, 32)
    esc_beta = _escort_beta(rng, q_tilde, esc_energies)
    esc_path = spectrum_file("escort.json", esc_energies)

    q_part = float(rng.choice([0.5, 0.8]))
    sweep_out = os.path.join(workdir, "sweep.csv")
    part_out = os.path.join(workdir, "partition.csv")

    def check_shift(res):
        ref.check_root(xs, q_shift, res["a0"])
        if q_shift > 1.0:
            got = res["feasibility"]["endpoint_value"]
            want = ref.endpoint_sum(xs, q_shift)
            ref.require(abs(got - want) <= ref.sum_slack(len(xs)),
                        f"endpoint sum {got!r} != reference {want!r}")

    def check_entropy(res):
        ref.check_shift(xs, q_shift, res["a0"], res["p"], xs_order)
        ref.check_entropy(res["p"], q_shift, res["uncertainty"])
        bg = ref.uncertainty(res["p"], 1.0)
        ref.require(abs(res["bg_entropy"] - bg) <= ref.entropy_slack(len(xs), 1.0, bg),
                    f"bg entropy {res['bg_entropy']!r} != reference {bg!r}")

    def check_maxent(res):
        ref.check_beta(energies, q_beta, target, res["beta"], res["p"])
        ref.check_root([res["beta"] * e for e in energies], q_beta, res["a0"])

    def check_compose(res):
        ref.check_compose(probs_ab[0], probs_ab[1], q_compose, res)

    def check_escort(res):
        ref.require(res["converged"] is True, "escort did not converge")
        ref.check_escort([esc_beta * e for e in esc_energies], q_tilde, res["p"])

    def check_sweep(res):
        check_sweep_csv(sweep_out, [float(v) for v in SWEEP_QS.split(",")])

    def check_partition(res):
        check_partition_csv(part_out, xs, q_part)

    fmt = lambda values: ",".join(repr(v) for v in values)
    return [
        ("shift", ["shift", shift_path, "--q", repr(q_shift)], check_shift),
        ("entropy", ["entropy", "--spectrum", shift_path, "--q", repr(q_shift)], check_entropy),
        ("maxent", ["maxent", beta_path, "--q", repr(q_beta), "--target-u", repr(target)],
         check_maxent),
        ("compose", ["compose", "--probs-a", fmt(probs_ab[0]), "--probs-b", fmt(probs_ab[1]),
                     "--q", repr(q_compose)], check_compose),
        ("escort", ["escort", esc_path, "--q-tilde", repr(q_tilde), "--beta", repr(esc_beta)],
         check_escort),
        ("sweep", ["sweep", "--q", SWEEP_QS, "--points", str(SWEEP_POINTS), "--out", sweep_out],
         check_sweep),
        ("sweep-partition", ["sweep", "--partition", "--spectrum", shift_path, "--q",
                             repr(q_part), "--points", str(PARTITION_POINTS), "--out", part_out],
         check_partition),
    ]


def _read_csv(path: str) -> tuple[list[str], list[list[float]]]:
    with open(path, encoding="utf-8", newline="") as handle:
        lines = handle.read().split("\n")
    ref.require(lines[-1] == "", "CSV lacks a trailing newline")
    header = lines[0].split(",")
    return header, [[float(cell) for cell in line.split(",")] for line in lines[1:-1]]


def check_sweep_csv(path: str, qs: list[float]) -> None:
    """Every row equals I((p, 1 - p)) in closed form on the inclusive grid."""
    header, rows = _read_csv(path)
    ref.require(header == ["p1"] + [f"I_q={q!r}" for q in qs], f"sweep header {header}")
    ref.require(len(rows) == SWEEP_POINTS, f"{len(rows)} sweep rows")
    for i, row in enumerate(rows):
        p = row[0]
        ref.require(abs(p - i / (SWEEP_POINTS - 1)) <= 4.0 * ref.EPS, f"grid point {p!r}")
        for q, got in zip(qs, row[1:]):
            want = ref.two_state_uncertainty(p, q)
            ref.require(abs(got - want) <= ref.entropy_slack(2, q, want),
                        f"I((p, 1-p)) at p={p!r}, q={q!r}: {got!r} != {want!r}")


def check_partition_csv(path: str, xs: list[float], q: float) -> None:
    """f(a) increases along the grid and matches the reference partition sum."""
    header, rows = _read_csv(path)
    ref.require(header == ["a", "f"], f"partition header {header}")
    ref.require(len(rows) == PARTITION_POINTS, f"{len(rows)} partition rows")
    before = -math.inf
    for a, f in rows:
        want = ref.partition(a, xs, q)
        ref.require(abs(f - want) <= ref.sum_slack(len(xs), want), f"f({a!r}) = {f!r} != {want!r}")
        ref.require(f > before, f"f does not increase at a={a!r}")
        before = f


def parse_report(stdout: str) -> dict:
    """Exactly one JSON report with status ok."""
    lines = stdout.splitlines()
    ref.require(len(lines) == 1, f"expected one report line, got {len(lines)}")
    try:
        report = json.loads(lines[0])
    except ValueError as exc:
        raise ref.CheckFailed(f"report is not JSON: {exc}") from None
    ref.require(report.get("status") == "ok", f"status {report.get('status')!r}")
    return report["results"]


def cli(lib, seed: int, toy: bool = False) -> Workload:
    """A closed loop of one: each qentropy process starts after the previous exits."""
    commands = cli_commands(seed, lib.workdir)
    env = child_env(lib.src)
    ops = []
    for _, argv, check_results in commands:
        def run(argv=argv):
            proc = subprocess.run([sys.executable, "-m", "qentropy.cli", *argv],
                                  capture_output=True, text=True, env=env, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr

        def check(result, check_results=check_results):
            code, stdout, stderr = result
            ref.require(code == 0, f"exit code {code}: {stderr.strip()[-300:]}")
            check_results(parse_report(stdout))

        ops.append(Op(run, check))

    def in_process(tracer):
        """Run each command through cli.main in this process, stdout captured."""
        for name, argv, check_results in commands:
            out = io.StringIO()
            with tracer.scope(name), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = lib.cli.main(argv)
            ref.require(code == 0, f"in-process {name} exited {code}")
            check_results(parse_report(out.getvalue()))

    return Workload(ops, traced_extra=in_process)


WORKLOADS = {
    "small-spectra": small_spectra,
    "large-spectrum": large_spectrum,
    "beta-inversion": beta_inversion,
    "escort": escort,
    "cli": cli,
}
