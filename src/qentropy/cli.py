"""Command-line front end: JSON run reports and CSV sweep emitters.

Every run but a usage error prints exactly one JSON report object on
standard output (CSV files are written for tabular sweeps).  Handlers
raise; the one table ``_FAILURES`` gives the status and ``_EXIT`` the
exit code: 0 ok, 1 input/IO error, 2 mathematical infeasibility or
non-convergence, 64 usage error, which includes a non-finite float
argument.  All numbers are rendered with 17 significant digits so
emitted values round-trip doubles exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import Any, Sequence

import numpy as np

from .core import Distribution, QParam, Spectrum, _deformed_exp, validate_distribution
from .entropy import (
    SweepTable,
    bg_entropy,
    compose,
    tsallis_entropy,
    two_state_sweep,
    uncertainty,
)
from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    InfeasibleError,
    QentropyError,
    RangeError,
)
from .maxent import (
    EscortSolution,
    escort_distribution,
    maxent_distribution,
    mean_energy,
    solve_beta,
    stationarity_residual,
)
from .shift import (
    RESIDUAL_BOUND,
    domain_interval,
    feasibility,
    partition_value,  # noqa: F401  (looked up here by the benchmark's tracer)
    solve_shift,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_USAGE = 64


# --- rendering -----------------------------------------------------------

def format_number(value: float) -> str:
    """Render a float with 17 significant digits (lossless for doubles)."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"cannot render non-finite value {value!r}")
    return format(float(value), ".17g")


def dumps_report(obj: Any) -> str:
    """Serialize a report to JSON with 17-significant-digit floats."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_number(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {dumps_report(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_report(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_sweep_csv(table: SweepTable, path: str) -> None:
    """Write a sweep table as RFC-4180-style CSV with LF line endings."""
    rows = [[format_number(v) for v in row] for row in table.rows]  # before any file exists
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(table.headers)
        writer.writerows(rows)


def read_sweep_csv(path: str) -> SweepTable:
    """Parse a CSV emitted by :func:`write_sweep_csv` back into a table."""
    with open(path, "r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        headers = tuple(next(reader))
        rows = tuple(tuple(float(cell) for cell in row) for row in reader if row)
    return SweepTable(headers, rows)


# --- report plumbing -----------------------------------------------------

class _UsageError(ValueError):
    """An argument combination that argparse cannot express; exits 64."""


_INPUT_ERRORS = (OSError, ValueError, json.JSONDecodeError, QentropyError)

#: The one failure table: a run that raised takes the status of the first row
#: its exception matches.  A row naming a command applies once that command's
#: inputs hold ``values``: maxent's RangeError is then a target outside the
#: open hull (solve_beta), not a bad q (QParam).
_FAILURES = (
    (None, _UsageError, "usage"),
    (None, (InfeasibleError, ConvergenceError, BracketError), "infeasible"),
    ("maxent", RangeError, "infeasible"),
    (None, _INPUT_ERRORS, "error"),
)
_EXIT = {"ok": EXIT_OK, "error": EXIT_ERROR, "infeasible": EXIT_INFEASIBLE, "usage": EXIT_USAGE}
_Checks = Sequence[tuple[str, float, float]]


def _emit(report: dict, checks: _Checks = (), exc: Exception | None = None) -> int:
    """Print the run's one report and return its exit code.

    A finished run re-checks its (name, value, bound) residual contracts
    before claiming ok.  A failed run reports ``exc``; an infeasible one
    keeps what it had (shift's feasibility, escort's last iterate).
    """
    for name, value, bound in checks:
        if not abs(value) <= bound:
            report["status"] = "error"
            report["results"]["violated_contract"] = name
            break
    if exc is not None:
        loaded = "values" in report["inputs"]
        status = next(status for command, types, status in _FAILURES
                      if isinstance(exc, types)
                      and (command is None or (loaded and command == report["command"])))
        if status == "usage":
            print(f"qentropy {report['command']}: error: {exc}", file=sys.stderr)
            return _EXIT[status]
        kept = {}
        if status == "infeasible":
            last = getattr(exc, "solution", None)  # a NonConvergenceError's last iterate
            kept = report["results"] if last is None else _escort_results(last)
        report["results"] = {"message": str(exc), "error": type(exc).__name__, **kept}
        report["status"] = status
        print(f"qentropy {report['command']}: {exc}", file=sys.stderr)
    sys.stdout.write(dumps_report(report) + "\n")
    return _EXIT[report["status"]]


def load_spectrum(path: str) -> Spectrum:
    """Read a spectrum file: JSON object {"values": [...], "label": optional}."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "values" not in payload:
        raise ValueError(f"{path}: expected an object with a 'values' array")
    values = payload["values"]
    if not isinstance(values, list) or not values:
        raise ValueError(f"{path}: 'values' must be a non-empty array")
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"{path}: non-finite or non-numeric entry {v!r}")
    label = payload.get("label")
    if label is not None and not isinstance(label, str):
        raise ValueError(f"{path}: 'label' must be a string")
    return Spectrum(values)


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"bad {what} list {text!r}: {exc}") from None


# --- subcommand handlers -------------------------------------------------
# Each fills in the report's inputs, q and results as it goes, raises on
# any failure and returns the residual contracts to re-check.

def _cmd_shift(args: argparse.Namespace, report: dict) -> _Checks:
    report.update(q=args.q, inputs={"spectrum": args.spectrum, "tol": args.tol,
                                    "closed_forms": not args.no_closed_form})
    spectrum = load_spectrum(args.spectrum)
    qp = QParam(args.q)
    report["inputs"]["values"] = spectrum.as_array().tolist()
    report_feas = feasibility(spectrum, qp)
    # JSON has no infinity, so a sum that overflowed is reported as null
    feas_dict = {
        "endpoint_value": (report_feas.endpoint_value
                           if math.isfinite(report_feas.endpoint_value) else None),
        "sufficient_bound": (report_feas.sufficient_bound
                             if math.isfinite(report_feas.sufficient_bound) else None),
        "feasible": report_feas.feasible,
    }
    report["results"] = {"feasibility": feas_dict}
    solution = solve_shift(spectrum, qp, tol=args.tol,
                           use_closed_forms=not args.no_closed_form)
    report["results"] = {
        "a0": solution.a0,
        "residual": solution.residual,
        "method": solution.method.value,
        "bracket": list(solution.bracket),
        "iterations": solution.iterations,
        "feasibility": feas_dict,
    }
    return [("shift residual", solution.residual, RESIDUAL_BOUND)]


def _cmd_entropy(args: argparse.Namespace, report: dict) -> _Checks:
    report.update(q=args.q, inputs={"probs": args.probs, "spectrum": args.spectrum})
    qp = QParam(args.q)
    if args.probs is not None:
        dist = validate_distribution(_parse_floats(args.probs, "probability"))
        extra = {}
    else:
        spectrum = load_spectrum(args.spectrum)
        report["inputs"]["values"] = spectrum.as_array().tolist()
        from .shift import shifted_distribution

        dist, solution = shifted_distribution(spectrum, qp)
        extra = {"p": dist.as_array().tolist(), "a0": solution.a0,
                 "residual": solution.residual}
    report["results"] = {
        "uncertainty": uncertainty(dist, qp),
        "tsallis_same_index": tsallis_entropy(dist, qp.q),
        "bg_entropy": bg_entropy(dist),
        **extra,
    }
    return ()


def _cmd_sweep(args: argparse.Namespace, report: dict) -> _Checks:
    report["inputs"] = {"q": args.q, "points": args.points, "out": args.out,
                        "partition": bool(args.partition)}
    if args.partition and args.spectrum is None:
        raise _UsageError("--partition requires --spectrum")
    if not args.partition and (args.a_min is not None or args.a_max is not None):
        raise _UsageError("--a-min/--a-max apply to --partition only")
    q_values = _parse_floats(args.q, "q")
    if not q_values:
        raise ValueError("need at least one q value")
    if args.partition and len(q_values) != 1:
        raise _UsageError("--partition takes exactly one q value")
    if args.partition:
        table = _partition_table(args, q_values, report["inputs"])
    else:
        table = two_state_sweep([QParam(v) for v in q_values], args.points)
    write_sweep_csv(table, args.out)
    report["results"] = {"rows": len(table.rows), "columns": list(table.headers),
                         "path": args.out}
    return ()


def _partition_table(args: argparse.Namespace, q_values: list[float], inputs: dict) -> SweepTable:
    """Tabulate (a, f(a)) on a grid clipped to the valid shift domain."""
    spectrum = load_spectrum(args.spectrum)
    qp = QParam(q_values[0])
    inputs["spectrum"] = args.spectrum
    inputs["values"] = spectrum.as_array().tolist()
    lo_dom, hi_dom = domain_interval(spectrum, qp)
    # keep strictly inside an open upper endpoint, where f diverges
    if math.isfinite(hi_dom):
        hi_dom -= 1e-13 * (1.0 + abs(hi_dom))
    a_min, a_max = args.a_min, args.a_max
    if a_min is None or a_max is None:
        try:
            center = solve_shift(spectrum, qp).a0
        except InfeasibleError:
            center = lo_dom  # no crossing; plot from the endpoint rightward
        width = 2.0 * (1.0 + spectrum.x_max - spectrum.x_min)
        if a_min is None:
            a_min = center - width
        if a_max is None:
            a_max = center + width
    a_min = max(a_min, lo_dom)
    a_max = min(a_max, hi_dom)
    if not a_min < a_max:
        raise DomainError("requested shift range lies outside the valid domain")
    if args.points < 2:
        raise ValueError("partition sweep needs at least 2 grid points")
    grid = a_min + (a_max - a_min) * np.arange(args.points) / (args.points - 1)
    x, step = spectrum.as_array(), max(1, 2**20 // spectrum.W)  # rows of ~2^20 terms per block
    f = np.concatenate([_deformed_exp(x - grid[i:i + step, None], qp.q - 1.0).sum(axis=1)
                        for i in range(0, grid.size, step)])  # partition_value at each point
    return SweepTable(("a", "f"), tuple(zip(grid.tolist(), f.tolist())))


def _cmd_maxent(args: argparse.Namespace, report: dict) -> _Checks:
    report.update(q=args.q, inputs={"spectrum": args.spectrum, "beta": args.beta,
                                    "target_u": args.target_u})
    spectrum = load_spectrum(args.spectrum)
    qp = QParam(args.q)
    report["inputs"]["values"] = spectrum.as_array().tolist()
    if args.beta is not None:
        beta = args.beta
        dist, solution = maxent_distribution(qp, spectrum, beta)
    else:
        beta, dist = solve_beta(qp, spectrum, args.target_u)
        _, solution = maxent_distribution(qp, spectrum, beta)
    try:
        stationarity = stationarity_residual(qp, spectrum, beta)
    except DomainError:
        stationarity = None  # a boundary probability of exactly 0
    achieved = mean_energy(dist, spectrum)
    report["results"] = {
        "p": dist.as_array().tolist(),
        "beta": beta,
        "achieved_u": achieved,
        "a0": solution.a0,
        "residual": solution.residual,
        "stationarity_residual": stationarity,
    }
    checks = [("shift residual", solution.residual, RESIDUAL_BOUND)]
    if args.target_u is not None:
        checks.append(("achieved energy", achieved - args.target_u, 1e-9))
    if stationarity is not None:
        checks.append(("stationarity residual", stationarity, 1e-8))
    return checks


def _cmd_compose(args: argparse.Namespace, report: dict) -> _Checks:
    report.update(q=args.q, inputs={"probs_a": args.probs_a, "probs_b": args.probs_b})
    qp = QParam(args.q)
    dist_a = validate_distribution(_parse_floats(args.probs_a, "probability"))
    dist_b = validate_distribution(_parse_floats(args.probs_b, "probability"))
    result = compose(dist_a, dist_b, qp)
    report["results"] = {
        "i_a": result.i_a,
        "i_b": result.i_b,
        "formula_value": result.formula_value,
        "direct_value": result.direct_value,
        "nonextensive_term": result.nonextensive_term,
        "mismatch": result.formula_value - result.direct_value,
    }
    return [("composition identity", result.formula_value - result.direct_value, 1e-12)]


def _escort_results(solution: EscortSolution) -> dict:
    return {"p": solution.p.as_array().tolist(), "residual": solution.residual,
            "iterations": solution.iterations, "converged": solution.converged}


def _cmd_escort(args: argparse.Namespace, report: dict) -> _Checks:
    report.update(q=args.q_tilde, inputs={"spectrum": args.spectrum, "beta": args.beta,
                                          "damping": args.damping, "max_iter": args.max_iter,
                                          "tol": args.tol})
    spectrum = load_spectrum(args.spectrum)
    if not args.q_tilde > 0.0:
        raise RangeError(f"q_tilde must be a finite real > 0, got {args.q_tilde!r}")
    report["inputs"]["values"] = spectrum.as_array().tolist()

    def comparison(p_escort: Distribution) -> dict:
        try:
            reference, _ = maxent_distribution(QParam(args.q_tilde), spectrum, args.beta)
        except (InfeasibleError, ConvergenceError):
            return {"maxent_p": None, "difference": None, "max_abs_difference": None}
        diff = p_escort.as_array() - reference.as_array()
        return {
            "maxent_p": reference.as_array().tolist(),
            "difference": diff.tolist(),
            "max_abs_difference": float(np.abs(diff).max()),
        }

    solution = escort_distribution(
        args.q_tilde, spectrum, args.beta,
        damping=args.damping, tol=args.tol, max_iter=args.max_iter,
    )
    report["results"] = {**_escort_results(solution), **comparison(solution.p)}
    return [("escort residual", solution.residual, args.tol)]


# --- parser --------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """ArgumentParser with the project's usage exit code (64)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _finite_float(text: str) -> float:
    """argparse type: a finite float, so every echoed input can be rendered."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite float value: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qentropy",
        description="q-exponential shift normalization, uncertainty measure, and MaxEnt tools",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p_shift = sub.add_parser("shift", help="solve the normalizing shift for a spectrum")
    p_shift.add_argument("spectrum", help="path to a JSON spectrum file")
    p_shift.add_argument("--q", type=_finite_float, required=True, help="deformation index (> 0)")
    p_shift.add_argument("--tol", type=_finite_float, default=1e-12, help="solver tolerance")
    p_shift.add_argument("--no-closed-form", action="store_true",
                         help="force the generic bracketed solve")
    p_shift.set_defaults(handler=_cmd_shift)

    p_entropy = sub.add_parser("entropy", help="evaluate the uncertainty measure")
    source = p_entropy.add_mutually_exclusive_group(required=True)
    source.add_argument("--probs", help="comma-separated probability list")
    source.add_argument("--spectrum", help="spectrum file; probabilities come from the shift solve")
    p_entropy.add_argument("--q", type=_finite_float, required=True, help="deformation index (> 0)")
    p_entropy.set_defaults(handler=_cmd_entropy)

    p_sweep = sub.add_parser("sweep", help="emit CSV sweeps (two-state curves or partition sums)")
    p_sweep.add_argument("--q", required=True,
                         help="comma-separated q values (one value in partition mode)")
    p_sweep.add_argument("--points", type=int, default=201, help="grid size")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--partition", action="store_true",
                         help="tabulate the partition sum f(a) instead of entropy curves")
    p_sweep.add_argument("--spectrum", help="spectrum file (partition mode)")
    p_sweep.add_argument("--a-min", type=_finite_float, default=None, help="lower shift bound")
    p_sweep.add_argument("--a-max", type=_finite_float, default=None, help="upper shift bound")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_maxent = sub.add_parser("maxent", help="constrained maximizer at a given beta or mean energy")
    p_maxent.add_argument("spectrum", help="path to a JSON spectrum file")
    p_maxent.add_argument("--q", type=_finite_float, required=True, help="deformation index (> 0)")
    knob = p_maxent.add_mutually_exclusive_group(required=True)
    knob.add_argument("--beta", type=_finite_float, help="energy multiplier")
    knob.add_argument("--target-u", type=_finite_float,
                      help="target mean energy to invert for beta")
    p_maxent.set_defaults(handler=_cmd_maxent)

    p_compose = sub.add_parser("compose", help="composition identity for two independent systems")
    p_compose.add_argument("--probs-a", required=True, help="comma-separated probabilities of A")
    p_compose.add_argument("--probs-b", required=True, help="comma-separated probabilities of B")
    p_compose.add_argument("--q", type=_finite_float, required=True, help="deformation index (> 0)")
    p_compose.set_defaults(handler=_cmd_compose)

    p_escort = sub.add_parser("escort", help="solve the self-referential escort distribution")
    p_escort.add_argument("spectrum", help="path to a JSON spectrum file")
    p_escort.add_argument("--q-tilde", type=_finite_float, required=True, help="escort index (> 0)")
    p_escort.add_argument("--beta", type=_finite_float, required=True, help="energy multiplier")
    p_escort.add_argument("--damping", type=_finite_float, default=0.5,
                          help="fixed-point damping in (0, 1]")
    p_escort.add_argument("--max-iter", type=int, default=10000, help="iteration cap")
    p_escort.add_argument("--tol", type=_finite_float, default=1e-10,
                          help="fixed-point residual tolerance")
    p_escort.set_defaults(handler=_cmd_escort)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    report = {"command": args.subcommand, "inputs": {}, "q": None, "results": {},
              "status": "ok"}
    try:
        return _emit(report, args.handler(args, report))
    except _INPUT_ERRORS as exc:
        return _emit(report, exc=exc)


if __name__ == "__main__":
    sys.exit(main())
