#!/usr/bin/env python3
"""Benchmark of qentropy, one workload per process.

    python3 bench/run.py --workload small-spectra --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the library is imported from its
``src/`` directory.  The run sets up (import, seeded inputs, one
warm-up operation), then repeats whole rounds of the workload's
operations until the timed operations add up to ``--seconds``, and
checks every result against the independent reference in
``reference.py``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics (from
wrapped library calls) with ``--trace 1``.  End-to-end times are
scaled to a reference machine speed by a calibration kernel timed in
the same run (see README.md).  Exit status is 1 when a check fails and
2 when the checkout has no library sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import types
from time import perf_counter

# single-threaded numpy, here and in every child process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: set-up is repeated this often per run and its median reported.
SETUP_REPEATS = 3
#: the calibration kernel runs again once this much operation time has passed;
#: each attempt is scaled by the fastest of the last KERNEL_WINDOW kernel runs.
CALIBRATE_EVERY_S = 0.25
KERNEL_WINDOW = 3
#: fastest time of the calibration kernel on the reference machine (the
#: 2-vCPU guest described in README.md); end-to-end times are scaled to it.
REFERENCE_KERNEL_S = 1.6e-3
CALIBRATION_ARRAY = np.random.default_rng(0).random(4096)
#: child processes per floor measurement of the traced cli run.
FLOOR_REPEATS = 5
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "core.spectrum_init_ms": "ms",
    "core.distribution_init_ms": "ms",
    "shift.solve_ms": "ms",
    "shift.evals_per_solve": "count",
    "shift.iterations": "count",
    "shift.kernel_eval_us": "us",
    "shift.kernel_share": "ratio",
    "shift.feasibility_us": "us",
    "shift.probs_eval_ms": "ms",
    "entropy.uncertainty_us": "us",
    "entropy.two_state_sweep_ms": "ms",
    "entropy.compose_ms": "ms",
    "maxent.shift_solves_per_beta": "count",
    "maxent.failed_probes_per_beta": "count",
    "maxent.solve_beta_self_ms": "ms",
    "maxent.escort_updates": "count",
    "maxent.escort_update_us": "us",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.handler_ms.{c}": "ms" for c in tracing.CLI_COMMANDS},
    **{f"cli.render_ms.{c}": "ms" for c in tracing.CLI_COMMANDS},
}


def load_library():
    """Import qentropy from this checkout's src/, or None if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "qentropy", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import qentropy.cli
    import qentropy.core
    import qentropy.entropy
    import qentropy.errors
    import qentropy.maxent
    import qentropy.shift

    if not os.path.abspath(qentropy.__file__).startswith(SRC + os.sep):
        return None
    return types.SimpleNamespace(
        core=qentropy.core, shift=qentropy.shift, entropy=qentropy.entropy,
        maxent=qentropy.maxent, cli=qentropy.cli, errors=qentropy.errors, src=SRC,
    )


def child_seconds(code: str) -> float:
    """Wall time of ``python -c code`` started from here."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=workloads.child_env(SRC), check=True,
                   timeout=120)
    return perf_counter() - start


def child_import_seconds(module: str) -> float:
    """Time to import ``module`` in a fresh interpreter, measured inside it."""
    code = (f"import time; t = time.perf_counter(); import {module}; "
            f"print(repr(time.perf_counter() - t))")
    out = subprocess.run([sys.executable, "-c", code], env=workloads.child_env(SRC), check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return float(out.strip())


def calibration_kernel() -> float:
    """Time a fixed mix of interpreter and small-numpy work that shares no code with qentropy."""
    start = perf_counter()
    total = 0.0
    for i in range(20000):
        total += i * 0.5
    for _ in range(40):
        total += float(np.power(CALIBRATION_ARRAY, 0.7).sum())
    return perf_counter() - start


def set_up(lib, name: str, seed: int, toy: bool):
    """Build the workload SETUP_REPEATS times.

    Set-up is the import of the package (timed in fresh interpreters),
    seeded input generation, and one warm-up operation.  Returns the
    workload, the median set-up time and the fastest calibration kernel
    run next to each build.
    """
    module = "qentropy.cli" if name == "cli" else "qentropy"
    imports = [child_import_seconds(module) for _ in range(SETUP_REPEATS)]
    builds, kernels = [], []
    for _ in range(SETUP_REPEATS):
        kernels.extend(calibration_kernel() for _ in range(3))
        start = perf_counter()
        workload = workloads.WORKLOADS[name](lib, seed, toy)
        workload.ops[0].run()
        builds.append(perf_counter() - start)
    setup_s = statistics.median(imports) + statistics.median(builds)
    return workload, setup_s, min(kernels)


def verify(op, result) -> None:
    """Check a result, unless it repeats exactly one already checked."""
    if op.fingerprint is None:
        op.check(result)
        return
    fingerprint = op.fingerprint(result)
    if fingerprint != op.checked:
        op.check(result)
        op.checked = fingerprint


def measure(lib, workload, seconds: float, tracer) -> dict:
    """Repeat whole rounds until the timed operations add up to ``seconds``.

    Returns every attempt's time grouped by input (the op's position in
    the round), each also scaled to the reference machine by the fastest
    of the last KERNEL_WINDOW calibration kernel runs.  Checks run between
    operations and are not counted; a failed check ends the run and is
    returned as ``error``.
    """
    failures = (lib.errors.QentropyError,)
    by_input: list[list[float]] = [[] for _ in workload.ops]
    completed: list[bool] = [True for _ in workload.ops]
    kernels: list[float] = []
    busy = since_kernel = 0.0
    attempted = failed = rounds = 0
    failed_kinds: dict[str, int] = {}
    while True:
        for i, op in enumerate(workload.ops):
            if not kernels or since_kernel >= CALIBRATE_EVERY_S:
                kernels.append(calibration_kernel())
                since_kernel = 0.0
            t0 = perf_counter()
            try:
                result = op.run()
            except failures as exc:
                elapsed = perf_counter() - t0
                completed[i] = False
                failed += 1
                failed_kinds[type(exc).__name__] = failed_kinds.get(type(exc).__name__, 0) + 1
            else:
                elapsed = perf_counter() - t0
                try:
                    verify(op, result)
                except ref.CheckFailed as exc:
                    return {"error": str(exc), "attempted": attempted + 1, "failed": failed}
                del result
            busy += elapsed
            since_kernel += elapsed
            attempted += 1
            by_input[i].append(elapsed * REFERENCE_KERNEL_S / min(kernels[-KERNEL_WINDOW:]))
        if tracer is not None and workload.traced_extra is not None:
            try:
                workload.traced_extra(tracer)
            except ref.CheckFailed as exc:
                return {"error": str(exc), "attempted": attempted, "failed": failed}
        rounds += 1
        if busy >= seconds:
            break
    return {"by_input": by_input, "completed": completed, "busy": busy,
            "kernel_s": statistics.median(kernels), "attempted": attempted,
            "failed": failed, "rounds": rounds, "failed_kinds": failed_kinds}


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def end_to_end(setup_s: float, setup_kernel_s: float, run: dict) -> dict[str, float]:
    """Set-up, throughput and tail, scaled to the reference machine's speed.

    The machine's own speed drifts by up to 1.7x over seconds to
    minutes, so every time is multiplied by REFERENCE_KERNEL_S over the
    calibration kernel's time next to it.  An input's time is then the
    median of its scaled attempts across rounds.  The tail is p99 of the
    completed inputs' times when a round has at least 1000 inputs, p90
    when it has at least 100 (so that ten inputs lie beyond it), and the
    slowest input otherwise.
    """
    medians = [statistics.median(times) for times in run["by_input"]]
    done = [t for t, ok in zip(medians, run["completed"]) if ok]
    if len(done) >= 1000:
        tail = statistics.quantiles(done, n=100)[98]
    elif len(done) >= 100:
        tail = statistics.quantiles(done, n=10)[8]
    else:
        tail = max(done)
    return {
        "setup_s": setup_s * REFERENCE_KERNEL_S / setup_kernel_s,
        "ops_per_s": len(done) / math.fsum(medians),
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }


def cli_floors() -> dict[str, float]:
    """Bare interpreter start-up, and importing qentropy.cli on top of it."""
    bare = statistics.median(child_seconds("pass") for _ in range(FLOOR_REPEATS))
    imported = statistics.median(child_seconds("import qentropy.cli")
                                 for _ in range(FLOOR_REPEATS))
    return {"interpreter_s": bare, "import_s": imported - bare}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    lib = load_library()
    if lib is None:
        print(f"run.py: no qentropy sources under {SRC}", file=sys.stderr)
        return 2
    lib.workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return run(lib, args)
    finally:
        shutil.rmtree(lib.workdir, ignore_errors=True)


def run(lib, args) -> int:
    workload, setup_s, setup_kernel_s = set_up(lib, args.workload, args.seed, args.toy)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(lib)
    try:
        result = measure(lib, workload, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if "error" in result:
        print(f"run.py: check failed on {args.workload} seed {args.seed}: {result['error']}",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": {}}))
        return 1

    print(f"# {args.workload} seed {args.seed}: {result['rounds']} rounds of "
          f"{len(workload.ops)} inputs, {result['attempted']} attempted, "
          f"{result['failed']} failed {result['failed_kinds'] or ''}, "
          f"{result['busy']:.3f} s timed "
          f"({result['attempted'] - result['failed']} completed, "
          f"{(result['attempted'] - result['failed']) / result['busy']:.6g}/s over all attempts), "
          f"set-up {setup_s:.3f} s, calibration kernel {setup_kernel_s * 1e3:.3f} ms at "
          f"set-up and {result['kernel_s'] * 1e3:.3f} ms (median) while measuring "
          f"(reference {REFERENCE_KERNEL_S * 1e3:g} ms)")
    if tracer is None:
        values = end_to_end(setup_s, setup_kernel_s, result)
        units = END_TO_END_UNITS
    else:
        floors = cli_floors() if args.workload == "cli" else {}
        values = tracing.per_layer(tracer, floors)
        units = PER_LAYER_UNITS
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "ops_per_s_traced": end_to_end(setup_s, setup_kernel_s,
                                                      result)["ops_per_s"],
                       "spans": tracer.table()}, handle, indent=1)
        print(f"# spans written to {os.path.relpath(trace_path, ROOT)}")
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
