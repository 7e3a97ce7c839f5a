#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload at toy size, untraced and traced, and requires its
checks to pass and its result line to carry exactly the metrics named in
BENCHMARK.json.  Then feeds the checkers deliberately corrupted results
(a perturbed p_i, a wrong a0, a wrong entropy, a wrong beta, a moved
escort fixed point, a bad CLI report or CSV cell) and requires each to
be rejected.  Last, runs the benchmark in a directory that holds only
BENCHMARK.json and bench/, where it must fail without printing a result.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest: FAIL: {message}")


def rejects(check, *args) -> bool:
    try:
        check(*args)
    except ref.CheckFailed:
        return True
    return False


def run_benchmark(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def test_workloads() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        for workload in workloads.WORKLOADS:
            proc = run_benchmark(ROOT, workload, trace)
            expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: "
                                         f"{proc.stderr[-500:]}")
            result = json.loads(proc.stdout.splitlines()[-1])
            expect(result["correct"] is True, f"{workload} trace={trace} incorrect")
            expect(result["attempted"] >= 1, f"{workload} attempted nothing")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == declared, f"{workload} trace={trace} metrics differ from {key}")
            values = [m["value"] for m in result["metrics"].values()]
            expect(all(isinstance(v, float) and v == v for v in values),
                   f"{workload} trace={trace} has a non-number metric")
            if trace == 0:
                expect(all(v > 0.0 for v in values), f"{workload} has a zero end-to-end metric")
            # only the fixed q = 1 - 1e-9 slice may fail, and in every round
            per_round = len(workloads.FAILING_SPECTRA) if workload == "small-spectra" else 0
            ops = len(workloads.WORKLOADS[workload](LIB, 7, True).ops)
            expect(result["failed"] * ops == per_round * result["attempted"],
                   f"{workload} failed {result['failed']} of {result['attempted']}")
            print(f"selftest: ok {workload} trace={trace}: {result['attempted']} attempted, "
                  f"{result['failed']} failed")


def test_corrupted_results_are_rejected() -> None:
    op = workloads.small_spectra(LIB, 7, toy=True).ops[0]
    dist, solution, value = op.run()
    op.check((dist, solution, value))
    probs = list(dist.probs)

    moved = list(probs)
    moved[0] += 1e-6
    fake = types.SimpleNamespace
    expect(rejects(op.check, (fake(probs=moved), solution, value)), "perturbed p_i accepted")
    expect(rejects(op.check, (dist, fake(a0=solution.a0 + 1e-6), value)), "wrong a0 accepted")
    expect(rejects(op.check, (dist, solution, value + 1e-6)), "wrong entropy accepted")
    swapped = list(reversed(probs)) if probs[0] != probs[-1] else None
    if swapped is not None:
        expect(rejects(op.check, (fake(probs=swapped), solution, value)),
               "distribution rising in x accepted")

    energies, q = [0.0, 0.3, 0.7, 1.0], 1.5
    target = workloads.target_energy(energies, q, 0.8)
    beta_op = workloads._beta_op(LIB, energies, q, target)
    beta, beta_dist = beta_op.run()
    beta_op.check((beta, beta_dist))
    xs = [1.05 * beta * e for e in energies]
    elsewhere = ref.probabilities(xs, q, ref.solve_shift(xs, q))
    expect(rejects(beta_op.check, (1.05 * beta, fake(probs=elsewhere))), "wrong beta accepted")
    expect(rejects(beta_op.check, (-beta, beta_dist)), "beta of the wrong sign accepted")

    escort_op = workloads.escort(LIB, 7, toy=True).ops[0]
    solution = escort_op.run()
    escort_op.check(solution)
    moved = list(solution.p.probs)
    moved[0] += 1e-7
    moved[1] -= 1e-7
    expect(rejects(escort_op.check, fake(converged=True, p=fake(probs=moved))),
           "moved escort fixed point accepted")

    expect(rejects(workloads.parse_report, '{"status": "infeasible", "results": {}}\n'),
           "CLI report with a non-ok status accepted")
    expect(rejects(workloads.parse_report, '{"status": "ok", "results": {}}\n{}\n'),
           "two CLI reports accepted")
    expect(rejects(ref.check_compose, [0.5, 0.5], [0.25, 0.75], 2.0,
                   {"i_a": 0.25, "i_b": 0.1875, "formula_value": 0.34375,
                    "direct_value": 0.34375 + 1e-9}), "broken composition identity accepted")

    os.makedirs(run.OUT, exist_ok=True)
    sweep = os.path.join(run.OUT, "selftest-sweep.csv")
    qs = [float(v) for v in workloads.SWEEP_QS.split(",")]
    try:
        rows = ["p1," + ",".join(f"I_q={q!r}" for q in qs)]
        for i in range(workloads.SWEEP_POINTS):
            p = i / (workloads.SWEEP_POINTS - 1)
            rows.append(",".join(format(v, ".17g") for v in
                                 [p] + [ref.two_state_uncertainty(p, q) for q in qs]))
        with open(sweep, "w", encoding="utf-8") as handle:
            handle.write("\n".join(rows) + "\n")
        workloads.check_sweep_csv(sweep, qs)
        rows[500] = rows[500][:-3] + "999"
        with open(sweep, "w", encoding="utf-8") as handle:
            handle.write("\n".join(rows) + "\n")
        expect(rejects(workloads.check_sweep_csv, sweep, qs), "perturbed sweep cell accepted")
    finally:
        os.remove(sweep)
    print("selftest: ok corrupted results are rejected")


def test_without_sources() -> None:
    stripped = os.path.join(run.OUT, "selftest-stripped")
    shutil.rmtree(stripped, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(stripped, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
        proc = run_benchmark(stripped, "small-spectra", 0)
        expect(proc.returncode != 0, "run without library sources exited 0")
        expect(proc.stdout.strip() == "", "run without library sources printed a result")
    finally:
        shutil.rmtree(stripped, ignore_errors=True)
    print("selftest: ok fails without library sources")


LIB = run.load_library()

if __name__ == "__main__":
    expect(LIB is not None, "no qentropy sources under src/")
    LIB.workdir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    try:
        test_corrupted_results_are_rejected()
        test_without_sources()
        test_workloads()
    finally:
        shutil.rmtree(LIB.workdir, ignore_errors=True)
    print("selftest: all passed")
