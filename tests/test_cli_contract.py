"""The CLI's failure contract: one report per run, the table's exit code, no traceback."""

import json
import os
import subprocess
import sys

import pytest

import qentropy
from qentropy import cli


@pytest.fixture
def spectrum_file(tmp_path):
    def write(values, name="spectrum.json"):
        path = tmp_path / name
        path.write_text(json.dumps({"values": values}), encoding="utf-8")
        return str(path)

    return write


def run_in_process(capsys, argv):
    """(exit code, stdout lines, stderr) of one cli.main run."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def run_process(argv):
    """(exit code, stdout lines, stderr) of one ``python -m qentropy.cli`` process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qentropy.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "qentropy.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


#: the exit code of each status: a solve that stops short of its contract is "unresolved",
#: not "infeasible", and exits 2 as well
CODES = {"ok": 0, "error": 1, "infeasible": 2, "unresolved": 2, "usage": 64}


def assert_contract(code, lines, err, want):
    assert code == CODES[want]
    assert "Traceback" not in err
    if want == "usage":
        assert lines == []
        return None
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report["status"] == want
    return report


#: every float option, with an argv that is valid apart from that option
FLOAT_OPTIONS = {
    "shift --q": ["shift", "{spectrum}", "--tol", "1e-12"],
    "shift --tol": ["shift", "{spectrum}", "--q", "2"],
    "entropy --q": ["entropy", "--probs", "0.5,0.5"],
    "sweep --a-min": ["sweep", "--partition", "--spectrum", "{spectrum}", "--q", "0.5",
                      "--a-max", "1", "--out", "{out}"],
    "sweep --a-max": ["sweep", "--partition", "--spectrum", "{spectrum}", "--q", "0.5",
                      "--a-min", "-1", "--out", "{out}"],
    "maxent --q": ["maxent", "{spectrum}", "--beta", "1"],
    "maxent --beta": ["maxent", "{spectrum}", "--q", "1.5"],
    "maxent --target-u": ["maxent", "{spectrum}", "--q", "1.5"],
    "compose --q": ["compose", "--probs-a", "0.5,0.5", "--probs-b", "0.5,0.5"],
    "escort --q-tilde": ["escort", "{spectrum}", "--beta", "1"],
    "escort --beta": ["escort", "{spectrum}", "--q-tilde", "0.8"],
    "escort --tol": ["escort", "{spectrum}", "--q-tilde", "0.8", "--beta", "1"],
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("option", sorted(FLOAT_OPTIONS))
def test_non_finite_float_argument_is_a_usage_error(capsys, tmp_path, spectrum_file, option,
                                                     value):
    fields = {"spectrum": spectrum_file([0.0, 1.0]), "out": str(tmp_path / "out.csv")}
    argv = [arg.format(**fields) for arg in FLOAT_OPTIONS[option]]
    argv.append(f"{option.split()[1]}={value}")  # '=' keeps '-inf' from reading as a flag
    code, lines, err = run_in_process(capsys, argv)
    assert_contract(code, lines, err, "usage")
    assert f"non-finite float value: '{value}'" in err


def test_non_finite_result_gives_one_error_report(capsys):
    # the measure at q = 1e-320 is about 1e320, which overflows a double
    code, lines, err = run_in_process(capsys, ["entropy", "--probs", "0.5,0.5", "--q", "1e-320"])
    report = assert_contract(code, lines, err, "error")
    assert report["inputs"] == {"probs": "0.5,0.5", "spectrum": None}
    assert report["q"] == 1e-320
    assert report["results"] == {"message": "cannot render non-finite value inf",
                                 "error": "ValueError"}


def test_overflowing_compose_gives_one_error_report(capsys):
    # every field is about 1e320, beyond a double: one error report and no traceback
    argv = ["compose", "--probs-a", "0.5,0.5", "--probs-b", "0.5,0.5", "--q", "1e-320"]
    code, lines, err = run_in_process(capsys, argv)
    report = assert_contract(code, lines, err, "error")
    assert report["results"] == {"message": "cannot render non-finite value inf",
                                 "error": "ValueError"}


def test_failed_sweep_leaves_no_partial_csv(capsys, tmp_path):
    out = tmp_path / "o.csv"
    code, lines, err = run_in_process(capsys, ["sweep", "--q", "0.5,1e-320", "--points", "3",
                                               "--out", str(out)])
    assert_contract(code, lines, err, "error")
    assert not out.exists()


#: one input per (command, failure class): argv template and the table's status
FAILURES = {
    "shift missing file": (["shift", "{missing}", "--q", "2"], "error"),
    "shift bad q": (["shift", "{unit}", "--q", "-1"], "error"),
    "shift infeasible": (["shift", "{wide}", "--q", "2"], "infeasible"),
    # feasible, as every q < 1 is, but f's rounding within 1e-9 of q = 1 exceeds 1e-10
    "shift unresolved": (["shift", "{pair}", "--q", "0.999999999"], "unresolved"),
    "shift removed closed-form switch": (["shift", "{unit}", "--q", "2", "--no-closed-form"],
                                         "usage"),
    "maxent bad q": (["maxent", "{unit}", "--q", "-1", "--target-u", "0.5"], "error"),
    "maxent target outside hull": (["maxent", "{unit}", "--q", "1", "--target-u", "2"],
                                   "infeasible"),
    "escort bad q-tilde": (["escort", "{unit}", "--q-tilde=-1", "--beta", "1"], "error"),
    "escort no fixed point": (["escort", "{unit}", "--q-tilde", "0.8", "--beta", "20"],
                              "infeasible"),
    "sweep unwritable path": (["sweep", "--q", "1", "--points", "5",
                               "--out", "{missing}/out.csv"], "error"),
    "sweep usage": (["sweep", "--partition", "--q", "0.5", "--out", "{out}"], "usage"),
    "entropy non-finite argument": (["entropy", "--probs", "0.5,0.5", "--q", "nan"], "usage"),
    "entropy non-finite list entry": (["entropy", "--probs", "nan,0.5", "--q", "2"], "usage"),
    "sweep non-finite list entry": (["sweep", "--q", "nan", "--points", "3",
                                     "--out", "{out}"], "usage"),
}


@pytest.mark.parametrize("case", list(FAILURES))
def test_failure_contract_in_process(capsys, tmp_path, spectrum_file, case):
    fields = {"unit": spectrum_file([0.0, 1.0]), "wide": spectrum_file([0.0, 2.0], "wide.json"),
              "pair": spectrum_file([0.0, 0.4], "pair.json"),
              "missing": str(tmp_path / "missing"), "out": str(tmp_path / "out.csv")}
    template, want = FAILURES[case]
    code, lines, err = run_in_process(capsys, [arg.format(**fields) for arg in template])
    report = assert_contract(code, lines, err, want)
    assert not os.path.exists(fields["out"])  # no failed run writes a CSV
    if case == "escort bad q-tilde":
        # the library's own check reaches the report
        assert report["results"]["message"] == "escort index must be a finite real > 0, got -1.0"
    if case == "shift unresolved":
        # the report keeps the feasibility it had, which no longer contradicts its status
        assert report["results"]["error"] == "ConvergenceError"
        assert report["results"]["feasibility"]["feasible"] is True


@pytest.mark.parametrize("argv", [
    ["maxent", "{tiny}", "--q", "1.5", "--target-u", "5e-201"],
    ["escort", "{tiny}", "--q-tilde", "0.5", "--beta", "1"],
], ids=["maxent", "escort"])
def test_underflowing_endpoint_sum_gives_one_ok_report(capsys, spectrum_file, argv):
    # the q = 1.5 endpoint sums of {0, 1e-200} underflow to 0.0
    tiny = spectrum_file([0.0, 1e-200])
    code, lines, err = run_in_process(capsys, [arg.format(tiny=tiny) for arg in argv])
    assert_contract(code, lines, err, "ok")


@pytest.mark.parametrize("argv", [
    ["maxent", "{wide}", "--q", "1.5", "--target-u", "0.5"],
    ["escort", "{wide}", "--q-tilde", "0.5", "--beta", "1"],
], ids=["maxent", "escort"])
def test_overflowing_span_gives_one_infeasible_report(capsys, spectrum_file, argv):
    # the span of {-1e308, 1e308} overflows a double, so no beta is feasible at q = 1.5
    wide = spectrum_file([-1e308, 1e308])
    code, lines, err = run_in_process(capsys, [arg.format(wide=wide) for arg in argv])
    report = assert_contract(code, lines, err, "infeasible")
    assert report["results"]["error"] == "InfeasibleError"


@pytest.mark.parametrize("argv, values, want", [
    (["maxent", "{spectrum}", "--q", "200", "--target-u", "5e-301"], [0.0] + [1e-300] * 99,
     "unresolved"),
    (["escort", "{spectrum}", "--q-tilde", "300", "--beta", "1"], [0.1 * k for k in range(12)],
     "ok"),
], ids=["maxent", "escort"])
def test_large_index_gives_one_report(capsys, spectrum_file, argv, values, want):
    # powers to q - 1 and W^(2(q_tilde - 1)) overflowed a double with a traceback.
    # The maxent target needs bases near 99^-199, below the smallest double, so no
    # probe of solve_beta meets it: a typed ConvergenceError, one unresolved report.
    # The escort root lies within a double s; its map check, whose weights p^q_tilde
    # underflowed, forms them as (p / max p)^q_tilde: one ok report.
    spectrum = spectrum_file(values)
    code, lines, err = run_in_process(capsys, [arg.format(spectrum=spectrum) for arg in argv])
    assert_contract(code, lines, err, want)


def test_stationarity_holds_within_1e_8_of_q_one(capsys, spectrum_file):
    # (1 - p^(q-1))/(q-1) cancelled here to a gradient of 1.19e-8, an error report
    values = spectrum_file([k / 10 for k in range(10)])
    code, lines, err = run_in_process(capsys, ["maxent", values, "--q", "1.00000001",
                                               "--beta", "2"])
    report = assert_contract(code, lines, err, "ok")
    assert report["results"]["stationarity_residual"] <= 1e-8


def test_failure_contract_in_a_process():
    # a non-finite result, through the module entry point
    code, lines, err = run_process(["entropy", "--probs", "0.5,0.5", "--q", "1e-320"])
    assert_contract(code, lines, err, "error")
    assert "RuntimeWarning" not in err
