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


def assert_contract(code, lines, err, want_code):
    assert code == want_code
    assert "Traceback" not in err
    if want_code == 64:
        assert lines == []
        return None
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report["status"] == {0: "ok", 1: "error", 2: "infeasible"}[want_code]
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
    "escort --damping": ["escort", "{spectrum}", "--q-tilde", "0.8", "--beta", "1"],
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
    assert_contract(code, lines, err, 64)
    assert f"non-finite float value: '{value}'" in err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_result_gives_one_error_report(capsys):
    # the measure at q = 1e-320 is about 1e320, which overflows a double
    code, lines, err = run_in_process(capsys, ["entropy", "--probs", "0.5,0.5", "--q", "1e-320"])
    report = assert_contract(code, lines, err, 1)
    assert report["inputs"] == {"probs": "0.5,0.5", "spectrum": None}
    assert report["q"] == 1e-320
    assert report["results"] == {"message": "cannot render non-finite value inf",
                                 "error": "ValueError"}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_failed_sweep_leaves_no_partial_csv(capsys, tmp_path):
    out = tmp_path / "o.csv"
    code, lines, err = run_in_process(capsys, ["sweep", "--q", "0.5,1e-320", "--points", "3",
                                               "--out", str(out)])
    assert_contract(code, lines, err, 1)
    assert not out.exists()


#: one input per (command, failure class): argv template and the table's exit code
FAILURES = {
    "shift missing file": (["shift", "{missing}", "--q", "2"], 1),
    "shift bad q": (["shift", "{unit}", "--q", "-1"], 1),
    "shift infeasible": (["shift", "{wide}", "--q", "2"], 2),
    "maxent bad q": (["maxent", "{unit}", "--q", "-1", "--target-u", "0.5"], 1),
    "maxent target outside hull": (["maxent", "{unit}", "--q", "1", "--target-u", "2"], 2),
    "escort non-convergence": (["escort", "{unit}", "--q-tilde", "0.8", "--beta", "1",
                                "--max-iter", "2"], 2),
    "sweep unwritable path": (["sweep", "--q", "1", "--points", "5",
                               "--out", "{missing}/out.csv"], 1),
    "sweep usage": (["sweep", "--partition", "--q", "0.5", "--out", "{out}"], 64),
    "entropy non-finite argument": (["entropy", "--probs", "0.5,0.5", "--q", "nan"], 64),
}


@pytest.mark.parametrize("case", list(FAILURES))
def test_failure_contract_in_process(capsys, tmp_path, spectrum_file, case):
    fields = {"unit": spectrum_file([0.0, 1.0]), "wide": spectrum_file([0.0, 2.0], "wide.json"),
              "missing": str(tmp_path / "missing"), "out": str(tmp_path / "out.csv")}
    template, want = FAILURES[case]
    code, lines, err = run_in_process(capsys, [arg.format(**fields) for arg in template])
    assert_contract(code, lines, err, want)


def test_failure_contract_in_a_process():
    # a non-finite result, through the module entry point
    code, lines, err = run_process(["entropy", "--probs", "0.5,0.5", "--q", "1e-320"])
    assert_contract(code, lines, err, 1)
