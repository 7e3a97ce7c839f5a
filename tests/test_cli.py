"""End-to-end tests of the command-line interface and its file formats."""

import json
import math

import pytest

from qentropy import QParam, Spectrum, cli, core, maxent, shift


@pytest.fixture
def spectrum_file(tmp_path):
    def write(values, label=None, name="spectrum.json"):
        payload = {"values": values}
        if label is not None:
            payload["label"] = label
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    return write


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.startswith("{") else out


class TestShiftCommand:
    def test_pair_ok(self, capsys, spectrum_file):
        path = spectrum_file([0, 0.4], label="pair")
        code, report = run(capsys, "shift", path, "--q", "2")
        assert code == 0
        assert report["status"] == "ok"
        assert report["command"] == "shift"
        assert report["results"]["a0"] == pytest.approx(-0.3, abs=1e-15)
        assert "method" not in report["results"]
        assert abs(report["results"]["residual"]) <= 1e-10
        assert report["results"]["feasibility"]["feasible"] is True

    def test_infeasible_exits_two(self, capsys, spectrum_file):
        path = spectrum_file([0, 2])
        code, report = run(capsys, "shift", path, "--q", "2")
        assert code == 2
        assert report["status"] == "infeasible"
        assert report["results"]["feasibility"]["endpoint_value"] == 2.0

    def test_overflowing_feasibility_sums_exit_two(self, capsys, spectrum_file):
        path = spectrum_file([0, 1e300])
        code = cli.main(["shift", path, "--q", "1.5"])
        out = capsys.readouterr().out
        assert code == 2
        assert out.count("\n") == 1  # exactly one report
        report = json.loads(out)
        assert report["status"] == "infeasible"
        assert report["results"]["feasibility"] == {"endpoint_value": None, "feasible": False}

    def test_classical(self, capsys, spectrum_file):
        path = spectrum_file([0, 1])
        code, report = run(capsys, "shift", path, "--q", "1")
        assert code == 0
        assert report["results"]["a0"] == pytest.approx(-0.31326168751822286, abs=1e-12)

    def test_q2_at_a_large_offset(self, capsys, spectrum_file):
        # the closed-form root of the linear f missed the residual bound here
        path = spectrum_file([1e6, 1e6 + 0.0005, 1e6 + 0.001])
        code, report = run(capsys, "shift", path, "--q", "2")
        assert code == 0
        assert report["status"] == "ok"
        assert abs(report["results"]["residual"]) <= 1e-10

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code, report = run(capsys, "shift", str(tmp_path / "nope.json"), "--q", "2")
        assert code == 1
        assert report["status"] == "error"

    def test_bad_q_exits_one(self, capsys, spectrum_file):
        path = spectrum_file([0, 0.4])
        code, report = run(capsys, "shift", path, "--q", "-1")
        assert code == 1
        assert report["status"] == "error"

    def test_malformed_spectrum_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"values": []}', encoding="utf-8")
        code, report = run(capsys, "shift", str(bad), "--q", "2")
        assert code == 1


class TestEntropyCommand:
    def test_probs_input(self, capsys):
        code, report = run(capsys, "entropy", "--probs", "0.5,0.5", "--q", "2")
        assert code == 0
        assert report["results"]["uncertainty"] == 0.25
        assert report["results"]["tsallis_same_index"] == 0.5
        assert report["results"]["bg_entropy"] == pytest.approx(math.log(2), abs=1e-15)

    def test_degenerate_zero(self, capsys):
        code, report = run(capsys, "entropy", "--probs", "1,0", "--q", "0.7")
        assert code == 0
        assert report["results"]["uncertainty"] == 0.0

    def test_spectrum_input_chains_the_solve(self, capsys, spectrum_file):
        path = spectrum_file([0, 0.4])
        code, report = run(capsys, "entropy", "--spectrum", path, "--q", "2")
        assert code == 0
        assert report["results"]["p"] == pytest.approx([0.7, 0.3], abs=1e-12)
        assert report["results"]["uncertainty"] == pytest.approx(0.21, abs=1e-12)

    def test_usage_error_on_both_sources(self, capsys, spectrum_file):
        path = spectrum_file([0, 0.4])
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["entropy", "--probs", "0.5,0.5", "--spectrum", path, "--q", "2"])
        assert excinfo.value.code == 64

    def test_usage_error_on_no_source(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["entropy", "--q", "2"])
        assert excinfo.value.code == 64

    def test_invalid_probs_exit_one(self, capsys):
        code, report = run(capsys, "entropy", "--probs", "0.6,0.6", "--q", "2")
        assert code == 1
        assert report["status"] == "error"


class TestSweepCommand:
    def test_two_state_file(self, capsys, tmp_path):
        out = tmp_path / "fig1.csv"
        code, _ = run(capsys, "sweep", "--q", "0.2,0.5,0.8,1.0", "--points", "201",
                      "--out", str(out))
        assert code == 0
        table = cli.read_sweep_csv(str(out))
        assert table.headers == ("p1", "I_q=0.2", "I_q=0.5", "I_q=0.8", "I_q=1.0")
        assert len(table.rows) == 201
        for col in range(1, 5):
            column = [row[col] for row in table.rows]
            assert column[0] == 0.0 and column[-1] == 0.0
            assert max(range(201), key=column.__getitem__) == 100

    def test_csv_round_trip_is_exact(self, capsys, tmp_path):
        from qentropy import QParam, two_state_sweep

        out = tmp_path / "roundtrip.csv"
        code, _ = run(capsys, "sweep", "--q", "0.3,2.7", "--points", "33", "--out", str(out))
        assert code == 0
        parsed = cli.read_sweep_csv(str(out))
        expected = two_state_sweep([QParam(0.3), QParam(2.7)], 33)
        assert parsed == expected

    def test_deterministic_bytes(self, capsys, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "sweep", "--q", "1.5,2,3", "--points", "64", "--out", str(out_a))
        run(capsys, "sweep", "--q", "1.5,2,3", "--points", "64", "--out", str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()
        assert out_a.read_bytes().endswith(b"\n")

    def test_partition_mode(self, capsys, tmp_path, spectrum_file):
        path = spectrum_file([0, 1])
        out = tmp_path / "partition.csv"
        code, _ = run(capsys, "sweep", "--partition", "--spectrum", path, "--q", "0.5",
                      "--a-min", "-6", "--a-max", "2.9", "--points", "100", "--out", str(out))
        assert code == 0
        table = cli.read_sweep_csv(str(out))
        assert table.headers == ("a", "f")
        shifts = [row[0] for row in table.rows]
        values = [row[1] for row in table.rows]
        assert all(a < b for a, b in zip(shifts, shifts[1:]))
        assert all(x < y for x, y in zip(values, values[1:]))  # monotone f
        assert max(shifts) < 2.0  # clipped to the valid domain
        # f crosses 1 near the solved shift
        crossing = next(
            shifts[i] for i in range(len(values) - 1) if values[i] < 1.0 <= values[i + 1]
        )
        assert abs(crossing - (-0.45332625271905566)) < 0.15

    @pytest.mark.parametrize("w, q", [(5, "0.5"), (5, "1"), (5, "1.5"), (30000, "0.8")])
    def test_partition_rows_equal_partition_value(self, capsys, tmp_path, spectrum_file, w, q):
        from qentropy import QParam, Spectrum, partition_value

        # W = 30000: each of the 200 rows is one partition_value over 30000 states
        values = [0.0, 0.3, 0.35, 1.2, 2.0] if w == 5 else [i / w for i in range(w)]
        out = tmp_path / "partition.csv"
        code, _ = run(capsys, "sweep", "--partition", "--spectrum", spectrum_file(values),
                      "--q", q, "--points", "200", "--out", str(out))
        assert code == 0
        rows = cli.read_sweep_csv(str(out)).rows
        spectrum, qp = Spectrum(values), QParam(float(q))
        assert [f for _, f in rows] == [partition_value(a, spectrum, qp) for a, _ in rows]
        assert all(x[1] < y[1] for x, y in zip(rows, rows[1:]))

    def test_partition_needs_spectrum(self, capsys, tmp_path):
        code = cli.main(["sweep", "--partition", "--q", "0.5",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 64

    def test_partition_takes_one_q(self, capsys, tmp_path, spectrum_file):
        path = spectrum_file([0, 1])
        code = cli.main(["sweep", "--partition", "--spectrum", path, "--q", "0.5,0.7",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 64

    def test_infeasible_partition_plots_no_crossing(self, capsys, tmp_path, spectrum_file):
        path = spectrum_file([0, 2])
        out = tmp_path / "no_crossing.csv"
        code, _ = run(capsys, "sweep", "--partition", "--spectrum", path, "--q", "2",
                      "--points", "9", "--out", str(out))
        assert code == 0
        table = cli.read_sweep_csv(str(out))
        assert all(row[1] > 1.0 for row in table.rows)  # f never reaches 1

    def test_unwritable_path_exits_one(self, capsys):
        code, report = run(capsys, "sweep", "--q", "1", "--points", "5",
                           "--out", "/nonexistent-dir/out.csv")
        assert code == 1


class TestMaxentCommand:
    def test_beta_mode(self, capsys, spectrum_file):
        path = spectrum_file([0, 0.4])
        code, report = run(capsys, "maxent", path, "--q", "2", "--beta", "1")
        assert code == 0
        assert report["results"]["p"] == pytest.approx([0.7, 0.3], abs=1e-12)
        assert report["results"]["achieved_u"] == pytest.approx(0.12, abs=1e-12)
        assert report["results"]["stationarity_residual"] <= 1e-8

    def test_target_mode(self, capsys, spectrum_file):
        path = spectrum_file([0, 0.4])
        code, report = run(capsys, "maxent", path, "--q", "2", "--target-u", "0.12")
        assert code == 0
        assert report["results"]["beta"] == pytest.approx(1.0, abs=1e-6)
        assert report["results"]["achieved_u"] == pytest.approx(0.12, abs=1e-9)

    @pytest.mark.parametrize("q", [0.5, 1.0, 1.5, 3.0])
    def test_target_mode_reports_the_beta_solves_own_p(self, capsys, monkeypatch, spectrum_file, q):
        values = [0.0, 0.1, 0.35, 0.5, 0.9]
        beta, dist = maxent.solve_beta(QParam(q), Spectrum(values), 0.3)
        solves, solve = [], shift._solve

        def no_maxent_solve(*args, **kwargs):
            raise AssertionError("the maximizer was solved again")

        def counted(*args):
            solves.append(None)
            return solve(*args)

        monkeypatch.setattr(cli, "maxent_distribution", no_maxent_solve)
        monkeypatch.setattr(shift, "_solve", counted)
        code, report = run(capsys, "maxent", spectrum_file(values), "--q", str(q),
                           "--target-u", "0.3")
        assert code == 0 and len(solves) == 1  # the shift solve of a0, and no other
        results = report["results"]
        assert results["beta"] == beta and results["p"] == list(dist.probs)
        monkeypatch.undo()
        scaled = Spectrum(values).scaled(beta)
        assert results["residual"] == shift.partition_value(results["a0"], scaled, QParam(q)) - 1.0
        assert abs(results["residual"]) <= shift.RESIDUAL_BOUND
        solved = shift.solve_shift(scaled, QParam(q))
        assert results["a0"] == pytest.approx(solved.a0, abs=1e-12)
        assert results["stationarity_residual"] <= 1e-8

    def test_target_mode_falls_back_to_a_shift_solve(self, capsys, spectrum_file):
        # at q = 1 - 1e-7 f rounds to within a few 1e-10, and an a0 recovered from p
        # misses the bound there; the shift solve that gives a0 finds one that meets it
        values, q = [0.512, 0.95, 0.144, 0.949, 0.312, 0.423], QParam(0.9999999)
        beta, dist = maxent.solve_beta(q, Spectrum(values), 0.386)
        p = dist.as_array()
        k = int(p.argmax())
        recovered = beta * values[k] - core._deformed_log(p[k:k + 1], q.q - 1.0)[0]
        scaled = Spectrum(values).scaled(beta)
        assert abs(shift.partition_value(recovered, scaled, q) - 1.0) > shift.RESIDUAL_BOUND
        code, report = run(capsys, "maxent", spectrum_file(values), "--q", "0.9999999",
                           "--target-u", "0.386")
        assert code == 0
        results, solved = report["results"], shift.solve_shift(scaled, q)
        assert results["beta"] == beta and results["p"] == list(dist.probs)
        assert results["a0"] == solved.a0 and results["residual"] == solved.residual

    @pytest.mark.parametrize("q", [0.3, 0.5, 1.0 - 1e-5, 1.0, 1.0 + 1e-7, 1.5, 3.0])
    def test_target_mode_takes_a0_from_one_shift_solve(self, capsys, spectrum_file, q):
        # a0 and its residual are solve_shift's on the scaled spectrum, bit for bit, and p is
        # still solve_beta's own, not the shift solve's pass at a0
        values = [0.0, 0.1, 0.35, 0.5, 0.9, 0.93]
        beta, dist = maxent.solve_beta(QParam(q), Spectrum(values), 0.4)
        code, report = run(capsys, "maxent", spectrum_file(values), "--q", repr(q),
                           "--target-u", "0.4")
        assert code == 0
        results = report["results"]
        solved = shift.solve_shift(Spectrum(values).scaled(beta), QParam(q))
        assert results["beta"] == beta and results["p"] == list(dist.probs)
        assert (results["a0"], results["residual"]) == (solved.a0, solved.residual)

    def test_uniform_at_zero_beta(self, capsys, spectrum_file):
        path = spectrum_file([0, 1])
        code, report = run(capsys, "maxent", path, "--q", "0.5", "--beta", "0")
        assert code == 0
        assert report["results"]["p"] == pytest.approx([0.5, 0.5], abs=1e-10)
        assert report["results"]["achieved_u"] == pytest.approx(0.5, abs=1e-10)

    def test_target_outside_hull_exits_two(self, capsys, spectrum_file):
        path = spectrum_file([0, 1])
        code, report = run(capsys, "maxent", path, "--q", "1", "--target-u", "2")
        assert code == 2
        assert report["status"] == "infeasible"

    def test_usage_error_without_knob(self, capsys, spectrum_file):
        path = spectrum_file([0, 1])
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["maxent", path, "--q", "1"])
        assert excinfo.value.code == 64


class TestComposeCommand:
    def test_pair_of_coins(self, capsys):
        code, report = run(capsys, "compose", "--probs-a", "0.5,0.5",
                           "--probs-b", "0.5,0.5", "--q", "2")
        assert code == 0
        assert report["results"]["formula_value"] == 0.375
        assert report["results"]["direct_value"] == 0.375
        assert abs(report["results"]["mismatch"]) <= 1e-12

    def test_degenerate_side(self, capsys):
        code, report = run(capsys, "compose", "--probs-a", "1,0",
                           "--probs-b", "0.3,0.7", "--q", "3")
        assert code == 0
        assert report["results"]["formula_value"] == pytest.approx(
            report["results"]["i_b"], abs=1e-15
        )

    def test_classical_additive(self, capsys):
        code, report = run(capsys, "compose", "--probs-a", "0.5,0.5",
                           "--probs-b", "0.5,0.5", "--q", "1")
        assert code == 0
        assert report["results"]["formula_value"] == pytest.approx(2 * math.log(2), abs=1e-14)
        assert report["results"]["nonextensive_term"] == 0.0

    def test_invalid_probs_exit_one(self, capsys):
        code, report = run(capsys, "compose", "--probs-a", "0.9,0.9",
                           "--probs-b", "0.5,0.5", "--q", "2")
        assert code == 1


class TestEscortCommand:
    def test_flat_spectrum(self, capsys, spectrum_file):
        path = spectrum_file([0.2, 0.2])
        code, report = run(capsys, "escort", path, "--q-tilde", "0.9", "--beta", "3")
        assert code == 0
        assert report["results"]["p"] == [0.5, 0.5]
        assert report["results"]["iterations"] == 0

    def test_zero_beta(self, capsys, spectrum_file):
        path = spectrum_file([0, 1])
        code, report = run(capsys, "escort", path, "--q-tilde", "0.8", "--beta", "0")
        assert code == 0
        assert report["results"]["p"] == [0.5, 0.5]

    def test_contrast_with_maxent(self, capsys, spectrum_file):
        path = spectrum_file([0, 1])
        code, report = run(capsys, "escort", path, "--q-tilde", "0.8", "--beta", "1")
        assert code == 0
        assert report["results"]["converged"] is True
        assert report["results"]["residual"] <= 1e-10
        assert report["results"]["max_abs_difference"] > 1e-3
        assert len(report["results"]["difference"]) == 2

    def test_no_fixed_point_exits_two(self, capsys, spectrum_file):
        # every fixed point b of the map lies beyond the beta cap of q = 1.2
        path = spectrum_file([0, 1])
        code, report = run(capsys, "escort", path, "--q-tilde", "0.8", "--beta", "20")
        assert code == 2
        assert report["status"] == "infeasible"
        assert report["results"]["error"] == "InfeasibleError"


class TestRendering:
    def test_report_floats_round_trip(self, capsys, spectrum_file):
        path = spectrum_file([0, 1])
        _, report = run(capsys, "shift", path, "--q", "0.5")
        from qentropy import QParam, Spectrum, solve_shift

        exact = solve_shift(Spectrum([0, 1]), QParam(0.5))
        assert report["results"]["a0"] == exact.a0  # 17 digits are lossless

    def test_format_number(self):
        assert float(cli.format_number(0.1)) == 0.1
        assert float(cli.format_number(1 / 3)) == 1 / 3
        assert cli.format_number(0.375) == "0.375"
        with pytest.raises(ValueError):
            cli.format_number(math.inf)

    def test_dumps_report_is_valid_json(self):
        blob = cli.dumps_report(
            {"a": 1.5, "b": [1, 2.0, None, True], "c": {"d": "text"}, "e": -0.0}
        )
        parsed = json.loads(blob)
        assert parsed["a"] == 1.5
        assert parsed["b"] == [1, 2.0, None, True]
