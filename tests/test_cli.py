from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ridgelab.cli as cli
from ridgelab import SolverError


def run(capsys, argv: list[str]) -> tuple[int, str]:
    code = cli.main(argv)
    return code, capsys.readouterr().out


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestSolveM:
    def test_isotropic_value(self, capsys) -> None:
        code, out = run(
            capsys,
            ["solve-m", "--gamma", "2", "--spectrum", "pointmass:1", "--lambda", "1"],
        )
        assert code == 0
        cols, rows = parse_csv(out)
        assert cols == ["lambda", "m", "m_prime", "residual"]
        assert float(rows[0][1]) == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-10)

    def test_repeat_invocations_are_byte_identical(self, capsys) -> None:
        argv = ["solve-m", "--gamma", "2", "--spectrum", "pointmass:1", "--lambda", "0.3"]
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first == second
        assert first.endswith("\n")

    def test_json_format(self, capsys) -> None:
        code, out = run(
            capsys,
            [
                "solve-m", "--gamma", "2", "--spectrum", "pointmass:1",
                "--lambda", "1", "--format", "json",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"][:2] == ["lambda", "m"]
        assert doc["rows"][0][1] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-10)

    def test_out_file_matches_stdout(self, capsys, tmp_path) -> None:
        argv = ["solve-m", "--gamma", "2", "--spectrum", "pointmass:1", "--lambda", "1"]
        _, streamed = run(capsys, argv)
        path = tmp_path / "table.csv"
        code, out = run(capsys, argv + ["--out", str(path)])
        assert code == 0
        assert out == ""
        assert path.read_text() == streamed


class TestParserReuse:
    """``main`` builds its parser once per process; no call may leave state in it."""

    ARGV = ["risk-curve", "--gamma", "2", "--recipe", "dc-ct", "--sigma2", "0.5", "--lambda-grid", "-0.1:2:5"]
    COMMANDS = ("solve-m", "risk-curve", "lambda-opt", "pcr-curve", "weight-compare", "simulate", "reproduce",
                "selftest")

    def test_second_call_prints_what_a_fresh_process_prints(self, capsys) -> None:
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        fresh = subprocess.run([sys.executable, "-m", "ridgelab.cli", *self.ARGV], capture_output=True, text=True,
                               env=env, check=True).stdout
        assert [run(capsys, self.ARGV) for _ in range(2)] == [(0, fresh)] * 2

    def test_usage_error_after_a_successful_call_is_exit_1(self, capsys) -> None:
        assert run(capsys, self.ARGV)[0] == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["risk-curve", "--recipe", "dc-ct", "--lambda-grid", "1"])
        assert exc.value.code == 1

    def test_format_flag_does_not_carry_over(self, capsys) -> None:
        _, csv_text = run(capsys, self.ARGV)
        code, json_text = run(capsys, self.ARGV + ["--format", "json"])
        assert code == 0 and json.loads(json_text)["columns"][0] == "lambda"
        assert run(capsys, self.ARGV) == (0, csv_text)
        assert csv_text.startswith("lambda,total,")

    def test_help_lists_every_subcommand(self, capsys) -> None:
        run(capsys, self.ARGV)
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(command in out for command in self.COMMANDS)


class TestSpectrumResolution:
    def test_inline_json(self, capsys) -> None:
        code, out = run(
            capsys,
            [
                "risk-curve", "--gamma", "2",
                "--spectrum", "[[1,1,0.75],[5,5,0.25]]",
                "--lambda-grid", "0,0.5",
            ],
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 2

    def test_spectrum_file(self, capsys, tmp_path) -> None:
        path = tmp_path / "spec.json"
        path.write_text('[[1, 1, 0.75], [5, 5, 0.25]]')
        code, out = run(
            capsys,
            ["risk-curve", "--gamma", "2", "--spectrum", str(path), "--lambda-grid", "0,0.5"],
        )
        assert code == 0

    def test_recipe_flag(self, capsys) -> None:
        code, out = run(
            capsys,
            [
                "risk-curve", "--gamma", "2", "--recipe", "dc-dc",
                "--relation", "misaligned", "--lambda-grid", "0:1:3",
            ],
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 3

    def test_point_mass_with_signal(self, capsys) -> None:
        code, out = run(
            capsys,
            ["solve-m", "--gamma", "2", "--spectrum", "pointmass:2,0.5", "--lambda", "0.5"],
        )
        assert code == 0

    def test_recipe_and_spectrum_conflict(self, capsys) -> None:
        code, _ = run(
            capsys,
            [
                "solve-m", "--gamma", "2", "--recipe", "dc-dc",
                "--spectrum", "pointmass:1", "--lambda", "1",
            ],
        )
        assert code == 2

    def test_unresolvable_spectrum(self, capsys) -> None:
        code, _ = run(
            capsys,
            ["solve-m", "--gamma", "2", "--spectrum", "no-such-thing", "--lambda", "1"],
        )
        assert code == 2


class TestExitCodes:
    def test_usage_error_is_exit_1(self, capsys) -> None:
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve-m", "--spectrum", "pointmass:1", "--lambda", "1"])
        assert exc.value.code == 1

    def test_unknown_command_is_exit_1(self, capsys) -> None:
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 1

    def test_domain_error_is_exit_2(self, capsys) -> None:
        code = cli.main(
            ["solve-m", "--gamma", "2", "--spectrum", "pointmass:1", "--lambda", "-0.5"]
        )
        assert code == 2
        assert "domain error" in capsys.readouterr().err

    def test_solver_error_is_exit_3(self, capsys, monkeypatch) -> None:
        def boom(model, lam):
            raise SolverError("forced failure")

        monkeypatch.setattr(cli, "solve_m", boom)
        code = cli.main(
            ["solve-m", "--gamma", "2", "--spectrum", "pointmass:1", "--lambda", "1"]
        )
        assert code == 3
        assert "solver error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve-m", "--gamma", "2", "--spectrum", "pointmass:x", "--lambda", "1"],
        ["risk-curve", "--gamma", "2", "--spectrum", "pointmass:1", "--lambda-grid", "1,abc"],
        ["solve-m", "--gamma", "2", "--spectrum", "[[1,1,0.5],[2,1,0.4]]", "--lambda", "1"],
        ["reproduce", {"spectrum": [[1, 1, 1.0]], "gamma": "abc", "grid": [0.5]}],
        ["solve-m", "--gamma", "0", "--spectrum", "pointmass:1", "--lambda", "1"],
        ["weight-compare", "--gamma", "0", "--recipe", "fig5-left", "--sigma2", "1"],
        ["simulate", "--gamma", "2", "--recipe", "dc-dc", "--lambda-grid", "1", "--n", "20", "--replicates", "0"],
        ["simulate", "--gamma", "2", "--spectrum", "pointmass:1", "--lambda-grid", "1", "--n", "0"],
        ["reproduce", {"spectrum": [[1, 1, 1.0]], "gamma": 2, "grid": [0.5], "mc": {"n": 0}}],
        ["reproduce", {"spectrum": [[1, 1, 1.0]], "gamma": 2, "grid": [0.5], "mc": {"n": 20, "replicates": 0}}],
        ["lambda-opt", "--gamma", "2", "--spectrum", "pointmass:1,0", "--sigma2", "1"],
        ["lambda-opt", "--gamma", "2", "--spectrum", "pointmass:1,0", "--sigma2", "0"],
        ["solve-m", "--gamma", "2", "--spectrum", "pointmass:1", "--lambda", "1e300"],
    ], ids=["pointmass-value", "grid-value", "weights-sum", "scenario-gamma", "model-gamma", "weighted-model-gamma",
            "replicates", "ensemble-n", "scenario-mc-n", "scenario-mc-replicates", "zero-signal-noisy",
            "zero-signal-noiseless", "huge-lambda"])
    def test_malformed_input_is_a_domain_error(self, capsys, tmp_path, argv) -> None:
        if isinstance(argv[-1], dict):
            (tmp_path / "scenario.json").write_text(json.dumps(argv[-1]))
            argv = argv[:-1] + [str(tmp_path / "scenario.json")]
        assert cli.main(argv) == 2
        assert "domain error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, first, count", [
        (["solve-m", "--gamma", "2", "--spectrum", "pointmass:1", "--lambda", "-5e-05"], -5e-05, 1),
        (["risk-curve", "--gamma", "2", "--recipe", "dc-dc", "--lambda-grid", "-0.15:3:25"], -0.15, 25),
    ], ids=["exponent", "grid"])
    def test_negative_values_need_no_equals_form(self, capsys, argv, first, count) -> None:
        code, out = run(capsys, argv)
        _, rows = parse_csv(out)
        assert (code, len(rows), float(rows[0][0])) == (0, count, first)

    def test_sigma2_snr_conflict(self, capsys) -> None:
        code = cli.main(
            [
                "lambda-opt", "--gamma", "2", "--spectrum", "pointmass:1",
                "--sigma2", "0.1", "--snr", "5",
            ]
        )
        assert code == 2


class TestCurves:
    def test_risk_curve_marks_outside_domain(self, capsys) -> None:
        code, out = run(
            capsys,
            [
                "risk-curve", "--gamma", "2", "--spectrum", "pointmass:1",
                "--lambda-grid=-0.3,0,0.5",
            ],
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][-1] == "outside-domain"
        assert rows[0][1] == ""
        assert rows[1][-1] == ""

    def test_normalized_risk_column(self, capsys) -> None:
        code, out = run(
            capsys,
            [
                "risk-curve", "--gamma", "2", "--spectrum", "pointmass:1",
                "--sigma2", "0.25", "--lambda-grid", "0.25",
            ],
        )
        cols, rows = parse_csv(out)
        total = float(rows[0][1])
        assert float(rows[0][4]) == pytest.approx(total / 2.0, rel=1e-10)

    def test_pcr_curve_notes(self, capsys) -> None:
        code, out = run(
            capsys,
            [
                "pcr-curve", "--gamma", "2", "--spectrum", "[[1,1,0.75],[5,5,0.25]]",
                "--sigma2", "0.1", "--theta-grid", "0.4,0.5,0.6,1.2",
            ],
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][-1] == ""
        assert rows[1][-1] == "regime-boundary"
        assert rows[2][-1] == ""
        assert rows[3][-1] == "outside-domain"

    def test_flat_signal_above_the_search_cap(self, capsys) -> None:
        code, out = run(capsys, ["lambda-opt", "--gamma", "2", "--spectrum", "pointmass:1,0.001", "--sigma2", "1"])
        _, rows = parse_csv(out)
        assert (code, float(rows[0][0]), rows[0][3]) == (0, 1000.0, "closed_form")

    def test_clipped_optimum_row(self, capsys) -> None:
        spectrum = json.dumps([[1e-8, 1e8, 0.5], [1e8, 1e-8, 0.5]])
        code, out = run(capsys, ["lambda-opt", "--gamma", "2", "--spectrum", spectrum, "--sigma2", "0"])
        cols, rows = parse_csv(out)
        row = dict(zip(cols, rows[0]))
        assert code == 0
        assert float(row["lambda_opt"]) == pytest.approx(1e8, rel=1e-8)
        assert float(row["risk_at_opt"]) == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, rel=1e-10)
        assert (row["method"], row["sign_class"], row["domain_hi"]) == ("derivative_root", "positive", "inf")

    def test_lambda_opt_row(self, capsys) -> None:
        code, out = run(
            capsys,
            [
                "lambda-opt", "--gamma", "2", "--spectrum", "pointmass:1",
                "--sigma2", "0.25",
            ],
        )
        assert code == 0
        cols, rows = parse_csv(out)
        assert cols[0] == "lambda_opt"
        assert float(rows[0][0]) == pytest.approx(0.25, abs=1e-6)
        assert rows[0][4] == "positive"

    def test_snr_sets_the_noise_level(self, capsys) -> None:
        # snr = E[gh] / sigma2 = 1 / 0.25 = 4 reproduces the sigma2 run
        _, direct = run(
            capsys,
            ["lambda-opt", "--gamma", "2", "--spectrum", "pointmass:1", "--sigma2", "0.25"],
        )
        _, via_snr = run(
            capsys,
            ["lambda-opt", "--gamma", "2", "--spectrum", "pointmass:1", "--snr", "4"],
        )
        assert direct == via_snr


class TestWeightCompare:
    def test_candidate_table(self, capsys) -> None:
        code, out = run(
            capsys,
            ["weight-compare", "--gamma", "2", "--recipe", "fig5-left", "--sigma2", "1"],
        )
        assert code == 0
        cols, rows = parse_csv(out)
        assert cols == ["penalty", "lambda_opt", "risk_at_opt", "normalized_risk"]
        table = {row[0]: float(row[2]) for row in rows}
        assert set(table) == {
            "design", "signal", "identity", "inverse-design", "inverse-signal", "s-measurable",
        }
        assert table["inverse-signal"] <= min(table.values()) + 1e-9
        # every eigenvalue is distinct here, so the design-measurable
        # profile can match the unrestricted optimum
        assert table["s-measurable"] == pytest.approx(table["inverse-signal"], rel=1e-9)

    def test_needs_weighted_spectrum(self, capsys) -> None:
        code, _ = run(
            capsys,
            ["weight-compare", "--gamma", "2", "--spectrum", "pointmass:1", "--sigma2", "1"],
        )
        assert code == 2


class TestSimulate:
    def test_small_run_columns(self, capsys) -> None:
        code, out = run(
            capsys,
            [
                "simulate", "--gamma", "2", "--recipe", "dc-dc",
                "--lambda-grid", "0.5,1", "--n", "20", "--replicates", "2", "--seed", "7",
            ],
        )
        assert code == 0
        cols, rows = parse_csv(out)
        assert cols == ["lambda", "mc_mean", "mc_se", "theory", "rel_err", "dropped_replicates"]
        assert len(rows) == 2
        assert all(float(row[4]) < 0.5 for row in rows)

    def test_rejects_weighted_spectra(self, capsys) -> None:
        code, _ = run(
            capsys,
            [
                "simulate", "--gamma", "2", "--recipe", "fig5-left",
                "--lambda-grid", "0.5", "--n", "20", "--replicates", "2",
            ],
        )
        assert code == 2


class TestReproduce:
    def test_named_table(self, capsys) -> None:
        code, out = run(capsys, ["reproduce", "fig2a"])
        assert code == 0
        cols, rows = parse_csv(out)
        assert cols[0] == "recipe"
        assert len(rows) == 100

    def test_unknown_key(self, capsys) -> None:
        code, _ = run(capsys, ["reproduce", "fig99"])
        assert code == 2

    def test_flat_profile_rows_print_exact_zero(self, capsys) -> None:
        # alpha = 0 is a flat signal profile: the noiseless closed form is exactly 0
        code, out = run(capsys, ["reproduce", "fig4-left"])
        cols, rows = parse_csv(out)
        flat = [(row[cols.index("lambda_opt")], row[cols.index("sign_class")]) for row in rows if row[1] == "0"]
        assert (code, len(flat)) == (0, 7)
        assert set(flat) == {("0", "zero")}

    def test_scenario_file(self, capsys, tmp_path) -> None:
        doc = {
            "spectrum": [[1, 1, 0.75], [5, 5, 0.25]],
            "gamma": 2,
            "sigma2": 0.1,
            "sweep": "lambda",
            "grid": [0.0, 0.5],
            "mc": {"n": 30, "replicates": 2, "seed": 3},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, ["reproduce", str(path)])
        assert code == 0
        cols, rows = parse_csv(out)
        assert cols[-3:] == ["mc_mean", "mc_se", "dropped_replicates"]
        assert len(rows) == 2

    def test_scenario_missing_grid(self, capsys, tmp_path) -> None:
        doc = {"spectrum": [[1, 1, 1.0]], "gamma": 2, "lambda_grid": [0.5]}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, _ = run(capsys, ["reproduce", str(path)])
        assert code == 2

    def test_scenario_invalid_json(self, capsys, tmp_path) -> None:
        path = tmp_path / "scenario.json"
        path.write_text("{not json")
        code, _ = run(capsys, ["reproduce", str(path)])
        assert code == 2

    def test_scenario_not_an_object(self, capsys, tmp_path) -> None:
        path = tmp_path / "scenario.json"
        path.write_text("[1, 2, 3]")
        code, _ = run(capsys, ["reproduce", str(path)])
        assert code == 2

    def test_scenario_mc_missing_n(self, capsys, tmp_path) -> None:
        doc = {"spectrum": [[1, 1, 1.0]], "gamma": 2, "grid": [0.5], "mc": {"replicates": 2}}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, _ = run(capsys, ["reproduce", str(path)])
        assert code == 2

    def test_scenario_theta_sweep(self, capsys, tmp_path) -> None:
        doc = {
            "recipe": "fig7-other",
            "gamma": 5,
            "snr": 50,
            "sweep": "theta",
            "grid": [0.3, 0.6],
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, ["reproduce", str(path)])
        assert code == 0
        cols, rows = parse_csv(out)
        assert cols[0] == "theta"
        assert len(rows) == 2


    def test_scenario_pcr_notes_match_pcr_curve(self, capsys, tmp_path) -> None:
        doc = {"recipe": "fig7-other", "gamma": 5, "snr": 50, "sweep": "theta", "grid": [0.2, 0.3]}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        _, from_scenario = run(capsys, ["reproduce", str(path)])
        _, from_command = run(
            capsys,
            ["pcr-curve", "--gamma", "5", "--recipe", "fig7-other", "--snr", "50", "--theta-grid", "0.2,0.3"],
        )
        _, rows = parse_csv(from_scenario)
        assert [row[-1] for row in rows] == ["regime-boundary", ""]
        assert from_scenario == from_command

    @pytest.mark.parametrize("doc", [
        {"recipe": "fig5-left", "gamma": 2, "sigma2": 1, "grid": [0.5]},
        {"recipe": "fig7-other", "gamma": 5, "snr": 50, "sweep": "theta", "grid": [0.3]},
    ], ids=["weighted-recipe", "theta-sweep"])
    def test_scenario_mc_block_it_cannot_run(self, capsys, tmp_path, doc) -> None:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(dict(doc, mc={"n": 20, "replicates": 2})))
        assert cli.main(["reproduce", str(path)]) == 2
        assert "mc block" in capsys.readouterr().err


class TestSelftest:
    def test_all_checks_pass(self, capsys) -> None:
        code, out = run(capsys, ["selftest"])
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("ok - ") for line in lines[:-1])
        assert lines[-1].endswith("checks passed")
