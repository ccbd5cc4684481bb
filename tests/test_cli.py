import json
import math
import subprocess
import sys

import numpy as np
import pytest

from tbell import cli
from tbell.correlators import SelectionPolicy, selection_factor
from tbell.dynamics import DynamicsParams


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return header, rows


class TestFig1:
    def test_columns_and_known_rows(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        code, _, _ = run_cli(["fig1", "--t-steps", "49", "--out", str(out)], capsys)
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["omega_t", "q_free", "delta_k_minus", "bound"]
        first = rows[0]
        assert first == [0.0, 1.0, -3.0, 1.0]
        peak = rows[4]  # omega*t = pi/3 on the 48-interval grid over [0, 4*pi]
        assert peak[0] == pytest.approx(math.pi / 3, abs=1e-12)
        assert peak[2] == pytest.approx(1.5, abs=1e-12)
        revival = rows[12]  # omega*t = pi
        assert revival[1] == pytest.approx(1.0, abs=1e-12)
        assert all(row[3] == 1.0 for row in rows)

    def test_rejects_other_presets(self, capsys):
        code, _, err = run_cli(["fig1", "--preset", "paz4"], capsys)
        assert code == 2
        assert "santos-minus" in err

    def test_huge_omega(self, capsys):
        # 2 * omega overflows at omega = 1e308; the phase omega * t does not
        tables = []
        for omega in ("1", "1e308"):
            code, out, err = run_cli(["fig1", "--omega", omega, "--t-steps", "9"], capsys)
            assert code == 0 and err == ""
            tables.append(np.array([line.split(",") for line in out.splitlines()[1:]], dtype=float))
        assert np.allclose(tables[1], tables[0], rtol=0.0, atol=1e-12)

    def test_physical_time_axis(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        code, _, _ = run_cli(["fig1", "--omega", "2.0", "--physical-time",
                              "--t-min", "0", "--t-max", "3.14", "--t-steps", "5",
                              "--out", str(out)], capsys)
        assert code == 0
        header, rows = read_csv(out)
        assert header[0] == "t"
        # at physical t the free curve oscillates at 2*omega
        assert rows[1][1] == pytest.approx(math.cos(2 * 2.0 * rows[1][0]), abs=1e-12)


class TestFig2:
    def test_endpoint_rows_and_crossings(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        code, _, _ = run_cli(["fig2", "--out", str(out)], capsys)
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["epsilon", "delta_b_max_paz", "delta_b_max_santos"]
        assert len(rows) == 101
        assert rows[0][1] == pytest.approx(math.sqrt(2) - 1, abs=1e-9)
        assert rows[0][2] == pytest.approx(0.5, abs=1e-9)
        assert rows[-1][1] == pytest.approx(-1.0, abs=1e-12)
        assert rows[-1][2] == pytest.approx(-1.0, abs=1e-12)

        def crossing(col):
            for prev, cur in zip(rows, rows[1:]):
                if prev[col] > 0.0 >= cur[col]:
                    return prev[0], cur[0]
            raise AssertionError("no zero crossing found")

        lo, hi = crossing(1)
        assert lo <= 0.649 <= hi + 0.01
        lo, hi = crossing(2)
        assert lo <= 0.693 <= hi + 0.01

    def test_epsilon_grid_validation(self, capsys):
        code, _, _ = run_cli(["fig2", "--eps-min", "-0.2"], capsys)
        assert code == 2

    def test_huge_omega_writes_only_the_table(self, capfd):
        # the combination maximum does not depend on omega, so neither does fig2
        tables = []
        for omega in ("1", "1e300"):
            assert cli.main(["fig2", "--omega", omega, "--eps-steps", "3"]) == 0
            out, err = capfd.readouterr()
            assert err == ""
            tables.append(out)
        assert tables[1] == tables[0]
        assert tables[0].splitlines()[0] == "epsilon,delta_b_max_paz,delta_b_max_santos"


class TestValidate:
    def test_default_small_grid_passes(self, capsys):
        code, out, _ = run_cli(["validate", "--eps-steps", "7", "--t-steps", "16",
                                "--nodes", "2000"], capsys)
        assert code == 0
        assert "PASS" in out

    def test_coarse_quadrature_fails(self, capsys):
        code, out, _ = run_cli(["validate", "--eps-steps", "7", "--t-steps", "8",
                                "--nodes", "16"], capsys)
        assert code == 1
        assert "FAIL" in out
        assert "max deviation" in out

    def test_smooth_threshold_only(self, capsys):
        code, out, _ = run_cli(["validate", "--eps-min", "0", "--eps-max", "0",
                                "--eps-steps", "1", "--t-steps", "16",
                                "--nodes", "2000"], capsys)
        assert code == 0
        max_dev = float(out.split("max deviation: ")[1].split(" ")[0])
        assert max_dev <= 1e-10

    @pytest.mark.parametrize("nodes", ["10001", "10002"])
    def test_full_selection_row_with_a_node_on_a_maximum(self, nodes, capsys):
        # with t1 = 0 the maximum of p+ (10001 nodes) or of p- (10002 nodes)
        # is a cell midpoint, where p rounds to exactly 1 and passes eps = 1
        code, out, _ = run_cli(["validate", "--eps-min", "1", "--eps-max", "1",
                                "--eps-steps", "1", "--t-steps", "16", "--nodes", nodes], capsys)
        assert code == 0
        assert float(out.split("max deviation: ")[1].split(" ")[0]) <= 1e-12

    def test_writes_cell_table(self, tmp_path, capsys):
        out = tmp_path / "cells.csv"
        code, _, _ = run_cli(["validate", "--eps-steps", "3", "--t-steps", "4",
                              "--nodes", "4096", "--out", str(out)], capsys)
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["epsilon", "omega_lag", "k_oracle", "k_selective", "deviation"]
        assert len(rows) == 12
        assert all(abs(r[2] - r[3]) == pytest.approx(r[4], abs=1e-15) for r in rows)


class TestThreshold:
    def test_santos_value(self, capsys):
        code, out, _ = run_cli(["threshold", "--preset", "santos-minus"], capsys)
        assert code == 0
        eps_star = float(out.split("epsilon_star: ")[1].splitlines()[0])
        assert eps_star == pytest.approx(0.693, abs=1e-3)

    def test_paz_value_and_table(self, tmp_path, capsys):
        out_path = tmp_path / "thr.csv"
        code, out, _ = run_cli(["threshold", "--preset", "paz4", "--out", str(out_path)], capsys)
        assert code == 0
        header, rows = read_csv(out_path)
        assert header == ["delta_k_max", "argmax_omega_t", "epsilon_star", "a_epsilon_star"]
        assert rows[0][0] == pytest.approx(2 * math.sqrt(2), abs=1e-9)
        assert rows[0][1] == pytest.approx(math.pi / 8, abs=1e-6)
        assert rows[0][2] == pytest.approx(0.649, abs=1e-3)

    def test_maximizes_once(self, monkeypatch, capsys):
        calls = []
        original = cli.inequalities.maximize_violation

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli.inequalities, "maximize_violation", counted)
        code, _, _ = run_cli(["threshold", "--preset", "paz4"], capsys)
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("omega", ["1e-200", "1e200", "1e300"])
    @pytest.mark.parametrize("preset", ["paz4", "santos-minus", "santos-plus"])
    def test_extreme_omega_prints_the_same_numbers(self, preset, omega, capfd):
        # capfd, not capsys: at omega = 1e200 LAPACK once wrote to file
        # descriptor 1 from the Newton step, then the command exited 2
        reports = []
        for value in ("1", omega):
            code = cli.main(["threshold", "--preset", preset, "--omega", value, "--full-search"])
            out, err = capfd.readouterr()
            assert code == 0 and err == ""
            reports.append(dict(line.split(": ") for line in out.splitlines()))
        reference, extreme = reports
        assert list(extreme) == ["preset", "delta_k_max", "argmax_omega_t", "epsilon_star",
                                 "a_epsilon_star", "full_search_max", "full_search_gaps_omega_t"]
        for key in ("delta_k_max", "epsilon_star", "a_epsilon_star", "full_search_max"):
            assert extreme[key] == reference[key]
        optimum = float(reference["argmax_omega_t"])
        for phase in [extreme["argmax_omega_t"]] + extreme["full_search_gaps_omega_t"].split(","):
            assert float(phase) == pytest.approx(optimum, rel=0.0, abs=4.5e-16)

    def test_full_search_report(self, capsys):
        code, out, _ = run_cli(["threshold", "--preset", "paz4", "--full-search"], capsys)
        assert code == 0
        best = float(out.split("full_search_max: ")[1].splitlines()[0])
        assert best == pytest.approx(2 * math.sqrt(2), abs=1e-6)

    def test_never_violated_custom_spec(self, tmp_path, capsys):
        config = tmp_path / "dead.cfg"
        config.write_text(
            "preset = custom\n"
            "custom_n_times = 3\n"
            "custom_terms = 1,2,0; 2,3,0; 1,3,0\n"
            "custom_bound = 1\n"
        )
        code, _, err = run_cli(["threshold", "--config", str(config)], capsys)
        assert code == 1
        assert "inequality never violated" in err

    def test_custom_spec_requires_keys(self, tmp_path, capsys):
        config = tmp_path / "partial.cfg"
        config.write_text("preset = custom\ncustom_bound = 1\n")
        code, _, err = run_cli(["threshold", "--config", str(config)], capsys)
        assert code == 2
        assert "custom" in err


class TestCorrelate:
    def test_row_matches_library(self, tmp_path, capsys):
        out = tmp_path / "corr.csv"
        lag = math.pi / 6
        code, _, _ = run_cli(["correlate", "--t1", "0", "--t2", str(lag),
                              "--epsilon", "0.5", "--out", str(out)], capsys)
        assert code == 0
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["a_epsilon"] == selection_factor(SelectionPolicy(0.5))
        assert row["k_selective"] == pytest.approx(0.40915494309189535, abs=1e-12)
        assert abs(row["k_oracle"] - row["k_selective"]) <= 1e-6

    @pytest.mark.parametrize("t", ["1e15", "1e300"])
    def test_huge_first_time(self, t, capsys):
        # the phase average does not depend on t1 modulo the period
        code, out, _ = run_cli(["correlate", "--omega", "3", "--t1", t, "--t2", t,
                                "--epsilon", "0.3"], capsys)
        assert code == 0
        header, row = (line.split(",") for line in out.splitlines())
        row = dict(zip(header, map(float, row)))
        assert abs(row["k_oracle"] - row["k_selective"]) <= 1e-6

    def test_rejects_node_count_over_the_cap(self, capsys):
        code, out, err = run_cli(["correlate", "--t1", "0", "--t2", "1",
                                  "--nodes", "100000000000"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: n_nodes") and "Traceback" not in err

    def test_requires_both_times(self, capsys):
        code, _, _ = run_cli(["correlate", "--t1", "0"], capsys)
        assert code == 2


class TestTrajectory:
    def test_records_and_summary(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code, printed, _ = run_cli(
            ["trajectory", "--times", "0,0.7853981633974483",
             "--outcomes", "+1,+1", "--out", str(out)], capsys)
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["index", "omega_t", "outcome", "pre_probability", "disturbance"]
        assert rows[0][2] == 1.0 and rows[0][3] == 1.0 and rows[0][4] == 0.0
        assert rows[1][3] == pytest.approx(0.5, abs=1e-12)
        assert "final_norm_sq: 0.5" in printed
        assert "product: 0.5" in printed

    def test_json_lines_output(self, capsys):
        code, out, _ = run_cli(
            ["trajectory", "--times", "0,1.2", "--outcomes", "+,-",
             "--format", "json-lines"], capsys)
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("{")]
        assert len(lines) == 2
        record = json.loads(lines[1])
        assert record["outcome"] == -1.0
        assert 0.0 <= record["pre_probability"] <= 1.0

    def test_bad_outcome_token(self, capsys):
        code, _, err = run_cli(["trajectory", "--times", "0,1", "--outcomes", "+1,up"], capsys)
        assert code == 2
        assert "outcome" in err

    def test_unsorted_times(self, capsys):
        code, _, err = run_cli(["trajectory", "--times", "1,0", "--outcomes", "+1,+1"], capsys)
        assert code == 2
        assert "ascending" in err


class TestConfigHandling:
    def test_config_file_supplies_values(self, tmp_path, capsys):
        out = tmp_path / "corr.csv"
        config = tmp_path / "run.cfg"
        config.write_text(
            "# correlation query\n"
            "epsilon = 0.5\n"
            f"out = {out}\n"
            "t1 = 0\n"
            "t2 = 0.5235987755982988\n"
        )
        code, _, _ = run_cli(["correlate", "--config", str(config)], capsys)
        assert code == 0
        _, rows = read_csv(out)
        assert rows[0][3] == 0.5  # epsilon column came from the file

    def test_flags_override_config(self, tmp_path, capsys):
        out = tmp_path / "corr.csv"
        config = tmp_path / "run.cfg"
        config.write_text(f"epsilon = 0.5\nt1 = 0\nt2 = 1\nout = {out}\n")
        code, _, _ = run_cli(["correlate", "--config", str(config),
                              "--epsilon", "0.25"], capsys)
        assert code == 0
        _, rows = read_csv(out)
        assert rows[0][3] == 0.25

    def test_unknown_key(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("wavelength = 7\n")
        code, _, err = run_cli(["fig1", "--config", str(config)], capsys)
        assert code == 2
        assert "unknown key" in err

    def test_bad_value(self, tmp_path, capsys):
        # a config value gets the same checks as the flag: --format xml exits 2 too
        config = tmp_path / "run.cfg"
        for command, text in (("fig1", "epsilon = slow\n"),
                              ("correlate", "format = xml\nt1 = 0\nt2 = 1\n")):
            config.write_text(text)
            code, out, err = run_cli([command, "--config", str(config)], capsys)
            assert code == 2
            assert out == ""
            assert "bad value" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["fig1", "--config", "/nonexistent/run.cfg"], capsys)
        assert code == 2
        assert "config" in err

    def test_omega_and_cavity_mode_are_exclusive(self, capsys):
        code, _, err = run_cli(["fig1", "--omega", "1", "--rabi", "1", "--n", "0"], capsys)
        assert code == 2
        assert "either" in err

    def test_cavity_mode_needs_both_flags(self, capsys):
        code, _, err = run_cli(["fig1", "--rabi", "1"], capsys)
        assert code == 2
        assert "together" in err

    def test_cavity_mode_runs(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        code, _, _ = run_cli(["fig1", "--rabi", "2", "--n", "3", "--t-steps", "9",
                              "--out", str(out)], capsys)
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["fig1", "--t-max", "inf", "--t-steps", "3", "--format", "json-lines"],
        ["fig2", "--eps-max", "nan"],
        ["trajectory", "--times", "0,inf", "--outcomes=+1,+1"],
        ["threshold", "--config", "INF_COEFFICIENT_CONFIG"],
    ])
    def test_rejects_non_finite_floats(self, argv, tmp_path, capsys):
        config = tmp_path / "inf.cfg"
        config.write_text("preset = custom\ncustom_n_times = 3\n"
                          "custom_terms = 1,2,inf; 2,3,1; 1,3,-1\ncustom_bound = 1\n")
        argv = [str(config) if arg == "INF_COEFFICIENT_CONFIG" else arg for arg in argv]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "must be finite" in err

    @pytest.mark.parametrize("argv", [
        ["threshold", "--preset", "paz4", "--omega", "1e-308"],
        ["threshold", "--preset", "paz4", "--rabi", "1e-308", "--n", "0"],
        ["fig2", "--omega", "1e-308"],
        ["fig1", "--omega", "1e-308", "--t-steps", "3"],
    ])
    def test_rejects_omega_with_overflowing_period(self, argv, capfd):
        # capfd, not capsys: LAPACK once wrote to file descriptor 1 on this input
        code = cli.main(argv)
        out, err = capfd.readouterr()
        assert code == 2
        assert out == ""
        assert "omega" in err


class TestOutputContract:
    def test_numbers_round_trip_exactly(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        code, _, _ = run_cli(["fig2", "--eps-steps", "11", "--out", str(out)], capsys)
        assert code == 0
        _, rows = read_csv(out)
        # recompute one interior cell and demand exact float equality
        params = DynamicsParams(1.0)
        from tbell.inequalities import SANTOS_MINUS, maximize_violation
        report = maximize_violation(SANTOS_MINUS, params, SelectionPolicy(0.0))
        eps = rows[3][0]
        expected = (selection_factor(SelectionPolicy(eps)) * report.delta_k_max - 1.0) / 1.0
        assert rows[3][2] == expected

    def test_repeat_runs_are_identical(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(["fig2", "--eps-steps", "31", "--out", str(path)], capsys)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_refuses_non_finite_values(self, fmt, to_file, tmp_path, capsys):
        # the physical time 2 * 1e308 overflows, so q_free is nan
        out = tmp_path / "fig1.out"
        argv = ["fig1", "--omega", "0.5", "--t-max", "1e308", "--t-steps", "3", "--format", fmt]
        with np.errstate(all="ignore"):
            code, stdout, err = run_cli(argv + (["--out", str(out)] if to_file else []), capsys)
        assert code == 1
        assert stdout == ""
        assert not out.exists()
        assert "non-finite q_free" in err

    def test_stdout_when_no_out_flag(self, capsys):
        code, out, _ = run_cli(["fig1", "--t-steps", "5"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "omega_t,q_free,delta_k_minus,bound"


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "tbell", "threshold", "--preset", "santos-minus"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    assert "epsilon_star" in result.stdout
