import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tbell import cli, inequalities
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

    def test_axis_end_with_a_finite_doubled_phase(self, capfd):
        # 2 * 5e307 is finite; the time rule rejects 1e308 (see TestTimeRange)
        code = cli.main(["fig1", "--t-max", "5e307", "--t-steps", "3"])
        out, err = capfd.readouterr()
        assert code == 0 and err == ""
        assert len(out.splitlines()) == 4

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

    @pytest.mark.parametrize("scheme, nodes, tol", [("uniform-midpoint", 10_000, 1e-7),
                                                     ("gauss-legendre", 160, 1e-14)])
    @pytest.mark.parametrize("omega", [1.0, 2.3])
    def test_select_both_oracle_matches_its_closed_form(self, scheme, nodes, tol, omega):
        # lags on multiples of pi / (4 omega): c^2 and s^2 take 0, 1/2 and 1,
        # so eps = 1/2 ties on odd multiples, and 0 and 1 tie on the rest
        eps = np.array([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
        lags = np.arange(9) * math.pi / (4.0 * omega)
        params = DynamicsParams(omega)
        oracle = cli.correlators.k_oracle_grid(1.3, lags, eps, params,
                                               cli.QuadratureConfig(nodes, scheme),
                                               select_both=True)
        factors = np.array([selection_factor(SelectionPolicy(e)) for e in eps])
        form = cli._select_both_closed_form(oracle, eps, omega * lags, factors)
        assert np.max(np.abs(oracle - form)) <= tol
        # away from the ties the form has one value: at eps = 1/4 and 3/4 only
        # the larger of c^2 and s^2 passes
        c2, s2 = np.cos(omega * lags) ** 2, np.sin(omega * lags) ** 2
        for row in (2, 4):
            strict = factors[row] * (c2 * (c2 >= eps[row]) - s2 * (s2 >= eps[row]))
            assert np.array_equal(form[row], strict)

    def test_select_both_passes(self, capsys):
        code, out, _ = run_cli(["validate", "--select-both", "--eps-steps", "5",
                                "--t-steps", "8"], capsys)
        assert code == 0
        assert out.endswith("PASS (tolerance 9.9999999999999995e-07)\n")

    def test_writes_cell_table(self, tmp_path, capsys):
        out = tmp_path / "cells.csv"
        code, _, _ = run_cli(["validate", "--eps-steps", "3", "--t-steps", "4",
                              "--nodes", "4096", "--out", str(out)], capsys)
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["epsilon", "omega_lag", "k_oracle", "k_selective", "deviation"]
        assert len(rows) == 12
        assert all(abs(r[2] - r[3]) == pytest.approx(r[4], abs=1e-15) for r in rows)
        # epsilon-major rows; omega_lag is omega * lag at the default omega = 1
        lags = np.linspace(0.0, math.pi, 4)
        assert [r[:2] for r in rows] == [[eps, 1.0 * lag] for eps in (0.0, 0.5, 1.0) for lag in lags]

    def test_cell_table_memory_is_bounded(self, tmp_path, capsys):
        # the table is formatted and written in blocks of rows, never held whole
        tracemalloc.start()
        try:
            code, _, _ = run_cli(["validate", "--eps-steps", "100", "--t-steps", "1000",
                                  "--out", str(tmp_path / "cells.csv")], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 16e6


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

    def test_calls_at_other_omegas_reuse_the_maxima(self, capsys):
        inequalities._maximize.cache_clear()
        outputs = []
        for omega in ("1", "2.3"):
            code, out, _ = run_cli(["threshold", "--preset", "paz4", "--omega", omega,
                                    "--full-search"], capsys)
            assert code == 0
            outputs.append(out)
        info = inequalities._maximize.cache_info()
        assert (info.misses, info.hits) == (2, 2)
        assert outputs[0].split("epsilon_star")[1] == outputs[1].split("epsilon_star")[1]

    def test_custom_spec_equal_to_a_preset_shares_its_entry(self, tmp_path, capsys):
        config = tmp_path / "paz4.cfg"
        config.write_text(
            "preset = custom\n"
            "custom_n_times = 4\n"
            "custom_terms = 1,2,1; 2,3,1; 3,4,1; 1,4,-1\n"
            "custom_bound = 2\n"
            "custom_abs = true\n"
        )
        inequalities._maximize.cache_clear()
        code, preset_out, _ = run_cli(["threshold", "--preset", "paz4"], capsys)
        assert code == 0
        code, custom_out, _ = run_cli(["threshold", "--config", str(config)], capsys)
        assert code == 0
        info = inequalities._maximize.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert custom_out == preset_out.replace("preset: paz4", "preset: custom")

    def test_full_search_refusal_prints_nothing(self, tmp_path, capfd):
        # the chained 5-time combination: its equal-spacing report would come first
        config = tmp_path / "chained5.cfg"
        config.write_text("preset = custom\ncustom_n_times = 5\n"
                          "custom_terms = 1,2,1; 2,3,1; 3,4,1; 4,5,1; 1,5,-1\ncustom_bound = 3\n")
        code = cli.main(["threshold", "--config", str(config), "--full-search"])
        out, err = capfd.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: full search supports n_times in {3, 4} only\n"

    def test_bad_custom_term_names_the_setting(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("preset = custom\ncustom_n_times = 3\n"
                          "custom_terms = x,2,1; 2,3,1\ncustom_bound = 1\n")
        code, out, err = run_cli(["threshold", "--config", str(config)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad value for 'custom_terms': 'x,2,1'")

    def test_solver_failure_exits_1_without_a_traceback(self, monkeypatch, capsys):
        # a failure inside the numerics is not a config error
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        inequalities._maximize.cache_clear()
        monkeypatch.setattr(np.linalg, "lstsq", failing)
        code, out, err = run_cli(["threshold", "--preset", "santos-plus"], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: SVD did not converge\n"

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

    def test_huge_lag(self, capsys):
        # the conditional probabilities are periodic in the lag
        code, out, _ = run_cli(["correlate", "--t1", "0", "--t2", "1e300", "--epsilon", "0.3"],
                               capsys)
        assert code == 0
        header, row = (line.split(",") for line in out.splitlines())
        row = dict(zip(header, map(float, row)))
        assert abs(row["k_oracle"] - row["k_selective"]) <= 1e-6

    def test_huge_lag_grid_validates(self, capsys):
        code, out, _ = run_cli(["validate", "--t-max", "1e300"], capsys)
        assert code == 0
        assert out.splitlines()[-1].startswith("PASS")

    def test_rejects_node_count_over_the_cap(self, capsys):
        code, out, err = run_cli(["correlate", "--t1", "0", "--t2", "1",
                                  "--nodes", "100000000000"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: n_nodes") and "Traceback" not in err

    def test_requires_both_times(self, capsys):
        code, _, _ = run_cli(["correlate", "--t1", "0"], capsys)
        assert code == 2


class TestParser:
    ARGVS = [
        ["correlate", "--t1", "1", "--t2", "2", "--epsilon", "0.4", "--select-both",
         "--nodes", "64"],
        ["threshold", "--preset", "paz4"],
        ["trajectory", "--times", "0,1", "--outcomes=+1,-1"],
        ["correlate", "--t1", "0", "--t2", "1"],
    ]

    def test_shared_parser_keeps_no_values_between_parses(self):
        shared = cli.build_parser()
        assert cli.build_parser() is shared
        for argv in self.ARGVS:
            args = shared.parse_args(argv)
            fresh = cli.build_parser.__wrapped__().parse_args(argv)
            assert vars(args) == vars(fresh)
            assert cli._resolve(args) == cli._resolve(fresh)
        assert cli._resolve(args) == {"t1": 0.0, "t2": 1.0}

    def test_repeated_main_calls_print_the_same_bytes(self, capsys):
        outputs = []
        for argv in self.ARGVS + self.ARGVS[:1]:
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            outputs.append(out)
        assert outputs[-1] == outputs[0]
        assert run_cli(self.ARGVS[-1], capsys)[1] == outputs[-2]


# Each flag with a sample value and the settings it parses to, frozen: every
# subcommand that accepts a flag parses it to the same settings.
FLAG_SAMPLES = {
    "--omega": (["2.5"], {"omega": 2.5}), "--rabi": (["0.5"], {"rabi": 0.5}),
    "--n": (["3"], {"n": 3}), "--preset": (["paz4"], {"preset": "paz4"}),
    "--epsilon": (["0.25"], {"epsilon": 0.25}), "--eps-min": (["0.1"], {"eps_min": 0.1}),
    "--eps-max": (["0.9"], {"eps_max": 0.9}), "--eps-steps": (["7"], {"eps_steps": 7}),
    "--t-min": (["0.5"], {"t_min": 0.5}), "--t-max": (["2"], {"t_max": 2.0}),
    "--t-steps": (["9"], {"t_steps": 9}), "--nodes": (["64"], {"nodes": 64}),
    "--scheme": (["gauss-legendre"], {"scheme": "gauss-legendre"}),
    "--out": (["-"], {"out": "-"}), "--format": (["json-lines"], {"format": "json-lines"}),
    "--select-both": ([], {"select_both": True}),
    "--physical-time": ([], {"physical_time": True}),
    "--full-search": ([], {"full_search": True}),
    "--t1": (["1.5"], {"t1": 1.5}), "--t2": (["2"], {"t2": 2.0}),
    "--times": (["0,1"], {"times": "0,1"}), "--outcomes": (["+1,-1"], {"outcomes": "+1,-1"}),
    "--phase": (["0.75"], {"phase": 0.75}),
    # every key of the file, read or not by the subcommand
    "--config": (["CONFIG"], {"omega": 2.5, "epsilon": 0.4, "custom_abs": True}),
}
SHARED = "--config --omega --rabi --n --out --format"
ACCEPTED = {
    "fig1": f"{SHARED} --preset --t-min --t-max --t-steps --physical-time",
    "fig2": f"{SHARED} --eps-min --eps-max --eps-steps",
    "validate": f"{SHARED} --eps-min --eps-max --eps-steps --t-min --t-max --t-steps --nodes "
                "--scheme --select-both --physical-time",
    "threshold": f"{SHARED} --preset --full-search",
    "correlate": f"{SHARED} --epsilon --nodes --scheme --select-both --physical-time --t1 --t2",
    "trajectory": f"{SHARED} --physical-time --times --outcomes --phase",
}
# The shared flags each subcommand does not read (threshold's output does not
# depend on epsilon): 47 pairs, each an argparse error.
REFUSED = {
    "fig1": "--eps-min --eps-max --eps-steps --epsilon --nodes --scheme --select-both",
    "fig2": "--epsilon --nodes --physical-time --preset --scheme --select-both --t-min --t-max "
            "--t-steps",
    "validate": "--epsilon --preset",
    "threshold": "--eps-min --eps-max --eps-steps --nodes --physical-time --scheme "
                 "--select-both --t-min --t-max --t-steps --epsilon",
    "correlate": "--eps-min --eps-max --eps-steps --preset --t-min --t-max --t-steps",
    "trajectory": "--eps-min --eps-max --eps-steps --epsilon --nodes --preset --scheme "
                  "--select-both --t-min --t-max --t-steps",
}


def _pairs(table):
    return [(command, flag) for command, flags in table.items() for flag in flags.split()]


class TestSettingsTable:
    def test_flags_follow_the_table(self):
        assert len(_pairs(REFUSED)) == 47
        for command in cli._COMMANDS:
            table_flags = {"--config"} | {
                "--" + key.replace("_", "-") for key, setting in cli.SETTINGS.items()
                if not setting.config_only and command in setting.commands.split()}
            assert table_flags == set(ACCEPTED[command].split())
            assert table_flags.isdisjoint(REFUSED[command].split())

    @pytest.mark.parametrize("command, flag", _pairs(ACCEPTED))
    def test_accepted_flag_parses_as_before(self, command, flag, tmp_path, monkeypatch):
        config = tmp_path / "run.cfg"
        config.write_text("omega = 2.5\nepsilon = 0.4\ncustom_abs = yes\n")
        seen = []
        monkeypatch.setitem(cli._COMMANDS, command, (lambda cfg: seen.append(cfg) or 0, ""))
        values, expected = FLAG_SAMPLES[flag]
        values = [str(config) if value == "CONFIG" else value for value in values]
        assert cli.main([command, flag, *values]) == 0
        assert seen == [expected]

    @pytest.mark.parametrize("command, flag", _pairs(REFUSED))
    def test_refused_flag_is_a_usage_error(self, command, flag, capfd):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, flag, *FLAG_SAMPLES[flag][0]])
        out, err = capfd.readouterr()
        assert exit_info.value.code == 2
        assert out == ""
        assert err.startswith("usage: tbell ")
        assert f"unrecognized arguments: {flag}" in err


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

    @pytest.mark.parametrize("flags", [[], ["--omega", "2.3", "--physical-time"]])
    def test_huge_time_gives_the_records_of_its_remainder(self, flags, capsys):
        # the elapsed time is reduced modulo the period; only the time column differs
        remainder = math.fmod(1e300, DynamicsParams(2.3 if flags else 1.0).period)
        argv = ["trajectory", *flags, "--outcomes", "+1,-1", "--times"]
        printed = [run_cli(argv + [times], capsys) for times in ("0,1e300", f"0,{remainder!r}")]
        assert [code for code, _, _ in printed] == [0, 0]
        huge, reduced = ([line.split(",")[2:] if "," in line else line for line in out.splitlines()]
                         for _, out, _ in printed)
        assert huge == reduced
        assert 0.0 < float(huge[2][1]) < 1.0


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


class TestGridSize:
    @pytest.mark.parametrize("argv, setting", [
        (["fig1", "--t-steps", "1000000000000"], "t_steps"),
        (["fig2", "--eps-steps", "1000000000000"], "eps_steps"),
        (["validate", "--t-steps", "1000000000000"], "t_steps"),
        (["validate", "--eps-steps", "100000000", "--t-steps", "2"], "eps_steps"),
        (["validate", "--eps-steps", "1001", "--t-steps", "1000"], "eps_steps x t_steps"),
    ])
    def test_rejects_grids_over_the_cap(self, argv, setting, capsys):
        # rejected before any grid-sized array exists
        tracemalloc.start()
        try:
            code, out, err = run_cli(argv, capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {setting} must be at most ")
        assert peak <= 2**20


class TestTimeRange:
    @pytest.mark.parametrize("argv, setting", [
        (["correlate", "--t1=-1.7e308", "--t2=1.7e308", "--epsilon", "0.3"], "t1 to t2"),
        (["correlate", "--omega", "1e-300", "--t1", "0", "--t2", "1e10"], "t2 "),
        (["validate", "--t-min=-1.7e308", "--t-max=1.7e308", "--t-steps", "3"], "t_min to t_max"),
        (["validate", "--omega", "2", "--t-min=-1.7e308", "--t-max=1.7e308"], "t_min to t_max"),
        (["validate", "--omega", "1e-300", "--t-max", "1e10"], "t_max "),
        (["trajectory", "--omega", "1e-300", "--times", "0,1e10", "--outcomes", "+1,+1"],
         "times[1] "),
        (["trajectory", "--phase=-1.7e308", "--times", "0,1.7e308", "--outcomes", "+1,+1"],
         "phase to times[1]"),
        (["fig1", "--t-max", "1e308", "--t-steps", "3"], "t_max "),
        (["fig1", "--omega", "0.5", "--t-max", "1e308", "--t-steps", "3"], "t_max "),
        (["fig1", "--omega", "1e-300", "--t-max", "1e10", "--t-steps", "3"], "t_max "),
        (["fig1", "--t-min=-1.7e308", "--t-max=1.7e308", "--t-steps", "3"], "t_min to t_max"),
    ])
    def test_rejects_times_out_of_range(self, argv, setting, capfd):
        # each time after the omega scale, and each span between two, must be finite
        code = cli.main(argv)
        out, err = capfd.readouterr()
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and setting in err
        assert "Warning" not in err


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
    def test_refuses_non_finite_values(self, fmt, to_file, tmp_path, monkeypatch, capsys):
        # only the last curve value is non-finite; the rows before it are not written either
        monkeypatch.setattr(cli.inequalities, "stationary_curve",
                            lambda spec, spacing, *args: np.append(np.zeros(spacing.size - 1), np.inf))
        out = tmp_path / "fig1.out"
        argv = ["fig1", "--t-steps", "3", "--format", fmt]
        code, stdout, err = run_cli(argv + (["--out", str(out)] if to_file else []), capsys)
        assert code == 1
        assert stdout == ""
        assert not out.exists()
        assert "non-finite delta_k_minus" in err

    def test_stdout_when_no_out_flag(self, capsys):
        code, out, _ = run_cli(["fig1", "--t-steps", "5"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "omega_t,q_free,delta_k_minus,bound"


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.5e-310, 1.7976931348623157e308, -1.7976931348623157e308]),
)


@st.composite
def tables(draw):
    """Named columns that broadcast together: scalars, (E, 1) and (L,) arrays and
    (E, L) cells, with L sometimes above the emitter's block size."""
    n_eps = draw(st.integers(1, 3))
    n_lags = draw(st.sampled_from([1, 4, cli._BLOCK_ROWS + 1]))
    shapes = {"scalar": (), "eps": (n_eps, 1), "lag": (n_lags,), "cell": (n_eps, n_lags)}
    columns = {}
    for k, kind in enumerate(draw(st.lists(st.sampled_from(list(shapes)), min_size=1, max_size=5))):
        pool = draw(st.lists(FINITE, min_size=1, max_size=8))
        columns[f"c{k}"] = pool[0] if kind == "scalar" else np.resize(pool, shapes[kind])
    return columns


def reference_rows(columns):
    """The table's rows, in row-major broadcast order, as Python floats."""
    cells = [np.ravel(c) for c in np.broadcast_arrays(*map(np.asarray, columns.values()))]
    return [[float(v) for v in row] for row in zip(*cells)]


def reference_text(columns, fmt):
    """The table as the per-value formatter ``format(v, ".17g")`` lays it out."""
    names = list(columns)
    rows = [[format(v, ".17g") for v in row] for row in reference_rows(columns)]
    if fmt == "csv":
        return "".join(",".join(row) + "\n" for row in [names] + rows)
    return "".join("{" + ", ".join(f'"{k}": {v}' for k, v in zip(names, row)) + "}\n"
                   for row in rows)


def emit(columns, fmt, to_file):
    """Stdout, the --out file's text (None when absent) and the refusal, if
    any, of one ``_emit_table`` call."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.out"
        stdout, error = io.StringIO(), None
        with contextlib.redirect_stdout(stdout):
            try:
                cli._emit_table({"format": fmt, "out": str(path) if to_file else None}, columns)
            except FloatingPointError as exc:
                error = exc
        return stdout.getvalue(), path.read_text() if path.exists() else None, error


class TestEmitTable:
    @settings(deadline=None)
    @given(columns=tables(), fmt=st.sampled_from(cli._FORMATS), to_file=st.booleans())
    def test_matches_the_per_value_reference(self, columns, fmt, to_file):
        stdout, written, error = emit(columns, fmt, to_file)
        assert error is None
        expected = reference_text(columns, fmt)
        assert (stdout, written) == (("", expected) if to_file else (expected, None))

    @settings(deadline=None)
    @given(columns=tables(), fmt=st.sampled_from(cli._FORMATS), to_file=st.booleans(),
           data=st.data())
    def test_refuses_a_single_non_finite_value(self, columns, fmt, to_file, data):
        name = data.draw(st.sampled_from(list(columns)))
        bad = np.array(columns[name], dtype=float)
        bad.flat[data.draw(st.integers(0, bad.size - 1))] = data.draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
        columns = {**columns, name: bad}
        names = list(columns)
        first = next(names[k] for row in reference_rows(columns)
                     for k, v in enumerate(row) if not math.isfinite(v))
        stdout, written, error = emit(columns, fmt, to_file)
        assert str(error) == f"non-finite {first} value; nothing written"
        assert (stdout, written) == ("", None)


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "tbell", "threshold", "--preset", "santos-minus"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    assert "epsilon_star" in result.stdout
