"""Self-tests of the benchmark harness.

Run from the repository root with ``python -m pytest benchmarks``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODS = run.load_tbell()


def _cli(argv):
    return run.execute({"kind": argv[0], "argv": argv}, MODS)


def _perturb(text: str, column: str, delta: float) -> str:
    """Add delta to ``column`` of the first CSV data row."""
    lines = text.splitlines()
    header = lines[0].split(",")
    fields = lines[1].split(",")
    i = header.index(column)
    fields[i] = repr(float(fields[i]) + delta)
    lines[1] = ",".join(fields)
    return "\n".join(lines) + "\n"


# -- the checker catches a wrong oracle --------------------------------------


def test_validate_table_perturbed_by_1e_5_fails():
    argv = ["validate", "--eps-steps", "3", "--t-steps", "4", "--out", "-"]
    good = _cli(argv)
    assert checks.check_validate(argv, good) <= checks.ORACLE_TOL
    bad = good._replace(stdout=_perturb(good.stdout, "k_oracle", 1e-5))
    with pytest.raises(checks.CheckFailure, match="k_oracle"):
        checks.check_validate(argv, bad)


def test_correlate_perturbed_by_1e_5_fails():
    argv = ["correlate", "--omega", "1.3", "--t1", "0.4", "--t2", "2.9", "--epsilon", "0.3"]
    good = _cli(argv)
    checks.check_correlate(argv, good)
    bad = good._replace(stdout=_perturb(good.stdout, "k_oracle", 1e-5))
    with pytest.raises(checks.CheckFailure, match="k_oracle"):
        checks.check_correlate(argv, bad)


def test_select_both_sweep_perturbed_by_1e_5_fails():
    op = {"kind": "sweep", "scheme": "gauss-legendre", "nodes": 160, "omega": 2.3, "t1": 0.37,
          "eps": [0.0, 1.0, 5], "omega_lag": [0.0, math.pi, 16]}
    grid = run.execute(op, MODS)
    assert checks.check_sweep(op, grid) < 1e-12
    grid[2, 5] += 1e-5
    with pytest.raises(checks.CheckFailure, match="select_both"):
        checks.check_sweep(op, grid)


# -- tail percentile rule ---------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (3, None), (11, None), (19, None), (20, 50.0), (40, 75.0), (100, 90.0),
    (358, 95.0), (999, 95.0), (1000, 99.0), (2000, 99.5),
])
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    p = stats.tail_percentile(n)
    assert p == expected
    if p is not None:
        assert n - stats.rank(p, n) >= stats.TAIL_MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 95.0) == 95
    assert stats.percentile(values, 50.0) == 50


@pytest.mark.parametrize("values, expected", [
    ([3.0], 3.0), ([5.0, 1.0, 3.0], 3.0), ([1.0] * 9 + [100.0], 1.0),
    ([1.0] * 18 + [50.0, 100.0], 1.0), ([2.0] * 8 + [11.0], 3.0),
])
def test_trimmed_mean_drops_the_slowest_tenth(values, expected):
    assert stats.trimmed_mean(values) == pytest.approx(expected)


# -- output parsing -----------------------------------------------------------


TRAJECTORY_TABLE = (
    "index,omega_t,outcome,pre_probability,disturbance\n"
    "1,0.5,1,0.77015115293406988,0.22984884706593012\n"
)
SUMMARY = "final_norm_sq: 0.77015115293406988\nproduct: 0.77015115293406988\n"


@pytest.mark.parametrize("stdout, stderr", [
    (TRAJECTORY_TABLE + SUMMARY, ""),
    (TRAJECTORY_TABLE, SUMMARY),
    (SUMMARY + TRAJECTORY_TABLE, ""),
])
def test_summary_lines_on_stdout_or_stderr(stdout, stderr):
    rows, summary = checks.parse_output(stdout, stderr)
    assert len(rows) == 1 and rows[0]["pre_probability"] == pytest.approx(0.77015115293406988)
    assert summary == {"final_norm_sq": "0.77015115293406988", "product": "0.77015115293406988"}


def test_trajectory_check_accepts_summary_on_stderr():
    argv = ["trajectory", "--omega", "1.7", "--times", "0.3,1.1,2.0", "--outcomes=+1,-1,-1",
            "--phase", "0.25"]
    good = _cli(argv)
    checks.check_trajectory(argv, good)
    table = "".join(l + "\n" for l in good.stdout.splitlines() if ":" not in l)
    summary = "".join(l + "\n" for l in good.stdout.splitlines() if ":" in l)
    checks.check_trajectory(argv, good._replace(stdout=table, stderr=summary))


@pytest.mark.parametrize("stdout", [
    '{"a": NaN}\n',
    '{"a": Infinity}\n',
    "a,b\n1,inf\n",
    "a,b\n1,nan\n",
    "a,b\n1\n",
    '{"a": 1\n',
])
def test_malformed_or_non_finite_tables_fail(stdout):
    with pytest.raises(checks.CheckFailure):
        checks.parse_output(stdout, "")


# -- workloads and tracing --------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_ops_depend_only_on_the_seed(workload):
    a = workloads.build_ops(workload, 7)
    assert workloads.fingerprint(a) == workloads.fingerprint(workloads.build_ops(workload, 7))
    assert workloads.fingerprint(a) != workloads.fingerprint(workloads.build_ops(workload, 8))
    assert not any("--seed" in arg for op in a for arg in op.get("argv", ()))


def test_tracing_restores_wrappers_and_repeats_counts():
    ops = [
        {"label": "correlate", "kind": "correlate",
         "argv": ["correlate", "--t1", "0.2", "--t2", "1.4", "--epsilon", "0.6"]},
        {"label": "threshold", "kind": "threshold", "argv": ["threshold", "--preset", "santos-minus"]},
    ]
    originals = [MODS[1].k_oracle_grid, MODS[0].main]
    plain = run.run_pass(ops, MODS)
    metrics = []
    for _ in range(2):
        tracer = tracing.Tracer()
        traced = run.run_pass(ops, MODS, tracer)
        assert traced.digests == plain.digests
        metrics.append(tracing.layer_metrics(tracer, traced.stdout_bytes))
    assert [MODS[1].k_oracle_grid, MODS[0].main] == originals
    assert metrics[0]["cli.main.calls"] == 2
    for name in tracing.EXACT_COUNTS:
        assert metrics[0][name] == metrics[1][name], name


def test_self_time_subtracts_covered_children():
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 1, "start": 3.0, "end": 6.0},  # overlaps its sibling
        {"id": 4, "parent": 3, "start": 3.5, "end": 4.0},
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(5.0)
    assert own[3] == pytest.approx(2.5)
    assert own[2] == pytest.approx(3.0)


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_malformed_output_counts_as_a_failed_op():
    op = {"label": "correlate", "kind": "correlate",
          "argv": ["correlate", "--t1", "0.2", "--t2", "1.4", "--epsilon", "0.6"]}
    broken = run.PassResult(0.0, [0.0], [run.Output(0, '{"omega": 1.0}\n', "")], ["-"], 0)
    failures = []
    assert run.check_pass([op], broken, failures) == (1, 0.0)
    assert "KeyError" in failures[0]
