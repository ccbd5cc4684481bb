"""Seeded op lists for the three benchmark workloads.

An op is a plain dict: ``{"label", "kind", "argv"}`` for a ``tbell.cli.main``
call, or ``{"label", "kind": "sweep", ...}`` for a library
``k_oracle_grid(..., select_both=True)`` call.  Inputs depend only on the
workload name and the seed, and the ops never pass ``--seed`` or rely on
``TBELL_THREADS``.

Why these workloads:

- ``oracle-midpoint``: the criterion-3 ``validate`` grid (101 eps x 256 lags,
  10^4 nodes), the default ``validate`` grid and a 51 x 256 select-both
  sweep, all on the midpoint scheme.  This is the hot path: it builds the
  (2, 2, nodes, lags) tableau once and spends about half its time in scalar
  jump bisection.
- ``oracle-gauss``: the same kinds of op with ``--scheme gauss-legendre`` on a
  21 x 256 grid.  Gauss rebuilds the tableau for every epsilon and its memory
  grows with the thread count, so a midpoint gain that costs Gauss, or a
  change to the thread pool, shows here and not in ``oracle-midpoint``.
- ``queries``: several hundred small in-process ops (correlate, trajectory,
  threshold on every preset with and without ``--full-search``, fig1, fig2).
  This is the interactive path; it bypasses the big tableau and leans on the
  inequality solvers and CLI formatting.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("oracle-midpoint", "oracle-gauss", "queries")

PRESETS = ("paz4", "santos-minus", "santos-plus")

# Per pass of ``queries``.  The counts are fixed, so the percentile used for
# the tail never changes, and balanced so that the median op lands well
# inside the block of ``correlate`` latencies, not at its edge where the
# next faster kind of op begins.
N_CORRELATE = 240
N_TRAJECTORY = 24
THRESHOLD_REPEATS = 6


def _num(x: float) -> str:
    return f"{x:.6f}"


def _frequency(rng: random.Random) -> list[str]:
    """Either an explicit --omega or the cavity-mode pair --rabi --n."""
    if rng.random() < 0.25:
        return ["--rabi", _num(rng.uniform(0.3, 1.0)), "--n", str(rng.randint(0, 8))]
    return ["--omega", _num(rng.uniform(0.5, 3.0))]


def _table_format(rng: random.Random) -> list[str]:
    return ["--format", "json-lines"] if rng.random() < 0.5 else []


def _oracle_ops(rng: random.Random, scheme: str, n_eps: int, n_sweep: int) -> list[dict]:
    scheme_args = ["--scheme", scheme, "--nodes", "10000"]
    omega = rng.uniform(0.5, 3.0)
    return [
        {"label": "validate-grid", "kind": "validate",
         "argv": ["validate", "--omega", _num(rng.uniform(0.5, 3.0)),
                  "--eps-steps", str(n_eps), "--t-steps", "256", *scheme_args]},
        {"label": "validate-default", "kind": "validate",
         "argv": ["validate", *_frequency(rng), "--scheme", scheme,
                  "--out", "-", *_table_format(rng)]},
        {"label": "select-both-sweep", "kind": "sweep", "scheme": scheme, "nodes": 10000,
         "omega": round(omega, 6), "t1": round(rng.uniform(0.0, 2.0 * math.pi / omega), 6),
         "eps": [0.0, 1.0, n_sweep], "omega_lag": [0.0, math.pi, 256]},
    ]


def _correlate(rng: random.Random) -> dict:
    argv = ["correlate", *_frequency(rng), "--t1", _num(rng.uniform(0.0, 6.0)),
            "--t2", _num(rng.uniform(0.0, 6.0)), "--epsilon", _num(rng.uniform(0.01, 0.99)),
            *_table_format(rng)]
    return {"label": "correlate", "kind": "correlate", "argv": argv}


def _trajectory(rng: random.Random) -> dict:
    n = rng.randint(2, 8)
    times = sorted(rng.sample(range(1, 8001), n))
    argv = ["trajectory", *_frequency(rng),
            "--times", ",".join(_num(t / 1000.0) for t in times),
            # joined with "=": argparse would take a leading "-1" for an option
            "--outcomes=" + ",".join(rng.choice(("+1", "-1")) for _ in range(n)),
            "--phase", _num(rng.uniform(0.0, 2.0 * math.pi)), *_table_format(rng)]
    return {"label": "trajectory", "kind": "trajectory", "argv": argv}


def _threshold(rng: random.Random, preset: str, full: bool) -> dict:
    argv = ["threshold", "--preset", preset, *_frequency(rng)]
    if full:
        argv.append("--full-search")
    if rng.random() < 1.0 / 3.0:
        argv += ["--out", "-", *_table_format(rng)]
    label = "threshold-full" if full else "threshold"
    return {"label": label, "kind": "threshold", "argv": argv}


def _query_ops(rng: random.Random) -> list[dict]:
    ops = [_correlate(rng) for _ in range(N_CORRELATE)]
    ops += [_trajectory(rng) for _ in range(N_TRAJECTORY)]
    ops += [_threshold(rng, preset, full)
            for preset in PRESETS for full in (False, True) for _ in range(THRESHOLD_REPEATS)]
    ops.append({"label": "fig1", "kind": "fig1",
                "argv": ["fig1", *_frequency(rng), "--t-max", _num(rng.uniform(2.0, 6.0) * math.pi),
                         *_table_format(rng)]})
    ops.append({"label": "fig2", "kind": "fig2",
                "argv": ["fig2", *_frequency(rng), "--eps-min", _num(rng.uniform(0.0, 0.2)),
                         "--eps-max", _num(rng.uniform(0.8, 1.0)), *_table_format(rng)]})
    rng.shuffle(ops)
    return ops


def build_ops(workload: str, seed: int) -> list[dict]:
    """The fixed op list one pass of ``workload`` runs for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "oracle-midpoint":
        return _oracle_ops(rng, "uniform-midpoint", 101, 51)
    if workload == "oracle-gauss":
        return _oracle_ops(rng, "gauss-legendre", 21, 21)
    if workload == "queries":
        return _query_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


def fingerprint(ops: list[dict]) -> str:
    """sha256 of the op list, so two commits provably ran the same inputs."""
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
