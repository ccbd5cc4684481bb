"""Spans and counters recorded around calls into tbell's modules.

The traced pass replaces module attributes with thin wrappers and puts the
originals back afterwards; tbell itself is not modified.  Wrapped names:

- ``correlators.k_oracle_grid`` (span, plus cells, node_lags and, on the
  memory pass, the tracemalloc peak inside the call), ``correlators.born_probability``
  (counter only: it is called tens of thousands of times per grid),
  ``correlators.selection_factor`` and ``correlators.k_analytic`` (counters),
  ``correlators.parallel_map`` and ``cli.parallel_map`` (span per map and per
  item);
- ``cli.main`` and ``cli.measured_trajectory``, which ``cli`` imports by name;
- every public function defined in ``inequalities``.

A wrapped name that a later version of tbell no longer has is skipped, and its
metrics read zero.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import threading
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

MAP = "threads.parallel_map"
MAP_ITEM = "threads.parallel_map.item"

# Per-layer metric names and units, in report order.
LAYER_METRICS = {
    "dynamics.scalar_calls": "count",
    "dynamics.measured_trajectory.calls": "count",
    "dynamics.measured_trajectory.busy_s": "s",
    "correlators.k_oracle_grid.calls": "count",
    "correlators.k_oracle_grid.busy_s": "s",
    "correlators.k_oracle_grid.cells": "count",
    "correlators.k_oracle_grid.node_lags": "count",
    "correlators.k_oracle_grid.peak_alloc_mb": "MB",
    "correlators.selection_factor.calls": "count",
    "correlators.k_analytic.calls": "count",
    "inequalities.maximize_violation.calls": "count",
    "inequalities.maximize_violation.busy_s": "s",
    "inequalities.epsilon_threshold.self_s": "s",
    "inequalities.full_time_search.busy_s": "s",
    "inequalities.stationary_curve.calls": "count",
    "threads.parallel_map.calls": "count",
    "threads.parallel_map.items": "count",
    "threads.parallel_map.wall_s": "s",
    "threads.parallel_map.item_busy_s": "s",
    "threads.parallel_map.queue_wait_s": "s",
    "threads.parallel_map.parallelism": "ratio",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
}

# Metrics that must repeat exactly from pass to pass.
EXACT_COUNTS = tuple(name for name, unit in LAYER_METRICS.items() if unit == "count")


class Tracer:
    """In-memory span and counter store for one traced pass.

    With ``memory`` set, each ``k_oracle_grid`` call also runs under
    tracemalloc to find its allocation peak.  That slows Python allocation
    several-fold, so busy times come from passes without it.
    """

    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None, **extra):
        """Record ``name`` from entry to exit; the parent defaults to the
        innermost open span of the calling thread."""
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        record = {"id": span_id, "name": name, "parent": parent, "op": self.op,
                  "start": time.perf_counter(), "end": None, **extra}
        stack.append(span_id)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[(self.op, name)] += 1


# -- wrappers -----------------------------------------------------------------


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)
    return wrapper


def _oracle(tracer: Tracer, fn, default_nodes: int):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        n_lags = int(np.size(bound.arguments.get("lags", ())))
        n_eps = int(np.size(bound.arguments.get("epsilons", ())))
        quad = bound.arguments.get("quad")
        nodes = quad.n_nodes if quad is not None else default_nodes
        span = tracer.span("correlators.k_oracle_grid", cells=n_eps * n_lags,
                           node_lags=nodes * n_lags * n_eps)
        if not tracer.memory:
            with span:
                return fn(*args, **kwargs)
        tracemalloc.start()
        try:
            with span as record:
                result = fn(*args, **kwargs)
            record["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            return result
        finally:
            tracemalloc.stop()
    return wrapper


def _mapped(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(func, items):
        work = list(items)
        with tracer.span(MAP, items=len(work)) as record:
            map_id = record["id"]

            def item(x):
                with tracer.span(MAP_ITEM, parent=map_id):
                    return func(x)

            return fn(item, work)
    return wrapper


def install(tracer: Tracer, cli, correlators, inequalities) -> list[tuple]:
    """Wrap the traced attributes; returns what ``restore`` needs."""
    targets = [
        (correlators, "k_oracle_grid", lambda f: _oracle(tracer, f, getattr(correlators, "DEFAULT_NODES", 0))),
        (correlators, "born_probability", lambda f: _counted(tracer, "dynamics.scalar_calls", f)),
        (correlators, "selection_factor", lambda f: _counted(tracer, "correlators.selection_factor", f)),
        (correlators, "k_analytic", lambda f: _counted(tracer, "correlators.k_analytic", f)),
        (correlators, "parallel_map", lambda f: _mapped(tracer, f)),
        (cli, "parallel_map", lambda f: _mapped(tracer, f)),
        (cli, "measured_trajectory", lambda f: _spanned(tracer, "dynamics.measured_trajectory", f)),
        (cli, "main", lambda f: _spanned(tracer, "cli.main", f)),
    ]
    for name, value in vars(inequalities).items():
        if (inspect.isfunction(value) and not name.startswith("_")
                and value.__module__ == inequalities.__name__):
            targets.append((inequalities, name,
                            lambda f, name=name: _spanned(tracer, f"inequalities.{name}", f)))
    saved = []
    for module, name, wrap in targets:
        original = getattr(module, name, None)
        if original is None:
            continue
        saved.append((module, name, original))
        setattr(module, name, wrap(original))
    return saved


def restore(saved: list[tuple]) -> None:
    """Put the original attributes back and confirm that they are back."""
    for module, name, original in saved:
        setattr(module, name, original)
    for module, name, original in saved:
        if getattr(module, name) is not original:
            raise RuntimeError(f"{module.__name__}.{name} was not restored")


# -- aggregation --------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"]) - _covered(children[s["id"]], s["start"], s["end"])
            for s in spans}


def layer_metrics(tracer: Tracer, stdout_bytes: int) -> dict[str, float]:
    """Per-layer totals over one traced pass (``trace.overhead_s`` excluded;
    ``peak_alloc_mb`` is 0 unless the tracer had ``memory`` set)."""
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in tracer.spans:
        by_name[s["name"]].append(s)
    own = self_times(tracer.spans)
    counts: Counter = Counter()
    for (_, name), n in tracer.counts.items():
        counts[name] += n

    def busy(name: str) -> float:
        return sum(s["end"] - s["start"] for s in by_name[name])

    def self_s(name: str) -> float:
        return sum(own[s["id"]] for s in by_name[name])

    maps = by_name[MAP]
    starts = {s["id"]: s["start"] for s in maps}
    items = by_name[MAP_ITEM]
    map_wall = busy(MAP)
    item_busy = busy(MAP_ITEM)
    oracle = by_name["correlators.k_oracle_grid"]
    return {
        "dynamics.scalar_calls": counts["dynamics.scalar_calls"],
        "dynamics.measured_trajectory.calls": len(by_name["dynamics.measured_trajectory"]),
        "dynamics.measured_trajectory.busy_s": busy("dynamics.measured_trajectory"),
        "correlators.k_oracle_grid.calls": len(oracle),
        "correlators.k_oracle_grid.busy_s": busy("correlators.k_oracle_grid"),
        "correlators.k_oracle_grid.cells": sum(s["cells"] for s in oracle),
        "correlators.k_oracle_grid.node_lags": sum(s["node_lags"] for s in oracle),
        "correlators.k_oracle_grid.peak_alloc_mb": max((s.get("peak_alloc_mb", 0.0) for s in oracle), default=0.0),
        "correlators.selection_factor.calls": counts["correlators.selection_factor"],
        "correlators.k_analytic.calls": counts["correlators.k_analytic"],
        "inequalities.maximize_violation.calls": len(by_name["inequalities.maximize_violation"]),
        "inequalities.maximize_violation.busy_s": busy("inequalities.maximize_violation"),
        "inequalities.epsilon_threshold.self_s": self_s("inequalities.epsilon_threshold"),
        "inequalities.full_time_search.busy_s": busy("inequalities.full_time_search"),
        "inequalities.stationary_curve.calls": len(by_name["inequalities.stationary_curve"]),
        "threads.parallel_map.calls": len(maps),
        "threads.parallel_map.items": sum(s["items"] for s in maps),
        "threads.parallel_map.wall_s": map_wall,
        "threads.parallel_map.item_busy_s": item_busy,
        "threads.parallel_map.queue_wait_s": sum(s["start"] - starts[s["parent"]] for s in items),
        "threads.parallel_map.parallelism": item_busy / map_wall if map_wall > 0 else 0.0,
        "cli.main.calls": len(by_name["cli.main"]),
        "cli.main.self_s": self_s("cli.main"),
        "cli.stdout_bytes": stdout_bytes,
    }


def per_op_counts(tracer: Tracer, name: str) -> dict[int, int]:
    """Counter ``name`` broken down by op index."""
    return {op: n for (op, counted), n in tracer.counts.items() if counted == name}
