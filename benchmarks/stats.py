"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math
import statistics

# Percentiles the tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)
TAIL_MIN_BEYOND = 10


def rank(p: float, n: int) -> int:
    """1-based nearest rank of the p-th percentile among n samples."""
    return max(1, math.ceil(p / 100.0 * n))


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten of n samples beyond it."""
    fitting = [p for p in TAIL_LADDER if n - rank(p, n) >= TAIL_MIN_BEYOND]
    return fitting[-1] if fitting else None


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[rank(p, len(ordered)) - 1]


def trimmed_mean(values) -> float:
    """Mean without the slowest tenth (rounded down) of the values."""
    ordered = sorted(values)
    return statistics.fmean(ordered[:len(ordered) - len(ordered) // 10])


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
