"""A fixed reference computation that gauges how fast the machine runs now.

The benchmark's timings move with the speed of the shared host, which drifts
by tens of percent within minutes.  ``run.py`` times this kernel between
passes and reports the op list's time as a multiple of the kernel's mean
time in the same run (``run_rel``), which cancels most of that drift.  The
mean, not the fastest or the median time: the host switches between a fast
and a slow speed, and the share of time spent in each varies from run to
run.  Ops that last up to seconds average over both speeds; so does the mean
of many kernel runs, whereas the fastest or the median of them jumps between
the two speeds as that share varies.

The kernel never touches tbell, so a change to tbell cannot move it.  Like
tbell's ops it mixes a pure-Python scalar loop (complex arithmetic in frozen
dataclasses, as in ``dynamics``) with numpy elementwise work on arrays larger
than the L1 cache.  It runs on the calling thread only and allocates no
arrays.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

SCALAR_STEPS = 1500
_GRID = np.linspace(0.0, 10.0, 200_000)
# Preallocated, so that the kernel's time does not depend on how the
# allocator's state was left by the ops timed between its runs.
_COS = np.empty_like(_GRID)
_SIN2 = np.empty_like(_GRID)


@dataclass(frozen=True)
class _Amplitudes:
    up: complex
    down: complex


def _scalar_part() -> float:
    state = _Amplitudes(1.0 + 0.0j, 0.0j)
    total = 0.0
    for i in range(SCALAR_STEPS):
        c, s = math.cos(i * 1e-3), math.sin(i * 1e-3)
        state = _Amplitudes(c * state.up - 1j * s * state.down, c * state.down - 1j * s * state.up)
        total += abs(state.up) ** 2
    return total


def _array_part() -> float:
    np.cos(_GRID, out=_COS)
    np.multiply(_GRID, 2.0, out=_SIN2)
    np.sin(_SIN2, out=_SIN2)
    np.square(_SIN2, out=_SIN2)
    np.multiply(_COS, _SIN2, out=_COS)
    return float(_COS.sum())


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    start = time.perf_counter()
    _scalar_part()
    _array_part()
    return time.perf_counter() - start
