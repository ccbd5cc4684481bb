"""Temporal Bell inequality combinations, their maxima, and thresholds.

An inequality is a coefficient combination of two-time correlators with a
classical upper bound B.  Quantum evolution violates it for suitable
measurement times; selection on the first outcome multiplies every correlator
by the same time-independent factor A(eps), so the optimal times never move,
only the attainable maximum shrinks.  ``epsilon_threshold`` finds the
distinguishability level where the degraded maximum falls back to the bound.

Without selection every combination is a sum of terms ``c * cos(2*omega*lag)``
in the inter-measurement gaps, so its gradient and Hessian are exact; the
maximizers refine a grid scan by Newton steps on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlators import SelectionPolicy, selection_factor, selection_factor_derivative
from .dynamics import DynamicsParams

# Scan sizes over one spacing period: equal spacings, and each gap of the full search.
_STATIONARY_GRID = 4096
_GAP_GRID = 128

# Grid values within this relative distance of the maximum count as tied.
_TIE_TOL = 1e-12

# Cap on Newton iterations.  The maximizers stop within ten; the threshold
# solve needs up to about 80 when its root lies within 1e-9 of 0 or 1.
_NEWTON_STEPS = 100


@dataclass(frozen=True)
class InequalitySpec:
    """Coefficient set, time arity, and classical bound of one inequality.

    ``terms`` holds (i, j, coefficient) with 1-based time indices; when
    ``abs_mode`` is set the combination is wrapped in an absolute value.
    """

    n_times: int
    terms: tuple[tuple[int, int, float], ...]
    bound: float
    abs_mode: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple((int(i), int(j), float(c)) for i, j, c in self.terms))
        if self.n_times < 3:
            raise ValueError(f"n_times must be >= 3, got {self.n_times}")
        if not self.terms:
            raise ValueError("terms must not be empty")
        if not (math.isfinite(self.bound) and self.bound > 0):
            raise ValueError(f"bound must be finite and > 0, got {self.bound!r}")
        seen = set()
        for i, j, c in self.terms:
            if not math.isfinite(c):
                raise ValueError(f"coefficient of term ({i}, {j}) must be finite, got {c!r}")
            if not (1 <= i <= self.n_times and 1 <= j <= self.n_times):
                raise ValueError(f"time index out of range in term ({i}, {j})")
            if i == j:
                raise ValueError(f"term ({i}, {j}) correlates a time with itself")
            if (i, j) in seen:
                raise ValueError(f"duplicate term ({i}, {j})")
            seen.add((i, j))


@dataclass(frozen=True)
class ViolationReport:
    """Outcome of maximizing an inequality under a selection policy.

    ``delta_k_max`` is the unselected maximum; the measurement back-action
    enters through ``a_epsilon``, giving the fractional violation
    ``delta_b_max = (a_epsilon * delta_k_max - bound) / bound``.
    """

    delta_k_max: float
    argmax_spacing: float
    a_epsilon: float
    delta_b_max: float
    violated: bool


PAZ4 = InequalitySpec(
    n_times=4,
    terms=((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 4, -1.0)),
    bound=2.0,
    abs_mode=True,
)

SANTOS_MINUS = InequalitySpec(
    n_times=3,
    terms=((1, 2, -1.0), (2, 3, -1.0), (1, 3, -1.0)),
    bound=1.0,
)

SANTOS_PLUS = InequalitySpec(
    n_times=3,
    terms=((1, 3, -1.0), (1, 2, 1.0), (2, 3, 1.0)),
    bound=1.0,
)

PRESETS: dict[str, InequalitySpec] = {
    "paz4": PAZ4,
    "santos-minus": SANTOS_MINUS,
    "santos-plus": SANTOS_PLUS,
}


def _combination(spec: InequalitySpec, omega: float, gaps, derivatives: bool = False):
    """Unselected combination at the inter-measurement gaps.

    ``gaps`` holds n_times - 1 floats or arrays that broadcast together; the
    lag of term (i, j) is the sum of gaps i..j-1, and the term contributes
    ``coeff * cos(2*omega*lag)``: the real part of the product of the phase
    factors ``exp(2i*omega*gap)`` over those gaps, whose imaginary part is
    the sine the gradient needs.  A scan over a grid of gaps thus multiplies
    broadcast factors and takes no cosine of a summed lag.  With
    ``derivatives`` the gaps are floats and the result is
    ``(value, gradient, hessian)`` in the gaps, all exact.
    """
    ndim = spec.n_times - 1
    # one factor per distinct gap object (a stationary scan passes the same
    # spacing array for every gap); the list keeps each object, so its id, alive
    gaps = list(gaps)
    distinct = {id(gap): gap for gap in gaps}
    exps = {key: np.exp(2j * omega * gap) for key, gap in distinct.items()}
    factors = [exps[id(gap)] for gap in gaps]
    # summed in place: a scan holds the total and one complex term at a time
    total = np.zeros(np.broadcast_shapes(*(factor.shape for factor in factors)))
    grad, hess = np.zeros(ndim), np.zeros((ndim, ndim))
    for i, j, coeff in spec.terms:
        # coeff * exp(2i*omega*lag); coeff scales the first factor, before the product grows
        term = math.prod(factors[i - 1:j - 1], start=coeff)
        total += term.real
        if derivatives:
            span = slice(i - 1, j - 1)
            grad[span] -= 2.0 * omega * term.imag
            hess[span, span] -= 4.0 * omega * omega * term.real
    if not derivatives:
        return np.abs(total, out=total) if spec.abs_mode else total
    sign = -1.0 if spec.abs_mode and total < 0.0 else 1.0
    return sign * float(total), sign * grad, sign * hess


def _first_best(values: np.ndarray) -> int:
    """Flat index of the first value tied with the maximum.

    Ties are values within a relative ``_TIE_TOL`` of it, so they break
    toward the lowest gaps instead of by roundoff.
    """
    top = values.max()
    return int(np.argmax(values >= top - _TIE_TOL * abs(top)))


def _newton_max(spec: InequalitySpec, omega: float, basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Newton ascent on the gaps ``basis @ x`` from a grid seed ``x``.

    Each step solves the exact Hessian system restricted to the basis (least
    squares, so a flat direction gets no step).  Steps shrink quadratically
    down to roundoff; the first that does not shrink ends the ascent.
    """
    last = math.inf
    for _ in range(_NEWTON_STEPS):
        _, grad, hess = _combination(spec, omega, basis @ x, derivatives=True)
        step = np.linalg.lstsq(basis.T @ hess @ basis, -(basis.T @ grad), rcond=None)[0]
        size = float(np.max(np.abs(step)))
        if not size < last:
            break
        x, last = x + step, size
    return x


def delta_k(
    spec: InequalitySpec,
    times: tuple[float, ...],
    params: DynamicsParams,
    policy: SelectionPolicy,
) -> float:
    """Selective inequality combination at explicit measurement times."""
    if len(times) != spec.n_times:
        raise ValueError("time count mismatch")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("times not ascending")
    return selection_factor(policy) * float(_combination(spec, params.omega, np.diff(times)))


def delta_k_stationary(
    spec: InequalitySpec,
    spacing: float,
    params: DynamicsParams,
    policy: SelectionPolicy,
) -> float:
    """Inequality combination at equally spaced times (finite spacing > 0)."""
    if not (0.0 < spacing < math.inf):
        raise ValueError("invalid spacing")
    return float(stationary_curve(spec, spacing, params, policy))


def stationary_curve(
    spec: InequalitySpec,
    spacings: np.ndarray,
    params: DynamicsParams,
    policy: SelectionPolicy,
) -> np.ndarray:
    """Vectorized stationary combination over an array of spacings.

    Unlike delta_k_stationary this is total on spacing >= 0 (the limit at
    zero spacing is well defined), which the figure sweeps rely on.
    """
    s = np.asarray(spacings, dtype=float)
    return selection_factor(policy) * _combination(spec, params.omega, (s,) * (spec.n_times - 1))


def maximize_violation(
    spec: InequalitySpec,
    params: DynamicsParams,
    policy: SelectionPolicy,
) -> ViolationReport:
    """Maximize the stationary combination and report the degraded violation.

    A grid scan covers one spacing period, omega*t in (0, pi], and Newton
    steps on the exact derivatives refine its best point; tied maxima break
    toward the lowest spacing.  The objective is evaluated without selection;
    the policy's factor is applied afterwards, which is exact because the
    factor is time independent (so the argmax is too).
    """
    ndim = spec.n_times - 1
    grid = math.pi / params.omega / _STATIONARY_GRID * np.arange(1, _STATIONARY_GRID + 1)
    seed = grid[_first_best(_combination(spec, params.omega, (grid,) * ndim))]
    spacing = float(_newton_max(spec, params.omega, np.ones((ndim, 1)), np.array([seed]))[0])
    dk_max = float(_combination(spec, params.omega, (spacing,) * ndim))
    a_eps = selection_factor(policy)
    delta_b = (a_eps * dk_max - spec.bound) / spec.bound
    return ViolationReport(
        delta_k_max=dk_max,
        argmax_spacing=spacing,
        a_epsilon=a_eps,
        delta_b_max=delta_b,
        violated=delta_b > 0.0,
    )


def full_time_search(spec: InequalitySpec, params: DynamicsParams) -> tuple[float, tuple[float, ...]]:
    """Unconstrained-gap maximization of the unselected combination.

    Searches all n_times - 1 inter-measurement gaps independently (a grid
    scan over one period per gap, then Newton steps on the exact gradient and
    Hessian) instead of assuming equal spacing.  Supported for 3 or 4 times;
    the equal-spacing optimum is confirmed when this agrees with
    maximize_violation.

    Returns (maximum, gaps).
    """
    ndim = spec.n_times - 1
    if ndim not in (2, 3):
        raise ValueError("full search supports n_times in {3, 4} only")
    axis = math.pi / params.omega / _GAP_GRID * np.arange(1, _GAP_GRID + 1)
    # one broadcast axis per gap: the scan never builds a mesh of gap vectors
    mesh = tuple(axis.reshape((1,) * d + (-1,) + (1,) * (ndim - d - 1)) for d in range(ndim))
    values = _combination(spec, params.omega, mesh)
    seed = axis[np.array(np.unravel_index(_first_best(values), values.shape))]
    gaps = _newton_max(spec, params.omega, np.eye(ndim), seed)
    return float(_combination(spec, params.omega, gaps)), tuple(gaps.tolist())


def threshold_from_maximum(spec: InequalitySpec, delta_k_max: float) -> float:
    """Distinguishability level where a maximum of ``delta_k_max`` degrades
    to the bound: the root of A(eps) = bound / delta_k_max.

    A is strictly decreasing, so the root is unique.  Newton steps on the
    exact derivative find it to a few ulp; a step that would leave the
    bracket [lo, hi] around the root bisects it instead, and every point
    tried narrows it.  The solve ends when the Newton step vanishes or no
    float is left inside the bracket.  A maximum below the bound raises
    ``ValueError``; one equal to it returns 0 by convention.
    """
    if delta_k_max < spec.bound - 1e-12:
        raise ValueError("inequality never violated")
    target = spec.bound / delta_k_max
    if target >= 1.0:
        return 0.0
    lo, hi = 0.0, 1.0  # A(lo) >= target > A(hi)
    eps = 0.5
    for _ in range(_NEWTON_STEPS):
        policy = SelectionPolicy(eps)
        gap = selection_factor(policy) - target
        lo, hi = (eps, hi) if gap >= 0.0 else (lo, eps)
        nxt = eps - gap / selection_factor_derivative(policy)
        if nxt == eps:
            break
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                break
        eps = nxt
    return eps


def epsilon_threshold(spec: InequalitySpec, params: DynamicsParams) -> float:
    """Distinguishability level where violations disappear.

    Violations survive exactly for epsilon below the returned value; see
    ``threshold_from_maximum`` for the solve and the degenerate cases.
    """
    report = maximize_violation(spec, params, SelectionPolicy(0.0))
    return threshold_from_maximum(spec, report.delta_k_max)


def jaynes_cummings_frequency(rabi: float, n: int) -> float:
    """Effective oscillation frequency of the atom-cavity coupling.

    For a cavity mode holding n photons the vacuum Rabi frequency is
    enhanced to ``rabi * sqrt(n + 1)``.
    """
    if not (math.isfinite(rabi) and rabi > 0):
        raise ValueError(f"rabi must be finite and > 0, got {rabi!r}")
    if n != int(n) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    return rabi * math.sqrt(n + 1.0)
