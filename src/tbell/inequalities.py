"""Temporal Bell inequality combinations, their maxima, and thresholds.

An inequality is a coefficient combination of two-time correlators with a
classical upper bound B.  Quantum evolution violates it for suitable
measurement times; selection on the first outcome multiplies every correlator
by the same time-independent factor A(eps), so the optimal times never move,
only the attainable maximum shrinks.  ``epsilon_threshold`` finds the
distinguishability level where the degraded maximum falls back to the bound.

Without selection every combination is a sum of terms ``c * cos(2*sum(theta))``
over the phases ``theta = omega * gap`` of the gaps it spans, so its exact
gradient and Hessian are O(1) at every omega; the maximizers refine a grid
scan in theta by Newton steps on them, and convert to times only at the edge.
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


def _combination(spec: InequalitySpec, thetas, derivatives: bool = False):
    """Unselected combination at the gap phases ``thetas``.

    ``thetas`` holds n_times - 1 floats or arrays that broadcast together; the
    phase of term (i, j) is the sum of thetas i..j-1, and the term contributes
    ``coeff * cos(2*phase)``: the real part of the product of the factors
    ``exp(2i*theta)`` over those gaps, whose imaginary part is the sine the
    gradient needs.  A scan over a grid of phases thus multiplies broadcast
    factors and takes no cosine of a summed phase.  With ``derivatives`` the
    thetas are floats and the result is ``(value, gradient, hessian)`` in the
    thetas, all exact.
    """
    ndim = spec.n_times - 1
    # one factor per distinct phase object (a stationary scan passes the same
    # array for every gap); the list keeps each object, so its id, alive
    thetas = list(thetas)
    distinct = {id(theta): theta for theta in thetas}
    exps = {key: np.exp(2j * theta) for key, theta in distinct.items()}
    factors = [exps[id(theta)] for theta in thetas]
    # summed in place: a scan holds the total and one complex term at a time
    total = np.zeros(np.broadcast_shapes(*(factor.shape for factor in factors)))
    grad, hess = np.zeros(ndim), np.zeros((ndim, ndim))
    for i, j, coeff in spec.terms:
        # coeff * exp(2i*phase); coeff scales the first factor, before the product grows
        term = math.prod(factors[i - 1:j - 1], start=coeff)
        total += term.real
        if derivatives:
            span = slice(i - 1, j - 1)
            grad[span] -= 2.0 * term.imag
            hess[span, span] -= 4.0 * term.real
    if not derivatives:
        return np.abs(total, out=total) if spec.abs_mode else total
    sign = -1.0 if spec.abs_mode and total < 0.0 else 1.0
    return sign * float(total), sign * grad, sign * hess


def _maximize(spec: InequalitySpec, columns: tuple[int, ...], points: int) -> tuple[float, np.ndarray]:
    """Maximum of the unselected combination, and its gap phases.

    ``columns[d]`` names the free variable of gap d: ``(0, 0, ...)`` is equal
    spacing, ``(0, 1, ...)`` the full search.  A scan of ``points`` phases per
    variable over (0, pi] seeds Newton steps on the exact Hessian system
    (least squares, so a flat direction gets no step); they shrink down to
    roundoff, and the first that does not shrink ends the ascent.  Scan values
    within a relative ``_TIE_TOL`` of the maximum count as tied, so ties break
    toward the lowest phases instead of by roundoff.
    """
    nvar = max(columns) + 1
    axis = math.pi / points * np.arange(1, points + 1)
    # one broadcast axis per variable: the scan never builds a mesh of phase vectors
    mesh = [axis.reshape((1,) * v + (-1,) + (1,) * (nvar - v - 1)) for v in range(nvar)]
    values = _combination(spec, [mesh[v] for v in columns])
    top = values.max()
    first = int(np.argmax(values >= top - _TIE_TOL * abs(top)))
    x = axis[np.array(np.unravel_index(first, values.shape))]
    basis = np.eye(nvar)[list(columns)]  # thetas = basis @ x
    last = math.inf
    for _ in range(_NEWTON_STEPS):
        _, grad, hess = _combination(spec, basis @ x, derivatives=True)
        step = np.linalg.lstsq(basis.T @ hess @ basis, -(basis.T @ grad), rcond=None)[0]
        size = float(np.max(np.abs(step)))
        if not size < last:
            break
        x, last = x + step, size
    thetas = basis @ x
    return float(_combination(spec, thetas)), thetas


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
    return selection_factor(policy) * float(_combination(spec, params.omega * np.diff(times)))


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
    theta = params.omega * np.asarray(spacings, dtype=float)
    return selection_factor(policy) * _combination(spec, (theta,) * (spec.n_times - 1))


def maximize_violation(
    spec: InequalitySpec,
    params: DynamicsParams,
    policy: SelectionPolicy,
) -> ViolationReport:
    """Maximize the stationary combination and report the degraded violation.

    The search runs in the phase omega*t: a grid scan over one spacing period,
    (0, pi], then Newton steps; tied maxima break toward the lowest spacing.
    The objective is evaluated without selection; the policy's factor is
    applied afterwards, which is exact because the factor is time independent
    (so the argmax is too).  The argmax phase is divided by omega once.
    """
    dk_max, thetas = _maximize(spec, (0,) * (spec.n_times - 1), _STATIONARY_GRID)
    a_eps = selection_factor(policy)
    delta_b = (a_eps * dk_max - spec.bound) / spec.bound
    return ViolationReport(
        delta_k_max=dk_max,
        argmax_spacing=float(thetas[0]) / params.omega,
        a_epsilon=a_eps,
        delta_b_max=delta_b,
        violated=delta_b > 0.0,
    )


def full_time_search(spec: InequalitySpec, params: DynamicsParams) -> tuple[float, tuple[float, ...]]:
    """Unconstrained-gap maximization of the unselected combination.

    Searches the phases omega*gap of all n_times - 1 gaps independently (a
    grid scan over one period per gap, then Newton steps) instead of assuming
    equal spacing, and divides them by omega once.  Supported for 3 or 4
    times; the equal-spacing optimum is confirmed when this agrees with
    maximize_violation.

    Returns (maximum, gaps).
    """
    ndim = spec.n_times - 1
    if ndim not in (2, 3):
        raise ValueError("full search supports n_times in {3, 4} only")
    best, thetas = _maximize(spec, tuple(range(ndim)), _GAP_GRID)
    return best, tuple((thetas / params.omega).tolist())


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
