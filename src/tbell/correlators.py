"""Two-time correlators of the occupation observable, with outcome selection.

Averaged over one period of the preparation phase t', the free two-time
correlator of Q is ``cos(2*omega*(t2 - t1))``.  When a run is retained only
if the first outcome had Born probability at least ``epsilon`` (the
distinguishability threshold), the correlator factorizes into a
time-independent factor

    A(eps) = (2*sqrt(eps*(1 - eps)) + arccos(2*eps - 1)) / pi

times the same cosine.  ``selection_factor`` and ``k_selective_analytic``
implement the closed forms; ``k_oracle`` recomputes the selective correlator
by brute force, from the simulated outcome probabilities of measured
trajectories on a phase grid, and is the independent check of the
factorization.

The oracle's normalization is the plain mean over the phase period of the
outcome-summed trajectory products.  With no selection the per-phase outcome
sum already equals the lag cosine, so the mean reproduces the free correlator
with no extra constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import DynamicsParams, InitialPhase, born_probability, initial_state

QUADRATURE_SCHEMES = ("uniform-midpoint", "gauss-legendre")

DEFAULT_NODES = 10_000
MAX_NODES = 10_000_000

_GAUSS_ORDER = 16


@dataclass(frozen=True)
class SelectionPolicy:
    """Distinguishability threshold for retaining a measurement run.

    A run is kept when the first outcome's pre-measurement Born probability
    is >= epsilon (inclusive: a probability exactly equal to epsilon stays).
    """

    epsilon: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.epsilon <= 1.0):
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon!r}")


@dataclass(frozen=True)
class CorrelationRequest:
    """A two-time correlation query; times are canonicalized so t1 <= t2."""

    t1: float
    t2: float
    params: DynamicsParams
    policy: SelectionPolicy

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t1) and math.isfinite(self.t2)):
            raise ValueError("t1 and t2 must be finite")
        if self.t1 > self.t2:
            earlier, later = self.t2, self.t1
            object.__setattr__(self, "t1", earlier)
            object.__setattr__(self, "t2", later)


@dataclass(frozen=True)
class QuadratureConfig:
    """Phase-grid settings for the t' average.

    ``uniform-midpoint`` uses ``n_nodes`` cells of one node each;
    ``gauss-legendre`` uses ``n_nodes // 16`` cells of 16 nodes each.  At
    about 80 B per node, the cap of 10^7 bounds the oracle's peak near 0.8 GB.
    """

    n_nodes: int = DEFAULT_NODES
    scheme: str = "uniform-midpoint"

    def __post_init__(self) -> None:
        if not 16 <= self.n_nodes <= MAX_NODES:
            raise ValueError(f"n_nodes must lie in [16, {MAX_NODES}], got {self.n_nodes!r}")
        if self.scheme not in QUADRATURE_SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {QUADRATURE_SCHEMES}")


def k_analytic(t1: float, t2: float, params: DynamicsParams) -> float:
    """Free two-time correlator, ``cos(2*omega*(t1 - t2))``.

    The lag is reduced modulo the correlator period pi/omega first, so large
    time arguments do not lose precision in the trig call.
    """
    lag = math.remainder(t2 - t1, math.pi / params.omega)
    return math.cos(2.0 * params.omega * lag)


def selection_factor(policy: SelectionPolicy) -> float:
    """Fraction factor A(eps) multiplying the correlator under selection.

    Decreases strictly from A(0) = 1 to A(1) = 0: the more reliably an
    outcome must identify a state, the more runs are discarded.  The angle
    ``arccos(2*eps - 1)`` is evaluated as ``2*atan2(sqrt(1 - eps), sqrt(eps))``,
    which stays accurate near eps = 0, where rounding ``2*eps - 1`` would
    cost about 1e-16 / sqrt(eps).
    """
    eps = policy.epsilon
    angle = 2.0 * math.atan2(math.sqrt(1.0 - eps), math.sqrt(eps))
    return (2.0 * math.sqrt(eps * (1.0 - eps)) + angle) / math.pi


def selection_factor_derivative(policy: SelectionPolicy) -> float:
    """d A(eps) / d eps, defined on the open interval (0, 1)."""
    eps = policy.epsilon
    if not (0.0 < eps < 1.0):
        raise ValueError("derivative is defined for 0 < epsilon < 1")
    return -2.0 * eps / (math.pi * math.sqrt(eps * (1.0 - eps)))


def k_selective_analytic(req: CorrelationRequest) -> float:
    """Closed-form selective correlator: ``A(eps) * k_analytic``."""
    return selection_factor(req.policy) * k_analytic(req.t1, req.t2, req.params)


def disturbance(phase: InitialPhase, t1: float, outcome: int, params: DynamicsParams) -> float:
    """Back-action bookkeeping: 1 - Born probability of ``outcome`` at t1.

    Zero exactly when the pre-measurement state is the outcome eigenstate,
    i.e. the impulsive QND case.
    """
    return 1.0 - born_probability(initial_state(phase, t1, params), outcome)


def k_oracle(req: CorrelationRequest, quad: QuadratureConfig | None = None) -> float:
    """Brute-force selective correlator for a single time pair.

    See ``k_oracle_grid`` for the algorithm; this is the one-cell wrapper.
    """
    grid = k_oracle_grid(
        req.t1,
        np.array([req.t2 - req.t1]),
        np.array([req.policy.epsilon]),
        req.params,
        quad=quad,
    )
    return float(grid[0, 0])


def k_oracle_grid(
    t1: float,
    lags: Sequence[float],
    epsilons: Sequence[float],
    params: DynamicsParams,
    quad: QuadratureConfig | None = None,
    select_both: bool = False,
) -> np.ndarray:
    """Brute-force selective correlators on an (epsilon, lag) grid.

    A two-measurement trajectory that starts in ``|+>`` at phase t', is
    measured at t1 with outcome q1 and at t1 + lag with outcome q2, ends with
    squared norm ``p1[q1](t') * cond[q1, q2](lag)``: the first collapse leaves
    an outcome eigenstate, so the second outcome's conditional probability
    depends on the lag alone.  Summing the signed outcome products of the
    sequences whose first outcome passes the threshold and averaging over one
    phase period therefore reduces, for each epsilon, to two phase integrals

        I_q(eps) = mean over t' of p1[q](t') * [p1[q](t') >= eps]

    at O(nodes) cost, followed by an O(lags) expansion

        K(eps, lag) = I_+ * (c[+, +] - c[+, -]) - I_- * (c[-, +] - c[-, -])

    where ``c = cond`` with the entries below epsilon zeroed when
    ``select_both`` is set.  ``select_both`` applies the threshold to the
    second outcome too (exploratory; the published factorization selects on
    the first only); it adds no phase-grid discontinuity.

    The integrand jumps where a first-outcome probability crosses epsilon.
    A plain node-indicator rule would be O(eps / n_nodes) wrong near those
    jumps, so the jump positions are located by bisection on the simulated
    pre-measurement probability, for all epsilons at once, and the phase
    quadrature is split at them.  Both schemes lay one reference rule on
    uniform cells and replace each cell that straddles a jump by the same
    rule on each of its smooth pieces: the midpoint rule (one node) on
    ``n_nodes`` cells, or the 16-point Gauss-Legendre rule on
    ``n_nodes // 16`` cells.  This keeps the quadrature deterministic while
    pushing the error down to the smooth-piece level (~1e-8 for midpoint at
    the default node count).

    Returns an array of shape ``(len(epsilons), len(lags))``; each row
    depends on its own epsilon only.
    """
    if quad is None:
        quad = QuadratureConfig()
    lags = np.asarray(lags, dtype=float)
    epsilons = np.asarray(epsilons, dtype=float)
    if lags.ndim != 1 or lags.size == 0:
        raise ValueError("lags must be a non-empty 1-d sequence")
    if epsilons.ndim != 1 or epsilons.size == 0:
        raise ValueError("epsilons must be a non-empty 1-d sequence")
    if np.any((epsilons < 0.0) | (epsilons > 1.0)):
        raise ValueError("epsilons must lie in [0, 1]")
    # the phase average is periodic in t1; reducing it keeps omega * (t1 - phase) accurate
    t1 = math.remainder(t1, params.period)

    if quad.scheme == "uniform-midpoint":
        reference = np.zeros(1), np.full(1, 2.0)
    else:
        reference = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
    phase_rule = _phase_rule(t1, params, quad.n_nodes, *reference)
    cond = _conditional_probabilities(lags, params)
    jumps = _selection_jumps(epsilons, t1, params)
    rows = np.empty((epsilons.size, lags.size))
    for row, eps, eps_jumps in zip(rows, epsilons, jumps):
        p1, weights = phase_rule(eps_jumps)
        i_plus, i_minus = (np.where(p1 >= eps, p1, 0.0) * weights).sum(axis=1)
        # without select_both the mask is all true: probabilities are >= 0
        c = np.where(cond >= (eps if select_both else 0.0), cond, 0.0)
        row[:] = i_plus * (c[0, 0] - c[0, 1]) - i_minus * (c[1, 0] - c[1, 1])
    return rows


# -- internals ---------------------------------------------------------------


def _first_probabilities(phases: np.ndarray, t1: float, params: DynamicsParams) -> np.ndarray:
    """Born probabilities at t1 of a system in ``|+>`` at each phase anchor.

    Mirrors ``initial_state`` and ``born_probability`` for an array of
    anchors.  Returns shape (2, m), outcomes in (+1, -1) order.
    """
    ang = params.omega * (t1 - np.asarray(phases, dtype=float))
    cp2 = np.cos(ang) ** 2
    cm2 = np.sin(ang) ** 2
    return np.array([cp2, cm2]) / (cp2 + cm2)


def _conditional_probabilities(lags: np.ndarray, params: DynamicsParams) -> np.ndarray:
    """Second-outcome probabilities given the first, shape (2, 2, L).

    Indexed by (first, second) outcome in (+1, -1) order.  The first collapse
    leaves an eigenstate, which the lag rotates by ``omega * lag``.
    """
    alpha = params.omega * lags
    ca2 = np.cos(alpha) ** 2
    sa2 = np.sin(alpha) ** 2
    return np.array([[ca2, sa2], [sa2, ca2]])


def _selection_jumps(epsilons: np.ndarray, t1: float, params: DynamicsParams) -> list[np.ndarray]:
    """Sorted phases in [0, period) where a first-outcome probability crosses
    each epsilon.

    The extrema of p+- lie every quarter period from t1, and between two of
    them each probability runs monotonically between 0 and 1: for 0 < eps < 1
    it crosses eps exactly once per quarter, four times per outcome.  Each
    crossing is found by 60 halvings of its quarter on the simulated
    probability, which reach below one ulp.  At eps = 0 the threshold is
    never crossed and there are no jumps.  At eps = 1 the selected set is
    the float sliver around each maximum where p rounds to 1; every extremum
    is the maximum of p+ or of p-, so the four extrema are the jumps, and a
    quadrature node cannot sit inside a sliver with a whole cell's weight.
    """
    quarter = params.period / 4
    extrema = t1 % quarter + quarter * np.arange(4)
    lo = np.broadcast_to(extrema, (2, epsilons.size, 4))
    eps = epsilons[:, None]

    def probabilities(phases: np.ndarray) -> np.ndarray:  # p_q; axes (q, epsilon, quarter)
        p = _first_probabilities(phases, t1, params)
        return np.array([p[0, 0], p[1, 1]])

    # a quarter starts at a maximum (sign 1) or a minimum (sign -1) of p_q;
    # lo moves while p_q - eps keeps that sign, and the crossing stays in
    # [lo, lo + 2 * step]
    sign = np.where(probabilities(lo) > 0.5, 1.0, -1.0)
    step = quarter
    for _ in range(60):
        step *= 0.5
        mid = lo + step
        lo = np.where((probabilities(mid) - eps) * sign > 0.0, mid, lo)
    roots = np.sort(((lo + step) % params.period).transpose(1, 0, 2).reshape(-1, 8), axis=1)
    return [row if 0.0 < e < 1.0 else extrema if e == 1.0 else row[:0]
            for e, row in zip(epsilons.tolist(), roots)]


def _piece_nodes(lo: np.ndarray, hi: np.ndarray, ref_nodes: np.ndarray, ref_weights: np.ndarray,
                 t1: float, params: DynamicsParams) -> tuple[np.ndarray, np.ndarray]:
    """First-outcome probabilities and weights of a reference rule on [-1, 1]
    mapped onto each piece [lo, hi].

    Pieces no wider than roundoff are dropped.  Weights are fractions of the
    phase period.
    """
    keep = hi - lo > params.period * 1e-15
    lo, hi = lo[keep], hi[keep]
    half = 0.5 * (hi - lo)
    phases = 0.5 * (lo + hi)[:, None] + half[:, None] * ref_nodes
    weights = half[:, None] * ref_weights / params.period
    return _first_probabilities(phases.ravel(), t1, params), weights.ravel()


def _phase_rule(t1: float, params: DynamicsParams, n_nodes: int,
                ref_nodes: np.ndarray, ref_weights: np.ndarray):
    """Phase rule: a reference rule on [-1, 1] laid on ``n_nodes // len(ref_nodes)``
    uniform cells, with each cell that straddles a jump replaced by the same
    rule on each of its smooth pieces.

    Returns a function of the sorted jumps giving ``(p1, weights)``; the
    first-outcome probabilities on the uniform cells are computed once.
    """
    period = params.period
    n_cells = n_nodes // ref_nodes.size
    h = period / n_cells
    phases = ((np.arange(n_cells) + 0.5) * h)[:, None] + (0.5 * h) * ref_nodes
    p1_cells = _first_probabilities(phases.ravel(), t1, params)
    w_cells = np.tile((0.5 * h) * ref_weights / period, (n_cells, 1))

    def rule(jumps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cells = np.minimum((jumps / h).astype(int), n_cells - 1)
        first = np.ones(cells.size, dtype=bool)
        first[1:] = cells[1:] != cells[:-1]
        last = np.ones(cells.size, dtype=bool)
        last[:-1] = first[1:]
        # a cell's pieces run from its left edge through its jumps to its right edge
        lo = np.concatenate([np.where(first, cells * h, np.roll(jumps, 1)), jumps[last]])
        hi = np.concatenate([jumps, (cells[last] + 1) * h])
        p1_sub, w_sub = _piece_nodes(lo, hi, ref_nodes, ref_weights, t1, params)
        weights = w_cells.copy()
        weights[cells] = 0.0  # the pieces stand in for these cells
        return np.concatenate([p1_cells, p1_sub], axis=1), np.concatenate([weights.ravel(), w_sub])

    return rule
