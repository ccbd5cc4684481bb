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

import functools
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
    about 56 B per node, the cap of 10^7 bounds the oracle's peak near 0.56 GB.
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
    """Brute-force selective correlator for a single time pair: the one-cell
    ``k_oracle_grid``, which describes the algorithm."""
    grid = k_oracle_grid(req.t1, [req.t2 - req.t1], [req.policy.epsilon], req.params, quad)
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
    jumps, so the jump positions are located by k-section on the simulated
    pre-measurement probability, and the phase quadrature is split at them.
    Both schemes lay one reference rule on uniform cells and replace each
    cell that straddles a jump by the same rule on each of its smooth pieces:
    the midpoint rule (one node) on ``n_nodes`` cells, or the 16-point
    Gauss-Legendre rule on ``n_nodes // 16`` cells.  This keeps the
    quadrature deterministic while pushing the error down to the
    smooth-piece level (~1e-8 for midpoint at the default node count).

    The probabilities on the uniform cells are computed once, and each
    epsilon costs one masked sum over them; the rest works on all epsilons at
    once.  The jumps form an (E, 8) array of sorted rows: the eight crossings,
    or at eps = 1 the four extrema, each twice; rows at eps = 0 have no jumps
    and are masked out.  The straddled cells' masked sums are subtracted, and
    the sums over their pieces (one ending and one starting at each jump)
    added, as (E, 16, nodes per cell) arrays, in blocks of epsilons whose
    pieces hold at most ``n_nodes / 4`` nodes; a piece no wider than roundoff,
    or of a masked row, gets zero weight.  The lag expansion is one
    broadcast, through an (E, 2, 2, L) mask only with ``select_both``.  Time
    is O(E * (n_nodes + L)) and memory O(n_nodes + E * L), with a traced peak
    of about 56 B per node.

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
    i_plus, i_minus = _phase_integrals(epsilons, math.remainder(t1, params.period), params,
                                       quad)[..., None]
    cond = _conditional_probabilities(lags, params)
    if select_both:
        cond = np.where(cond >= epsilons[:, None, None, None], cond, 0.0)
    rows = i_plus * (cond[..., 0, 0, :] - cond[..., 0, 1, :])
    rows -= i_minus * (cond[..., 1, 0, :] - cond[..., 1, 1, :])
    return rows


# -- internals ---------------------------------------------------------------


def _first_probabilities(phases: np.ndarray, t1: float, params: DynamicsParams) -> np.ndarray:
    """Born probabilities at t1 of a system in ``|+>`` at each phase anchor.

    Mirrors ``initial_state`` and ``born_probability`` for an array of
    anchors.  Returns shape ``(2,) + phases.shape``, outcomes in (+1, -1) order.
    """
    ang = params.omega * (t1 - np.asarray(phases, dtype=float))
    p = np.empty((2,) + ang.shape)
    np.square(np.cos(ang, out=p[0]), out=p[0])
    np.square(np.sin(ang, out=p[1]), out=p[1])
    p /= np.add(p[0], p[1], out=ang)  # ang is spent; its buffer takes the norm
    return p


@functools.cache
def _reference_rule(scheme: str) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1] of the rule laid on each cell, built once
    per process and read-only."""
    if scheme == "uniform-midpoint":
        nodes, weights = np.zeros(1), np.full(1, 2.0)
    else:
        nodes, weights = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _phase_integrals(epsilons: np.ndarray, t1: float, params: DynamicsParams,
                     quad: QuadratureConfig) -> np.ndarray:
    """The phase integrals ``I_q(eps)`` of ``k_oracle_grid``, shape (2, E)."""
    ref_nodes, ref_weights = _reference_rule(quad.scheme)
    period = params.period
    n_cells = quad.n_nodes // ref_nodes.size
    h = period / n_cells
    # uniform cells, axes (outcome, cell, node); weights are fractions of the period
    p1 = _first_probabilities(((np.arange(n_cells) + 0.5) * h)[:, None] + (0.5 * h) * ref_nodes,
                              t1, params)
    f = p1 * ((0.5 * h) * ref_weights / period)
    p1_flat, f_flat = p1.reshape(2, -1), f.reshape(2, -1)
    integrals = np.array([np.where(p1_flat >= e, f_flat, 0.0).sum(axis=1)
                          for e in epsilons.tolist()]).T

    all_jumps, all_crossed = _selection_jumps(epsilons, t1, params)
    # blocks of epsilons whose pieces (16 cells' worth each) hold at most n_nodes / 4 nodes
    size = max(1, n_cells // 64)
    for start in range(0, epsilons.size, size):
        part = slice(start, start + size)
        jumps, crossed, level = all_jumps[part], all_crossed[part, None], epsilons[part, None, None]
        cells = np.minimum((jumps / h).astype(int), n_cells - 1)
        first = np.diff(cells, axis=1, prepend=-1) != 0
        last = np.diff(cells, axis=1, append=n_cells) != 0
        # the pieces stand in for the straddled cells, each subtracted once
        straddled = np.where(p1[:, cells] >= level, f[:, cells], 0.0).sum(axis=-1)
        integrals[:, part] -= np.where(first & crossed, straddled, 0.0).sum(axis=-1)
        # a cell's pieces run from its left edge through its jumps to its right edge:
        # one piece ends at each jump, and one starts at each jump that is last in its cell
        lo = np.concatenate([np.where(first, cells * h, np.roll(jumps, 1, axis=1)), jumps], axis=1)
        hi = np.concatenate([jumps, np.where(last, (cells + 1) * h, jumps)], axis=1)
        half = np.where((hi - lo > period * 1e-15) & crossed, 0.5 * (hi - lo), 0.0)
        p1_sub = _first_probabilities((0.5 * (lo + hi))[..., None] + half[..., None] * ref_nodes,
                                         t1, params)
        weights = half[..., None] * ref_weights / period
        integrals[:, part] += (np.where(p1_sub >= level, p1_sub, 0.0) * weights).sum(axis=(2, 3))
    return integrals


def _conditional_probabilities(lags: np.ndarray, params: DynamicsParams) -> np.ndarray:
    """Second-outcome probabilities given the first, shape (2, 2, L).

    Indexed by (first, second) outcome in (+1, -1) order.  The first collapse
    leaves an eigenstate, which the lag rotates by ``omega * lag``.
    """
    # reducing the lag keeps the angle accurate; fmod leaves |lag| < period as it is
    alpha = params.omega * np.fmod(lags, params.period)
    ca2 = np.cos(alpha) ** 2
    sa2 = np.sin(alpha) ** 2
    return np.array([[ca2, sa2], [sa2, ca2]])


def _selection_jumps(epsilons: np.ndarray, t1: float,
                     params: DynamicsParams) -> tuple[np.ndarray, np.ndarray]:
    """Phases in [0, period) where a first-outcome probability crosses each
    epsilon: an (E, 8) array, each row sorted, and an (E,) mask that is False
    where the row holds no jump.

    The extrema of p+- lie every quarter period from t1, and between two of
    them each probability runs monotonically between 0 and 1: for 0 < eps < 1
    it crosses eps exactly once per quarter, four times per outcome.  Each
    crossing is located to 60 bits of its quarter on the simulated
    probability, which reach below one ulp, in rounds of
    ``b = max(1, floor(log2(256 / n_roots + 1)))`` bits for the
    ``n_roots = 8 * len(epsilons)`` crossings: a round evaluates the
    ``2**b - 1`` points that cut each bracket into ``2**b`` equal parts, at
    most 256 in all or one per crossing.  One epsilon takes 12 rounds of 5
    bits; 11 or more take 60 halvings.  At eps = 1 the selected set is the
    float sliver around each maximum where p rounds to 1; every extremum is
    the maximum of p+ or of p-, so the four extrema are the jumps, and a
    quadrature node cannot sit inside a sliver with a whole cell's weight.
    The eps = 1 row lists each extremum twice, so every other piece between
    its jumps has zero width.  At eps = 0 the threshold is never crossed: the row
    repeats the eps = 1 one and the mask marks it empty.
    """
    quarter = params.period / 4
    extrema = t1 % quarter + quarter * np.arange(4)
    lo = np.broadcast_to(extrema[:, None], (2, epsilons.size, 4, 1))

    # _first_probabilities, with row q evaluated for outcome q only
    def probabilities(phases: np.ndarray) -> np.ndarray:  # p_q; axes (q, epsilon, quarter, point)
        ang = params.omega * (t1 - phases)
        cp2 = np.cos(ang) ** 2
        cm2 = np.sin(ang) ** 2
        return np.array((cp2[0], cm2[1])) / (cp2 + cm2)

    # a quarter starts at a maximum (sign 1) or a minimum (sign -1) of p_q;
    # lo moves past the leading points where sign * p_q > sign * eps, so
    # after each round the crossing stays in [lo, lo + step]
    sign = np.where(probabilities(lo) > 0.5, 1.0, -1.0)
    level = sign * epsilons[:, None, None]
    # floor(log2(256 / n_roots + 1)) lies in 0..5, and 1..5 all divide 60
    bits = max(1, (256 // (8 * epsilons.size) + 1).bit_length() - 1)
    points = np.arange(1.0, 2 ** bits)
    # the last column stays False, so argmin is the length of the leading run
    ahead = np.zeros(lo.shape[:-1] + (2 ** bits,), dtype=bool)
    step = quarter
    for _ in range(60 // bits):
        step *= 0.5 ** bits
        np.greater(probabilities(lo + points * step) * sign, level, out=ahead[..., :-1])
        lo = lo + ahead.argmin(axis=-1, keepdims=True) * step
    roots = np.sort(((lo[..., 0] + step) % params.period).transpose(1, 0, 2).reshape(-1, 8), axis=1)
    inside = ((epsilons > 0.0) & (epsilons < 1.0))[:, None]
    return np.where(inside, roots, np.repeat(extrema, 2)), epsilons > 0.0
