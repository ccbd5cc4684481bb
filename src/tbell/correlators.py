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
    ``gauss-legendre`` uses ``n_nodes // 16`` cells of 16 nodes each.  At a
    traced peak of about 32 B per node on either scheme, the cap of 10^7
    bounds the oracle's peak near 0.32 GB.
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
    squared norm ``p1[q1](u) * cond[q1, q2](lag)`` in the phase
    ``u = omega * (t1 - t')``: the first collapse leaves an outcome
    eigenstate, so the second outcome's conditional probability depends on
    the lag alone.  Summing the signed outcome products of the sequences
    whose first outcome passes the threshold and averaging over one period
    of t', which u runs through as [0, 2 pi], therefore reduces, for each
    epsilon, to two phase integrals

        I_q(eps) = mean over u of p1[q](u) * [p1[q](u) >= eps]

    followed by an O(lags) expansion

        K(eps, lag) = I_+ * (c[+, +] - c[+, -]) - I_- * (c[-, +] - c[-, -])

    where ``c = cond`` with the entries below epsilon zeroed when
    ``select_both`` is set.  ``select_both`` applies the threshold to the
    second outcome too (exploratory; the published factorization selects on
    the first only); it adds no phase-grid discontinuity.  The integrals
    depend on neither t1 nor omega: t1 is checked to be finite, and is never
    wrapped or reduced.

    The integrand jumps where p1[q] crosses epsilon, once per outcome and
    quarter of [0, 2 pi].  A plain node-indicator rule would be
    O(eps / n_nodes) wrong there, so the crossings are located by k-section
    on the simulated probability (``_selection_jumps``) and the quadrature
    is split at them.  One reference rule is laid on uniform cells of u from
    0: the midpoint rule (one node) on ``n_nodes`` cells, or the 16-point
    Gauss-Legendre rule on ``n_nodes // 16`` cells.  Their cumulative sums
    give the rule's running integral G_q of p1[q] at each cell edge, and
    G_q at a crossing adds the same rule on the one piece from its cell's
    left edge; p1[q] is smooth, so nothing is masked.  Each crossing ends or
    starts a selected run, so I_q is a signed sum of G_q at the crossings,
    plus G_+(2 pi) since p+ is selected at u = 0.  The error is that of the
    smooth pieces (~1e-8 for midpoint at the default node count).

    Time is O(n_nodes + E * (nodes per cell + L)): no per-epsilon pass over
    the cells is left; the pieces go in blocks of epsilons of at most
    ``n_nodes / 4`` nodes, and the lag expansion is one broadcast, through an
    (E, 2, 2, L) mask only with ``select_both``.  Memory is
    O(n_nodes + E * L), with a traced peak of about 32 B per node.

    Returns an array of shape ``(len(epsilons), len(lags))``; each row
    depends on its own epsilon only.
    """
    if quad is None:
        quad = QuadratureConfig()
    lags = np.asarray(lags, dtype=float)
    epsilons = np.asarray(epsilons, dtype=float)
    if not math.isfinite(t1):
        raise ValueError(f"t1 must be finite, got {t1!r}")
    if lags.ndim != 1 or lags.size == 0 or not np.all(np.isfinite(lags)):
        raise ValueError("lags must be a non-empty 1-d sequence of finite numbers")
    if epsilons.ndim != 1 or epsilons.size == 0:
        raise ValueError("epsilons must be a non-empty 1-d sequence")
    if np.any((epsilons < 0.0) | (epsilons > 1.0)):
        raise ValueError("epsilons must lie in [0, 1]")
    i_plus, i_minus = _phase_integrals(epsilons, quad)[..., None]
    cond = _conditional_probabilities(lags, params)
    if select_both:
        cond = np.where(cond >= epsilons[:, None, None, None], cond, 0.0)
    rows = i_plus * (cond[..., 0, 0, :] - cond[..., 0, 1, :])
    rows -= i_minus * (cond[..., 1, 0, :] - cond[..., 1, 1, :])
    return rows


# -- internals ---------------------------------------------------------------

# Per (outcome, quarter of [0, 2 pi]): the maximum of p_q at one end of the
# quarter (p+ = cos^2 u peaks at 0, pi and 2 pi, p- = sin^2 u at pi/2 and
# 3 pi/2), and the direction away from it, which is also the sign of G_q at
# the quarter's crossing in I_q: a crossing above its maximum ends a selected
# run (+1), one below it starts one (-1).
_MAXIMA = 0.5 * math.pi * np.array([[0.0, 2.0, 2.0, 4.0], [1.0, 1.0, 3.0, 3.0]])
_AWAY = np.array([[1.0, -1.0, 1.0, -1.0], [-1.0, 1.0, -1.0, 1.0]])


def _first_probabilities(u: np.ndarray) -> np.ndarray:
    """Born probabilities of each outcome at t1 of a system in ``|+>`` at t',
    in the phase ``u = omega * (t1 - t')``.

    Mirrors ``initial_state`` and ``born_probability`` for an array of
    phases.  Returns shape ``(2,) + u.shape``, outcomes in (+1, -1) order.
    """
    p = np.empty((2,) + np.shape(u))
    np.square(np.cos(u, out=p[0]), out=p[0])
    np.square(np.sin(u, out=p[1]), out=p[1])
    p /= p[0] + p[1]
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


def _phase_integrals(epsilons: np.ndarray, quad: QuadratureConfig) -> np.ndarray:
    """The phase integrals ``I_q(eps)`` of ``k_oracle_grid``, shape (2, E).

    With d = (p+ - p-) / 2, p_q = 1/2 +- d, so the rule's running integral of
    p_q from u = 0, as a fraction of 2 pi, is G_q(u) = u / (4 pi) +- D(u),
    with D the rule's running integral of d = cos(2u) / 2: D stays below
    1 / (8 pi), so its rounding does not build up over the cells.
    """
    ref_nodes, ref_weights = _reference_rule(quad.scheme)
    n_cells = quad.n_nodes // ref_nodes.size
    h = 2 * math.pi / n_cells
    halves = np.array([0.5, -0.5])
    # the rule sum of d over each cell, then D at the cell edges
    nodes = ((np.arange(n_cells) + 0.5) * h)[:, None] + (0.5 * h) * ref_nodes
    sums = np.einsum("qcm,q,m->c", _first_probabilities(nodes), halves, ref_weights / (2 * n_cells))
    edges = np.concatenate([[0.0], np.cumsum(sums)])
    # the four crossings of each (outcome, epsilon), then 2 pi, where p+ ends its last run
    all_stops = np.concatenate([_selection_jumps(epsilons),
                                np.full((2, epsilons.size, 1), 2 * math.pi)], axis=2)
    signs = np.append(_AWAY, [[1.0], [0.0]], axis=1)[:, None]
    integrals = np.empty((2, epsilons.size))
    # blocks of epsilons whose pieces (ten per epsilon) hold at most n_nodes / 4 nodes
    size = max(1, n_cells // 40)
    for start in range(0, epsilons.size, size):
        stops = all_stops[:, start:start + size]
        cells = (stops / h).astype(int)
        half = 0.5 * (stops - cells * h)
        p1 = _first_probabilities((stops - half)[..., None] + half[..., None] * ref_nodes)
        # D at each stop; einsum, unlike a BLAS product, gives equal pieces equal
        # sums, so at eps = 1, where the crossings meet on the maxima, I_q is exactly 0
        running = np.einsum("qresm,q,m->res", p1, halves, ref_weights) * (half / (2 * math.pi))
        running += edges[cells]
        integrals[:, start:start + size] = ((signs * stops).sum(axis=2) / (4 * math.pi)
                                            + [[1.0], [-1.0]] * (signs * running).sum(axis=2))
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


def _selection_jumps(epsilons: np.ndarray) -> np.ndarray:
    """Phases u in [0, 2 pi] where a first-outcome probability p_q crosses
    each epsilon: one per (outcome, quarter), shape (2, E, 4).

    Each quarter of [0, 2 pi] runs from a maximum of p_q (``_MAXIMA``), where
    p_q = 1, to a minimum, where p_q = 0, monotonically: for 0 < eps < 1 it
    crosses eps once.  Each crossing is searched from its maximum, away from
    it (``_AWAY``), and located to 60 bits of the quarter on the simulated
    probability, which reach below one ulp, in rounds of
    ``b = max(1, floor(log2(256 / n_roots + 1)))`` bits for the
    ``n_roots = 8 * len(epsilons)`` crossings: a round evaluates the
    ``2**b - 1`` points that cut each bracket into ``2**b`` equal parts, at
    most 256 in all or one per crossing.  One epsilon takes 12 rounds of 5
    bits; 11 or more take 60 halvings.  The crossing returned is the last
    point found where p_q > eps, tested as p_-q < 1 - eps above eps = 1/2.
    At eps = 1 the selected set is the float sliver around each maximum
    where p_q rounds to 1; no point has p_-q < 0, so each crossing sits on
    its maximum and the sliver counts as empty.  At eps = 0 each crossing
    lies within a step of its quarter's minimum, where p_q < 1e-32.
    """
    # each bracket's end nearer its maximum, and its direction, axes (q, epsilon, quarter,
    # point) in full: rounds that broadcast over the epsilons ran ~20% slower at 21 or more
    lo = np.repeat(_MAXIMA[:, None, :, None], epsilons.size, axis=1)
    away = np.repeat(_AWAY[:, None, :, None], epsilons.size, axis=1)
    # above eps = 1/2, p_q > eps is tested as p_-q < 1 - eps: near those crossings
    # p_-q is the small one, accurate to its last digits, and 1 - eps is exact
    eps = np.broadcast_to(epsilons[:, None, None], lo.shape)
    flip = eps > 0.5
    sign, level = np.where(flip, -1.0, 1.0), np.where(flip, eps - 1.0, eps)
    cosine = flip != np.array([True, False])[:, None, None, None]  # cos^2 u / norm is p+
    # floor(log2(256 / n_roots + 1)) lies in 0..5, and 1..5 all divide 60
    bits = max(1, (256 // (8 * epsilons.size) + 1).bit_length() - 1)
    points = np.arange(1.0, 2 ** bits)
    # the last column stays False, so argmin is the length of the leading run of
    # points where p_q > eps; after each round the crossing lies within a step of lo
    ahead = np.zeros(lo.shape[:-1] + (2 ** bits,), dtype=bool)
    step = 0.5 * math.pi
    for _ in range(60 // bits):
        step *= 0.5 ** bits
        u = lo + away * (points * step)
        cp2, cm2 = np.cos(u) ** 2, np.sin(u) ** 2
        np.greater(np.where(cosine, cp2, cm2) / (cp2 + cm2) * sign, level, out=ahead[..., :-1])
        lo = lo + away * (ahead.argmin(axis=-1, keepdims=True) * step)
    return lo[..., 0]
