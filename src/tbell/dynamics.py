"""Two-level quantum kernel: Rabi rotation, projective collapse, trajectories.

The system oscillates between the basis states ``|+>`` and ``|->`` at angular
frequency ``omega``; free evolution is the real rotation

    U(dt) = [[cos(omega*dt), -sin(omega*dt)],
             [sin(omega*dt),  cos(omega*dt)]]

acting on the amplitude pair ``(c_plus, c_minus)``.  A projective measurement
of the occupation observable ``Q = P_plus - P_minus`` zeroes the non-selected
amplitude and keeps the selected one verbatim, so collapsed states are left
UNNORMALIZED on purpose: after a sequence of measurements the squared norm of
the running state is the joint probability of the recorded outcome sequence,
which is exactly what the correlator machinery consumes.  All probability
reads divide by the current squared norm, so they remain valid on collapsed
states.

Every type here is an immutable value and every operation a pure function;
the module is safe to call from any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# Kernel identities are closed-form trig; anything looser would hide bugs.
KERNEL_TOL = 1e-12

OUTCOMES = (1, -1)


@dataclass(frozen=True)
class DynamicsParams:
    """Angular frequency of the stimulated two-level oscillation."""

    omega: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.omega) and self.omega > 0 and math.isfinite(self.period)):
            raise ValueError(f"omega must be finite and > 0 with a finite period 2*pi/omega, "
                             f"got {self.omega!r}")

    @property
    def period(self) -> float:
        """Period of the amplitude pair (the observable Q has half this)."""
        return 2.0 * math.pi / self.omega


@dataclass(frozen=True)
class InitialPhase:
    """Reference instant t' at which the system was in ``|+>``.

    The free parameter of the whole problem: averaging over one full period
    of t' defines the correlation functions.
    """

    t_prime: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.t_prime):
            raise ValueError("t_prime must be finite")


@dataclass(frozen=True)
class TwoLevelState:
    """Amplitude pair on the ``{|+>, |->}`` basis; may be unnormalized.

    Amplitudes are stored complex even though the rotation is real, so the
    kernel stays correct if a complex drive phase is ever added.
    """

    c_plus: complex
    c_minus: complex

    def norm_sq(self) -> float:
        return abs(self.c_plus) ** 2 + abs(self.c_minus) ** 2


@dataclass(frozen=True)
class MeasurementRecord:
    """One projective measurement: when, what came out, how likely it was.

    ``pre_probability`` is the Born probability of the recorded outcome just
    before the collapse, computed from the normalized running state.
    ``disturbance`` is ``1 - pre_probability``: zero exactly when the state
    already was the outcome eigenstate (the impulsive QND case).
    """

    time: float
    outcome: int
    pre_probability: float
    disturbance: float


def _check_outcome(outcome: int) -> None:
    if outcome not in OUTCOMES:
        raise ValueError(f"outcome must be +1 or -1, got {outcome!r}")


def initial_state(phase: InitialPhase, t0: float, params: DynamicsParams) -> TwoLevelState:
    """State at time t0 of a system that was in ``|+>`` at ``phase.t_prime``.

    Amplitudes are ``(cos(omega*(t0 - t')), sin(omega*(t0 - t')))``; unit norm.
    ``t0 - t'`` is reduced modulo the period first, as in ``propagate``.
    """
    angle = params.omega * math.fmod(t0 - phase.t_prime, params.period)
    return TwoLevelState(complex(math.cos(angle)), complex(math.sin(angle)))


def propagate(state: TwoLevelState, dt: float, params: DynamicsParams) -> TwoLevelState:
    """Free evolution by dt (negative dt gives the inverse rotation), with dt
    reduced modulo the period first; ``math.fmod`` leaves |dt| < period as it is."""
    a = params.omega * math.fmod(dt, params.period)
    c, s = math.cos(a), math.sin(a)
    return TwoLevelState(c * state.c_plus - s * state.c_minus,
                         s * state.c_plus + c * state.c_minus)


def expectation_q(state: TwoLevelState) -> float:
    """Normalized expectation of Q; valid for unnormalized collapsed states."""
    n2 = state.norm_sq()
    if n2 <= 0.0:
        raise ValueError("degenerate state")
    return (abs(state.c_plus) ** 2 - abs(state.c_minus) ** 2) / n2


def born_probability(state: TwoLevelState, outcome: int) -> float:
    """Probability of ``outcome`` in a measurement on the (normalized) state."""
    _check_outcome(outcome)
    n2 = state.norm_sq()
    if n2 <= 0.0:
        raise ValueError("degenerate state")
    amp = state.c_plus if outcome == 1 else state.c_minus
    return abs(amp) ** 2 / n2


def collapse(state: TwoLevelState, outcome: int) -> TwoLevelState:
    """Unnormalized projection onto the outcome eigenstate.

    The selected amplitude is kept verbatim and the other zeroed, so the
    squared norm shrinks by exactly the Born probability.  Projecting onto an
    amplitude-zero outcome yields the zero state; downstream operations treat
    that as probability zero rather than an error, which lets exhaustive
    outcome enumeration run without special cases.
    """
    _check_outcome(outcome)
    if outcome == 1:
        return TwoLevelState(state.c_plus, 0j)
    return TwoLevelState(0j, state.c_minus)


def measured_trajectory(
    phase: InitialPhase,
    times: Sequence[float],
    outcomes: Sequence[int],
    params: DynamicsParams,
) -> tuple[tuple[MeasurementRecord, ...], TwoLevelState]:
    """Alternate free evolution and collapse through a measurement sequence.

    Starts from ``|+>`` at ``phase.t_prime`` (times may lie before it; the
    first propagation step is then backwards).  Returns one record per
    measurement plus the final unnormalized state, whose squared norm is the
    joint probability of the outcome sequence.

    If an impossible outcome is recorded the state becomes the zero state,
    propagates as such, and every later record carries probability 0.
    """
    if len(times) != len(outcomes):
        raise ValueError("times and outcomes must have the same length")
    if len(times) < 1:
        raise ValueError("at least one measurement is required")
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("times not ascending")
    for q in outcomes:
        _check_outcome(q)

    state = initial_state(phase, phase.t_prime, params)
    previous = phase.t_prime
    records: list[MeasurementRecord] = []
    for t, q in zip(times, outcomes):
        state = propagate(state, t - previous, params)
        if state.norm_sq() > 0.0:
            p = born_probability(state, q)
        else:
            p = 0.0
        records.append(MeasurementRecord(time=t, outcome=q,
                                         pre_probability=p, disturbance=1.0 - p))
        state = collapse(state, q)
        previous = t
    return tuple(records), state


def trajectory_product(records: Sequence[MeasurementRecord], final_state: TwoLevelState) -> float:
    """Product of recorded outcomes times the final squared norm.

    This is the multi-time product of measured Q values for one outcome
    sequence; summed over all sequences it yields the correlation function.
    """
    if not records:
        raise ValueError("no measurements")
    sign = 1
    for record in records:
        sign *= record.outcome
    return sign * final_state.norm_sq()
