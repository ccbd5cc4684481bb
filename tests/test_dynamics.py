import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from tbell.dynamics import (
    KERNEL_TOL,
    DynamicsParams,
    InitialPhase,
    TwoLevelState,
    born_probability,
    collapse,
    expectation_q,
    initial_state,
    measured_trajectory,
    propagate,
    trajectory_product,
)
from tbell.inequalities import jaynes_cummings_frequency

P = DynamicsParams(1.0)  # omega = 1: angles and times coincide
SQRT_HALF = 0.7071067811865476

amplitudes = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
durations = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


def random_state(re_p, im_p, re_m, im_m):
    return TwoLevelState(complex(re_p, im_p), complex(re_m, im_m))


states = st.builds(random_state, amplitudes, amplitudes, amplitudes, amplitudes)


class TestParams:
    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            DynamicsParams(0.0)
        with pytest.raises(ValueError):
            DynamicsParams(-1.0)
        with pytest.raises(ValueError):
            DynamicsParams(math.inf)

    def test_rejects_omega_with_overflowing_period(self):
        assert math.isfinite(DynamicsParams(1e-307).period)
        with pytest.raises(ValueError, match="period"):
            DynamicsParams(1e-308)
        # the cavity-mode frequency goes through the same check
        with pytest.raises(ValueError, match="period"):
            DynamicsParams(jaynes_cummings_frequency(1e-308, 0))

    def test_period(self):
        assert DynamicsParams(2.0).period == pytest.approx(math.pi, abs=1e-15)

    def test_phase_must_be_finite(self):
        with pytest.raises(ValueError):
            InitialPhase(math.nan)


class TestInitialState:
    def test_anchor_instant_is_plus(self):
        s = initial_state(InitialPhase(0.3), 0.3, P)
        assert s.c_plus == 1.0 and s.c_minus == 0.0

    def test_quarter_period_is_minus(self):
        s = initial_state(InitialPhase(0.0), math.pi / 2, P)
        assert abs(s.c_plus) <= KERNEL_TOL
        assert s.c_minus.real == pytest.approx(1.0, abs=KERNEL_TOL)

    def test_eighth_period_equal_superposition(self):
        s = initial_state(InitialPhase(0.0), math.pi / 4, P)
        assert s.c_plus.real == pytest.approx(SQRT_HALF, abs=KERNEL_TOL)
        assert s.c_minus.real == pytest.approx(SQRT_HALF, abs=KERNEL_TOL)
        assert expectation_q(s) == pytest.approx(0.0, abs=KERNEL_TOL)

    def test_unit_norm_everywhere(self):
        for k in range(100):
            s = initial_state(InitialPhase(0.17), 0.17 + 0.31 * k, P)
            assert abs(s.norm_sq() - 1.0) <= KERNEL_TOL


class TestPropagate:
    def test_zero_duration_is_identity(self):
        s = TwoLevelState(0.6 + 0.1j, 0.3 - 0.2j)
        assert propagate(s, 0.0, P) == s

    def test_half_period_swaps_levels(self):
        s = propagate(TwoLevelState(1.0, 0.0), math.pi / 2, P)
        assert abs(s.c_plus) <= KERNEL_TOL
        assert s.c_minus.real == pytest.approx(1.0, abs=KERNEL_TOL)

    def test_full_half_cycle_revives_with_sign(self):
        s = propagate(TwoLevelState(1.0, 0.0), math.pi, P)
        assert s.c_plus.real == pytest.approx(-1.0, abs=KERNEL_TOL)
        assert abs(s.c_minus) <= KERNEL_TOL
        assert expectation_q(s) == pytest.approx(1.0, abs=KERNEL_TOL)

    @settings(deadline=None)
    @given(state=states, dt=durations)
    def test_unitarity(self, state, dt):
        assert abs(propagate(state, dt, P).norm_sq() - state.norm_sq()) <= KERNEL_TOL

    @settings(deadline=None)
    @given(state=states, a=durations, b=durations)
    def test_group_law(self, state, a, b):
        direct = propagate(state, a + b, P)
        nested = propagate(propagate(state, a, P), b, P)
        assert abs(direct.c_plus - nested.c_plus) <= KERNEL_TOL
        assert abs(direct.c_minus - nested.c_minus) <= KERNEL_TOL

    @settings(deadline=None)
    @given(state=states)
    def test_revival_flips_global_sign_only(self, state):
        revived = propagate(state, math.pi / P.omega, P)
        assert abs(revived.c_plus + state.c_plus) <= KERNEL_TOL
        assert abs(revived.c_minus + state.c_minus) <= KERNEL_TOL
        if state.norm_sq() > 1e-6:
            assert abs(expectation_q(revived) - expectation_q(state)) <= KERNEL_TOL


class TestExpectationAndBorn:
    def test_eigenstates(self):
        assert expectation_q(TwoLevelState(1.0, 0.0)) == 1.0
        assert expectation_q(TwoLevelState(0.0, 1.0)) == -1.0

    def test_equal_superposition(self):
        assert expectation_q(TwoLevelState(SQRT_HALF, SQRT_HALF)) == pytest.approx(0.0, abs=KERNEL_TOL)

    def test_free_value_is_double_angle_cosine(self):
        s = initial_state(InitialPhase(0.0), math.pi / 6, P)
        assert expectation_q(s) == pytest.approx(0.5, abs=KERNEL_TOL)

    def test_degenerate_state_raises(self):
        with pytest.raises(ValueError, match="degenerate state"):
            expectation_q(TwoLevelState(0.0, 0.0))
        with pytest.raises(ValueError, match="degenerate state"):
            born_probability(TwoLevelState(0.0, 0.0), 1)

    def test_born_examples(self):
        assert born_probability(TwoLevelState(1.0, 0.0), 1) == 1.0
        assert born_probability(TwoLevelState(SQRT_HALF, SQRT_HALF), -1) == pytest.approx(0.5, abs=KERNEL_TOL)
        s = initial_state(InitialPhase(0.0), math.pi / 3, P)
        assert born_probability(s, 1) == pytest.approx(0.25, abs=KERNEL_TOL)

    @settings(deadline=None)
    @given(state=states)
    def test_born_probabilities_sum_to_one(self, state):
        if state.norm_sq() > 1e-6:
            total = born_probability(state, 1) + born_probability(state, -1)
            assert abs(total - 1.0) <= KERNEL_TOL

    def test_rejects_bad_outcome(self):
        with pytest.raises(ValueError):
            born_probability(TwoLevelState(1.0, 0.0), 2)
        with pytest.raises(ValueError):
            collapse(TwoLevelState(1.0, 0.0), 0)


class TestCollapse:
    def test_eigenstate_is_untouched(self):
        s = TwoLevelState(1.0, 0.0)
        assert collapse(s, 1) == s

    def test_superposition_keeps_selected_amplitude(self):
        s = collapse(TwoLevelState(SQRT_HALF, SQRT_HALF), 1)
        assert s.c_plus.real == pytest.approx(SQRT_HALF, abs=KERNEL_TOL)
        assert s.c_minus == 0.0
        assert s.norm_sq() == pytest.approx(0.5, abs=KERNEL_TOL)

    def test_orthogonal_projection_gives_zero_state(self):
        s = collapse(TwoLevelState(1.0, 0.0), -1)
        assert s.norm_sq() == 0.0

    @settings(deadline=None)
    @given(state=states, outcome=st.sampled_from([1, -1]))
    def test_idempotent_exactly(self, state, outcome):
        once = collapse(state, outcome)
        assert collapse(once, outcome) == once

    @settings(deadline=None)
    @given(state=states, outcome=st.sampled_from([1, -1]))
    def test_norm_shrinks_by_born_probability(self, state, outcome):
        if state.norm_sq() > 1e-6:
            expected = born_probability(state, outcome) * state.norm_sq()
            assert abs(collapse(state, outcome).norm_sq() - expected) <= KERNEL_TOL


class TestMeasuredTrajectory:
    def test_single_eigenstate_measurement(self):
        records, final = measured_trajectory(InitialPhase(0.0), (0.0,), (1,), P)
        assert records[0].pre_probability == 1.0
        assert records[0].disturbance == 0.0
        assert final.norm_sq() == pytest.approx(1.0, abs=KERNEL_TOL)

    def test_two_measurements_conditional_probability(self):
        records, final = measured_trajectory(InitialPhase(0.0), (0.0, math.pi / 4), (1, 1), P)
        assert records[0].pre_probability == pytest.approx(1.0, abs=KERNEL_TOL)
        assert records[1].pre_probability == pytest.approx(0.5, abs=KERNEL_TOL)
        assert final.norm_sq() == pytest.approx(0.5, abs=KERNEL_TOL)

    def test_records_carry_complementary_disturbance(self):
        records, _ = measured_trajectory(InitialPhase(0.1), (0.3, 0.9, 2.2), (1, -1, 1), P)
        for rec in records:
            assert abs(rec.disturbance - (1.0 - rec.pre_probability)) <= KERNEL_TOL

    def test_outcome_sum_is_complete(self):
        times = (0.2, 0.9)
        total = 0.0
        for outcomes in itertools.product((1, -1), repeat=2):
            _, final = measured_trajectory(InitialPhase(0.05), times, outcomes, P)
            total += final.norm_sq()
        assert total == pytest.approx(1.0, abs=KERNEL_TOL)

    def test_impossible_outcome_propagates_zero_state(self):
        records, final = measured_trajectory(InitialPhase(0.0), (0.0, 1.0, 2.0), (-1, 1, -1), P)
        assert records[0].pre_probability == 0.0
        assert records[1].pre_probability == 0.0
        assert records[1].disturbance == 1.0
        assert final.norm_sq() == 0.0
        assert trajectory_product(records, final) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="times not ascending"):
            measured_trajectory(InitialPhase(0.0), (1.0, 0.5), (1, 1), P)
        with pytest.raises(ValueError, match="same length"):
            measured_trajectory(InitialPhase(0.0), (1.0,), (1, 1), P)
        with pytest.raises(ValueError, match="at least one"):
            measured_trajectory(InitialPhase(0.0), (), (), P)


class TestTrajectoryProduct:
    def test_eigenstate_case(self):
        records, final = measured_trajectory(InitialPhase(0.0), (0.0,), (1,), P)
        assert trajectory_product(records, final) == pytest.approx(1.0, abs=KERNEL_TOL)

    def test_same_outcomes(self):
        records, final = measured_trajectory(InitialPhase(0.0), (0.0, math.pi / 4), (1, 1), P)
        assert trajectory_product(records, final) == pytest.approx(0.5, abs=KERNEL_TOL)

    def test_opposite_outcomes_flip_sign(self):
        records, final = measured_trajectory(InitialPhase(0.0), (0.0, math.pi / 4), (1, -1), P)
        assert trajectory_product(records, final) == pytest.approx(-0.5, abs=KERNEL_TOL)

    def test_requires_records(self):
        with pytest.raises(ValueError):
            trajectory_product((), TwoLevelState(1.0, 0.0))


def test_completeness_up_to_ten_measurements():
    # exhaustive outcome enumeration must exactly resolve the identity
    times = tuple(0.37 + 0.61 * k for k in range(10))
    total = 0.0
    for outcomes in itertools.product((1, -1), repeat=10):
        _, final = measured_trajectory(InitialPhase(0.21), times, outcomes, P)
        total += final.norm_sq()
    assert total == pytest.approx(1.0, abs=1e-9)


def test_free_evolution_follows_double_angle_cosine():
    phase = InitialPhase(0.4)
    for k in range(1000):
        t = 0.4 + 12.0 * k / 999.0
        q = expectation_q(initial_state(phase, t, P))
        assert abs(q - math.cos(2.0 * (t - 0.4))) <= KERNEL_TOL


def test_phase_anchor_is_periodic():
    # shifting t' by whole periods changes nothing observable
    base = InitialPhase(0.83)
    times = (1.1, 2.3, 4.0)
    outcomes = (1, -1, 1)
    _, reference = measured_trajectory(base, times, outcomes, P)
    for shift in (-2, 1, 3):
        moved = InitialPhase(0.83 + shift * P.period)
        s0 = initial_state(base, 1.1, P)
        s1 = initial_state(moved, 1.1, P)
        assert abs(s0.c_plus - s1.c_plus) <= KERNEL_TOL
        assert abs(s0.c_minus - s1.c_minus) <= KERNEL_TOL
        _, final = measured_trajectory(moved, times, outcomes, P)
        assert abs(final.norm_sq() - reference.norm_sq()) <= KERNEL_TOL


def test_elapsed_time_is_reduced_modulo_the_period():
    # fmod leaves |dt| < period bit for bit, and a huge dt becomes its remainder
    params = DynamicsParams(2.3)
    state = TwoLevelState(0.6 + 0j, 0.8j)
    for dt in (0.0, 0.4, -2.0, -0.999 * params.period, 0.999 * params.period):
        c, s = math.cos(params.omega * dt), math.sin(params.omega * dt)
        assert propagate(state, dt, params) == TwoLevelState(c * state.c_plus - s * state.c_minus,
                                                             s * state.c_plus + c * state.c_minus)
        anchored = initial_state(InitialPhase(-dt), 0.0, params)
        assert anchored == TwoLevelState(complex(c), complex(s))
    remainder = math.fmod(1e300, params.period)
    assert propagate(state, 1e300, params) == propagate(state, remainder, params)
    assert (initial_state(InitialPhase(-1e300), 1e300, params)
            == initial_state(InitialPhase(0.0), math.fmod(2e300, params.period), params))
