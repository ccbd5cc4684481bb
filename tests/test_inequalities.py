import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from tbell import inequalities
from tbell.correlators import SelectionPolicy, selection_factor
from tbell.dynamics import DynamicsParams
from tbell.inequalities import (
    PAZ4,
    PRESETS,
    SANTOS_MINUS,
    SANTOS_PLUS,
    InequalitySpec,
    _combination,
    _maximize,
    delta_k,
    delta_k_stationary,
    epsilon_threshold,
    full_time_search,
    jaynes_cummings_frequency,
    maximize_violation,
    stationary_curve,
    threshold_from_maximum,
)

P = DynamicsParams(1.0)
ZERO = SelectionPolicy(0.0)
TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)
# the lowest of the tied optimal spacings, in omega*t
OPTIMAL_SPACING = {"paz4": math.pi / 8, "santos-minus": math.pi / 3, "santos-plus": math.pi / 6}
CUSTOM = InequalitySpec(4, ((1, 3, 0.7), (2, 4, -1.3), (1, 2, 0.4), (3, 4, 2.1)), 1.0)
# a term (1, 4) across all three gaps
CUSTOM_ABS = InequalitySpec(4, ((1, 4, -0.9), (1, 3, 0.7), (2, 3, 1.1), (3, 4, -0.6)), 1.0,
                            abs_mode=True)


class TestSpecValidation:
    def test_presets_are_well_formed(self):
        assert PAZ4.n_times == 4 and PAZ4.bound == 2.0 and PAZ4.abs_mode
        assert SANTOS_MINUS.n_times == 3 and SANTOS_MINUS.bound == 1.0
        assert SANTOS_PLUS.n_times == 3 and SANTOS_PLUS.bound == 1.0
        assert set(PRESETS) == {"paz4", "santos-minus", "santos-plus"}

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            InequalitySpec(2, ((1, 2, 1.0),), 1.0)
        with pytest.raises(ValueError):
            InequalitySpec(3, ((1, 4, 1.0),), 1.0)
        with pytest.raises(ValueError):
            InequalitySpec(3, ((1, 1, 1.0),), 1.0)
        with pytest.raises(ValueError):
            InequalitySpec(3, ((1, 2, 1.0), (1, 2, -1.0)), 1.0)
        with pytest.raises(ValueError):
            InequalitySpec(3, ((1, 2, 1.0),), 0.0)
        with pytest.raises(ValueError):
            InequalitySpec(3, (), 1.0)
        with pytest.raises(ValueError, match="must be finite"):
            InequalitySpec(3, ((1, 2, math.inf),), 1.0)


class TestCombination:
    @pytest.mark.parametrize("abs_mode", [False, True])
    @pytest.mark.parametrize("spec", [PAZ4, SANTOS_MINUS, SANTOS_PLUS, CUSTOM])
    def test_derivatives_match_central_differences(self, spec, abs_mode):
        spec = dataclasses.replace(spec, abs_mode=abs_mode)
        h = 1e-6
        rng = np.random.default_rng(11)
        ndim = spec.n_times - 1
        checked = 0
        while checked < 20:
            thetas = rng.uniform(0.085, 3.4, ndim)
            value, grad, hess = _combination(spec, thetas, derivatives=True)
            if abs(value) < 0.05:
                continue  # keep clear of the kink of |.| in abs mode
            assert value == _combination(spec, thetas)
            for k in range(ndim):
                e = np.zeros(ndim)
                e[k] = h
                up, down = (_combination(spec, thetas + s * e, derivatives=True) for s in (1, -1))
                assert (up[0] - down[0]) / (2 * h) == pytest.approx(grad[k], abs=1e-8)
                assert (up[1] - down[1]) / (2 * h) == pytest.approx(hess[k], abs=1e-8)
            assert np.array_equal(hess, hess.T)
            checked += 1

    @pytest.mark.parametrize("spec", [PAZ4, SANTOS_MINUS, SANTOS_PLUS, CUSTOM_ABS])
    def test_product_form_matches_the_cosine_sum(self, spec):
        # each term is Re prod exp(i * phase) over its gaps, with the float
        # phases 2*theta; the reference sums those phases exactly, then
        # takes c * cos, so only the product form's own roundoff remains
        # (cos of a float-summed phase would add ~1e-11 at these thetas)
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(23)
        thetas = rng.uniform(0.0, 1e4, (spec.n_times - 1, 200))
        values = _combination(spec, tuple(thetas))
        for k in range(thetas.shape[1]):
            with mpmath.workdps(40):
                phases = [mpmath.mpf(2.0 * theta) for theta in thetas[:, k]]
                total = sum(c * mpmath.cos(sum(phases[i - 1:j - 1])) for i, j, c in spec.terms)
                expected = float(abs(total) if spec.abs_mode else total)
            assert abs(values[k] - expected) <= 1e-14
            point = _combination(spec, thetas[:, k], derivatives=True)[0]
            assert abs(point - expected) <= 1e-14

    def test_broadcast_grid_matches_pointwise_values(self):
        axis = np.linspace(0.13, 3.9, 5)
        mesh = (axis[:, None, None], axis[None, :, None], axis[None, None, :])
        values = _combination(CUSTOM, mesh)
        assert values.shape == (5, 5, 5)
        for idx in np.ndindex(values.shape):
            point = _combination(CUSTOM, axis[list(idx)], derivatives=True)[0]
            assert values[idx] == pytest.approx(point, abs=1e-15)


class TestDeltaK:
    def test_santos_minus_at_its_maximum(self):
        times = (0.0, math.pi / 3, 2.0 * math.pi / 3)
        assert delta_k(SANTOS_MINUS, times, P, ZERO) == pytest.approx(1.5, abs=1e-12)

    def test_paz4_at_its_maximum(self):
        s = math.pi / 8
        times = (0.0, s, 2 * s, 3 * s)
        assert delta_k(PAZ4, times, P, ZERO) == pytest.approx(TWO_SQRT_TWO, abs=1e-12)

    def test_full_selection_gives_zero(self):
        silent = SelectionPolicy(1.0)
        assert delta_k(SANTOS_MINUS, (0.0, 1.0, 2.0), P, silent) == 0.0
        assert delta_k(PAZ4, (0.0, 1.0, 2.0, 3.0), P, silent) == 0.0

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="time count mismatch"):
            delta_k(SANTOS_MINUS, (0.0, 1.0), P, ZERO)

    def test_requires_ascending_times(self):
        with pytest.raises(ValueError, match="times not ascending"):
            delta_k(SANTOS_MINUS, (0.0, 2.0, 1.0), P, ZERO)


class TestStationary:
    def test_revival_spacing_value(self):
        assert delta_k_stationary(SANTOS_MINUS, math.pi, P, ZERO) == pytest.approx(-3.0, abs=1e-12)

    def test_published_maxima_spacings(self):
        assert delta_k_stationary(SANTOS_MINUS, math.pi / 3, P, ZERO) == pytest.approx(1.5, abs=1e-12)
        assert delta_k_stationary(SANTOS_PLUS, math.pi / 6, P, ZERO) == pytest.approx(1.5, abs=1e-12)

    def test_invalid_spacing(self):
        with pytest.raises(ValueError, match="invalid spacing"):
            delta_k_stationary(SANTOS_MINUS, 0.0, P, ZERO)
        with pytest.raises(ValueError, match="invalid spacing"):
            delta_k_stationary(SANTOS_MINUS, -1.0, P, ZERO)
        with pytest.raises(ValueError, match="invalid spacing"):
            delta_k_stationary(SANTOS_MINUS, math.inf, P, ZERO)

    def test_curve_matches_scalar_evaluation(self):
        spacings = np.linspace(0.05, math.pi, 40)
        for spec in (SANTOS_MINUS, SANTOS_PLUS, PAZ4):
            curve = stationary_curve(spec, spacings, P, SelectionPolicy(0.25))
            for s, value in zip(spacings, curve):
                assert value == pytest.approx(
                    delta_k_stationary(spec, float(s), P, SelectionPolicy(0.25)), abs=1e-12)

    def test_periodic_in_spacing(self):
        period = math.pi / P.omega
        for s in np.linspace(0.1, 3.0, 17):
            a = delta_k_stationary(SANTOS_MINUS, float(s), P, ZERO)
            b = delta_k_stationary(SANTOS_MINUS, float(s) + period, P, ZERO)
            assert a == pytest.approx(b, abs=1e-12)

    def test_selection_scales_uniformly(self):
        times = (0.1, 0.8, 1.9)
        paz_times = (0.1, 0.8, 1.9, 2.4)
        for eps in np.linspace(0.0, 1.0, 11):
            a_eps = selection_factor(SelectionPolicy(eps))
            got = delta_k(SANTOS_MINUS, times, P, SelectionPolicy(eps))
            assert got == pytest.approx(a_eps * delta_k(SANTOS_MINUS, times, P, ZERO), abs=1e-12)
            got_abs = delta_k(PAZ4, paz_times, P, SelectionPolicy(eps))
            assert got_abs == pytest.approx(a_eps * delta_k(PAZ4, paz_times, P, ZERO), abs=1e-12)


class TestMaximize:
    @pytest.mark.parametrize(
        "spec,expected_max,expected_arg",
        [
            (SANTOS_MINUS, 1.5, math.pi / 3),
            (SANTOS_PLUS, 1.5, math.pi / 6),
            (PAZ4, TWO_SQRT_TWO, math.pi / 8),
        ],
    )
    def test_reproduces_published_maxima(self, spec, expected_max, expected_arg):
        report = maximize_violation(spec, P, ZERO)
        assert report.delta_k_max == pytest.approx(expected_max, abs=1e-9)
        assert report.argmax_spacing == pytest.approx(expected_arg, abs=1e-6)
        assert report.violated

    def test_strong_selection_kills_the_violation(self):
        report = maximize_violation(SANTOS_MINUS, P, SelectionPolicy(0.9))
        assert report.delta_b_max < 0.0
        assert not report.violated
        assert report.a_epsilon < 2.0 / 3.0

    def test_report_is_self_consistent(self):
        for eps in (0.0, 0.3, 0.9):
            report = maximize_violation(PAZ4, P, SelectionPolicy(eps))
            expected = (report.a_epsilon * report.delta_k_max - PAZ4.bound) / PAZ4.bound
            assert report.delta_b_max == pytest.approx(expected, abs=1e-12)
            assert report.violated == (report.delta_b_max > 0)

    def test_argmax_does_not_move_with_selection(self):
        grid = np.linspace(1e-4, math.pi, 4096)
        reference = None
        for eps in (0.0, 0.3, 0.6, 0.9, 0.99):
            values = stationary_curve(SANTOS_MINUS, grid, P, SelectionPolicy(eps))
            best = grid[int(np.argmax(values))]
            if reference is None:
                reference = best
            assert best == pytest.approx(reference, abs=1e-9)
        for eps in (0.0, 0.5, 0.99):
            report = maximize_violation(SANTOS_MINUS, P, SelectionPolicy(eps))
            assert report.argmax_spacing == pytest.approx(math.pi / 3, abs=1e-6)

    def test_frequency_rescales_argmax(self):
        fast = DynamicsParams(4.0)
        report = maximize_violation(SANTOS_MINUS, fast, ZERO)
        assert report.delta_k_max == pytest.approx(1.5, abs=1e-9)
        assert fast.omega * report.argmax_spacing == pytest.approx(math.pi / 3, abs=1e-6)

    def test_classical_bound_holds_once_degraded(self):
        # strong enough selection pushes the whole curve under the bound
        grid = np.linspace(1e-6, math.pi, 10_000)
        for spec, eps in ((SANTOS_MINUS, 0.75), (PAZ4, 0.8)):
            a_eps = selection_factor(SelectionPolicy(eps))
            assert a_eps * maximize_violation(spec, P, ZERO).delta_k_max <= spec.bound
            values = stationary_curve(spec, grid, P, SelectionPolicy(eps))
            assert np.max(values) <= spec.bound + 1e-9

    def test_ties_break_toward_the_lowest_spacing(self):
        # paz4 has four tied maxima per period (pi/8, 3pi/8, 5pi/8, 7pi/8), all
        # on the scan grid; roundoff alone must not pick one of the later ones
        omegas = [1.0, 4.0] + np.random.default_rng(7).uniform(0.3, 3.5, 100).tolist()
        for omega in omegas:
            params = DynamicsParams(omega)
            for name, spec in PRESETS.items():
                report = maximize_violation(spec, params, ZERO)
                assert abs(omega * report.argmax_spacing - OPTIMAL_SPACING[name]) <= 4.5e-16, (name, omega)


class TestPhaseInvariance:
    # a combination depends on the times only through omega*t, so the optimal
    # phases and the threshold are the same numbers at every omega
    @pytest.mark.parametrize("omega", [1e-200, 1e-10, 1.0, 2.3, 1e10, 1e200, 1e300])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_same_results_at_every_omega(self, name, omega):
        spec, params = PRESETS[name], DynamicsParams(omega)
        report = maximize_violation(spec, params, ZERO)
        assert abs(omega * report.argmax_spacing - OPTIMAL_SPACING[name]) <= 4.5e-16
        best, gaps = full_time_search(spec, params)
        assert best == full_time_search(spec, P)[0]
        for gap in gaps:
            assert abs(omega * gap - OPTIMAL_SPACING[name]) <= 4.5e-16
        assert epsilon_threshold(spec, params) == epsilon_threshold(spec, P)


class TestFullSearch:
    def test_equal_spacing_is_optimal_for_paz4(self):
        best, gaps = full_time_search(PAZ4, P)
        assert best == pytest.approx(TWO_SQRT_TWO, abs=1e-13)
        assert len(gaps) == 3

    def test_matches_stationary_for_santos(self):
        best, gaps = full_time_search(SANTOS_MINUS, P)
        assert best == pytest.approx(1.5, abs=1e-13)
        assert len(gaps) == 2

    @pytest.mark.parametrize("name", sorted(PRESETS))
    @pytest.mark.parametrize("omega", [1.0, 2.3])
    def test_returns_a_stationary_point_at_the_optimum(self, name, omega):
        spec = PRESETS[name]
        best, gaps = full_time_search(spec, DynamicsParams(omega))
        expected = TWO_SQRT_TWO if spec is PAZ4 else 1.5
        assert abs(best - expected) <= 1e-13
        _, grad, _ = _combination(spec, omega * np.array(gaps), derivatives=True)
        assert np.max(np.abs(grad)) <= 1e-12
        assert np.allclose(omega * np.array(gaps), OPTIMAL_SPACING[name], rtol=0.0, atol=1e-13)

    def test_scan_holds_the_total_and_one_term(self):
        # the cold 128^3 paz4 scan: 16 MiB of float values plus one slab's
        # 2 MiB total and 4 MiB complex term at a time (one whole-mesh term
        # would need 32 MiB); the cache is cleared so the scan runs
        _maximize.cache_clear()
        tracemalloc.start()
        try:
            full_time_search(PAZ4, P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20

    def test_rejects_unsupported_arity(self):
        wide = InequalitySpec(5, ((1, 5, 1.0),), 1.0)
        with pytest.raises(ValueError):
            full_time_search(wide, P)


# (spec, columns, points) of both searches, for every preset and one custom spec
SEARCHES = {f"{name}-{search}": (spec, columns, points)
            for name, spec in [*PRESETS.items(), ("custom", CUSTOM_ABS)]
            for search, columns, points in [
                ("stationary", (0,) * (spec.n_times - 1), inequalities._STATIONARY_GRID),
                ("full", tuple(range(spec.n_times - 1)), inequalities._GAP_GRID)]}


class TestMaximumCache:
    @pytest.mark.parametrize("spec,columns,points", SEARCHES.values(), ids=SEARCHES)
    def test_cached_result_is_a_fresh_scan(self, spec, columns, points):
        _maximize(spec, columns, points)
        best, thetas = _maximize(spec, columns, points)
        fresh_best, fresh_thetas = _maximize.__wrapped__(spec, columns, points)
        assert best == fresh_best
        assert thetas.tobytes() == fresh_thetas.tobytes()

    @pytest.mark.parametrize("spec", [PAZ4, CUSTOM_ABS])
    def test_slab_size_does_not_change_the_result(self, spec, monkeypatch):
        # one row of the first variable per slab against the whole mesh at once
        results = []
        for slab in (1, 128**3):
            monkeypatch.setattr(inequalities, "_SLAB_POINTS", slab)
            best, thetas = _maximize.__wrapped__(spec, (0, 1, 2), 128)
            results.append((best, thetas.tobytes()))
        assert results[0] == results[1]

    def test_phases_are_read_only(self):
        _, thetas = _maximize(PAZ4, (0, 0, 0), 4096)
        with pytest.raises(ValueError):
            thetas[0] = 0.0
        assert thetas[0] == pytest.approx(math.pi / 8, abs=4.5e-16)


class TestThreshold:
    def test_published_thresholds(self):
        assert epsilon_threshold(SANTOS_MINUS, P) == pytest.approx(0.693, abs=1e-3)
        assert epsilon_threshold(SANTOS_PLUS, P) == pytest.approx(0.693, abs=1e-3)
        assert epsilon_threshold(PAZ4, P) == pytest.approx(0.649, abs=1e-3)

    def test_solver_is_tight(self):
        # roots of A(eps) = 2/3 and 1/sqrt(2), from a 40-digit mpmath findroot
        # rounded to float64
        assert epsilon_threshold(SANTOS_MINUS, P) == pytest.approx(0.693867174515053, abs=5e-16)
        assert epsilon_threshold(PAZ4, P) == pytest.approx(0.6494865664555554, abs=5e-16)

    def test_factor_meets_the_bound_at_the_threshold(self):
        for spec in PRESETS.values():
            report = maximize_violation(spec, P, ZERO)
            eps_star = epsilon_threshold(spec, P)
            a_star = selection_factor(SelectionPolicy(eps_star))
            assert abs(a_star - spec.bound / report.delta_k_max) <= 1e-15

    def test_solves_every_level(self):
        # a maximum of bound / level puts the root anywhere in (0, 1), also
        # where the first Newton step lands next to eps = 1
        spec = InequalitySpec(3, ((1, 2, 1.0),), 1.0)
        for level in np.linspace(0.02, 0.98, 25):
            delta_k_max = 1.0 / level
            eps_star = threshold_from_maximum(spec, delta_k_max)
            assert 0.0 < eps_star < 1.0
            assert abs(selection_factor(SelectionPolicy(eps_star)) - 1.0 / delta_k_max) <= 1e-14

    def test_solves_a_level_next_to_one(self):
        # bound / max = 1 - 1e-15 puts the root near eps = 5e-10, where A must
        # stay accurate for the residual to reach roundoff
        delta_k_max = 1.0 / (1.0 - 1e-15)
        eps_star = threshold_from_maximum(SANTOS_MINUS, delta_k_max)
        target = SANTOS_MINUS.bound / delta_k_max
        assert abs(selection_factor(SelectionPolicy(eps_star)) - target) <= 1e-15

    def test_threshold_straddles_the_violation_boundary(self):
        for spec in (SANTOS_MINUS, PAZ4):
            eps_star = epsilon_threshold(spec, P)
            below = maximize_violation(spec, P, SelectionPolicy(eps_star - 1e-8))
            above = maximize_violation(spec, P, SelectionPolicy(eps_star + 1e-8))
            assert below.delta_b_max > 0.0
            assert above.delta_b_max < 0.0

    def test_degenerate_maximum_returns_zero(self):
        flat = InequalitySpec(3, ((1, 2, 1.0),), 1.0)
        assert epsilon_threshold(flat, P) == 0.0

    def test_never_violated(self):
        silent = InequalitySpec(3, ((1, 2, 0.0), (2, 3, 0.0), (1, 3, 0.0)), 1.0)
        with pytest.raises(ValueError, match="inequality never violated"):
            epsilon_threshold(silent, P)


class TestJaynesCummings:
    def test_values(self):
        assert jaynes_cummings_frequency(2.0, 0) == 2.0
        assert jaynes_cummings_frequency(2.0, 3) == pytest.approx(4.0, abs=1e-12)
        assert jaynes_cummings_frequency(2.0, 48) == pytest.approx(14.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            jaynes_cummings_frequency(0.0, 1)
        with pytest.raises(ValueError):
            jaynes_cummings_frequency(1.0, -1)
        with pytest.raises(ValueError):
            jaynes_cummings_frequency(1.0, 1.5)
