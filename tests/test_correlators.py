import math
import tracemalloc

import numpy as np
import pytest

from tbell import correlators
from tbell.correlators import (
    CorrelationRequest,
    QuadratureConfig,
    SelectionPolicy,
    _conditional_probabilities,
    _first_probabilities,
    _reference_rule,
    _selection_jumps,
    disturbance,
    k_analytic,
    k_oracle,
    k_oracle_grid,
    k_selective_analytic,
    selection_factor,
    selection_factor_derivative,
)
from tbell.dynamics import DynamicsParams, InitialPhase, measured_trajectory

P = DynamicsParams(1.0)
A_HALF = 0.8183098861837906  # (1 + pi/2) / pi


def policy(eps):
    return SelectionPolicy(eps)


class TestKAnalytic:
    def test_zero_lag(self):
        assert k_analytic(1.3, 1.3, P) == 1.0

    def test_quarter_period(self):
        assert k_analytic(0.0, math.pi / 2, P) == pytest.approx(-1.0, abs=1e-12)

    def test_sixth_of_pi(self):
        assert k_analytic(0.0, math.pi / 6, P) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_in_arguments(self):
        assert k_analytic(0.7, 2.1, P) == k_analytic(2.1, 0.7, P)

    def test_even_in_lag(self):
        for lag in (0.3, 1.1, 2.9):
            assert k_analytic(0.0, lag, P) == pytest.approx(k_analytic(lag, 0.0, P), abs=1e-15)

    def test_large_arguments_stay_accurate(self):
        lag = math.pi / 6
        shifted = k_analytic(0.0, lag + 1_000_000.0 * math.pi, P)
        assert shifted == pytest.approx(0.5, abs=1e-9)


class TestSelectionFactor:
    def test_limits_are_exact(self):
        assert selection_factor(policy(0.0)) == 1.0
        assert selection_factor(policy(1.0)) == 0.0

    @pytest.mark.parametrize("eps", [5e-10, 1e-6, 0.3, 1.0 - 1e-6])
    def test_matches_high_precision_closed_form(self, eps):
        # near eps = 0 the closed form's arccos(2 eps - 1) loses ~1e-16 / sqrt(eps)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            e = mpmath.mpf(eps)
            exact = (2 * mpmath.sqrt(e * (1 - e)) + mpmath.acos(2 * e - 1)) / mpmath.pi
        assert abs(selection_factor(policy(eps)) - float(exact)) <= 2e-16

    def test_half_threshold(self):
        assert selection_factor(policy(0.5)) == pytest.approx(A_HALF, abs=1e-12)
        assert selection_factor(policy(0.5)) == pytest.approx((1.0 + math.pi / 2) / math.pi, abs=1e-15)

    def test_strictly_decreasing(self):
        grid = np.linspace(0.0, 1.0, 101)
        values = [selection_factor(policy(e)) for e in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_derivative_matches_finite_difference(self):
        h = 1e-6
        for eps in np.linspace(0.05, 0.95, 19):
            closed = selection_factor_derivative(policy(eps))
            fd = (selection_factor(policy(eps + h)) - selection_factor(policy(eps - h))) / (2 * h)
            assert closed == pytest.approx(fd, abs=1e-6)

    def test_derivative_domain(self):
        with pytest.raises(ValueError):
            selection_factor_derivative(policy(0.0))

    def test_arccos_branch_identity(self):
        # arccos(2e - 1) and 2 arccos(sqrt(e)) must agree on the whole range
        for eps in np.linspace(0.0, 1.0, 101):
            lhs = math.acos(2.0 * eps - 1.0)
            rhs = 2.0 * math.acos(math.sqrt(eps))
            assert abs(lhs - rhs) <= 1e-12

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SelectionPolicy(-0.1)
        with pytest.raises(ValueError):
            SelectionPolicy(1.1)


class TestKSelectiveAnalytic:
    def test_no_selection_reduces_to_free_correlator(self):
        req = CorrelationRequest(0.2, 1.4, P, policy(0.0))
        assert k_selective_analytic(req) == k_analytic(0.2, 1.4, P)

    def test_full_selection_kills_everything(self):
        for lag in np.linspace(0.0, 3.0, 7):
            req = CorrelationRequest(0.0, lag, P, policy(1.0))
            assert k_selective_analytic(req) == 0.0

    def test_half_selection_value(self):
        req = CorrelationRequest(0.0, math.pi / 6, P, policy(0.5))
        assert k_selective_analytic(req) == pytest.approx(0.40915494309189535, abs=1e-12)

    def test_request_canonicalizes_time_order(self):
        req = CorrelationRequest(2.0, 1.0, P, policy(0.0))
        assert (req.t1, req.t2) == (1.0, 2.0)


class TestQuadratureConfig:
    def test_rejects_too_few_nodes(self):
        with pytest.raises(ValueError):
            QuadratureConfig(n_nodes=15)

    def test_caps_the_node_count(self):
        # construct only: an oracle run at the cap peaks near 0.8 GB
        assert QuadratureConfig(10**7).n_nodes == 10**7
        with pytest.raises(ValueError, match="n_nodes"):
            QuadratureConfig(10**7 + 1)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            QuadratureConfig(scheme="simpson")


class TestOracle:
    def test_first_probabilities_match_the_plain_formula(self):
        # the buffered squares and in-place division are the same arithmetic
        phases = np.random.default_rng(3).uniform(-10.0, 10.0, (64, 16))
        for omega, t1 in ((1.0, 0.31), (2.3, -4.7)):
            u = omega * (t1 - phases)
            cp2, cm2 = np.cos(u) ** 2, np.sin(u) ** 2
            expected = np.array([cp2, cm2]) / (cp2 + cm2)
            found = _first_probabilities(u)
            assert found.tobytes() == expected.tobytes()

    def test_reference_rules_are_built_once_and_read_only(self):
        nodes, weights = _reference_rule("gauss-legendre")
        assert _reference_rule("gauss-legendre")[0] is nodes
        expected = np.polynomial.legendre.leggauss(16)
        assert nodes.tobytes() == expected[0].tobytes()
        assert weights.tobytes() == expected[1].tobytes()
        with pytest.raises(ValueError):
            weights[0] = 0.0
        assert _reference_rule("uniform-midpoint")[1].tolist() == [2.0]

    def test_tableau_matches_scalar_kernel(self):
        # the factored final norms p1[q1] * cond[q1, q2] must reproduce the
        # scalar recursion for every outcome sequence
        rng = np.random.default_rng(7)
        phases = rng.uniform(0.0, 2.0 * math.pi, 25)
        lags = rng.uniform(0.0, math.pi, 4)
        t1 = 0.31
        p1 = _first_probabilities(P.omega * (t1 - phases))
        cond = _conditional_probabilities(lags, P)
        for i, t_prime in enumerate(phases):
            for j, lag in enumerate(lags):
                for qi, q1 in enumerate((1, -1)):
                    for qj, q2 in enumerate((1, -1)):
                        records, final = measured_trajectory(
                            InitialPhase(t_prime), (t1, t1 + lag), (q1, q2), P)
                        assert p1[qi, i] * cond[qi, qj, j] == pytest.approx(
                            final.norm_sq(), abs=1e-12)
                        assert p1[qi, i] == pytest.approx(
                            records[0].pre_probability, abs=1e-12)

    @pytest.mark.parametrize("t1", [0.0, 2.7])
    @pytest.mark.parametrize("omega", [1.0, 2.3])
    def test_jumps_match_analytic_crossings(self, t1, omega):
        # In the phase u = omega (t1 - t'), p+ = cos^2 u crosses eps at a, pi - a,
        # pi + a and 2 pi - a, one per quarter of [0, 2 pi], where cos^2 a = eps;
        # p- = sin^2 u crosses it at the same four with sin^2 a = eps.  Near eps =
        # 0 or 1 the two crossings around an extremum nearly meet; at eps = 1e-300
        # they coincide, below the roundoff-level probability that even the
        # computed minimum has.
        extreme = [1e-300, 1e-10, 1e-7, 1.0 - 1e-7, 1.0 - 1e-10]
        eps_grid = np.concatenate([np.linspace(0.03, 0.97, 24), extreme])
        lags = np.linspace(0.0, 3.0, 7)
        # the rounds take 5, 4, 3, 2 and 1 bits at batches of 1, 2, 3, 5 and 29
        batches = [[eps] for eps in eps_grid] + [eps_grid[:2], eps_grid[10:13], eps_grid[-5:],
                                                 eps_grid]
        for batch in batches:
            jumps = _selection_jumps(np.array(batch))
            assert jumps.shape == (2, len(batch), 4)
            for eps, found in zip(batch, jumps.transpose(1, 0, 2)):
                tol = 1e-9 if eps in extreme else 1e-12
                assert np.all((found >= 0.0) & (found <= 2.0 * math.pi))
                # cos^2 = level at atan2(sqrt(1 - level), sqrt(level)); 1 - level
                # is passed in exactly, so the reference stays accurate near 0 and 1
                for outcome_found, level, rest in ((found[0], eps, 1.0 - eps),
                                                   (found[1], 1.0 - eps, eps)):
                    a = math.atan2(math.sqrt(rest), math.sqrt(level))
                    expected = np.array([a, math.pi - a, math.pi + a, 2.0 * math.pi - a])
                    assert np.all(np.abs(outcome_found - expected) <= tol)
        # the threshold is never crossed at eps = 0 or 1: at eps = 1 each crossing
        # sits on its quarter's maximum of p+- (the float sliver where p rounds to
        # 1 counts as empty), and at eps = 0 on its minimum; the rows match the
        # closed form A(eps) * cos(2 omega lag) with A = 1 and 0 at every t1
        zero, one = _selection_jumps(np.array([0.0, 1.0])).transpose(1, 0, 2)
        half_pi = math.pi / 2
        assert np.array_equal(one, half_pi * np.array([[0, 2, 2, 4], [1, 1, 3, 3]]))
        assert np.max(np.abs(zero - half_pi * np.array([[1, 1, 3, 3], [0, 2, 2, 4]]))) <= 1e-15
        params = DynamicsParams(omega)
        quarter = params.period / 4
        for start in (t1, 3 * quarter, 3 * quarter - 1e-15, -3.1):
            rows = k_oracle_grid(start, lags, np.array([0.0, 1.0]), params, QuadratureConfig(1000))
            assert np.max(np.abs(rows[0] - np.cos(2.0 * omega * lags))) <= 1e-12
            assert np.max(np.abs(rows[1])) <= 1e-12

    @pytest.mark.parametrize("scheme", ["uniform-midpoint", "gauss-legendre"])
    @pytest.mark.parametrize("select_both", [False, True])
    def test_rows_do_not_depend_on_the_rest_of_the_grid(self, scheme, select_both):
        quad = QuadratureConfig(1000, scheme)
        eps_grid = np.linspace(0.0, 1.0, 11)
        lags = np.linspace(0.0, 3.0, 7)
        grid = k_oracle_grid(0.4, lags, eps_grid, P, quad, select_both=select_both)
        for i, eps in enumerate(eps_grid):
            alone = k_oracle_grid(0.4, lags, np.array([eps]), P, quad, select_both=select_both)
            assert np.max(np.abs(grid[i] - alone[0])) <= 1e-15

    @pytest.mark.parametrize("scheme", ["uniform-midpoint", "gauss-legendre"])
    @pytest.mark.parametrize("select_both", [False, True])
    def test_permuting_epsilons_permutes_rows(self, scheme, select_both):
        # duplicates, and the eps = 0 and 1 rows, which hold no crossings
        eps_grid = np.array([0.3, 0.0, 1.0, 0.3, 0.7, 1.0, 0.0, 0.5, 0.3, 1e-9, 0.7])
        lags = np.linspace(0.0, 3.0, 7)
        quad = QuadratureConfig(1000, scheme)
        grid = k_oracle_grid(0.4, lags, eps_grid, P, quad, select_both=select_both)
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(eps_grid.size)
            permuted = k_oracle_grid(0.4, lags, eps_grid[order], P, quad, select_both=select_both)
            assert np.array_equal(permuted, grid[order])

    @pytest.mark.parametrize("scheme", ["uniform-midpoint", "gauss-legendre"])
    def test_memory_does_not_scale_with_epsilons_times_nodes(self, scheme):
        # one (epsilons, nodes) float array would take 320 MB here
        lags = np.linspace(0.0, math.pi, 4)
        tracemalloc.start()
        try:
            k_oracle_grid(0.0, lags, np.linspace(0.0, 1.0, 4001), P,
                          QuadratureConfig(10_000, scheme))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_memory_does_not_scale_with_nodes_times_lags(self):
        # a (2, 2, nodes, lags) float tableau would take 328 MB here
        lags = np.linspace(0.0, math.pi, 1024)
        tracemalloc.start()
        try:
            k_oracle_grid(0.0, lags, np.array([0.3]), P, QuadratureConfig(10_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_no_selection_is_machine_exact(self):
        lags = np.linspace(0.0, math.pi, 17)
        grid = k_oracle_grid(0.0, lags, np.array([0.0]), P, QuadratureConfig(1024))
        assert np.max(np.abs(grid[0] - np.cos(2.0 * lags))) <= 1e-10

    def test_full_selection_is_zero(self):
        lags = np.linspace(0.1, 2.9, 5)
        grid = k_oracle_grid(0.0, lags, np.array([1.0]), P, QuadratureConfig(1024))
        assert np.max(np.abs(grid)) <= 1e-6

    @pytest.mark.parametrize("scheme", ["uniform-midpoint", "gauss-legendre"])
    def test_full_selection_is_zero_with_a_node_on_a_maximum(self, scheme):
        # p rounds to exactly 1 within ~1e-8 of a maximum of p+ or p-.  An odd
        # node count puts a cell midpoint on the maximum of p+ at u = pi, and
        # the 16- and 17-node rules lay a single cell on the whole period
        lags = np.linspace(0.0, 3.0, 7)
        for t1, nodes in ((0.0, 10001), (0.0, 10002), (math.pi / 10000, 10000),
                          (0.0, 16), (0.0, 17)):
            grid = k_oracle_grid(t1, lags, np.array([1.0]), P, QuadratureConfig(nodes, scheme))
            assert np.max(np.abs(grid)) == 0.0

    @pytest.mark.parametrize("nodes", [160, 10_000])
    def test_selection_near_one_keeps_float64_accuracy(self, nodes):
        # above eps = 1/2 the crossings are found on the small probability p_-q
        # against the exact 1 - eps, so A(eps) ~ (1 - eps)^(3/2) stays exact to
        # float64's absolute accuracy where p_q itself has no digits left
        mpmath = pytest.importorskip("mpmath")
        quad = QuadratureConfig(nodes, "gauss-legendre")
        for eps in (1.0 - 1e-6, 1.0 - 1e-10, 1.0 - 2.0 ** -40):
            with mpmath.workdps(40):
                e = mpmath.mpf(eps)
                exact = float((2 * mpmath.sqrt(e * (1 - e)) + mpmath.acos(2 * e - 1)) / mpmath.pi)
            assert abs(k_oracle_grid(0.37, [0.0], [eps], P, quad)[0, 0] - exact) <= 1e-15

    def test_half_selection_single_value(self):
        req = CorrelationRequest(0.0, math.pi / 6, P, policy(0.5))
        assert k_oracle(req) == pytest.approx(0.40915494309189535, abs=1e-6)

    def test_factorization_on_reduced_grid(self):
        eps_grid = np.linspace(0.0, 1.0, 21)
        lags = np.linspace(0.0, math.pi, 33, endpoint=False)
        oracle = k_oracle_grid(0.0, lags, eps_grid, P, QuadratureConfig(4000))
        for i, eps in enumerate(eps_grid):
            expected = selection_factor(policy(eps)) * np.cos(2.0 * lags)
            assert np.max(np.abs(oracle[i] - expected)) <= 1e-6

    def test_depends_only_on_lag(self):
        # the phase average runs over a whole period, in u = omega (t1 - t') from 0,
        # so rows are bitwise equal for every t1
        lags = np.array([-3.0, -1.0, 0.0, 0.4, 1.7, 3.0])
        eps_grid = np.array([0.0, 1e-9, 0.3, 0.37, 0.5, 0.97, 1.0])
        for scheme in ("uniform-midpoint", "gauss-legendre"):
            for select_both in (False, True):
                quad = QuadratureConfig(1000, scheme)
                for omega in (1.0, 2.3):
                    params = DynamicsParams(omega)
                    rows = [k_oracle_grid(t1, lags, eps_grid, params, quad, select_both=select_both)
                            for t1 in (0.0, 2.7, -3.1, 5.13, 1e300)]
                    assert all(r.tobytes() == rows[0].tobytes() for r in rows[1:])

    def test_even_in_lag(self):
        lags = np.array([-1.1, 1.1])
        grid = k_oracle_grid(0.0, lags, np.array([0.3]), P, QuadratureConfig(2048))
        assert grid[0, 0] == pytest.approx(grid[0, 1], abs=1e-9)

    def test_gauss_scheme_agrees_with_closed_form(self):
        # one cell (16 nodes), a node count that is not a multiple of 16, and
        # jumps next to the extrema of p+- (eps near 0 and 1)
        eps_grid = np.array([0.0, 1e-7, 0.3, 0.7, 1.0 - 1e-7, 1.0])
        lags = np.linspace(0.1, 3.0, 5)
        for nodes in (16, 17, 160, 2000, 10001):
            quad = QuadratureConfig(nodes, "gauss-legendre")
            for t1 in (0.0, 2.7):
                for omega in (1.0, 2.3):
                    grid = k_oracle_grid(t1, lags, eps_grid, DynamicsParams(omega), quad)
                    for i, eps in enumerate(eps_grid):
                        expected = selection_factor(policy(eps)) * np.cos(2.0 * omega * lags)
                        assert np.max(np.abs(grid[i] - expected)) <= 1e-14

    @pytest.mark.parametrize("omega, t1", [(1.0, 0.0), (2.3, 1.7), (0.7, -5.2)])
    def test_midpoint_error_is_its_euler_maclaurin_term(self, omega, t1):
        # Each of the four crossings of I_q ends a run of whole cells, where the
        # midpoint rule errs by (h^2 / 24) |p_q'|, with |p_q'| = 2 sqrt(eps (1 - eps))
        # and h = 2 pi / N: over two outcomes and 2 pi that is
        # (4 pi / (3 N^2)) sqrt(eps (1 - eps)) per unit of cos(2 omega lag), with an
        # O(N^-3) residual.  The bounds are twice the measured residuals.
        eps_grid = np.linspace(0.0, 1.0, 101)
        lags = np.linspace(0.0, math.pi / omega, 256, endpoint=False)
        factors = np.array([selection_factor(policy(eps)) for eps in eps_grid])
        free = np.cos(2.0 * omega * lags)
        errors = {}
        for nodes, bound in ((4096, 3.2e-11), (10_000, 2.3e-12), (10001, 3.9e-14), (20002, None)):
            grid = k_oracle_grid(t1, lags, eps_grid, DynamicsParams(omega),
                                 QuadratureConfig(nodes, "uniform-midpoint"))
            errors[nodes] = grid - factors[:, None] * free
            model = (4.0 * math.pi / (3.0 * nodes**2)) * np.sqrt(eps_grid * (1.0 - eps_grid))
            if bound is not None:
                assert np.max(np.abs(errors[nodes] - model[:, None] * free)) <= bound
        # doubling N quarters the error at every interior epsilon (lag 0)
        ratio = errors[10001][1:-1, 0] / errors[20002][1:-1, 0]
        assert np.max(np.abs(ratio - 4.0)) <= 1e-4

    def test_select_both_matches_at_zero_threshold(self):
        lags = np.linspace(0.0, 3.0, 9)
        plain = k_oracle_grid(0.0, lags, np.array([0.0]), P, QuadratureConfig(512))
        both = k_oracle_grid(0.0, lags, np.array([0.0]), P, QuadratureConfig(512),
                             select_both=True)
        assert np.max(np.abs(plain - both)) == 0.0

    def test_select_both_is_bounded(self):
        lags = np.linspace(0.0, 3.0, 9)
        grid = k_oracle_grid(0.0, lags, np.array([0.5]), P, QuadratureConfig(512),
                             select_both=True)
        assert np.all(np.isfinite(grid))
        assert np.max(np.abs(grid)) <= 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            k_oracle_grid(0.0, np.array([]), np.array([0.0]), P)
        with pytest.raises(ValueError):
            k_oracle_grid(0.0, np.array([1.0]), np.array([1.5]), P)

    @pytest.mark.parametrize("t1, lags, name", [
        (math.nan, [1.0], "t1"), (math.inf, [1.0], "t1"), (-math.inf, [1.0], "t1"),
        (0.0, [1.0, math.inf], "lags"), (0.0, [math.nan], "lags"), (0.0, [-math.inf, 0.0], "lags"),
    ])
    def test_refuses_non_finite_inputs(self, t1, lags, name):
        with pytest.raises(ValueError, match=name):
            k_oracle_grid(t1, lags, np.array([0.3]), P, QuadratureConfig(64))

    def test_never_calls_a_closed_form(self, monkeypatch):
        # the oracle is the independent check of the factorization, so it must
        # reach the same rows with every closed form in the module disabled
        lags, eps_grid = np.linspace(0.0, 3.0, 5), np.array([0.0, 0.3, 0.5, 0.8, 1.0])
        cases = [(QuadratureConfig(160, scheme), select_both)
                 for scheme in ("uniform-midpoint", "gauss-legendre")
                 for select_both in (False, True)]
        expected = [k_oracle_grid(0.7, lags, eps_grid, P, quad, select_both=select_both)
                    for quad, select_both in cases]

        def closed_form(*args, **kwargs):
            raise AssertionError("the oracle called a closed form")

        for name in ("selection_factor", "selection_factor_derivative", "k_analytic",
                     "k_selective_analytic"):
            monkeypatch.setattr(correlators, name, closed_form)
        for (quad, select_both), rows in zip(cases, expected):
            assert np.array_equal(
                k_oracle_grid(0.7, lags, eps_grid, P, quad, select_both=select_both), rows)


class TestDisturbance:
    def test_impulsive_cases_are_zero(self):
        assert disturbance(InitialPhase(0.0), 0.0, 1, P) == 0.0
        assert disturbance(InitialPhase(0.0), math.pi / 2, -1, P) == pytest.approx(0.0, abs=1e-12)

    def test_equal_superposition_is_half(self):
        for outcome in (1, -1):
            assert disturbance(InitialPhase(0.0), math.pi / 4, outcome, P) == pytest.approx(0.5, abs=1e-12)
