"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Tolerances are pinned here and nowhere else; run with ``pytest -s`` to see
the per-criterion lines inline.
"""

import itertools
import math

import numpy as np
import pytest

from tbell import cli
from tbell.correlators import (
    CorrelationRequest,
    QuadratureConfig,
    SelectionPolicy,
    k_analytic,
    k_oracle_grid,
    k_selective_analytic,
    selection_factor,
)
from tbell.dynamics import (
    DynamicsParams,
    InitialPhase,
    TwoLevelState,
    born_probability,
    collapse,
    expectation_q,
    initial_state,
    measured_trajectory,
    propagate,
)
from tbell.inequalities import (
    PAZ4,
    SANTOS_MINUS,
    SANTOS_PLUS,
    delta_k_stationary,
    epsilon_threshold,
    maximize_violation,
)

P = DynamicsParams(1.0)
ZERO = SelectionPolicy(0.0)


def _report(number: int, name: str, ok: bool) -> None:
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_preset_maxima():
    ok = False
    try:
        targets = [
            (SANTOS_MINUS, 1.5, math.pi / 3),
            (SANTOS_PLUS, 1.5, math.pi / 6),
            (PAZ4, 2.0 * math.sqrt(2.0), math.pi / 8),
        ]
        for spec, expected_max, expected_arg in targets:
            found = maximize_violation(spec, P, ZERO)
            assert abs(found.delta_k_max - expected_max) <= 1e-9
            assert abs(P.omega * found.argmax_spacing - expected_arg) <= 1e-6
        ok = True
    finally:
        _report(1, "preset maxima and argmax spacings", ok)


def test_criterion_2_thresholds():
    ok = False
    try:
        assert abs(epsilon_threshold(SANTOS_MINUS, P) - 0.693) <= 1e-3
        assert abs(epsilon_threshold(SANTOS_PLUS, P) - 0.693) <= 1e-3
        assert abs(epsilon_threshold(PAZ4, P) - 0.649) <= 1e-3
        ok = True
    finally:
        _report(2, "selection thresholds 0.693 / 0.649", ok)


def test_criterion_3_factorization_oracle():
    ok = False
    try:
        eps_grid = np.linspace(0.0, 1.0, 101)
        lags = np.linspace(0.0, math.pi / P.omega, 256, endpoint=False)
        quad = QuadratureConfig(n_nodes=10_000, scheme="uniform-midpoint")
        oracle = k_oracle_grid(0.0, lags, eps_grid, P, quad)
        factors = np.array([selection_factor(SelectionPolicy(e)) for e in eps_grid])
        closed = factors[:, None] * np.cos(2.0 * P.omega * lags)[None, :]
        worst = float(np.max(np.abs(oracle - closed)))
        print(f"[criterion 3] max |oracle - closed form| = {worst:.3e}")
        assert worst <= 1e-3
        # the discontinuity-splitting quadrature meets the interior tolerance
        # on every cell, so no boundary exclusion is needed
        assert worst <= 1e-6
        ok = True
    finally:
        _report(3, "factorization oracle on 101 x 256 grid", ok)


def test_criterion_4_selection_limits():
    ok = False
    try:
        assert abs(selection_factor(SelectionPolicy(0.0)) - 1.0) <= 1e-12
        assert abs(selection_factor(SelectionPolicy(1.0))) <= 1e-12
        for lag in np.linspace(0.0, 4.0 * math.pi, 64):
            keep_all = CorrelationRequest(0.0, float(lag), P, SelectionPolicy(0.0))
            keep_none = CorrelationRequest(0.0, float(lag), P, SelectionPolicy(1.0))
            assert abs(k_selective_analytic(keep_all) - k_analytic(0.0, float(lag), P)) <= 1e-12
            assert abs(k_selective_analytic(keep_none)) <= 1e-12
        ok = True
    finally:
        _report(4, "selection factor limits", ok)


def test_criterion_5_kernel_invariants():
    ok = False
    try:
        rng = np.random.default_rng(42)
        tol = 1e-12

        for _ in range(200):
            state = TwoLevelState(complex(*rng.uniform(-2, 2, 2)), complex(*rng.uniform(-2, 2, 2)))
            a, b = rng.uniform(-30, 30, 2)
            # unitarity
            assert abs(propagate(state, a, P).norm_sq() - state.norm_sq()) <= tol
            # group law
            direct = propagate(state, a + b, P)
            nested = propagate(propagate(state, a, P), b, P)
            assert abs(direct.c_plus - nested.c_plus) <= tol
            assert abs(direct.c_minus - nested.c_minus) <= tol
            # projector idempotence and Born consistency
            for outcome in (1, -1):
                once = collapse(state, outcome)
                assert collapse(once, outcome) == once
                expected = born_probability(state, outcome) * state.norm_sq()
                assert abs(once.norm_sq() - expected) <= tol

        # outcome completeness up to ten measurements
        for n in range(1, 11):
            times = tuple(0.13 + 0.41 * k for k in range(n))
            total = sum(
                measured_trajectory(InitialPhase(0.29), times, outcomes, P)[1].norm_sq()
                for outcomes in itertools.product((1, -1), repeat=n)
            )
            assert abs(total - 1.0) <= 1e-9

        # free evolution on a thousand-point grid
        phase = InitialPhase(0.7)
        for t in np.linspace(0.7, 0.7 + 14.0, 1000):
            q = expectation_q(initial_state(phase, float(t), P))
            assert abs(q - math.cos(2.0 * P.omega * (t - 0.7))) <= tol
        ok = True
    finally:
        _report(5, "kernel invariant suite", ok)


def test_criterion_6_qnd_revival():
    ok = False
    try:
        revival = math.pi / P.omega
        # eigenstate |+> measured at multiples of the revival time
        for phase_t in (0.0, 0.4):
            phase = InitialPhase(phase_t)
            times = tuple(phase_t + k * revival for k in (1, 2, 5))
            records, _ = measured_trajectory(phase, times, (1, 1, 1), P)
            for rec in records:
                assert abs(rec.disturbance) <= 1e-12
        # eigenstate |->: anchor a quarter period before the first measurement
        phase = InitialPhase(0.0)
        times = tuple(math.pi / 2 + k * revival for k in (0, 1, 3))
        records, _ = measured_trajectory(phase, times, (-1, -1, -1), P)
        for rec in records:
            assert abs(rec.disturbance) <= 1e-12
        # ideal-QND spacing cannot violate the bound
        value = delta_k_stationary(SANTOS_MINUS, revival, P, ZERO)
        assert abs(value - (-3.0)) <= 1e-12
        assert value <= SANTOS_MINUS.bound
        ok = True
    finally:
        _report(6, "QND revival: zero disturbance, no violation", ok)


def test_criterion_7_unselected_violation_magnitudes():
    ok = False
    try:
        for spec in (SANTOS_MINUS, SANTOS_PLUS):
            report = maximize_violation(spec, P, ZERO)
            assert abs(report.delta_b_max - 0.5) <= 1e-9
        report = maximize_violation(PAZ4, P, ZERO)
        assert abs(report.delta_b_max - (math.sqrt(2.0) - 1.0)) <= 1e-9
        ok = True
    finally:
        _report(7, "fractional violations at zero threshold", ok)


def test_criterion_8_determinism(tmp_path, capsys):
    ok = False
    try:
        commands = {
            "fig1": ["fig1", "--t-steps", "257"],
            "fig2": ["fig2", "--eps-steps", "51"],
            "validate": ["validate", "--eps-steps", "11", "--t-steps", "32",
                         "--nodes", "4000"],
        }
        for name, argv in commands.items():
            outputs = []
            for run_id in range(4):
                out_file = tmp_path / f"{name}_{run_id}.csv"
                code = cli.main(argv + ["--out", str(out_file)])
                captured = capsys.readouterr()
                assert code == 0, f"{name} exited {code}: {captured.err}"
                outputs.append((out_file.read_bytes(), captured.out))
            first = outputs[0]
            assert all(entry == first for entry in outputs[1:]), f"{name} not deterministic"
        ok = True
    finally:
        _report(8, "byte-identical sweeps across runs", ok)
