"""Temporal Bell inequalities for a projectively measured two-level system.

Simulates stimulated two-level oscillations interrupted by projective
occupation measurements, evaluates the resulting two-time correlators in
closed form and by a brute-force phase-average oracle, and locates the
distinguishability thresholds beyond which inequality violations vanish.
"""

from .dynamics import (
    KERNEL_TOL,
    DynamicsParams,
    InitialPhase,
    MeasurementRecord,
    TwoLevelState,
    born_probability,
    collapse,
    expectation_q,
    initial_state,
    measured_trajectory,
    propagate,
    trajectory_product,
)
from .correlators import (
    CorrelationRequest,
    QuadratureConfig,
    SelectionPolicy,
    disturbance,
    k_analytic,
    k_oracle,
    k_oracle_grid,
    k_selective_analytic,
    selection_factor,
    selection_factor_derivative,
)
from .inequalities import (
    PAZ4,
    PRESETS,
    SANTOS_MINUS,
    SANTOS_PLUS,
    InequalitySpec,
    ViolationReport,
    delta_k,
    delta_k_stationary,
    epsilon_threshold,
    full_time_search,
    jaynes_cummings_frequency,
    maximize_violation,
    stationary_curve,
    threshold_from_maximum,
)

__version__ = "0.1.0"

__all__ = [
    "KERNEL_TOL",
    "DynamicsParams",
    "InitialPhase",
    "MeasurementRecord",
    "TwoLevelState",
    "born_probability",
    "collapse",
    "expectation_q",
    "initial_state",
    "measured_trajectory",
    "propagate",
    "trajectory_product",
    "CorrelationRequest",
    "QuadratureConfig",
    "SelectionPolicy",
    "disturbance",
    "k_analytic",
    "k_oracle",
    "k_oracle_grid",
    "k_selective_analytic",
    "selection_factor",
    "selection_factor_derivative",
    "PAZ4",
    "PRESETS",
    "SANTOS_MINUS",
    "SANTOS_PLUS",
    "InequalitySpec",
    "ViolationReport",
    "delta_k",
    "delta_k_stationary",
    "epsilon_threshold",
    "full_time_search",
    "jaynes_cummings_frequency",
    "maximize_violation",
    "stationary_curve",
    "threshold_from_maximum",
]
