"""Weak quantum measurement simulation.

Coupled-system weak measurement protocol, weak value formulas, concrete
meter constructions, exact and Monte Carlo oracles, and an experiment
runner CLI. The namespace holds what the demos and users import from it;
every other name is imported from its module.
"""

from .hilbert import (
    DimensionMismatchError,
    HermiticityError,
    Observable,
    StateVector,
    expectation,
)
from .meters import (
    GridSpec,
    chirped_gaussian_state,
    gaussian_grid_meter,
    momentum_operator,
    position_operator,
    qubit_meter,
)
from .oracle import (
    EstimateWithError,
    exact_outcome_distribution,
    monte_carlo_pair,
    monte_carlo_run,
    projective_A_oracle,
)
from .protocol import (
    CalibrationError,
    EmptyPostselectionError,
    EpsSchedule,
    MeterSpec,
    OutcomeTable,
    UndefinedWeakValueError,
    WeakSetup,
    aav_complex_weak_value,
    coupling_moment,
    disturbance,
    eps_sweep,
    projective_conditional_expectation,
    traditional_weak_value,
    unconditional_limit,
    verify_calibration,
    weak_value_closed_form,
    weak_value_extrapolation,
    weak_value_report,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationError",
    "DimensionMismatchError",
    "EmptyPostselectionError",
    "EpsSchedule",
    "EstimateWithError",
    "GridSpec",
    "HermiticityError",
    "MeterSpec",
    "Observable",
    "OutcomeTable",
    "StateVector",
    "UndefinedWeakValueError",
    "WeakSetup",
    "aav_complex_weak_value",
    "chirped_gaussian_state",
    "coupling_moment",
    "disturbance",
    "eps_sweep",
    "exact_outcome_distribution",
    "expectation",
    "gaussian_grid_meter",
    "momentum_operator",
    "monte_carlo_pair",
    "monte_carlo_run",
    "position_operator",
    "projective_A_oracle",
    "projective_conditional_expectation",
    "qubit_meter",
    "traditional_weak_value",
    "unconditional_limit",
    "verify_calibration",
    "weak_value_closed_form",
    "weak_value_extrapolation",
    "weak_value_report",
    "__version__",
]
