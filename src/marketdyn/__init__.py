"""Replicator-dynamics market modeling with input-driven payoff matrices.

The payoff matrix of a two-technology market is not fixed: external input
factors (investments, prices) move it every quarter. This package
synthesizes payoffs from inputs through a constrained coefficient matrix,
simulates market-share trajectories under replicator dynamics, and learns
the coefficients from observed data by exhaustive integer grid search.
"""

from .dataset import (
    MarketDataset,
    NormalizationRecord,
    load_csv,
    load_example,
    normalize_inputs,
    save_csv,
)
from .dynamics import (
    EquilibriumSet,
    PayoffMatrix,
    SharesState,
    classify_equilibria,
    growth_condition,
    mixed_equilibrium,
    replicator_rates,
)
from .errors import ConfigError, DataError, UnsupportedDimensionError
from .influence import (
    ConstraintSpec,
    InfluenceMatrix,
    InputVector,
    build_constraints,
    constraint_check,
    load_alpha,
    normalize_payoff,
    save_alpha,
    synthesize_payoff,
)
from .learn import (
    FitReport,
    GridSpec,
    fit,
    fit_constant_market,
    fit_escalating,
    mse,
    save_report,
    split,
    train_error_table,
)
from .simulate import (
    ScenarioSpec,
    Trajectory,
    constant_scenario,
    custom_scenario,
    observed_scenario,
    run,
    step,
    write_trajectory_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConstraintSpec",
    "DataError",
    "EquilibriumSet",
    "FitReport",
    "GridSpec",
    "InfluenceMatrix",
    "InputVector",
    "MarketDataset",
    "NormalizationRecord",
    "PayoffMatrix",
    "ScenarioSpec",
    "SharesState",
    "Trajectory",
    "UnsupportedDimensionError",
    "build_constraints",
    "classify_equilibria",
    "constant_scenario",
    "constraint_check",
    "custom_scenario",
    "fit",
    "fit_constant_market",
    "fit_escalating",
    "growth_condition",
    "load_alpha",
    "load_csv",
    "load_example",
    "mixed_equilibrium",
    "mse",
    "normalize_inputs",
    "normalize_payoff",
    "observed_scenario",
    "replicator_rates",
    "run",
    "save_alpha",
    "save_csv",
    "save_report",
    "split",
    "step",
    "synthesize_payoff",
    "train_error_table",
    "write_trajectory_csv",
]
