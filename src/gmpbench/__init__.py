"""Benchmark suite for continuous dynamic optimization.

Generates moving-peaks landscapes (max-composition of rotated, irregular,
ill-conditioned cones), evolves them across environments, scores solvers
with the offline-error and best-before-change indicators, and ships an mQSO
multi-swarm baseline plus a reproducible experiment CLI.

The names below are what a caller of the benchmark needs: scenarios and
landscapes, the session a solver evaluates through, the indicators, the two
solvers and the experiment runner. The rest of each module (rotation
helpers, the ledger, the swarm record) is imported from that module.
"""

__version__ = "0.1.0"

from .landscape import Landscape, ScenarioConfig, evaluate_batch, evaluate_raw
from .dynamics import ScenarioExhausted, advance_environment, init_landscape
from .protocol import (
    BenchmarkSession,
    IncompleteLedgerError,
    ScenarioComplete,
    best_before_change_error,
    offline_error,
)
from .mqso import MQSO, SolverConfig
from .harness import (
    ExperimentError,
    ExperimentSpec,
    RandomSearch,
    export_grid,
    landscape_at,
    run_experiment,
    run_session,
    scenario_from_dict,
    scenario_to_dict,
    validate_config,
)

__all__ = [
    "__version__",
    "Landscape", "ScenarioConfig", "evaluate_batch", "evaluate_raw",
    "ScenarioExhausted", "advance_environment", "init_landscape",
    "BenchmarkSession", "IncompleteLedgerError", "ScenarioComplete",
    "best_before_change_error", "offline_error",
    "MQSO", "SolverConfig",
    "ExperimentError", "ExperimentSpec", "RandomSearch", "export_grid",
    "landscape_at", "run_experiment", "run_session",
    "scenario_from_dict", "scenario_to_dict", "validate_config",
]
