"""Benchmark suite for continuous dynamic optimization.

Generates moving-peaks landscapes (max-composition of rotated, irregular,
ill-conditioned cones), evolves them across environments, scores solvers
with the offline-error and best-before-change indicators, and ships an mQSO
multi-swarm baseline plus a reproducible experiment CLI.

The names below are what a caller of the benchmark needs: scenarios and
landscapes, the session a solver evaluates through (its ``indicators()``
score the run), the two solvers and the experiment runner. The rest of each
module (rotation helpers, the ledger, the swarm record) is imported from
that module.
"""

__version__ = "0.2.0"

from .landscape import Landscape, ScenarioConfig, evaluate_batch, evaluate_raw
from .dynamics import advance_environment, init_landscape
from .protocol import BenchmarkSession, ScenarioComplete
from .mqso import MQSO, SolverConfig
from .harness import (
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
    "advance_environment", "init_landscape",
    "BenchmarkSession", "ScenarioComplete",
    "MQSO", "SolverConfig",
    "ExperimentSpec", "RandomSearch", "export_grid",
    "landscape_at", "run_experiment", "run_session",
    "scenario_from_dict", "scenario_to_dict", "validate_config",
]
