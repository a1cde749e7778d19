"""Benchmark suite for continuous dynamic optimization.

Generates moving-peaks landscapes (max-composition of rotated, irregular,
ill-conditioned cones), evolves them across environments, scores solvers
with the offline-error and best-before-change indicators, and ships an mQSO
multi-swarm baseline plus a reproducible experiment CLI.
"""

__version__ = "0.1.0"

from .landscape import (
    ComponentState,
    Landscape,
    ScenarioConfig,
    component_value,
    evaluate_batch,
    evaluate_raw,
    irregularity_transform,
    make_landscape,
    optimum,
    transform_vector,
)
from .dynamics import (
    ScenarioExhausted,
    advance_environment,
    gram_schmidt,
    init_landscape,
    initial_rotation,
    orthogonality_error,
    plane_pairs,
    reflect,
    update_component,
    update_rotation,
)
from .protocol import (
    BenchmarkSession,
    EvaluationLedger,
    IncompleteLedgerError,
    ScenarioComplete,
    best_before_change_error,
    offline_error,
)
from .mqso import MQSO, SolverConfig, Swarm
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
    "ComponentState", "Landscape", "ScenarioConfig",
    "component_value", "evaluate_batch", "evaluate_raw",
    "irregularity_transform", "make_landscape", "optimum", "transform_vector",
    "ScenarioExhausted", "advance_environment", "gram_schmidt",
    "init_landscape", "initial_rotation", "orthogonality_error",
    "plane_pairs", "reflect", "update_component", "update_rotation",
    "BenchmarkSession", "EvaluationLedger", "IncompleteLedgerError",
    "ScenarioComplete", "best_before_change_error", "offline_error",
    "MQSO", "SolverConfig", "Swarm",
    "ExperimentError", "ExperimentSpec", "RandomSearch", "export_grid",
    "landscape_at", "run_experiment", "run_session",
    "scenario_from_dict", "scenario_to_dict", "validate_config",
]
