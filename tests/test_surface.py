"""The public surface: what ``gmpbench`` exports, what it no longer has, the
names the benchmark's tracer patches, and the session surface the solvers
use."""

import ast
import dataclasses
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import gmpbench
from gmpbench import dynamics, harness, landscape, mqso, protocol

MODULES = (gmpbench, dynamics, harness, landscape, mqso, protocol)
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# the per-component object model, replaced by the stacked Landscape arrays,
# the one-matrix rotation helpers, now the oracles of tests/test_dynamics.py,
# the private names of the stacked rotation and fold, now update_rotation
# and reflect, the experiment's mQSO config resolver, now
# SolverConfig.for_scenario alone, mQSO's stop-rule closures, now the
# session's above and differs_from rules, mQSO's loop that resent the rows
# a block cut short by the budget, now the session's ScenarioComplete, and
# the guard against advancing past the last environment, which the session's
# schedule and landscape_at already bound; the error subclasses no caller
# caught by type, now the ValueError and RuntimeError they subclassed, the
# cached plane-pair table, now built by update_rotation on each change, and
# protocol's two indicator functions, now EvaluationLedger.indicators
DELETED = ("ComponentState", "make_landscape", "component_value",
           "update_component", "irregularity_transform", "optimum",
           "plane_pairs", "orthogonality_error", "gram_schmidt", "initial_rotation",
           "_rotate", "_fold", "_resolved_solver_config", "_above", "_differs_from",
           "_evaluate_into", "ScenarioExhausted", "IncompleteLedgerError",
           "ExperimentError", "_pair_table", "offline_error", "best_before_change_error",
           "_slot", "_arena", "_carve")


def load_tracer():
    """The benchmark's tracer module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("_gmpbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_exported_name_resolves():
    assert len(gmpbench.__all__) <= 20
    assert len(set(gmpbench.__all__)) == len(gmpbench.__all__)
    for name in gmpbench.__all__:
        assert getattr(gmpbench, name) is not None, name


def test_one_kernel_entry():
    # evaluate_batch is the older name of evaluate_raw, kept for callers
    assert gmpbench.evaluate_batch is gmpbench.evaluate_raw
    assert landscape.evaluate_batch is landscape.evaluate_raw


def test_one_warp_calling_convention():
    # the kernel is the warp's one caller and always hands it its workspace
    P = inspect.Parameter
    params = inspect.signature(landscape.transform_vector).parameters
    assert [(name, p.kind, p.default) for name, p in params.items()] == [
        ("y", P.POSITIONAL_OR_KEYWORD, P.empty), ("tau", P.POSITIONAL_OR_KEYWORD, P.empty),
        ("eta", P.POSITIONAL_OR_KEYWORD, P.empty), ("scratch", P.KEYWORD_ONLY, P.empty)]


def test_one_direction_rule(monkeypatch):
    # a change's shift directions and a swarm's ball samples both go through
    # dynamics' direction helper, once per call
    calls = []
    directions = dynamics._directions

    def counted(normals):
        calls.append(normals.shape)
        return directions(normals)
    monkeypatch.setattr(dynamics, "_directions", counted)
    monkeypatch.setattr(mqso, "_directions", counted)
    cfg = landscape.ScenarioConfig(dimension=3, num_components=4, num_environments=2)
    rng = np.random.default_rng(0)
    dynamics.advance_environment(dynamics.init_landscape(cfg, rng), cfg, rng)
    assert calls == [(4, 3)]
    session = protocol.BenchmarkSession(cfg)
    solver = mqso.MQSO(session, mqso.SolverConfig.for_scenario(cfg), rng)
    calls.clear()
    assert solver._ball_offsets(7, 3).shape == (7, 3)
    assert calls == [(7, 3)]


def test_one_orthonormalization_pass_at_init(monkeypatch):
    # init_landscape orthonormalizes its whole stack at once
    calls = []
    orthonormalize = dynamics._orthonormalize

    def counted(*args):
        calls.append(args)
        return orthonormalize(*args)
    monkeypatch.setattr(dynamics, "_orthonormalize", counted)
    cfg = landscape.ScenarioConfig(dimension=5, num_components=50)
    dynamics.init_landscape(cfg, np.random.default_rng(0))
    assert len(calls) == 1


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_deleted_names_are_gone(module):
    for name in DELETED:
        assert not hasattr(module, name), (module.__name__, name)
        assert name not in getattr(module, "__all__", ()), (module.__name__, name)
    assert not hasattr(landscape.Landscape, "components")
    assert not hasattr(protocol.BenchmarkSession, "budget_remaining")
    assert not hasattr(protocol.BenchmarkSession, "total_evaluations")
    assert not hasattr(protocol.EvaluationLedger, "environments_completed")
    assert not hasattr(mqso.MQSO, "_evaluate_into")
    assert not hasattr(mqso.Swarm, "neutral_positions")
    # one workspace rule: a block that does not fit the thread's workspace
    # gets one of its call's own, so nothing frees the thread's
    assert not hasattr(landscape._Workspace, "release")


def test_every_traced_name_is_defined_where_the_tracer_patches_it():
    # the tracer replaces owner.__dict__[attr]; a name removed from its
    # owner would fail only when the benchmark runs
    tracer = load_tracer()
    assert tracer.TARGETS
    for owner, attr, *_ in tracer.TARGETS:
        assert attr in owner.__dict__, (owner.__name__, attr)


def test_traced_dynamics_names_are_the_code_that_runs():
    # a change folds its six parameter arrays and rotates its stack through
    # the names the tracer patches, so their spans are entered
    tracer = load_tracer().Tracer()
    scenario = landscape.ScenarioConfig(dimension=3, num_components=4, change_frequency=20,
                                        num_environments=4, seed=5)
    assert scenario.rotation_enabled
    with tracer.installed():
        harness.run_session(scenario, "random")
    changes = scenario.num_environments - 1
    assert tracer.calls("dynamics.advance_environment") == changes
    assert tracer.calls("dynamics.update_rotation") == changes
    assert tracer.calls("dynamics.reflect") == 6 * changes


def test_traced_warp_is_the_code_that_runs():
    # the kernel looks transform_vector up by its module-global name, so the
    # tracer's warp span opens once per kernel call; a block of random
    # search fits in one piece, so that is once per evaluate_raw call
    tracer = load_tracer().Tracer()
    scenario = landscape.ScenarioConfig(dimension=3, num_components=4, change_frequency=40,
                                        num_environments=3, seed=6)
    assert harness._RANDOM_BLOCK_ROWS * scenario.num_components * scenario.dimension \
        <= landscape._BLOCK_ELEMENTS
    with tracer.installed():
        harness.run_session(scenario, "random")
    assert tracer.calls("landscape.transform_vector") == tracer.calls("landscape.evaluate_raw") > 0


def test_signatures_without_the_removed_flags():
    # the history log and the partial-run indicators are gone
    assert list(inspect.signature(mqso.MQSO).parameters) == ["session", "config", "rng"]
    for function in (protocol.EvaluationLedger.indicators, protocol.BenchmarkSession.indicators):
        assert "partial" not in inspect.signature(function).parameters, function.__name__


def test_one_mqso_config_path():
    # the config is SolverConfig.for_scenario(scenario); nothing carries another
    assert list(inspect.signature(harness.run_session).parameters) == ["scenario", "solver", "seed"]
    assert [f.name for f in dataclasses.fields(harness.ExperimentSpec)] == [
        "scenario", "solver", "run_count", "master_seed", "output_dir"]
    assert list(inspect.signature(mqso.SolverConfig.for_scenario).parameters) == ["scenario"]


def test_stop_rules_are_data_owned_by_the_session():
    # no callable reaches evaluate: the two rules are keyword-only data, and
    # the detection rule and its tolerance are protocol's alone
    P = inspect.Parameter
    params = inspect.signature(protocol.BenchmarkSession.evaluate).parameters
    assert [(name, p.kind, p.default) for name, p in params.items()] == [
        ("self", P.POSITIONAL_OR_KEYWORD, P.empty), ("x", P.POSITIONAL_OR_KEYWORD, P.empty),
        ("above", P.KEYWORD_ONLY, None), ("differs_from", P.KEYWORD_ONLY, None)]
    assert not hasattr(mqso, "CHANGE_DETECTION_TOL")
    assert mqso.differs is protocol.differs


def test_scenario_complete_is_a_plain_signal():
    assert "__init__" not in vars(protocol.ScenarioComplete)
    scenario = landscape.ScenarioConfig(dimension=2, num_components=2, change_frequency=3,
                                        num_environments=1)
    session = protocol.BenchmarkSession(scenario)
    session.evaluate(np.zeros((3, 2)))
    with pytest.raises(protocol.ScenarioComplete) as exc:
        session.evaluate(np.zeros(2))
    for name in ("offline_error", "best_before_change_error"):
        assert not hasattr(exc.value, name), name


def read_names(tree):
    """Every name a module reads: each loaded identifier, the base of each
    attribute chain included."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def imported_names(tree):
    """Each name a module's imports bind, with the line that binds it;
    ``from __future__`` imports bind none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def exported_names(tree):
    """The names a module lists in its ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(Path(gmpbench.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    # a name the module exports, as the package re-exports its modules'
    # names, is used by being exported
    tree = ast.parse(path.read_text(), filename=str(path))
    used = read_names(tree) | exported_names(tree)
    unused = [(name, line) for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never reads: {unused}"


def solver_view(session):
    """A stand-in for ``session`` with exactly the documented solver
    surface: ``evaluate``, ``bounds`` and ``dimension``. Any other attribute
    raises ``AttributeError``."""

    class View:
        __slots__ = ()
        evaluate = staticmethod(session.evaluate)
        bounds = property(lambda self: session.bounds)
        dimension = property(lambda self: session.dimension)

    return View()


@pytest.mark.parametrize("solver", ["mqso", "random"])
def test_solvers_use_only_the_documented_surface(solver):
    scenario = landscape.ScenarioConfig(dimension=3, num_components=4, change_frequency=300,
                                        num_environments=3, seed=19)
    sessions = []
    for wrap in (lambda s: s, solver_view):
        session = protocol.BenchmarkSession(scenario)
        view = wrap(session)
        rng = np.random.default_rng(4)
        if solver == "mqso":
            mqso.MQSO(view, mqso.SolverConfig.for_scenario(scenario), rng).run()
        else:
            harness.RandomSearch(view, rng).run()
        sessions.append(session)
    direct, viewed = sessions
    assert viewed.ledger.complete
    for name in ("values", "errors", "optima", "env_final_errors"):
        assert np.array_equal(getattr(viewed.ledger, name), getattr(direct.ledger, name)), name
    members = {name for name in dir(view) if not name.startswith("__")}
    assert members == {"evaluate", "bounds", "dimension"}
    for name in ("landscape", "ledger", "config", "rng", "total_evaluations", "indicators"):
        with pytest.raises(AttributeError):
            getattr(view, name)
