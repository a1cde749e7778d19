"""The public surface: what ``gmpbench`` exports, what it no longer has, the
names the benchmark's tracer patches, and the session surface the solvers
use."""

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
# and the one-matrix rotation helpers, now the oracles of tests/test_dynamics.py
DELETED = ("ComponentState", "make_landscape", "component_value",
           "update_component", "irregularity_transform", "optimum",
           "plane_pairs", "orthogonality_error", "gram_schmidt", "initial_rotation")


def test_every_exported_name_resolves():
    assert len(gmpbench.__all__) <= 25
    assert len(set(gmpbench.__all__)) == len(gmpbench.__all__)
    for name in gmpbench.__all__:
        assert getattr(gmpbench, name) is not None, name


def test_one_kernel_entry():
    # evaluate_batch is the older name of evaluate_raw, kept for callers
    assert gmpbench.evaluate_batch is gmpbench.evaluate_raw
    assert landscape.evaluate_batch is landscape.evaluate_raw


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


def test_every_traced_name_is_defined_where_the_tracer_patches_it():
    # the tracer replaces owner.__dict__[attr]; a name removed from its
    # owner would fail only when the benchmark runs
    spec = importlib.util.spec_from_file_location("_gmpbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for owner, attr, *_ in tracer.TARGETS:
        assert attr in owner.__dict__, (owner.__name__, attr)


def test_signatures_without_the_removed_flags():
    # the history log and the partial-run indicators are gone
    assert list(inspect.signature(mqso.MQSO).parameters) == ["session", "config", "rng"]
    for function in (protocol.offline_error, protocol.best_before_change_error,
                     protocol.BenchmarkSession.indicators):
        assert "partial" not in inspect.signature(function).parameters, function.__name__


def solver_view(session):
    """A stand-in for ``session`` with exactly the documented solver
    surface: ``evaluate``, ``bounds``, ``dimension`` and
    ``budget_remaining``. Any other attribute raises ``AttributeError``."""

    class View:
        __slots__ = ()
        evaluate = staticmethod(session.evaluate)
        bounds = property(lambda self: session.bounds)
        dimension = property(lambda self: session.dimension)
        budget_remaining = property(lambda self: session.budget_remaining)

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
    assert members == {"evaluate", "bounds", "dimension", "budget_remaining"}
    for name in ("landscape", "ledger", "config", "rng", "total_evaluations", "indicators"):
        with pytest.raises(AttributeError):
            getattr(view, name)
