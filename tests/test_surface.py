"""The public surface: what ``gmpbench`` exports, what it no longer has, and
the names the benchmark's tracer patches."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import gmpbench
from gmpbench import dynamics, harness, landscape, mqso, protocol

MODULES = (gmpbench, dynamics, harness, landscape, mqso, protocol)
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# the per-component object model, replaced by the stacked Landscape arrays
DELETED = ("ComponentState", "make_landscape", "component_value",
           "update_component", "irregularity_transform", "optimum")


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
    # init_landscape orthonormalizes its whole stack at once; the one-matrix
    # gram_schmidt is only its redraw path for a degenerate source matrix
    calls = {"gram_schmidt": 0, "_orthonormalize": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(dynamics, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(dynamics, name, counted)
    cfg = landscape.ScenarioConfig(dimension=5, num_components=50)
    dynamics.init_landscape(cfg, np.random.default_rng(0))
    assert calls == {"gram_schmidt": 0, "_orthonormalize": 1}


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
