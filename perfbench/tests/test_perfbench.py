"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gmpbench  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def tiny_run(name, trace=False, seconds=0.3):
    return run.run(name, seed=0, seconds=seconds, trace=trace, tiny=True, setup_repeats=1)


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_emits_exactly_the_end_to_end_metrics(name):
    result, record = tiny_run(name)
    assert record["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_emits_exactly_the_per_layer_metrics(name):
    result, record = tiny_run(name, trace=True)
    assert record["problems"] == []
    assert result["correct"] and result["attempted"] >= 2
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert math.isclose(tracer.attributed_sum(metrics), metrics["trace.wall_s"], rel_tol=1e-9)


def test_layers_show_up_where_they_are_called():
    mqso, _ = tiny_run("mqso-default", trace=True)
    grid, _ = tiny_run("grid-export", trace=True)
    m, g = mqso["metrics"], grid["metrics"]
    # the call that finds the budget spent raises before evaluating
    assert 0 < m["landscape.evaluate_raw.calls"] <= m["protocol.session_evaluate.calls"]
    assert m["landscape.evaluate_batch.points"] == 0
    assert sum(m[f"{p}.evals"] for p in tracer.MQSO_PHASES) < m["landscape.evaluate_raw.calls"]
    assert 0 < m["mqso.useful_eval_share"] < 1
    assert m["harness.write_result.s"] > 0
    assert g["landscape.evaluate_raw.calls"] == 0
    assert g["landscape.evaluate_batch.points"] % (21 * 21) == 0
    assert g["harness.export_grid.bytes_written"] > 0


def test_tracer_self_time_excludes_children():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda: sum(range(20000)))
    outer = t.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    assert t.calls("inner") == 3 and t.calls("outer") == 1
    assert math.isclose(t.self_s("outer") + t.total_s("inner"), t.total_s("outer"))
    assert math.isclose(t.wall_s, t.total_s("outer"))


def test_tracer_restores_the_patched_functions():
    original = gmpbench.protocol.evaluate_raw
    with tracer.Tracer().installed():
        assert gmpbench.protocol.evaluate_raw is not original
    assert gmpbench.protocol.evaluate_raw is original


@pytest.mark.parametrize("name", ["mqso-default", "random-large-churn"])
def test_scores_above_the_optimum_count_as_failed(name, monkeypatch):
    monkeypatch.setattr(gmpbench.protocol, "evaluate_raw",
                        lambda x, land: land.optimum_value + 1.0)
    result, record = tiny_run(name)
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert not result["correct"]
    assert "negative" in record["problems"][0]


def test_grid_values_above_the_optimum_count_as_failed(monkeypatch):
    real = gmpbench.harness.evaluate_batch
    monkeypatch.setattr(gmpbench.harness, "evaluate_batch",
                        lambda points, land: real(points, land) + 1000.0)
    result, record = tiny_run("grid-export")
    assert result["failed"] == result["attempted"] >= 1
    assert any("exceeds the optimum" in p for p in record["problems"])


def test_a_raising_call_counts_as_failed(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")
    monkeypatch.setattr(gmpbench.protocol, "advance_environment", boom)
    result, record = tiny_run("random-large-churn")
    assert result["failed"] == result["attempted"] >= 1
    assert "boom" in record["problems"][0]


def test_runs_out_of_reach_are_replayed_for_the_check(tmp_path):
    # as when run_experiment fans its runs out to other processes
    workload = workloads.MqsoDefault(tiny=True)
    spec, _ = workload.prepare(0, 0, tmp_path)
    result = gmpbench.run_experiment(spec)
    assert workload.sessions == {}
    assert workload.check(spec, result)[0] == []
    result["runs"][1]["offline_error"] += 1e-6
    problems, _ = workload.check(spec, result)
    assert any("offline_error" in p and "recomputed" in p for p in problems)


def test_same_seed_gives_same_results():
    _, first = tiny_run("random-large-churn")
    _, second = tiny_run("random-large-churn")
    assert first["calls"][0]["results"] == second["calls"][0]["results"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", NAMES[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
