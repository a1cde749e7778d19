"""Experiment runner and grid export: solvers, resolved parameters, CSV text."""

import dataclasses

import numpy as np
import pytest

from gmpbench import harness
from gmpbench import (
    BenchmarkSession,
    ExperimentSpec,
    RandomSearch,
    ScenarioComplete,
    ScenarioConfig,
    SolverConfig,
    evaluate_batch,
    evaluate_raw,
    export_grid,
    landscape_at,
    run_experiment,
)


def writelines_grid(path, axis, values):
    """The grid CSV written one f-string per point through ``writelines``,
    as export_grid wrote it before it joined each grid line: the byte
    oracle of its writer."""
    labels = [repr(v) for v in axis.tolist()]
    with open(path, "w") as fh:
        fh.write("x1,x2,f\n")
        for a, line in zip(labels, values):
            fh.writelines(f"{a},{b},{v!r}\n" for b, v in zip(labels, line.tolist()))


class TestRandomSearch:
    @pytest.mark.parametrize("change_frequency, environments", [(7, 5), (16, 2), (100, 3)])
    def test_blocks_match_one_point_at_a_time(self, change_frequency, environments):
        config = ScenarioConfig(dimension=3, num_components=4, change_frequency=change_frequency,
                                num_environments=environments, seed=2)
        oracle = BenchmarkSession(config)
        rng = np.random.default_rng(5)
        with pytest.raises(ScenarioComplete):
            while True:
                oracle.evaluate(rng.uniform(*oracle.bounds, 3))
        session = BenchmarkSession(config)
        RandomSearch(session, np.random.default_rng(5)).run()
        assert session.ledger.complete
        for name in ("values", "errors", "optima", "env_final_errors"):
            np.testing.assert_array_equal(getattr(session.ledger, name),
                                          getattr(oracle.ledger, name))


class TestExperiment:
    def test_solver_params_are_the_resolved_config(self):
        scenario = ScenarioConfig(dimension=2, num_components=4, change_frequency=60,
                                  num_environments=2)
        spec = ExperimentSpec(scenario=scenario, solver_config=SolverConfig(num_swarms=2),
                              run_count=1)
        result = run_experiment(spec)
        resolved = SolverConfig.for_scenario(scenario, num_swarms=2)
        assert result["solver_params"] == dataclasses.asdict(resolved)
        assert run_experiment(dataclasses.replace(spec, solver="random"))["solver_params"] == {}

    def test_solver_config_is_resolved_once(self, monkeypatch):
        calls = []

        def resolve(*args):
            calls.append(args)
            return original(*args)

        original = harness._resolved_solver_config
        monkeypatch.setattr(harness, "_resolved_solver_config", resolve)
        scenario = ScenarioConfig(dimension=2, num_components=2, change_frequency=120,
                                  num_environments=1)
        result = run_experiment(ExperimentSpec(scenario=scenario, run_count=3))
        assert len(calls) == 1
        assert len(result["runs"]) == 3


    @pytest.mark.parametrize("name, message", [
        ("run_count", "run_count must be an integer >= 1"),
        ("master_seed", "master_seed must be a nonnegative integer")])
    @pytest.mark.parametrize("value", [True, 1.0])
    def test_counts_must_be_integers(self, name, value, message):
        spec = ExperimentSpec(scenario=ScenarioConfig(), **{name: value})
        assert spec.violations() == [message]


class TestExportGrid:
    def test_csv_rows_are_grid_points_and_their_exact_values(self, tmp_path):
        scenario = ScenarioConfig(dimension=2, num_components=5, num_environments=3, seed=4)
        csv_path, _ = export_grid(scenario, 2, 7, tmp_path / "grid.csv")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "x1,x2,f"
        axis = np.linspace(-100.0, 100.0, 7)
        land = landscape_at(scenario, 2)
        expected = [f"{a!r},{b!r},{evaluate_raw(np.array([a, b]), land)!r}"
                    for a in axis.tolist() for b in axis.tolist()]
        assert lines[1:] == expected

    def test_csv_bytes_equal_the_per_point_writer(self, tmp_path):
        scenario = ScenarioConfig(dimension=2, num_components=6, num_environments=4, seed=9,
                                  search_range=(-3.5, 120.25))
        csv_path, _ = export_grid(scenario, 3, 37, tmp_path / "grid.csv")
        axis = np.linspace(-3.5, 120.25, 37)
        g1, g2 = np.meshgrid(axis, axis, indexing="ij")
        values = evaluate_batch(np.column_stack([g1.ravel(), g2.ravel()]),
                                landscape_at(scenario, 3)).reshape(37, 37)
        writelines_grid(tmp_path / "oracle.csv", axis, values)
        assert csv_path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()
