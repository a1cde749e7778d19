"""Experiment runner and grid export: solvers, resolved parameters, CSV text."""

import dataclasses

import numpy as np
import pytest

from gmpbench import harness
from gmpbench import (
    MQSO,
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
    run_session,
)
from test_landscape import violations


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


class TestRunSession:
    def test_budget_spent_while_mqso_builds_its_swarms(self):
        # 30 evaluations run out before mQSO's first swarms are all scored,
        # so ScenarioComplete reaches run_session from the constructor
        scenario = ScenarioConfig(dimension=2, num_components=2, change_frequency=30,
                                  num_environments=1)
        with pytest.raises(ScenarioComplete):
            MQSO(BenchmarkSession(scenario), SolverConfig.for_scenario(scenario),
                 np.random.default_rng(0))
        record, session = run_session(scenario, "mqso")
        assert session.ledger.complete
        assert np.isfinite([record["offline_error"], record["best_before_change_error"]]).all()
        assert len(record["env_final_errors"]) == 1
        assert record["env_final_errors"][0] == record["best_before_change_error"]

    def test_an_unknown_solver_builds_no_session(self, monkeypatch):
        # the name is checked before the landscape is drawn and the ledger filled
        built = []
        monkeypatch.setattr(harness, "BenchmarkSession",
                            lambda scenario: built.append(scenario) or BenchmarkSession(scenario))
        with pytest.raises(ValueError, match="unknown solver 'nope'"):
            run_session(ScenarioConfig(), "nope")
        assert built == []


class TestExperiment:
    def test_solver_params_are_the_resolved_config(self, tmp_path):
        scenario = ScenarioConfig(dimension=2, num_components=4, change_frequency=60,
                                  num_environments=2)
        spec = ExperimentSpec(scenario=scenario, run_count=1, output_dir=tmp_path)
        result = run_experiment(spec)
        resolved = SolverConfig.for_scenario(scenario)
        assert result["solver_params"] == dataclasses.asdict(resolved)
        assert run_experiment(dataclasses.replace(spec, solver="random"))["solver_params"] == {}

    def test_each_run_uses_the_reported_config(self, tmp_path, monkeypatch):
        configs = []

        class Capturing(harness.MQSO):
            def __init__(self, session, config, rng):
                configs.append(config)
                super().__init__(session, config, rng)

        monkeypatch.setattr(harness, "MQSO", Capturing)
        scenario = ScenarioConfig(dimension=3, num_components=5, shift_severity=1.5,
                                  change_frequency=120, num_environments=1)
        result = run_experiment(ExperimentSpec(scenario=scenario, run_count=3,
                                               output_dir=tmp_path))
        assert len(configs) == 3
        assert [dataclasses.asdict(c) for c in configs] == [result["solver_params"]] * 3
        assert result["solver_params"]["cloud_radius"] == 1.5

    @pytest.mark.parametrize("name, message", [
        ("run_count", "run_count must be an integer >= 1"),
        ("master_seed", "master_seed must be a nonnegative integer")])
    @pytest.mark.parametrize("value", [True, 1.0])
    def test_counts_must_be_integers(self, tmp_path, name, value, message):
        assert violations(ExperimentSpec, scenario=ScenarioConfig(), output_dir=tmp_path,
                          **{name: value}) == [message]

    def test_numpy_integer_counts_write_the_same_bytes(self, tmp_path):
        # a uint8 seed of 255 would wrap to 0 on the second run if summed as given
        scenario = ScenarioConfig(dimension=2, num_components=3, change_frequency=40,
                                  num_environments=2)
        for name, run_count, master_seed in (("python", 2, 255),
                                             ("numpy", np.int64(2), np.uint8(255))):
            spec = dict(scenario=scenario, run_count=run_count, master_seed=master_seed,
                        output_dir=tmp_path / name)
            assert not violations(ExperimentSpec, **spec)
            run_experiment(ExperimentSpec(**spec))
        for file in ("results.json", "runs.csv"):
            assert (tmp_path / "numpy" / file).read_bytes() == \
                (tmp_path / "python" / file).read_bytes()
        assert b'"seed": 256' in (tmp_path / "numpy" / "results.json").read_bytes()


class TestLandscapeAt:
    @pytest.mark.parametrize("scenario", [
        ScenarioConfig(change_frequency=37, num_environments=6),
        ScenarioConfig(dimension=20, num_components=50, change_frequency=100, num_environments=5),
        ScenarioConfig(dimension=3, num_components=4, rotation_enabled=False, change_frequency=7,
                       num_environments=9),
    ], ids=["d10-m10", "d20-m50", "d3-m4-unrotated"])
    def test_a_grid_shows_the_landscape_the_session_scores(self, scenario):
        # the session and landscape_at each seed the benchmark stream
        session = BenchmarkSession(scenario)

        def shows(k):
            expected = landscape_at(scenario, k)
            return all(np.array_equal(getattr(session.landscape, name), getattr(expected, name))
                       for name in ("centers", "rotations", "widths", "heights", "angles", "tau",
                                    "eta"))

        assert shows(0)
        rng = np.random.default_rng(0)
        last = scenario.num_environments - 1
        for k in range(scenario.num_environments):
            session.evaluate(rng.uniform(*session.bounds, (scenario.change_frequency,
                                                           scenario.dimension)))
            # a quota's last row moves the session on; after the last quota it stays
            assert shows(min(k + 1, last)), k
        assert session.ledger.complete

    def test_a_numpy_integer_index(self):
        scenario = ScenarioConfig(dimension=3, num_components=4, num_environments=4)
        got, expect = landscape_at(scenario, np.int64(2)), landscape_at(scenario, 2)
        assert type(got.environment_index) is int and got.environment_index == 2
        for name in ("centers", "rotations", "widths", "heights", "angles", "tau", "eta"):
            assert np.array_equal(getattr(got, name), getattr(expect, name)), name


class TestExportGrid:
    @pytest.mark.parametrize("env_index, resolution, name", [
        (True, 5, "environment index"),
        (1.5, 5, "environment index"),
        (1.0, 5, "environment index"),
        (0, 2.5, "resolution"),
        (0, 5.0, "resolution"),
        (0, True, "resolution"),
    ])
    def test_arguments_follow_the_schema_integer_rule(self, tmp_path, env_index, resolution,
                                                      name):
        # a bool or a float is not an integer; it is named, and nothing is written
        scenario = ScenarioConfig(dimension=2, num_components=3, num_environments=3)
        with pytest.raises(ValueError, match=name):
            export_grid(scenario, env_index, resolution, tmp_path / "grid.csv")
        assert not (tmp_path / "grid.csv").exists()
        if name == "environment index":
            with pytest.raises(ValueError, match=name):
                landscape_at(scenario, env_index)

    def test_numpy_integer_arguments_write_the_same_bytes(self, tmp_path):
        scenario = ScenarioConfig(dimension=2, num_components=3, num_environments=3, seed=2)
        python = export_grid(scenario, 2, 21, tmp_path / "python.csv")
        numpy = export_grid(scenario, np.int64(2), np.int64(21), tmp_path / "numpy.csv")
        for got, expect in zip(numpy, python):
            assert got.read_bytes() == expect.read_bytes()

    def test_a_numpy_resolution_is_squared_as_an_int(self, tmp_path):
        # np.int32(65536) ** 2 wraps to 0; the index is out of range, so a
        # wrapped square that passed the cap would fail on the index instead
        scenario = ScenarioConfig(dimension=2, num_components=3, num_environments=3)
        with pytest.raises(ValueError, match="resolution 65536 gives 4294967296 grid points"):
            export_grid(scenario, 99, np.int32(65536), tmp_path / "grid.csv")
        assert not (tmp_path / "grid.csv").exists()

    def test_the_scenario_is_validated_before_its_dimension_is_read(self, tmp_path):
        # "2" is not an integer, so it is named as such, not as a wrong dimension
        with pytest.raises(ValueError, match="dimension must be an integer >= 1"):
            export_grid(ScenarioConfig(dimension="2"), 0, 5, tmp_path / "grid.csv")
        assert not (tmp_path / "grid.csv").exists()

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
