"""The command line end to end: outputs equal the library's, exit codes, and
the scenario schema as the CLI reads it."""

import json

import pytest

from gmpbench import (
    ExperimentSpec,
    ScenarioConfig,
    export_grid,
    run_experiment,
    scenario_from_dict,
    scenario_to_dict,
)
from gmpbench import harness
from gmpbench.cli import main

SMALL = {"dimension": 2, "num_components": 3, "change_frequency": 150, "num_environments": 2}


def write_config(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


class TestRun:
    @pytest.mark.parametrize("solver", ["mqso", "random"])
    def test_writes_the_experiment_result(self, tmp_path, solver):
        config = write_config(tmp_path, SMALL)
        outputs = []
        for name in ("first", "second"):
            out = tmp_path / name
            argv = ["run", "--config", config, "--runs", "2", "--seed", "1",
                    "--solver", solver, "--out", str(out)]
            assert main(argv) == 0
            outputs.append([(out / f).read_bytes() for f in ("results.json", "runs.csv")])
        assert outputs[0] == outputs[1]
        spec = ExperimentSpec(scenario=ScenarioConfig(**SMALL), solver=solver, run_count=2,
                              master_seed=1, output_dir=tmp_path / "library")
        result = run_experiment(spec)
        library = [(tmp_path / "library" / f).read_bytes() for f in ("results.json", "runs.csv")]
        assert outputs[0] == library
        assert json.loads(outputs[0][0]) == json.loads(json.dumps(result))

    def test_unmoving_peaks_run_with_a_zero_cloud(self, tmp_path):
        # shift_severity 0 resolves mQSO's cloud radius to 0
        config = write_config(tmp_path, {"shift_severity": 0, "dimension": 2,
                                         "change_frequency": 200, "num_environments": 1})
        assert main(["validate", "--config", config]) == 0
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--runs", "1", "--out", str(out)]) == 0
        result = json.loads((out / "results.json").read_text())
        assert result["solver_params"]["cloud_radius"] == 0.0
        assert len(result["runs"]) == 1

    def test_exit_codes(self, tmp_path, capsys, monkeypatch):
        good = write_config(tmp_path, SMALL)
        bad = write_config(tmp_path, dict(SMALL, dimension=0), "bad.json")
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file")
        assert main(["run", "--config", good, "--runs", "1", "--out", str(tmp_path / "ok")]) == 0
        assert main(["run", "--config", bad, "--runs", "1", "--out", str(tmp_path / "no")]) == 1
        assert "config error: dimension must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "no").exists()
        # the output directory cannot be made under a regular file, which is
        # found before any run is computed
        sessions = []
        monkeypatch.setattr(harness, "run_session", lambda *a, **k: sessions.append(a))
        assert main(["run", "--config", good, "--runs", "1",
                     "--out", str(blocker / "out")]) == 2
        assert "runtime failure" in capsys.readouterr().err
        assert sessions == []
        assert main(["grid", "--config", bad, "--out", str(tmp_path / "g.csv")]) == 1
        grid = write_config(tmp_path, dict(SMALL, num_components=2), "grid.json")
        assert main(["grid", "--config", grid, "--resolution", "3",
                     "--out", str(blocker / "g.csv")]) == 2

    def test_invalid_run_count_is_rejected_before_any_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--runs", "0", "--out", str(out)]) == 1
        assert "run_count" in capsys.readouterr().err
        assert not out.exists()


class TestGrid:
    def test_writes_the_exported_grid(self, tmp_path):
        config = write_config(tmp_path, dict(SMALL, num_environments=4, seed=3))
        out = tmp_path / "cli" / "grid.csv"
        argv = ["grid", "--config", config, "--env", "3", "--resolution", "21", "--out", str(out)]
        assert main(argv) == 0
        scenario = ScenarioConfig(**dict(SMALL, num_environments=4, seed=3))
        csv_path, meta_path = export_grid(scenario, 3, 21, tmp_path / "library" / "grid.csv")
        assert out.read_bytes() == csv_path.read_bytes()
        assert (tmp_path / "cli" / "grid.csv.meta.json").read_bytes() == meta_path.read_bytes()

    def test_resolution_above_the_array_cap_is_rejected_before_compute(
            self, tmp_path, capsys, monkeypatch):
        config = write_config(tmp_path, SMALL)
        computed = []

        def compute(*args):
            computed.append(args)
            raise RuntimeError("computing the grid")

        monkeypatch.setattr(harness, "landscape_at", compute)
        out = tmp_path / "g.csv"
        assert main(["grid", "--config", config, "--resolution", "8193", "--out", str(out)]) == 1
        assert "resolution 8193" in capsys.readouterr().err
        assert computed == []
        assert not out.exists()
        # 8192**2 is the cap itself: the check passes and compute starts
        assert main(["grid", "--config", config, "--resolution", "8192", "--out", str(out)]) == 2
        assert "computing the grid" in capsys.readouterr().err
        assert len(computed) == 1


class TestValidate:
    def test_prints_the_full_config(self, tmp_path, capsys):
        data = {"dimension": 3, "search_range": [-50, 50], "rotation_enabled": False, "seed": 7}
        assert main(["validate", "--config", write_config(tmp_path, data)]) == 0
        expected = scenario_to_dict(ScenarioConfig(dimension=3, search_range=(-50.0, 50.0),
                                                   rotation_enabled=False, seed=7))
        assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("field, text", [
        ("shift_severity", "1" * 401),
        ("search_range", "[-" + "1" * 401 + ", 100]"),
    ], ids=["shift_severity", "search_range"])
    def test_integer_beyond_the_float_range_is_not_finite(self, tmp_path, capsys, field, text):
        config = write_config(tmp_path, '{"%s": %s}' % (field, text))
        assert main(["validate", "--config", config]) == 1
        assert f"violation: {field} must be finite" in capsys.readouterr().err
        assert main(["run", "--config", config, "--runs", "1", "--out", str(tmp_path / "o")]) == 1

    def test_unreadable_configs(self, tmp_path, capsys):
        for text, message in [("[1, 2]", "config root must be a JSON object"),
                              ("{", "malformed JSON")]:
            assert main(["validate", "--config", write_config(tmp_path, text)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err
        assert main(["validate", "--config", str(tmp_path / "missing.json")]) == 1
        assert "cannot read config file" in capsys.readouterr().err


class TestSchema:
    def test_each_kind_is_checked_in_one_pass(self):
        cfg, problems = scenario_from_dict({
            "dimension": 2.0, "bogus": 1, "rotation_enabled": 1, "shift_severity": True,
            "search_range": [1], "height_range": [30, "70"], "seed": 4})
        assert problems == ["dimension must be an integer", "unknown key 'bogus'",
                            "rotation_enabled must be a boolean", "shift_severity must be a number",
                            "search_range must be a two-element numeric array",
                            "height_range must be a two-element numeric array"]
        # the malformed keys keep their defaults
        assert cfg == ScenarioConfig(seed=4)

    @pytest.mark.parametrize("name", ["dimension", "num_components", "change_frequency",
                                      "num_environments", "seed"])
    def test_a_boolean_is_not_an_integer(self, name):
        # a config that validates is written as results.json's scenario, which
        # must parse back; a bool is written as true and parsed as no integer
        cfg = ScenarioConfig(**dict(SMALL, **{name: True}))
        least = 0 if name == "seed" else 1
        assert cfg.violations() == [f"{name} must be an integer >= {least}"]
        assert f"{name} must be an integer" in scenario_from_dict(scenario_to_dict(cfg))[1]

    def test_round_trip(self):
        cfg = ScenarioConfig(dimension=3, shift_severity=2, width_range=(2, 5),
                             rotation_enabled=False, seed=9)
        assert scenario_from_dict(scenario_to_dict(cfg)) == (cfg, [])
        assert scenario_from_dict(json.loads(json.dumps(scenario_to_dict(cfg)))) == (cfg, [])
