"""The command line end to end: outputs equal the library's, exit codes, and
the scenario schema as the CLI reads it."""

import json
import math

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
from gmpbench.landscape import FIELD_TYPES
from test_landscape import violations

SMALL = {"dimension": 2, "num_components": 3, "change_frequency": 150, "num_environments": 2}

# one of each kind of JSON value: null, the booleans, integers (two beyond the
# float range), floats (NaN and the infinities among them), strings, arrays
# of 0 to 3 items, mixed ones among them, and objects
JSON_VALUES = [None, True, False, 0, 1, 7, -3, 10 ** 400, -10 ** 400, 0.0, 0.5, 2.5, -1.5, 1e308,
               math.nan, math.inf, -math.inf, "", "1", [], [1], [-1.5, 2], [0, 10 ** 400],
               [1, "2"], [1, 2, 3], {}, {"a": 1}]


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
        err = capsys.readouterr().err
        # main's one ValueError handler words every rejected request
        assert err.startswith("error: ")
        assert "resolution 8193" in err
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

    @pytest.mark.parametrize("field, text, message", [
        ("shift_severity", "1" * 401, "shift_severity must be finite"),
        ("search_range", "[-" + "1" * 401 + ", 100]", "search_range bounds must be finite"),
    ], ids=["shift_severity", "search_range"])
    def test_integer_beyond_the_float_range_is_not_finite(self, tmp_path, capsys, field, text,
                                                         message):
        # the JSON path names the value as ScenarioConfig does
        value = json.loads(text)
        assert scenario_from_dict({field: value})[1] == [message]
        assert violations(ScenarioConfig, **{field: value}) == [message]
        config = write_config(tmp_path, '{"%s": %s}' % (field, text))
        assert main(["validate", "--config", config]) == 1
        assert f"violation: {message}" in capsys.readouterr().err
        assert main(["run", "--config", config, "--runs", "1", "--out", str(tmp_path / "o")]) == 1

    def test_an_invalid_config_prints_only_its_violations(self, tmp_path, capsys):
        # an invalid file gives no config, so nothing is printed
        config = write_config(tmp_path, {"search_range": 5, "dimension": 0})
        assert main(["validate", "--config", config]) == 1
        assert capsys.readouterr() == ("", "violation: dimension must be an integer >= 1\n"
                                           "violation: search_range must be a two-element "
                                           "numeric array\n")

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
        data = {"dimension": 2.0, "bogus": 1, "rotation_enabled": 1, "shift_severity": True,
                "search_range": [1], "height_range": [30, "70"], "seed": 4}
        known = {key: value for key, value in data.items() if key != "bogus"}
        cfg, problems = scenario_from_dict(data)
        # the unknown keys, then the violations in field order
        assert problems == ["unknown key 'bogus'"] + violations(ScenarioConfig, **known)
        assert problems == ["unknown key 'bogus'", "dimension must be an integer >= 1",
                            "shift_severity must be a number",
                            "search_range must be a two-element numeric array",
                            "height_range must be a two-element numeric array",
                            "rotation_enabled must be a boolean"]
        # no config is built from them, as none is from Python
        assert cfg is None

    @pytest.mark.parametrize("name", ["dimension", "num_components", "change_frequency",
                                      "num_environments", "seed"])
    def test_a_boolean_is_not_an_integer(self, name):
        # a config is written as results.json's scenario, which must parse
        # back; a bool would be written as true and parsed as no integer
        data = dict(SMALL, **{name: True})
        least = 0 if name == "seed" else 1
        assert violations(ScenarioConfig, **data) == [f"{name} must be an integer >= {least}"]
        problems = scenario_from_dict(json.loads(json.dumps(data)))[1]
        assert f"{name} must be an integer >= {least}" in problems
        assert problems == violations(ScenarioConfig, **data)

    @pytest.mark.parametrize("name", FIELD_TYPES)
    def test_every_json_value_is_named_or_round_trips(self, name):
        for value in JSON_VALUES:
            cfg, problems = scenario_from_dict({name: value})
            assert problems == violations(ScenarioConfig, **{name: value}), value
            assert (cfg is None) == bool(problems), value
            if not problems:
                data = json.loads(json.dumps(scenario_to_dict(cfg)))
                assert scenario_from_dict(data) == (cfg, []), value

    def test_equal_scenarios_write_equal_bytes(self, tmp_path):
        # an integer severity or range is the same scenario from Python and
        # from JSON, and is written as the same float
        data = dict(SMALL, shift_severity=1, height_severity=7, search_range=[-50, 50])
        from_json, problems = scenario_from_dict(data)
        assert problems == []
        written = []
        for name, scenario in (("python", ScenarioConfig(**data)), ("json", from_json)):
            run_experiment(ExperimentSpec(scenario=scenario, run_count=1,
                                          output_dir=tmp_path / name))
            written.append((tmp_path / name / "results.json").read_bytes())
        assert written[0] == written[1]

    def test_round_trip(self):
        cfg = ScenarioConfig(dimension=3, shift_severity=2, width_range=(2, 5),
                             rotation_enabled=False, seed=9)
        assert scenario_from_dict(scenario_to_dict(cfg)) == (cfg, [])
        assert scenario_from_dict(json.loads(json.dumps(scenario_to_dict(cfg)))) == (cfg, [])
