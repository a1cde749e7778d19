"""The benchmark's workloads and the checks on their outputs.

Each workload is one closed loop with one client: a single solver (or the
grid exporter) waits for each evaluation before it asks for the next, all in
this process. A workload's timed call goes through gmpbench's public API
only; its inputs are a pure function of the benchmark seed and the call
index, so the same seed gives the same sequence of inputs.

``check`` returns a list of problems (empty when the output is correct) plus
the results recorded for the call: offline error and best-before-change
error per program seed, so a change that alters results shows in the output.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np

import gmpbench
from gmpbench import harness

import tracer as tracing

RTOL = 1e-9
GRID_SAMPLE = 64
CSV_CHUNK_ROWS = 50_000


def check_ledger(session, record) -> list[str]:
    """Audit one finished session against the record ``run_session`` made.

    The indicators are recomputed from the raw ``values`` and ``optima`` by
    an independent cumulative-max pass, not read back from the ledger.
    """
    ledger = session.ledger
    cfg = session.config
    seed = record["seed"]
    if ledger.total != cfg.budget:
        return [f"seed {seed}: ledger holds {ledger.total} of {cfg.budget} evaluations"]
    errors = ledger.errors
    if not np.all(np.isfinite(errors)) or np.any(errors < 0):
        return [f"seed {seed}: an error is negative or not finite"]
    shape = (cfg.num_environments, cfg.change_frequency)
    if np.any(np.diff(errors.reshape(shape), axis=1) > 0):
        return [f"seed {seed}: an error increased within an environment"]
    best = np.maximum.accumulate(ledger.values.reshape(shape), axis=1)
    recomputed = ledger.optima.reshape(shape) - best
    problems = []
    for name, value in (("offline_error", recomputed.mean()),
                        ("best_before_change_error", recomputed[:, -1].mean())):
        if not math.isclose(record[name], value, rel_tol=RTOL, abs_tol=0.0):
            problems.append(f"seed {seed}: {name} {record[name]!r} != recomputed {value!r}")
    return problems


def _indicators(record) -> dict:
    return {"offline_error": record["offline_error"],
            "best_before_change_error": record["best_before_change_error"]}


class MqsoDefault:
    """mQSO on the default scenario through ``run_experiment``."""

    name = "mqso-default"
    root = "harness.run_experiment"
    root_hook = None

    def __init__(self, tiny: bool = False):
        # The paper's scenario (d=10, m=10, 5000 evaluations per environment)
        # cut to two environments, so one change is detected and reacted to.
        self.scenario = (gmpbench.ScenarioConfig(change_frequency=200, num_environments=2)
                         if tiny else gmpbench.ScenarioConfig(num_environments=2))
        self.run_count = 2
        self.sessions = {}  # seed -> session of the last call, when it ran in reach

    def prepare(self, seed, k, out_dir):
        spec = gmpbench.ExperimentSpec(scenario=self.scenario, solver="mqso",
                                       run_count=self.run_count,
                                       master_seed=seed * 1000 + k * self.run_count,
                                       output_dir=out_dir)
        return spec, spec.run_count * self.scenario.budget

    @contextlib.contextmanager
    def capturing(self):
        """Keep the session of every run so its ledger can be audited.

        Runs that happen out of reach (another process) are replayed by
        ``check`` instead.
        """
        self.sessions = {}
        original = harness.run_session

        def capture(*args, **kwargs):
            record, session = original(*args, **kwargs)
            self.sessions[record["seed"]] = session
            return record, session

        with tracing.patched(harness, "run_session", capture):
            yield

    def call(self, spec):
        with self.capturing():
            return gmpbench.run_experiment(spec)

    def check(self, spec, result):
        problems = []
        seeds = [spec.master_seed + i for i in range(spec.run_count)]
        if [r["seed"] for r in result["runs"]] != seeds:
            problems.append(f"runs carry seeds {[r['seed'] for r in result['runs']]}, expected {seeds}")
        out = Path(spec.output_dir)
        with open(out / "results.json") as fh:
            if json.load(fh) != json.loads(json.dumps(result)):
                problems.append("results.json differs from the returned result")
        with open(out / "runs.csv") as fh:
            rows = fh.read().splitlines()
        if len(rows) != spec.run_count + 1:
            problems.append(f"runs.csv has {len(rows) - 1} rows, expected {spec.run_count}")
        results = {}
        for record in result["runs"]:
            session = self.sessions.get(record["seed"])
            if session is None:
                _, session = gmpbench.run_session(spec.scenario, spec.solver, seed=record["seed"])
            problems += check_ledger(session, record)
            results[record["seed"]] = _indicators(record)
        self.sessions = {}
        return problems, results


class RandomLargeChurn:
    """Random search on a large scenario that changes every 100 evaluations."""

    name = "random-large-churn"
    root = "harness.run_session"
    root_hook = None

    def __init__(self, tiny: bool = False):
        self.scenario = (gmpbench.ScenarioConfig(dimension=5, num_components=5,
                                                 change_frequency=20, num_environments=3)
                         if tiny else
                         gmpbench.ScenarioConfig(dimension=20, num_components=50,
                                                 change_frequency=100, num_environments=10))

    def prepare(self, seed, k, out_dir):
        return seed * 1000 + k, self.scenario.budget

    def call(self, session_seed):
        return gmpbench.run_session(self.scenario, "random", seed=session_seed)

    def check(self, session_seed, output):
        record, session = output
        problems = check_ledger(session, record)
        if record["seed"] != session_seed:
            problems.append(f"record carries seed {record['seed']}, expected {session_seed}")
        return problems, {session_seed: _indicators(record)}


def _count_bytes(tracer, args, result):
    tracer.counts["harness.export_grid.bytes_written"] += sum(
        Path(p).stat().st_size for p in result)


class GridExport:
    """``export_grid`` of a 2-d scenario at a later environment."""

    name = "grid-export"
    root = "harness.export_grid"
    root_hook = staticmethod(_count_bytes)

    def __init__(self, tiny: bool = False):
        self.scenario = gmpbench.ScenarioConfig(dimension=2, num_components=10,
                                                num_environments=10)
        self.env_index = 5
        self.resolution = 21 if tiny else 601

    def prepare(self, seed, k, out_dir):
        scenario = dataclasses.replace(self.scenario, seed=seed * 1000 + k)
        return (scenario, Path(out_dir) / "grid.csv"), self.resolution ** 2

    def call(self, inputs):
        scenario, path = inputs
        return gmpbench.export_grid(scenario, self.env_index, self.resolution, path)

    def check(self, inputs, output):
        scenario, _ = inputs
        csv_path, meta_path = output
        with open(meta_path) as fh:
            meta = json.load(fh)
        optimum_value = meta["optimum_value"]
        rng = np.random.default_rng(scenario.seed)
        wanted = set(rng.choice(self.resolution ** 2, GRID_SAMPLE, replace=False).tolist())
        sample = []
        rows = 0
        f_max = -math.inf
        with open(csv_path) as fh:
            if fh.readline() != "x1,x2,f\n":
                return ["grid CSV header is not x1,x2,f"], {}
            while lines := list(itertools.islice(fh, CSV_CHUNK_ROWS)):
                chunk = np.loadtxt(lines, delimiter=",", ndmin=2)
                sample += [chunk[i - rows] for i in wanted if rows <= i < rows + len(chunk)]
                f_max = max(f_max, float(chunk[:, 2].max()))
                if not np.all(np.isfinite(chunk[:, 2])):
                    return ["grid CSV holds a non-finite value"], {}
                rows += len(chunk)
        problems = []
        if rows != self.resolution ** 2:
            problems.append(f"grid CSV has {rows} rows, expected {self.resolution ** 2}")
        if f_max > optimum_value:
            problems.append(f"grid value {f_max!r} exceeds the optimum {optimum_value!r}")
        if sample:
            sample = np.array(sample)
            land = gmpbench.landscape_at(scenario, self.env_index)
            batch = gmpbench.evaluate_batch(sample[:, :2], land)
            raw = np.array([gmpbench.evaluate_raw(p, land) for p in sample[:, :2]])
            if not np.allclose(batch, raw, rtol=0.0, atol=1e-9):
                problems.append("evaluate_batch and evaluate_raw disagree on sampled grid points")
            if not np.allclose(sample[:, 2], raw, rtol=0.0, atol=1e-9):
                problems.append("grid CSV values disagree with evaluate_raw on sampled points")
        return problems, {scenario.seed: {"optimum_value": optimum_value, "grid_max": f_max}}


WORKLOADS = {w.name: w for w in (MqsoDefault, RandomLargeChurn, GridExport)}
