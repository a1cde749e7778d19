"""Experiment runner, config validation, and landscape grid export.

Scenario configs are JSON objects whose keys are exactly the
``ScenarioConfig`` field names (ranges as two-element arrays). The parser
only routes keys, rejecting unknown ones to catch typos; ``ScenarioConfig``
converts and names the values. Experiments run ``run_count`` independent
sessions with per-run seeds ``master_seed + i`` and write one JSON result
document plus a per-run CSV to ``output_dir``. All outputs are pure
functions of their inputs (no timestamps), so identical invocations produce
identical bytes.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import advance_environment, init_landscape
from .landscape import FIELD_TYPES, MAX_ARRAY_ELEMENTS, ScenarioConfig, _is_integer, evaluate_batch
from .mqso import MQSO, SolverConfig
from .protocol import BenchmarkSession, ScenarioComplete

__all__ = [
    "ExperimentSpec",
    "RandomSearch",
    "SOLVERS",
    "run_session",
    "run_experiment",
    "write_result",
    "export_grid",
    "landscape_at",
    "scenario_to_dict",
    "scenario_from_dict",
    "validate_config",
]

SOLVERS = ("mqso", "random")

_RANDOM_BLOCK_ROWS = 16


class RandomSearch:
    """Uniform random sampling of the search box, one point per evaluation.

    Points are drawn and sent in blocks of ``_RANDOM_BLOCK_ROWS``, which
    draws the same stream as one point at a time. A call with neither stop
    rule (``above``, ``differs_from``) consumes every row, so each block is
    fresh.
    """

    def __init__(self, session: BenchmarkSession, rng: np.random.Generator):
        self.session = session
        self.rng = rng

    def run(self):
        lb, ub = self.session.bounds
        shape = (_RANDOM_BLOCK_ROWS, self.session.dimension)
        try:
            while True:
                self.session.evaluate(self.rng.uniform(lb, ub, shape))
        except ScenarioComplete:
            return


@dataclass(frozen=True)
class ExperimentSpec:
    """A multi-run experiment: scenario, solver choice, seeds, output.

    The mQSO runs use ``SolverConfig.for_scenario(scenario)``, which the
    result reports as ``solver_params``.
    """

    scenario: ScenarioConfig
    solver: str = "mqso"
    run_count: int = 31
    master_seed: int = 0
    output_dir: str | Path = field(kw_only=True)

    def violations(self) -> list[str]:
        bad = list(self.scenario.violations())
        if self.solver not in SOLVERS:
            bad.append(f"solver must be one of {SOLVERS}")
        if not _is_integer(self.run_count) or self.run_count < 1:
            bad.append("run_count must be an integer >= 1")
        if not _is_integer(self.master_seed) or self.master_seed < 0:
            bad.append("master_seed must be a nonnegative integer")
        return bad


def _solver_rng(seed: int) -> np.random.Generator:
    # independent of the benchmark stream, which is seeded by the bare seed
    return np.random.default_rng([seed, 1])


def run_session(scenario: ScenarioConfig, solver: str = "mqso",
                seed: int | None = None) -> tuple[dict, BenchmarkSession]:
    """Drive one full session and return (run record, session).

    ``seed`` overrides the scenario seed; the solver draws from a separate
    stream derived from the same seed. mQSO runs with
    ``SolverConfig.for_scenario(scenario)``; its radii do not depend on the
    seed.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
    if seed is not None:
        scenario = dataclasses.replace(scenario, seed=seed)
    session = BenchmarkSession(scenario)
    rng = _solver_rng(scenario.seed)
    try:
        if solver == "mqso":
            MQSO(session, SolverConfig.for_scenario(scenario), rng).run()
        else:
            RandomSearch(session, rng).run()
    except ScenarioComplete:
        pass  # budget spent during solver setup; the ledger is complete
    e_o, e_bbc = session.indicators()
    record = {
        "seed": scenario.seed,
        "offline_error": e_o,
        "best_before_change_error": e_bbc,
        "env_final_errors": session.ledger.env_final_errors.tolist(),
    }
    return record, session


def _mean_sem(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=float)
    sem = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return {"mean": float(arr.mean()), "sem": sem}


def run_experiment(spec: ExperimentSpec) -> dict:
    """Run all sessions of an experiment; writes the result record to
    ``spec.output_dir`` and returns it. Its ``solver_params`` is the mQSO
    config every run used, and empty for random search."""
    bad = spec.violations()
    if bad:
        raise ValueError("invalid experiment spec: " + "; ".join(bad))
    # an unwritable output path fails here, before any run's compute
    Path(spec.output_dir).mkdir(parents=True, exist_ok=True)
    runs = []
    for i in range(spec.run_count):
        seed_i = int(spec.master_seed) + i  # a numpy integer's sum could wrap
        try:
            record, _ = run_session(spec.scenario, spec.solver, seed=seed_i)
        except Exception as exc:
            raise RuntimeError(f"run {i} (seed {seed_i}) failed: {exc}") from exc
        record["run_index"] = i
        runs.append(record)
    result = {
        "artifact_version": __version__,
        "scenario": scenario_to_dict(spec.scenario),
        "solver": spec.solver,
        "solver_params": (dataclasses.asdict(SolverConfig.for_scenario(spec.scenario))
                          if spec.solver == "mqso" else {}),
        "master_seed": int(spec.master_seed),
        "run_count": int(spec.run_count),
        "runs": runs,
        "aggregate": {
            "offline_error": _mean_sem([r["offline_error"] for r in runs]),
            "best_before_change_error": _mean_sem(
                [r["best_before_change_error"] for r in runs]),
        },
    }
    write_result(result, spec.output_dir)
    return result


def write_result(result: dict, output_dir: str | Path) -> None:
    """Write results.json plus a per-run indicator CSV."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "results.json", "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "runs.csv", "w") as fh:
        fh.write("run_index,seed,offline_error,best_before_change_error\n")
        for r in result["runs"]:
            fh.write(f"{r['run_index']},{r['seed']},"
                     f"{r['offline_error']!r},{r['best_before_change_error']!r}\n")


# -- landscape grids ---------------------------------------------------------

def landscape_at(scenario: ScenarioConfig, env_index: int):
    """Fresh landscape advanced to the given environment index, an integer
    by the schema's rule (a ``bool`` is not one)."""
    scenario.validate()
    if not _is_integer(env_index):
        raise ValueError(f"environment index must be an integer, got {env_index!r}")
    if not 0 <= env_index < scenario.num_environments:
        raise ValueError(f"environment index {env_index} outside 0..{scenario.num_environments - 1}")
    rng = np.random.default_rng(scenario.seed)
    landscape = init_landscape(scenario, rng)
    for _ in range(env_index):
        landscape = advance_environment(landscape, scenario, rng)
    return landscape


def export_grid(scenario: ScenarioConfig, env_index: int, resolution: int,
                out_path: str | Path) -> tuple[Path, Path]:
    """Sample the objective on a uniform 2-D grid and write it as CSV.

    Rows are ``x1,x2,f`` with ``x2`` varying fastest; grid lines include both
    domain edges. Component metadata (centers, heights, widths, angle, tau,
    eta, rotation flag) goes to ``<out>.meta.json``. Identical inputs produce
    identical bytes. ``env_index`` and ``resolution`` are integers by the
    schema's rule. A grid of more than ``MAX_ARRAY_ELEMENTS`` points is
    rejected before any compute.
    """
    if scenario.validate().dimension != 2:
        raise ValueError(f"grid export requires a 2-d scenario, got dimension {scenario.dimension}")
    if not _is_integer(resolution) or resolution < 2:
        raise ValueError(f"resolution must be an integer >= 2, got {resolution!r}")
    resolution = int(resolution)  # a numpy integer's square could wrap past the cap
    if resolution ** 2 > MAX_ARRAY_ELEMENTS:
        raise ValueError(f"resolution {resolution} gives {resolution ** 2} grid points, "
                         f"above the {MAX_ARRAY_ELEMENTS} a grid may hold")
    landscape = landscape_at(scenario, env_index)
    lb, ub = scenario.search_range
    axis = np.linspace(lb, ub, resolution)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    chunk_rows = max(1, 200_000 // resolution)
    # each axis value is formatted once; a grid line is joined into one
    # string and written at a time
    labels = [repr(v) for v in axis.tolist()]
    with open(out_path, "w") as fh:
        fh.write("x1,x2,f\n")
        for start in range(0, resolution, chunk_rows):
            x1 = axis[start:start + chunk_rows]
            g1, g2 = np.meshgrid(x1, axis, indexing="ij")
            points = np.column_stack([g1.ravel(), g2.ravel()])
            values = evaluate_batch(points, landscape).reshape(len(x1), resolution)
            for a, line in zip(labels[start:start + chunk_rows], values):
                fh.write("".join([f"{a},{b},{v!r}\n" for b, v in zip(labels, line.tolist())]))
    meta = {
        "environment_index": landscape.environment_index,
        "resolution": resolution,
        "bounds": [lb, ub],
        "rotation_enabled": scenario.rotation_enabled,
        "components": [
            {
                "center": landscape.centers[k].tolist(),
                "height": float(landscape.heights[k]),
                "widths": landscape.widths[k].tolist(),
                "angle": float(landscape.angles[k]),
                "tau": float(landscape.tau[k]),
                "eta": landscape.eta[k].tolist(),
                "rotated": bool(scenario.rotation_enabled),
            }
            for k in range(landscape.num_components)
        ],
        "optimum_value": landscape.optimum_value,
        "optimum_position": landscape.optimum_position.tolist(),
    }
    meta_path = out_path.with_name(out_path.name + ".meta.json")
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out_path, meta_path


# -- config files ------------------------------------------------------------

def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """JSON-ready dict with ranges as two-element lists."""
    data = dataclasses.asdict(cfg)
    for name, kind in FIELD_TYPES.items():
        if kind is tuple:
            data[name] = list(data[name])
    return data


def scenario_from_dict(data: dict) -> tuple[ScenarioConfig, list[str]]:
    """Build a config from a JSON object, filling defaults for omitted keys.

    The parser only routes keys: each key must name a ``ScenarioConfig``
    field (the schema is :data:`~gmpbench.landscape.FIELD_TYPES`), and the
    known keys' values go to ``ScenarioConfig`` as given, which converts and
    names them as it does Python input. Returns that config, holding the
    file's values, plus every problem found: the unknown keys, then
    :meth:`~gmpbench.landscape.ScenarioConfig.violations`. The config is
    valid exactly when the problems are empty.
    """
    problems = [f"unknown key {key!r}" for key in data if key not in FIELD_TYPES]
    cfg = ScenarioConfig(**{key: value for key, value in data.items() if key in FIELD_TYPES})
    return cfg, problems + cfg.violations()


def validate_config(path: str | Path) -> tuple[ScenarioConfig | None, list[str]]:
    """Read and parse a config file; returns (config, problems).

    The file must hold one JSON object, parsed by :func:`scenario_from_dict`.
    The config is ``None`` when the file cannot be read or is not a JSON
    object; otherwise it holds the file's values with defaults filled in.
    It is valid exactly when the problems are empty, and then
    :func:`scenario_to_dict` of it parses back to the same config.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        return None, [f"cannot read config file: {exc}"]
    except json.JSONDecodeError as exc:
        return None, [f"malformed JSON: {exc}"]
    if not isinstance(data, dict):
        return None, ["config root must be a JSON object"]
    return scenario_from_dict(data)
