"""Command line interface: run experiments, export grids, validate configs.

Exit codes: 0 success, 1 validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import (
    SOLVERS,
    ExperimentSpec,
    export_grid,
    run_experiment,
    scenario_to_dict,
    validate_config,
)
from .landscape import ScenarioConfig


def _load_scenario(path: str | None) -> ScenarioConfig | None:
    """The scenario of the config file at ``path`` (the defaults when
    ``None``), or ``None`` after printing each config error."""
    if path is None:
        return ScenarioConfig()
    scenario, problems = validate_config(path)
    for p in problems:
        print(f"config error: {p}", file=sys.stderr)
    return None if problems else scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmpbench",
        description="Moving-peaks benchmark suite: experiments, grids, config checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a multi-seed experiment")
    p_run.add_argument("--config", help="scenario JSON (defaults when omitted)")
    p_run.add_argument("--runs", type=int, default=31, help="independent runs (default 31)")
    p_run.add_argument("--seed", type=int, default=0, help="master seed (run i uses seed+i)")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--solver", choices=SOLVERS, default="mqso")

    p_grid = sub.add_parser("grid", help="export a 2-D landscape sample grid as CSV")
    p_grid.add_argument("--config", help="scenario JSON (defaults when omitted)")
    p_grid.add_argument("--env", type=int, default=0, help="environment index (default 0)")
    p_grid.add_argument("--resolution", type=int, default=201,
                        help="grid lines per axis (default 201)")
    p_grid.add_argument("--out", required=True, help="output CSV path")

    p_val = sub.add_parser("validate", help="check a scenario config file")
    p_val.add_argument("--config", required=True, help="scenario JSON")
    return parser


def _cmd_run(args) -> int:
    scenario = _load_scenario(args.config)
    if scenario is None:
        return 1
    spec = ExperimentSpec(scenario=scenario, solver=args.solver,
                          run_count=args.runs, master_seed=args.seed,
                          output_dir=args.out)
    # an invalid spec raises ValueError before any directory is made
    result = run_experiment(spec)
    agg = result["aggregate"]
    print(f"wrote {Path(args.out) / 'results.json'}")
    print(f"offline error:            {agg['offline_error']['mean']:.6g} "
          f"(sem {agg['offline_error']['sem']:.3g}, n={args.runs})")
    print(f"best-before-change error: {agg['best_before_change_error']['mean']:.6g} "
          f"(sem {agg['best_before_change_error']['sem']:.3g}, n={args.runs})")
    return 0


def _cmd_grid(args) -> int:
    scenario = _load_scenario(args.config)
    if scenario is None:
        return 1
    csv_path, meta_path = export_grid(scenario, args.env, args.resolution, args.out)
    print(f"wrote {csv_path} and {meta_path}")
    return 0


def _cmd_validate(args) -> int:
    scenario, problems = validate_config(args.config)
    for p in problems:
        print(f"violation: {p}", file=sys.stderr)
    if not problems:
        print(json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True))
    return 1 if problems else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "grid": _cmd_grid, "validate": _cmd_validate}[args.command]
    try:
        return handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
