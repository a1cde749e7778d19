"""gmpbench performance benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory, and the script exits with code 2 when that is missing.
The workload's timed call is repeated, with fresh inputs derived from
``--seed``, until the next call would end after ``--seconds``. Every call's
output is checked; a call that raises or fails its check counts as failed.

The last line of standard output is the result, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The line before
it is a record of the run (environment, per-call timings and results,
problems found) that is not gated.

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced:
``evals_per_s`` (median over calls), ``setup_s`` (median over fresh
interpreters) and ``peak_rss_mb``. Both times are scaled to reference speed
(see ``machine_slowdown`` and ``setup_seconds``); the record keeps the
wall-clock figures too.
With ``--trace 1`` calls alternate between untraced and traced, and the
metrics are the per-layer figures of the traced calls, in wall-clock
seconds, plus ``trace.overhead_ratio``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
# At reference speed (a 2-core 2.1 GHz Xeon VM in a quiet moment) one pass
# of the reference loop takes REFERENCE_SECONDS, and a fresh interpreter
# running REFERENCE_SETUP_CODE is ready after REFERENCE_SETUP_SECONDS.
REFERENCE_LOOPS = 400_000
REFERENCE_SECONDS = 0.025
REFERENCE_SETUP_SECONDS = 0.15
# Never run while the benchmark was tuned, so a later claim can be checked
# on a seed it was not fitted to.
HELD_OUT_SEED = 7919

# Time from a fresh interpreter until the first evaluation can be made.
SETUP_CODE = """\
import json, sys
import gmpbench
gmpbench.BenchmarkSession(gmpbench.ScenarioConfig(**json.loads(sys.argv[1])))
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""
# The part of set-up that is not gmpbench's: the interpreter and numpy.
REFERENCE_SETUP_CODE = """\
import sys
import numpy
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0))}


def child_seconds(code: str, *args: str) -> float:
    """Seconds from spawning a fresh interpreter on ``code`` until it is ready."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", code, *args]
    start = perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = perf_counter() - start
        child.communicate(timeout=60)
    if child.returncode != 0 or line != "ready\n":
        raise RuntimeError(f"fresh interpreter exited with code {child.returncode}")
    return elapsed


def setup_seconds(scenario, repeats: int) -> tuple[float, list, list]:
    """Set-up time in reference-speed seconds, plus the wall-clock samples.

    How fast a fresh interpreter loads its files swings by up to twice over
    minutes on a shared machine, so each set-up is paired with a reference
    interpreter that imports numpy alone, and the ratio of their medians is
    scaled to REFERENCE_SETUP_SECONDS.
    """
    from gmpbench import scenario_to_dict
    params = json.dumps(scenario_to_dict(scenario))
    child_seconds(SETUP_CODE, params)  # warm-up: brings the files into the page cache
    reference, setup = [], []
    for _ in range(repeats):
        reference.append(child_seconds(REFERENCE_SETUP_CODE))
        setup.append(child_seconds(SETUP_CODE, params))
    ratio = statistics.median(setup) / statistics.median(reference)
    return ratio * REFERENCE_SETUP_SECONDS, setup, reference


def machine_slowdown() -> float:
    """How much slower this machine runs now than at the reference speed.

    The speed of a shared machine drifts by a quarter over minutes, in the
    same way for any code that runs on it. A fixed pure-Python loop, timed
    next to each measurement, gives the factor by which that measurement's
    times are divided.
    """
    times = []
    for _ in range(3):
        start = perf_counter()
        total = 0
        for i in range(REFERENCE_LOOPS):
            total += i * i
        times.append(perf_counter() - start)
    return statistics.median(times) / REFERENCE_SECONDS


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _rate(calls, traced: bool) -> float:
    """Median over completed calls of one kind of evaluations per
    reference-speed second."""
    rates = [c["evals"] / c["seconds"] for c in calls if c["traced"] == traced and "seconds" in c]
    return statistics.median(rates) if rates else 0.0


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """Measure one workload; returns (result, record)."""
    import tracer as tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[name](tiny)
    out_dir = OUT_DIR / name
    tracer = tracing.Tracer()
    calls, problems = [], []
    start = perf_counter()
    cycle = 0.0
    k = 0
    try:
        while k < (2 if trace else 1) or perf_counter() - start + cycle <= seconds:
            cycle_start = perf_counter()
            traced = trace and k % 2 == 1
            entry = {"call": k, "traced": traced}
            try:
                inputs, entry["evals"] = workload.prepare(seed, k, out_dir)
                call = workload.call
                if traced:
                    call = tracer.wrap(workload.root, call, workload.root_hook)
                    before = dict(tracer.phase_evals), tracer.counts["mqso.reinitializations"]
                slowdown = machine_slowdown()
                with tracer.installed() if traced else contextlib.nullcontext():
                    t0 = perf_counter()
                    output = call(inputs)
                    entry["wall_s"] = perf_counter() - t0
                entry["slowdown"] = (slowdown + machine_slowdown()) / 2
                entry["seconds"] = entry["wall_s"] / entry["slowdown"]
                entry["wall_evals_per_s"] = entry["evals"] / entry["wall_s"]
                if traced:
                    entry["phase_evals"] = {str(p): n - before[0].get(p, 0)
                                            for p, n in tracer.phase_evals.items()}
                    entry["reinitializations"] = (tracer.counts["mqso.reinitializations"]
                                                  - before[1])
                call_problems, entry["results"] = workload.check(inputs, output)
            except Exception as exc:  # a failing call is counted, not fatal
                call_problems = [f"{type(exc).__name__}: {exc}"]
            entry["ok"] = not call_problems
            problems += [f"call {k}: {p}" for p in call_problems]
            calls.append(entry)
            cycle = perf_counter() - cycle_start
            k += 1
        rss = peak_rss_mb()
        # after the workload, so that these children stay out of its peak RSS
        if not trace:
            setup_s, wall_setup, reference_setup = setup_seconds(
                dataclasses.replace(workload.scenario, seed=seed * 1000), setup_repeats)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_DIR.rmdir()

    untraced = _rate(calls, traced=False)
    if trace:
        metrics = tracing.layer_metrics(tracer)
        traced_rate = _rate(calls, traced=True)
        metrics["trace.overhead_ratio"] = (1.0 - traced_rate / untraced
                                           if untraced and traced_rate else 0.0)
    else:
        metrics = {"evals_per_s": untraced, "setup_s": setup_s, "peak_rss_mb": rss}
    failed = sum(not c["ok"] for c in calls)
    result = {"correct": failed == 0, "attempted": len(calls), "failed": failed,
              "metrics": metrics}
    record = {"workload": name, "seed": seed, "held_out_seed": seed == HELD_OUT_SEED,
              "environment": environment(), "calls": calls,
              "problems": problems[:50]}
    if not trace:
        record["wall_setup_s"], record["reference_setup_s"] = wall_setup, reference_setup
    return result, record


def with_units(metrics: dict, spec: dict) -> dict:
    """Attach the unit declared in BENCHMARK.json to each metric."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "gmpbench" / "__init__.py").is_file():
        print(f"error: no gmpbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gmpbench
    if Path(gmpbench.__file__).resolve().parent != SRC / "gmpbench":
        print(f"error: gmpbench was imported from {gmpbench.__file__}", file=sys.stderr)
        return 2

    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    result["metrics"] = with_units(result["metrics"], spec)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
