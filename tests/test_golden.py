"""Golden indicator values: full runs must reproduce the pinned errors.

The values are those of results version 0.2.0, whose draws take one
generator call per array. Another BLAS kernel or SIMD target moves them by
about 1e-14 relative, so they are compared at rtol 1e-9; a larger difference
means the results changed. The goldens are also rerun in subprocesses under
another BLAS kernel and with numpy's AVX-512 code switched off.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from gmpbench import ScenarioConfig, run_session

RTOL = 1e-9

ROOT = Path(__file__).resolve().parent.parent

# Settings that change the arithmetic without leaving this machine. numpy
# 2.4 names its AVX-512 dispatch targets X86_V4, AVX512_ICL and AVX512_SPR,
# and silently ignores the older feature names (AVX512F, AVX512_SKX, ...).
DISPATCH = {
    "OPENBLAS_CORETYPE": "Haswell",
    "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
}

# prints the bytes of a 64-row kernel block on the default d=10, m=10 scenario
KERNEL_BLOCK = """
import numpy as np
from gmpbench import ScenarioConfig, evaluate_raw, init_landscape
landscape = init_landscape(ScenarioConfig(), np.random.default_rng(0))
points = np.random.default_rng(1).uniform(-100, 100, (64, 10))
print(evaluate_raw(points, landscape).tobytes().hex())
"""

# the default d=10, m=10 scenario cut to two environments
MQSO_SCENARIO = ScenarioConfig(num_environments=2)
MQSO_GOLDEN = {
    1: (70.71048245204967, 39.893506815109376),
    2: (105.75093047659446, 82.70951765185826),
    3: (109.00621759662404, 80.33806424244999),
}

RANDOM_SCENARIO = ScenarioConfig(dimension=20, num_components=50,
                                 change_frequency=100, num_environments=10)
RANDOM_GOLDEN = {
    1: (414.92480879923545, 365.0404630499573),
    2: (404.2063815585233, 382.50183258297),
}


@pytest.mark.parametrize("solver, scenario, seed, expected", [
    *[("mqso", MQSO_SCENARIO, s, v) for s, v in MQSO_GOLDEN.items()],
    *[("random", RANDOM_SCENARIO, s, v) for s, v in RANDOM_GOLDEN.items()],
])
def test_indicators_match_golden(solver, scenario, seed, expected):
    record, _ = run_session(scenario, solver, seed=seed)
    assert record["offline_error"] == pytest.approx(expected[0], rel=RTOL, abs=0.0)
    assert record["best_before_change_error"] == pytest.approx(expected[1], rel=RTOL, abs=0.0)


def run_in_checkout(setting, *args):
    """Python on ``args``, run from this checkout with its ``src`` first on
    the path, every ``DISPATCH`` variable cleared and then ``setting`` set."""
    env = {k: v for k, v in os.environ.items() if k not in DISPATCH}
    env.update(setting)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=600)


@pytest.mark.parametrize("name", DISPATCH)
def test_goldens_hold_under_another_dispatch(name):
    setting = {name: DISPATCH[name]}
    default = run_in_checkout({}, "-c", KERNEL_BLOCK)
    assert default.returncode == 0, default.stderr
    moved = run_in_checkout(setting, "-c", KERNEL_BLOCK)
    if moved.returncode != 0:
        pytest.skip(f"{name}={DISPATCH[name]!r} is rejected here: {moved.stderr.strip()[-300:]}")
    # a setting that changes nothing here would pass without testing anything
    if moved.stdout == default.stdout:
        pytest.skip(f"{name}={DISPATCH[name]!r} leaves a kernel block's bytes unchanged here")
    goldens = run_in_checkout(setting, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                              f"{Path(__file__).resolve()}::test_indicators_match_golden")
    assert goldens.returncode == 0, goldens.stdout[-3000:]
