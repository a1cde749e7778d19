"""Byte pins: nine sessions' ledgers, the CLI's output files, the default
scenario's landscapes, a kernel block and numpy's draw streams, hashed, must
not change at all.

The goldens compare at rtol 1e-9, so a change of the numbers below that
passes them; these pins catch any change of a ledger's, an output file's, a
landscape's or a kernel block's bytes. Those bytes depend on the BLAS kernel
and the SIMD target numpy dispatches to, so each of their pins is keyed by
the dispatch fingerprint: the sha256 of what ``PROBE`` prints. The probe
imports numpy alone, so a change to the program's own arithmetic leaves the
fingerprint as it is and fails the pins rather than skip them. The check is
exact only where a pin exists. On a fingerprint with no pin, another
machine's, the test skips and names it; a change that means to move the
numbers re-pins and lists the old and new hashes.

The draw canaries pin the stream of each ``numpy.random.Generator`` method
the benchmark draws with, at the shapes it uses. NumPy keeps a bit
generator's stream stable, but not every method's, so a numpy that changes
one fails here, under the method's name, rather than as a golden mismatch.
The draws do not depend on the dispatch, so they have one pin each.

Run as a script, this file prints what a subprocess under another dispatch
reports: ``python tests/test_pins.py [ledgers|outputs|landscapes|draws]``.
"""

import ast
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from gmpbench import ScenarioConfig, advance_environment, init_landscape, run_session
from gmpbench.cli import main
from test_golden import DISPATCH, KERNEL_BLOCK, run_in_checkout

# prints the bytes of numpy's own arithmetic on fixed inputs: batched
# vector-matrix products and per-row dots, laid out as the kernel lays out
# its own, and log, exp and sin
PROBE = """
import numpy as np
rng = np.random.default_rng(0)
a = rng.uniform(-100, 100, (10, 64, 1, 10))
y = a @ rng.standard_normal((10, 10, 10)).transpose(0, 2, 1)[:, None]
dots = rng.uniform(1, 12, (10, 64, 1, 10)) @ y.transpose(0, 1, 3, 2)
ly = np.log(np.abs(y))
print(b"".join(v.tobytes() for v in (y, dots, ly, np.exp(ly * 0.5), np.sin(ly * 7.0))).hex())
"""

# the default dispatch, OPENBLAS_CORETYPE=Haswell and numpy's AVX-512
# targets off, on an x86-64 machine with AVX-512, numpy 2.4.6 and OpenBLAS
# 0.3.31 built with DYNAMIC_ARCH
DEFAULT = "4da625489dbfecf14a4bda34724a5ea2f08a9ae0c53e15836314154a586f0d73"
HASWELL = "25aa5c164b2f0ef30f06165214714c3247961cd439b523a6099c3c6133d09cce"
NO_AVX512 = "f69649f9a0784def679bea0cd7b54acf67fb12ac5fa938b9d51919b62568e902"

# dispatch fingerprint -> ledger hash
PINS = {
    DEFAULT: "ba2e52efbf74417535389225f16531b385aa3045951a015d3085aa0dd0dc3efd",
    HASWELL: "67b0e7217a425b79ec3a161147080c95f5da649bd25c2200e6f20ce297286bee",
    NO_AVX512: "87440968d6ad9277c8ccc79eaa087506874633a1c83806b0e2a6082af0bb4825",
}

# scenario-major: each (solver, scenario) on every seed before the next
SESSIONS = [
    ("mqso", ScenarioConfig(change_frequency=1237, num_environments=3)),
    ("random", ScenarioConfig(dimension=20, num_components=50, change_frequency=100,
                              num_environments=10)),
    ("mqso", ScenarioConfig(dimension=3, num_components=4, change_frequency=500,
                            num_environments=20)),
]
SEEDS = (0, 1, 7919)

# the configs of the pinned CLI commands
SMALL = {"change_frequency": 1237, "num_environments": 3}
GRID = {"dimension": 2, "num_components": 10, "num_environments": 10, "seed": 3}

# dispatch fingerprint -> sha256 of each output of the pinned CLI commands
OUTPUT_PINS = {
    DEFAULT: {
        "mqso/results.json":
            "1b35010b4e9f70173cc85b1ee7d5056c5197db89d4301fac9a00ca07048aeb41",
        "mqso/runs.csv":
            "1fe657048aa16777e5812362a235fb77de944e5d2c72676d0ff385bf7165a784",
        "random/results.json":
            "cefe3d97c2f26234c87588a95a76e4e33506149de67e529987ffb484c6592407",
        "random/runs.csv":
            "71684f11b9500319bb1926dce11871297f5836850b3777ec1a2cac70f8a0736e",
        "grid.csv":
            "1bac931f371a8d81d198f60f5b680a7221f88b976096f18d7bc1a4b6441605d7",
        "grid.csv.meta.json":
            "c4662158881f90fc01be83eac8275a919df395369137432f9c221368993e18b8",
        "validate stdout":
            "143ae2c4c835338dabf78ec815a844f0ea64875340c1be66bd220473f8136cd4",
    },
    HASWELL: {
        "mqso/results.json":
            "f83d1e4354addfa4bdf1cbadc455842ee991892a24455040fd0af1efbdcebb1a",
        "mqso/runs.csv":
            "ae27982cdb74a4a53741d30381662ce3aaa6ddc99e219a7b639f514103d86f96",
        "random/results.json":
            "1ee3da4b78037fcd6c13f4d691ffd58418ef957ad02b3d9909687e8c660611c7",
        "random/runs.csv":
            "13f50c22cf4208037ecdde698861d5818dd23ed5640618c668eb1f582b5f4655",
        "grid.csv":
            "0f66c2d9b99778ea1b372bc37d2691c2ca79539a033ddfd3cb54e7de2619b258",
        "grid.csv.meta.json":
            "c4662158881f90fc01be83eac8275a919df395369137432f9c221368993e18b8",
        "validate stdout":
            "143ae2c4c835338dabf78ec815a844f0ea64875340c1be66bd220473f8136cd4",
    },
    NO_AVX512: {
        "mqso/results.json":
            "1b35010b4e9f70173cc85b1ee7d5056c5197db89d4301fac9a00ca07048aeb41",
        "mqso/runs.csv":
            "1fe657048aa16777e5812362a235fb77de944e5d2c72676d0ff385bf7165a784",
        "random/results.json":
            "cefe3d97c2f26234c87588a95a76e4e33506149de67e529987ffb484c6592407",
        "random/runs.csv":
            "71684f11b9500319bb1926dce11871297f5836850b3777ec1a2cac70f8a0736e",
        "grid.csv":
            "fdb911f8b521ad97cb9fae0f80750ca24fdf10f4bec47509c434d625ecb934d1",
        "grid.csv.meta.json":
            "c4662158881f90fc01be83eac8275a919df395369137432f9c221368993e18b8",
        "validate stdout":
            "143ae2c4c835338dabf78ec815a844f0ea64875340c1be66bd220473f8136cd4",
    },
}


def ledger_hash():
    """sha256 over each session's ledger values, then its optima."""
    digest = hashlib.sha256()
    for solver, scenario in SESSIONS:
        for seed in SEEDS:
            _, session = run_session(scenario, solver, seed=seed)
            digest.update(session.ledger.values.tobytes())
            digest.update(session.ledger.optima.tobytes())
    return digest.hexdigest()


def output_hashes():
    """sha256 of each output of ``gmpbench run --config small.json --runs 3
    --seed 1`` for both solvers, of ``gmpbench grid --env 5 --resolution
    101`` on the grid config, and of ``gmpbench validate``'s stdout on
    small.json."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "small.json").write_text(json.dumps(SMALL))
        (out / "grid-config.json").write_text(json.dumps(GRID))
        small = str(out / "small.json")
        with contextlib.redirect_stdout(io.StringIO()):
            for solver in ("mqso", "random"):
                assert main(["run", "--config", small, "--runs", "3", "--seed", "1",
                             "--solver", solver, "--out", str(out / solver)]) == 0
            assert main(["grid", "--config", str(out / "grid-config.json"), "--env", "5",
                         "--resolution", "101", "--out", str(out / "grid.csv")]) == 0
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert main(["validate", "--config", small]) == 0
        names = [f"{solver}/{name}" for solver in ("mqso", "random")
                 for name in ("results.json", "runs.csv")] + ["grid.csv", "grid.csv.meta.json"]
        hashes = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}
    hashes["validate stdout"] = hashlib.sha256(printed.getvalue().encode()).hexdigest()
    return hashes


# the seven arrays of a Landscape, in field order
ARRAYS = ("centers", "rotations", "widths", "heights", "angles", "tau", "eta")

# dispatch fingerprint -> sha256 of the default scenario's environments 0-3
# on SEEDS, and of the bytes KERNEL_BLOCK prints
LANDSCAPE_PINS = {
    DEFAULT: {
        "landscapes": "1d973fa0ff5805ed232a37237922db3d77ca2fde52c0d85b6b0151e1473249d3",
        "kernel block": "be32ef47b01cd524cc2db673ee7d9f75e00a96189117e8fab2d81dac8b07b650",
    },
    HASWELL: {
        "landscapes": "b3697c7724e45ea36ecaf6370f9e2258e200d0e340b6cf601e04d408b7cfadb8",
        "kernel block": "c5b4089d308457cadf4d90e2eeb494bbf4a8d9bab3519dc3329c4a9bfe24487d",
    },
    NO_AVX512: {
        "landscapes": "1d973fa0ff5805ed232a37237922db3d77ca2fde52c0d85b6b0151e1473249d3",
        "kernel block": "213fbbf46f66c7d8b6fc1fdede1190b16d0151c83ab1bd232165b94ccba62af5",
    },
}


def landscape_hashes():
    """sha256 over each array, in field order, of the default scenario's
    environments 0-3 on each of SEEDS in turn, and of the kernel block."""
    scenario = ScenarioConfig()
    digest = hashlib.sha256()
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        landscape = init_landscape(scenario, rng)
        for env in range(4):
            if env:
                landscape = advance_environment(landscape, scenario, rng)
            for name in ARRAYS:
                digest.update(getattr(landscape, name).tobytes())
    return {"landscapes": digest.hexdigest(), "kernel block": printed_hash(KERNEL_BLOCK)}


def _uniform(rng):
    # init_landscape's arrays at d=10, m=10, a swarm's positions and a
    # random-search block at d=20
    return [rng.uniform(-100, 100, (10, 10)), rng.uniform(30, 70, 10),
            rng.uniform(1, 12, (10, 10)), rng.uniform(-np.pi, np.pi, 10),
            rng.uniform(-20, 20, (10, 4)), rng.uniform(-1, 1, 10),
            rng.uniform(-100, 100, (10, 10)), rng.uniform(-100, 100, (16, 20))]


def _standard_normal(rng):
    # the (m, d, d) source matrices, the (m, 2d + 7) change block and a
    # swarm's ball directions
    return [rng.standard_normal((10, 10, 10)), rng.standard_normal((10, 27)),
            rng.standard_normal((5, 10))]


def _random(rng):
    # mQSO's u for the neutral particles and the ball radii
    return [rng.random((5, 2, 10)), rng.random(5)]


def _permuted(rng):
    # the plane orders of a change, permuted in place
    orders = np.tile(np.arange(45), (10, 1))
    return [rng.permuted(orders, axis=1, out=orders)]


# method -> its draws from a generator seeded by the bare seed
DRAWS = {"uniform": _uniform, "standard_normal": _standard_normal, "random": _random,
         "permuted": _permuted}
SOLVER_STREAM = "default_rng([seed, 1])"

# method -> sha256 of its draws on SEEDS, on the machine the fingerprints name
DRAW_PINS = {
    "uniform":
        "42cdbea5ff6dda245dd9606294e28987873a903264f82cffde76c5467f705bb9",
    "standard_normal":
        "9298c3b0bceae2f9821fed0b342c3961ffa5a499001cd11b6c473f17e725674a",
    "random":
        "8dc0205a3725dd721360d1144176b295665a47d6764bb6c9c46c5f493ae47d7b",
    "permuted":
        "6c71d71a172d7e17b65ed3b3e54433b5eefdd47324802e0a66f9695e9491b352",
    SOLVER_STREAM:
        "29d10c1b80cde0a9d38462ebc1cd8e6fea8bd80040912fc425142a1e1903cdda",
}


def draw_hash(method):
    """sha256 of the method's draws on each of SEEDS in turn."""
    digest = hashlib.sha256()
    for seed in SEEDS:
        if method == SOLVER_STREAM:
            draws = [np.random.default_rng([seed, 1]).random(64)]
        else:
            draws = DRAWS[method](np.random.default_rng(seed))
        for array in draws:
            digest.update(array.tobytes())
    return digest.hexdigest()


def printed_hash(source):
    """sha256 of the bytes that ``source`` prints as hex, run in this process."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(source, {})
    return hashlib.sha256(bytes.fromhex(printed.getvalue())).hexdigest()


def fingerprint():
    """The dispatch fingerprint: sha256 of the probe's bytes."""
    return printed_hash(PROBE)


def check(key, got, pins=PINS):
    if key not in pins:
        pytest.skip(f"no pin for dispatch fingerprint {key} (got {got})")
    assert got == pins[key]


def in_subprocess(name, what):
    """The JSON this file prints for ``what`` when run as a script with the
    dispatch setting ``name``; skips when the setting is rejected here."""
    run = run_in_checkout({name: DISPATCH[name]}, __file__, what)
    if run.returncode != 0:
        pytest.skip(f"{name}={DISPATCH[name]!r} is rejected here: {run.stderr.strip()[-300:]}")
    return json.loads(run.stdout)


def test_ledgers_match_the_pin():
    check(fingerprint(), ledger_hash())


@pytest.mark.parametrize("name", DISPATCH)
def test_ledgers_match_the_pin_under_another_dispatch(name):
    check(*in_subprocess(name, "ledgers"))


def test_outputs_match_the_pin():
    check(fingerprint(), output_hashes(), OUTPUT_PINS)


@pytest.mark.parametrize("name", DISPATCH)
def test_outputs_match_the_pin_under_another_dispatch(name):
    check(*in_subprocess(name, "outputs"), OUTPUT_PINS)


def test_landscapes_match_the_pin():
    check(fingerprint(), landscape_hashes(), LANDSCAPE_PINS)


@pytest.mark.parametrize("name", DISPATCH)
def test_landscapes_match_the_pin_under_another_dispatch(name):
    check(*in_subprocess(name, "landscapes"), LANDSCAPE_PINS)


def test_the_fingerprint_runs_numpy_alone():
    # a probe that ran the program's code would move with it, and every pin
    # would then skip instead of fail
    imports = [node for node in ast.walk(ast.parse(PROBE))
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert [alias.name for node in imports for alias in node.names] == ["numpy"]
    assert "gmpbench" not in PROBE


@pytest.mark.parametrize("method", DRAW_PINS)
def test_draw_canary(method):
    assert draw_hash(method) == DRAW_PINS[method], f"numpy's {method} stream changed"


@pytest.mark.parametrize("name", DISPATCH)
def test_draw_canaries_under_another_dispatch(name):
    hashes = in_subprocess(name, "draws")
    changed = [method for method in DRAW_PINS if hashes[method] != DRAW_PINS[method]]
    assert not changed, f"under {name}, numpy's streams changed: {changed}"


if __name__ == "__main__":
    what = sys.argv[1] if len(sys.argv) > 1 else "ledgers"
    if what == "draws":
        print(json.dumps({method: draw_hash(method) for method in DRAW_PINS}))
    else:
        hashes = {"ledgers": ledger_hash, "outputs": output_hashes,
                  "landscapes": landscape_hashes}[what]
        print(json.dumps([fingerprint(), hashes()]))
