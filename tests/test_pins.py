"""Byte pins: nine sessions' ledgers, hashed, must not change at all.

The goldens compare at rtol 1e-9, so a change of the numbers below that
passes them; these pins catch any change of a ledger's bytes. A ledger's
bytes depend on the BLAS kernel and the SIMD target numpy dispatches to, so
each pin is keyed by the dispatch fingerprint: the sha256 of what
``test_golden.KERNEL_BLOCK`` prints. The check is exact only where a pin
exists. On a fingerprint with no pin the test skips and names it; a change
that means to move the numbers re-pins and lists the old and new hashes.
"""

import contextlib
import hashlib
import io

import pytest

from gmpbench import ScenarioConfig, run_session
from test_golden import DISPATCH, KERNEL_BLOCK, run_in_checkout

# dispatch fingerprint -> ledger hash, measured on an x86-64 machine with
# AVX-512, numpy 2.4.6 and OpenBLAS 0.3.31 built with DYNAMIC_ARCH
PINS = {
    # default dispatch
    "be32ef47b01cd524cc2db673ee7d9f75e00a96189117e8fab2d81dac8b07b650":
        "ba2e52efbf74417535389225f16531b385aa3045951a015d3085aa0dd0dc3efd",
    # OPENBLAS_CORETYPE=Haswell
    "c5b4089d308457cadf4d90e2eeb494bbf4a8d9bab3519dc3329c4a9bfe24487d":
        "67b0e7217a425b79ec3a161147080c95f5da649bd25c2200e6f20ce297286bee",
    # numpy's AVX-512 targets off
    "213fbbf46f66c7d8b6fc1fdede1190b16d0151c83ab1bd232165b94ccba62af5":
        "87440968d6ad9277c8ccc79eaa087506874633a1c83806b0e2a6082af0bb4825",
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


def ledger_hash():
    """sha256 over each session's ledger values, then its optima."""
    digest = hashlib.sha256()
    for solver, scenario in SESSIONS:
        for seed in SEEDS:
            _, session = run_session(scenario, solver, seed=seed)
            digest.update(session.ledger.values.tobytes())
            digest.update(session.ledger.optima.tobytes())
    return digest.hexdigest()


def fingerprint():
    """sha256 of the kernel block's bytes, computed in this process."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(KERNEL_BLOCK, {})
    return hashlib.sha256(bytes.fromhex(printed.getvalue())).hexdigest()


def check(key, ledger):
    if key not in PINS:
        pytest.skip(f"no pin for dispatch fingerprint {key} (ledger hash {ledger})")
    assert ledger == PINS[key]


def test_ledgers_match_the_pin():
    check(fingerprint(), ledger_hash())


@pytest.mark.parametrize("name", DISPATCH)
def test_ledgers_match_the_pin_under_another_dispatch(name):
    run = run_in_checkout({name: DISPATCH[name]}, __file__)
    if run.returncode != 0:
        pytest.skip(f"{name}={DISPATCH[name]!r} is rejected here: {run.stderr.strip()[-300:]}")
    check(*run.stdout.split())


if __name__ == "__main__":
    print(fingerprint(), ledger_hash())
