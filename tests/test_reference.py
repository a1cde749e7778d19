"""An independent reference run: whole sessions rebuilt from the tests'
oracles must give the indicators ``run_session`` reports.

Each piece of ``src`` is checked against its own oracle elsewhere; this
file checks them together. :class:`ReferenceSession` scores one point at a
time with the scalar warp of ``tests/test_landscape.py``, draws and changes
its landscape with the per-component oracles of ``tests/test_dynamics.py``
from its own generator, keeps a running best-so-far error with the largest
height as the optimum, applies the stop rules row by row and checks that
each point is finite and inside the box. Random search's 16-row blocks and
``PerParticleMQSO`` of ``tests/test_mqso.py`` drive it, seeded as
``run_session`` seeds its solvers.

What the reference takes from ``src``: the values of ``ScenarioConfig``,
``SolverConfig.for_scenario``'s radius rule and, through
``PerParticleMQSO``, what it inherits from ``MQSO``: ``__init__`` (the
config check and the initial swarms), ``_reinitialize`` and ``step`` (the
order of the four phases), together with the ``Swarm`` record's
``refresh_gbest`` and ``size`` and ``protocol.CHANGE_DETECTION_TOL``. One
case drives the reference with the block-scoring ``MQSO`` itself, so that
the session's stop rules meet their row-by-row definition.

The indicators agreed to within 5e-16 relative on an x86-64 machine with
numpy 2.4.6 and OpenBLAS 0.3.31. They are compared at the goldens' rtol of
1e-9, two orders below the relative 1e-7 at which mQSO's first branch
flips.
"""

import dataclasses
import math

import numpy as np
import pytest

from gmpbench import MQSO, ScenarioConfig, SolverConfig, run_session
from test_dynamics import oracle_change, oracle_init_landscape
from test_golden import MQSO_SCENARIO, RANDOM_SCENARIO, RTOL
from test_landscape import irregularity_transform
from test_mqso import PerParticleMQSO

RANDOM_BLOCK_ROWS = 16
# the change-detection tolerance of the protocol's differs_from rule
DETECTION_TOL = 1e-9


class BudgetSpent(Exception):
    """The reference session's budget is spent."""


def peak_value(x, peaks):
    """The landscape formula at ``x``, component by component on the scalar
    warp."""
    best = -math.inf
    for peak in peaks:
        y = peak.rotation @ (x - peak.center)
        t = [irregularity_transform(v, peak.tau, peak.eta) for v in y]
        best = max(best, peak.height - math.sqrt(sum(w * v * v for w, v in zip(peak.widths, t))))
    return best


class ReferenceSession:
    """The benchmark's session, one row at a time."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.bounds = scenario.search_range
        self.dimension = scenario.dimension
        self.rng = np.random.default_rng(scenario.seed)
        self.peaks = oracle_init_landscape(scenario, self.rng)
        self.total = 0
        self.best = -math.inf
        self.errors = []
        self.final_errors = []

    def evaluate(self, x, *, above=None, differs_from=None):
        x = np.asarray(x)
        rows = x if x.ndim == 2 else x[None, :]
        lb, ub = self.bounds
        for row in rows:
            assert row.shape == (self.dimension,)
            assert all(math.isfinite(v) and lb <= v <= ub for v in row.tolist()), row
        cf = self.scenario.change_frequency
        capacity = cf * self.scenario.num_environments
        values = []
        for i, row in enumerate(rows):
            if self.total == capacity:
                raise BudgetSpent
            value = peak_value(row, self.peaks)
            values.append(value)
            self.best = max(self.best, value)
            self.errors.append(max(peak.height for peak in self.peaks) - self.best)
            self.total += 1
            if self.total % cf == 0:
                self.final_errors.append(self.errors[-1])
                self.best = -math.inf
                if self.total < capacity:
                    self.peaks = oracle_change(self.peaks, self.scenario, self.rng)
            if above is not None and value > above:
                break
            if differs_from is not None and abs(value - differs_from[i]) > DETECTION_TOL:
                break
        return np.array(values) if x.ndim == 2 else values[0]

    def indicators(self):
        assert self.total == self.scenario.change_frequency * self.scenario.num_environments
        return (math.fsum(self.errors) / len(self.errors),
                math.fsum(self.final_errors) / len(self.final_errors))


def reference_run(scenario, solver):
    """The indicators and final errors of one reference session, its
    solver seeded as ``run_session`` seeds it."""
    session = ReferenceSession(scenario)
    rng = np.random.default_rng([scenario.seed, 1])
    lb, ub = scenario.search_range
    try:
        if solver == "random":
            while True:
                session.evaluate(rng.uniform(lb, ub, (RANDOM_BLOCK_ROWS, scenario.dimension)))
        cls = PerParticleMQSO if solver == "mqso" else MQSO
        mqso = cls(session, SolverConfig.for_scenario(scenario), rng)
        while True:
            mqso.step()
    except BudgetSpent:
        pass
    return (*session.indicators(), session.final_errors)


def small(**changes):
    return ScenarioConfig(**{"dimension": 3, "num_components": 4, "change_frequency": 500,
                             "num_environments": 6, "seed": 2, **changes})


CASES = {
    "random-d20m50-golden": ("random", RANDOM_SCENARIO, 1),
    "random-d3m5": ("random", small(num_components=5, change_frequency=200), 3),
    "mqso-d3m4": ("mqso", small(), 4),
    "mqso-d5m5": ("mqso", small(dimension=5, num_components=5, change_frequency=1000,
                                num_environments=3), 5),
    "mqso-d10m10-golden": ("mqso", MQSO_SCENARIO, 1),
    # the edges
    "mqso-rotation-off": ("mqso", small(rotation_enabled=False), 6),
    "random-d1": ("random", small(dimension=1, num_components=3, change_frequency=50), 7),
    "mqso-d1": ("mqso", small(dimension=1, num_components=3), 8),
    "random-blocks-split-by-changes": ("random", small(change_frequency=7, num_environments=9), 9),
    "mqso-budget-ends-in-the-first-swarms": ("mqso", small(dimension=2, num_components=2,
                                                           change_frequency=30,
                                                           num_environments=1), 10),
    # the block-scoring solver, stopped by the reference's row-by-row rules
    "mqso-blocks-d3m4": ("mqso blocks", small(), 4),
}


@pytest.mark.parametrize("case", CASES)
def test_the_reference_gives_the_reported_indicators(case):
    solver, scenario, seed = CASES[case]
    scenario = dataclasses.replace(scenario, seed=seed)
    record, _ = run_session(scenario, solver.split()[0])
    offline, bbc, final = reference_run(scenario, solver)
    assert offline == pytest.approx(record["offline_error"], rel=RTOL, abs=0.0)
    assert bbc == pytest.approx(record["best_before_change_error"], rel=RTOL, abs=0.0)
    assert final == pytest.approx(record["env_final_errors"], rel=RTOL, abs=0.0)
