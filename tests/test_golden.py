"""Golden indicator values: full runs must reproduce the pinned errors.

The values were computed with the per-component evaluation loop. Stacking
the landscape arithmetic may change rounding at about 1e-12, so they are
compared at rtol 1e-9; a larger difference means the results changed.
"""

import pytest

from gmpbench import ScenarioConfig, run_session

RTOL = 1e-9

# the default d=10, m=10 scenario cut to two environments
MQSO_SCENARIO = ScenarioConfig(num_environments=2)
MQSO_GOLDEN = {
    1: (64.03061532319474, 34.985077542408355),
    2: (66.23907042511608, 32.2977326537072),
    3: (73.35233984029549, 48.45285896389815),
}

RANDOM_SCENARIO = ScenarioConfig(dimension=20, num_components=50,
                                 change_frequency=100, num_environments=10)
RANDOM_GOLDEN = {
    1: (395.4632483318136, 366.46029417954236),
    2: (450.31313211581806, 416.8381548007533),
}


@pytest.mark.parametrize("solver, scenario, seed, expected", [
    *[("mqso", MQSO_SCENARIO, s, v) for s, v in MQSO_GOLDEN.items()],
    *[("random", RANDOM_SCENARIO, s, v) for s, v in RANDOM_GOLDEN.items()],
])
def test_indicators_match_golden(solver, scenario, seed, expected):
    record, _ = run_session(scenario, solver, seed=seed)
    assert record["offline_error"] == pytest.approx(expected[0], rel=RTOL, abs=0.0)
    assert record["best_before_change_error"] == pytest.approx(expected[1], rel=RTOL, abs=0.0)
