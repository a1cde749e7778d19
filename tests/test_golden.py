"""Golden indicator values: full runs must reproduce the pinned errors.

The values are those of results version 0.2.0, whose draws take one
generator call per array. Another BLAS kernel or SIMD target moves them by
about 1e-14 relative, so they are compared at rtol 1e-9; a larger difference
means the results changed.
"""

import pytest

from gmpbench import ScenarioConfig, run_session

RTOL = 1e-9

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
