"""The draws of the change model as seeded distribution checks.

The GMPB report states the dynamics as distributions: a shift of fixed
length along a uniform direction, Gaussian steps scaled by the severities,
initial parameters uniform in their ranges and initial rotations uniform on
the orthogonal group. mQSO's quantum particles are uniform in a ball around
the swarm's best (Blackwell & Branke, 2006). These tests check those laws on
fixed seeds, so they are deterministic, and do not depend on the order in
which a function makes its draws.

Each check compares a sample with its law by a Kolmogorov-Smirnov or a
chi-square statistic. The threshold is the statistic's null tail at
``FALSE_ALARM``, a false-alarm rate small enough that a correct draw fails
about once in a million seeds; it is never set from an observed p-value.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest

from gmpbench import (
    MQSO,
    BenchmarkSession,
    ScenarioConfig,
    SolverConfig,
    advance_environment,
    dynamics,
    init_landscape,
)

FALSE_ALARM = 1e-6
SEEDS = (7, 8, 9)


# -- null distributions, in numpy and math: scipy is not a dependency

def kolmogorov_p(samples, cdf):
    """The asymptotic p-value of the Kolmogorov statistic ``t = sqrt(n) *
    D`` of ``samples`` against the continuous ``cdf``, ``2 * sum (-1)**(k-1)
    * exp(-2 k**2 t**2)``, or for ``t < 1``, where that series converges
    slowly, one minus its dual ``sqrt(2 pi) / t * sum exp(-(2k-1)**2 pi**2
    / (8 t**2))``. At p = 1e-6 the statistic is about 2.69."""
    u = np.sort(cdf(np.asarray(samples, dtype=float).ravel()))
    n = u.size
    i = np.arange(1, n + 1)
    t = math.sqrt(n) * max((i / n - u).max(), (u - (i - 1) / n).max())
    k = np.arange(1, 101)
    if t < 1.0:
        p = 1.0 - math.sqrt(2 * math.pi) / t * np.exp(
            -((2 * k - 1) * math.pi / t) ** 2 / 8).sum()
    else:
        p = 2.0 * ((-1.0) ** (k - 1) * np.exp(-2.0 * (k * t) ** 2)).sum()
    return float(np.clip(p, 0.0, 1.0))


def chi_square_p(counts):
    """The p-value of Pearson's statistic of ``counts`` against equal cell
    probabilities, for an odd number of cells (an even number of degrees of
    freedom ``2j``, whose tail is ``exp(-x/2) * sum_{i<j} (x/2)**i / i!``)."""
    counts = np.asarray(counts, dtype=float)
    cells = counts.size
    assert cells % 2 == 1, cells
    expected = counts.sum() / cells
    half = float(((counts - expected) ** 2).sum() / expected) / 2.0
    return math.exp(-half) * sum(half ** i / math.factorial(i) for i in range((cells - 1) // 2))


_erf = np.frompyfunc(math.erf, 1, 1)


def normal_cdf(z):
    """The N(0, 1) distribution function."""
    return 0.5 * (1.0 + _erf(z / math.sqrt(2.0)).astype(float))


def half_normal_cdf(z):
    """The distribution function of ``|Z|`` for a standard normal ``Z``."""
    return _erf(z / math.sqrt(2.0)).astype(float)


def uniform_cdf(lo, hi):
    return lambda x: (x - lo) / (hi - lo)


def sphere_coordinate_cdf(d):
    """The distribution function of the squared first coordinate of a
    uniform direction in odd dimension ``d``, Beta(1/2, (d-1)/2):
    ``int_0^sqrt(x) (1 - s**2)**(n-1) ds``, normalized, with n = (d-1)/2."""
    assert d % 2 == 1 and d >= 3, d
    n = (d - 1) // 2
    terms = [math.comb(n - 1, j) * (-1) ** j / (2 * j + 1) for j in range(n)]

    def cdf(x):
        s = np.sqrt(x)
        return sum(t * s ** (2 * j + 1) for j, t in enumerate(terms)) / sum(terms)
    return cdf


def assert_fits(samples, cdf, what):
    p = kolmogorov_p(samples, cdf)
    assert p > FALSE_ALARM, (what, p)


def test_null_tails():
    # the asymptotic Kolmogorov tail at the threshold, and the chi-square
    # tail of 2 degrees of freedom, exp(-x/2), at a hand-worked count
    u = np.linspace(0.0, 1.0, 10_001)[1:]
    d = 2.69 / math.sqrt(u.size)
    assert kolmogorov_p(u - d, lambda x: x) == pytest.approx(1.0e-6, rel=0.1)
    assert kolmogorov_p(u - 0.5 / u.size, lambda x: x) == 1.0
    # the two series agree where they meet: Q(1) = 0.27
    for t in (1.0 - 1e-9, 1.0):
        assert kolmogorov_p(u - t / math.sqrt(u.size), lambda x: x) == pytest.approx(
            0.26999967, rel=1e-6)
    assert chi_square_p([10, 10, 10]) == 1.0
    assert chi_square_p([20, 5, 5]) == pytest.approx(math.exp(-7.5))
    # Beta(1/2, 1) is sqrt(x); Beta(1/2, 2) is (3 sqrt(x) - x**1.5) / 2
    x = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(sphere_coordinate_cdf(3)(x), np.sqrt(x))
    np.testing.assert_allclose(sphere_coordinate_cdf(5)(x), (3 * np.sqrt(x) - x ** 1.5) / 2)


# -- the change model

# wide ranges, so that a walk of 400 changes from the middle of each never
# reaches an edge and no fold acts; tau's is within the overflow rule
WIDE = ScenarioConfig(dimension=5, num_components=20, num_environments=401,
                      search_range=(-1e6, 1e6), height_range=(-1e6, 1e6),
                      width_range=(1.0, 1e6), angle_range=(-1e4, 1e4),
                      tau_range=(-100.0, 100.0), eta_range=(-1e6, 1e6))
SEVERITIES = {"heights": "height_severity", "widths": "width_severity",
              "angles": "angle_severity", "tau": "tau_severity", "eta": "eta_severity"}
RANGES = {"heights": "height_range", "widths": "width_range", "angles": "angle_range",
          "tau": "tau_range", "eta": "eta_range"}


def middle(landscape, cfg):
    """``landscape`` with every parameter at the middle of its range."""
    mid = {name: np.full_like(getattr(landscape, name), sum(getattr(cfg, r)) / 2)
           for name, r in RANGES.items()}
    return dataclasses.replace(landscape, centers=np.full_like(landscape.centers,
                                                                sum(cfg.search_range) / 2),
                               **mid)


@functools.lru_cache(maxsize=4)
def walk(cfg, seed):
    """The steps of every parameter over all changes of ``cfg``, started
    from the middle of the ranges: name -> (changes, m, ...) array. The
    arrays are shared between callers, who must not write to them."""
    rng = np.random.default_rng(seed)
    ls = middle(init_landscape(cfg, rng), cfg)
    steps = {name: [] for name in ("centers", *SEVERITIES)}
    for _ in range(cfg.num_environments - 1):
        new = advance_environment(ls, cfg, rng)
        for name, trail in steps.items():
            trail.append(getattr(new, name) - getattr(ls, name))
        ls = new
    # no value came near an edge, so no step was folded
    for name, r in RANGES.items():
        lo, hi = getattr(cfg, r)
        assert (np.abs(getattr(ls, name) - (lo + hi) / 2) < (hi - lo) / 4).all(), name
    return {name: np.array(trail) for name, trail in steps.items()}


class TestChangeModel:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_gaussian_steps(self, seed):
        steps = walk(WIDE, seed)
        for name, severity in SEVERITIES.items():
            assert_fits(steps[name] / getattr(WIDE, severity), normal_cdf, name)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_draws_of_a_component_are_uncorrelated(self, seed):
        # one column per coordinate of the shift direction and per Gaussian
        # step of a component: sqrt(n) times a correlation is about N(0, 1)
        # for two independent steps, and N(0, d/(d+2)) for two coordinates
        # of a uniform direction; |z| < 4.89 is p > 1e-6
        steps = walk(WIDE, seed)
        n = steps["heights"].size
        shifts = steps["centers"].reshape(n, -1)
        columns = [shifts / np.linalg.norm(shifts, axis=1, keepdims=True)]
        columns += [steps[name].reshape(n, -1) for name in SEVERITIES]
        r = np.corrcoef(np.hstack(columns), rowvar=False)
        z = math.sqrt(n) * r[np.triu_indices(r.shape[0], 1)]
        assert r.shape == (2 * WIDE.dimension + 7, 2 * WIDE.dimension + 7)
        assert np.abs(z).max() < 4.89, np.abs(z).max()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_shift_is_a_fixed_step_in_a_uniform_direction(self, seed):
        shifts = walk(WIDE, seed)["centers"].reshape(-1, WIDE.dimension)
        lengths = np.linalg.norm(shifts, axis=1)
        np.testing.assert_allclose(lengths, WIDE.shift_severity, rtol=1e-9)
        direction = shifts / lengths[:, None]
        assert_fits(direction[:, 0] ** 2, sphere_coordinate_cdf(WIDE.dimension), "direction")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_each_pair_is_uniform_over_the_plane_order(self, seed, monkeypatch):
        # d = 6 has 15 planes: an odd number of positions
        cfg = ScenarioConfig(dimension=6, num_components=20, num_environments=401)
        orders = []
        rotate = dynamics.update_rotation

        def recording(rotations, angles, plane_orders):
            orders.append(plane_orders.copy())
            return rotate(rotations, angles, plane_orders)

        monkeypatch.setattr(dynamics, "update_rotation", recording)
        rng = np.random.default_rng(seed)
        ls = init_landscape(cfg, rng)
        for _ in range(cfg.num_environments - 1):
            ls = advance_environment(ls, cfg, rng)
        orders = np.concatenate(orders)
        planes = orders.shape[1]
        assert orders.shape == (400 * cfg.num_components, 15)
        assert (np.sort(orders, axis=1) == np.arange(planes)).all()
        positions = np.argsort(orders, axis=1)  # positions[:, p]: where plane p is
        for p in range(planes):
            p_value = chi_square_p(np.bincount(positions[:, p], minlength=planes))
            assert p_value > FALSE_ALARM, (p, p_value)

    @pytest.mark.parametrize("edge", [0, 1])
    def test_fold_mirrors_a_step_across_the_edge(self, edge):
        # every parameter starts on an edge of its range, so its step is
        # either inside already or mirrored back: the distance from the edge
        # is |severity * Z|, and a center's step keeps its length
        cfg = ScenarioConfig(dimension=5, num_components=4000, num_environments=2)
        rng = np.random.default_rng(7)
        ls = init_landscape(cfg, rng)
        at_edge = {name: np.full_like(getattr(ls, name), getattr(cfg, r)[edge])
                   for name, r in RANGES.items()}
        ls = dataclasses.replace(ls, centers=np.full_like(ls.centers, cfg.search_range[edge]),
                                 **at_edge)
        new = advance_environment(ls, cfg, rng)
        for name, severity in SEVERITIES.items():
            distance = np.abs(getattr(new, name) - getattr(ls, name))
            assert_fits(distance / getattr(cfg, severity), half_normal_cdf, name)
        np.testing.assert_allclose(np.linalg.norm(new.centers - ls.centers, axis=1),
                                   cfg.shift_severity, rtol=1e-9)
        inside = (new.centers - ls.centers) * (1 if edge == 0 else -1)
        assert (inside >= 0).all()


class TestInitialDraws:
    CFG = ScenarioConfig(dimension=5, num_components=4000)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_parameters_are_uniform_in_their_ranges(self, seed):
        ls = init_landscape(self.CFG, np.random.default_rng(seed))
        assert_fits(ls.centers, uniform_cdf(*self.CFG.search_range), "centers")
        for name, r in RANGES.items():
            assert_fits(getattr(ls, name), uniform_cdf(*getattr(self.CFG, r)), name)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rotations_are_uniform_on_the_orthogonal_group(self, seed):
        rotations = init_landscape(self.CFG, np.random.default_rng(seed)).rotations
        n = rotations.shape[0]
        # det is +1 or -1, each with probability 1/2: |z| < 4.89 is p > 1e-6
        positive = int((np.linalg.det(rotations) > 0).sum())
        assert abs(positive - n / 2) < 4.89 * math.sqrt(n / 4), positive
        # the first column is a uniform direction
        assert_fits(rotations[:, 0, 0] ** 2, sphere_coordinate_cdf(5), "first column")


class TestBallSamples:
    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_uniform_in_the_ball(self, seed, d):
        session = BenchmarkSession(ScenarioConfig(dimension=d, num_components=2, seed=seed))
        solver = MQSO(session, SolverConfig.for_scenario(session.config),
                      np.random.default_rng(seed))
        cloud = solver.config.cloud_radius
        offsets = solver._ball_offsets(20_000, d)
        radii = np.linalg.norm(offsets, axis=1)
        assert (radii <= cloud * (1 + 1e-12)).all()
        # the mass inside radius r grows as r**d
        assert_fits((radii / cloud) ** d, uniform_cdf(0.0, 1.0), "radius")
        assert_fits((offsets[:, 0] / radii) ** 2, sphere_coordinate_cdf(d), "direction")


class CountingGenerator:
    """A seeded ``Generator`` that counts the calls made to its methods."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)
        return counted


class TestDrawCalls:
    """Each array is drawn in one call: the number of generator calls does
    not grow with the number of components or samples."""

    @pytest.mark.parametrize("rotation", [True, False])
    def test_dynamics_calls_do_not_grow_with_components(self, rotation):
        counts = set()
        for m in (1, 3, 50):
            cfg = ScenarioConfig(dimension=4, num_components=m, num_environments=2,
                                 rotation_enabled=rotation)
            rng = CountingGenerator(m)
            ls = init_landscape(cfg, rng)
            init_calls = rng.calls
            advance_environment(ls, cfg, rng)
            counts.add((init_calls, rng.calls - init_calls))
        assert counts == {(7, 2) if rotation else (6, 1)}

    def test_ball_offsets_make_two_calls(self):
        session = BenchmarkSession(ScenarioConfig(dimension=3, num_components=2))
        solver = MQSO(session, SolverConfig.for_scenario(session.config),
                      np.random.default_rng(0))
        for count in (0, 1, 5, 200):
            solver.rng = rng = CountingGenerator(count)
            assert solver._ball_offsets(count, 3).shape == (count, 3)
            assert rng.calls == 2, count
