"""Rotation machinery, reflect bounding, and environment updates."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmpbench
from gmpbench import ScenarioConfig, advance_environment, init_landscape
from gmpbench.dynamics import (
    ORTHOGONALITY_TOL,
    _orthonormalize,
    reflect,
    update_rotation,
)
from gmpbench.landscape import Landscape


@dataclasses.dataclass(frozen=True)
class Peak:
    """One component's parameters, the record of the per-component oracle."""

    center: np.ndarray
    height: float
    widths: np.ndarray
    angle: float
    tau: float
    eta: np.ndarray
    rotation: np.ndarray

    @property
    def dimension(self):
        return self.center.shape[0]


def peaks(landscape):
    """The components of ``landscape``, one :class:`Peak` per row."""
    return [Peak(center=landscape.centers[k], height=float(landscape.heights[k]),
                 widths=landscape.widths[k], angle=float(landscape.angles[k]),
                 tau=float(landscape.tau[k]), eta=landscape.eta[k],
                 rotation=landscape.rotations[k])
            for k in range(landscape.num_components)]


def update_one(peak, cfg, rng):
    """One environment change of a single component: ``advance_environment``
    on a one-component landscape."""
    alone = Landscape(environment_index=0, centers=peak.center[None],
                      rotations=peak.rotation[None], widths=peak.widths[None],
                      heights=np.array([peak.height]), angles=np.array([peak.angle]),
                      tau=np.array([peak.tau]), eta=peak.eta[None])
    return peaks(advance_environment(alone, cfg, rng))[0]


def in_ranges(comp, cfg):
    lb, ub = cfg.search_range
    checks = [
        ((comp.center >= lb) & (comp.center <= ub)).all(),
        cfg.height_range[0] <= comp.height <= cfg.height_range[1],
        ((comp.widths >= cfg.width_range[0]) & (comp.widths <= cfg.width_range[1])).all(),
        cfg.angle_range[0] <= comp.angle <= cfg.angle_range[1],
        cfg.tau_range[0] <= comp.tau <= cfg.tau_range[1],
        ((comp.eta >= cfg.eta_range[0]) & (comp.eta <= cfg.eta_range[1])).all(),
    ]
    return all(checks)


def givens_matrix(d, pair, theta):
    """Plane rotation by ``theta`` in the (p, q) coordinate plane.

    Identity except entries (p,p) = (q,q) = cos(theta), (p,q) = -sin(theta),
    (q,p) = sin(theta); orthogonal with determinant 1.
    """
    p, q = pair
    if not (0 <= p < q < d):
        raise ValueError(f"plane pair {pair} invalid for dimension {d}")
    g = np.eye(d)
    c, s = math.cos(theta), math.sin(theta)
    g[p, p] = c
    g[q, q] = c
    g[p, q] = -s
    g[q, p] = s
    return g


def plane_pairs(d):
    """All d*(d-1)/2 axis index pairs (p < q), in lexicographic order."""
    return [(p, q) for p in range(d) for q in range(p + 1, d)]


def orthogonality_error(r):
    """Max-abs entry of R^T R - I."""
    r = np.asarray(r)
    return float(np.abs(r.T @ r - np.eye(r.shape[0])).max())


# -- per-component oracle: the initial landscape and the environment change
# built one component at a time from its rows of the draws, with the
# per-matrix Gram-Schmidt loop and the mirror loop of reflect, as the
# stacked dynamics must reproduce them

def gram_schmidt(a):
    """Modified Gram-Schmidt on the columns of ``a``, in index order."""
    q = np.array(a, dtype=float)
    d = q.shape[1]
    for k in range(d):
        for j in range(k):
            q[:, k] -= (q[:, j] @ q[:, k]) * q[:, j]
        norm = float(np.linalg.norm(q[:, k]))
        if norm < 1e-12:
            raise ValueError(f"degenerate pivot at column {k}")
        q[:, k] /= norm
    return q


def initial_rotation(source):
    """One component's rotation: its source matrix orthonormalized, or the
    identity when the source is degenerate."""
    try:
        return gram_schmidt(source)
    except ValueError:
        return np.eye(source.shape[0])


def oracle_init_landscape(cfg, rng):
    """The initial components one at a time, each from its rows of the
    parameter arrays drawn in the documented order."""
    lb, ub = cfg.search_range
    m, d = cfg.num_components, cfg.dimension
    centers = rng.uniform(lb, ub, (m, d))
    heights = rng.uniform(*cfg.height_range, m)
    widths = rng.uniform(*cfg.width_range, (m, d))
    angles = rng.uniform(*cfg.angle_range, m)
    eta = rng.uniform(*cfg.eta_range, (m, 4))
    tau = rng.uniform(*cfg.tau_range, m)
    sources = rng.standard_normal((m, d, d)) if cfg.rotation_enabled else None
    return [Peak(center=centers[k], height=float(heights[k]), widths=widths[k],
                 angle=float(angles[k]), tau=float(tau[k]), eta=eta[k],
                 rotation=initial_rotation(sources[k]) if cfg.rotation_enabled else np.eye(d))
            for k in range(m)]


def assert_same_peaks(landscape, comps, context=None):
    for name, attr in (("centers", "center"), ("rotations", "rotation"),
                       ("widths", "widths"), ("heights", "height"),
                       ("angles", "angle"), ("tau", "tau"), ("eta", "eta")):
        expect = np.stack([np.asarray(getattr(c, attr)) for c in comps])
        assert np.array_equal(getattr(landscape, name), expect), (context, name)


class DegenerateOnce:
    """A generator whose stack of source matrices comes back with matrix
    ``k`` the rank-one ``np.ones((d, d))``; every other draw is the seeded
    generator's."""

    def __init__(self, seed, k):
        self._rng = np.random.default_rng(seed)
        self.bit_generator = self._rng.bit_generator
        self._k = k

    def uniform(self, *args):
        return self._rng.uniform(*args)

    def standard_normal(self, size=None):
        out = self._rng.standard_normal(size)
        out[self._k] = 1.0
        return out


class DegenerateShift:
    """A generator, started at ``state``, whose block of change normals
    comes back with the first ``d`` entries of row ``k`` zeroed: component
    ``k``'s shift direction is degenerate. Every other draw is the seeded
    generator's."""

    def __init__(self, state, d, k):
        self._rng = np.random.default_rng()
        self._rng.bit_generator.state = state
        self.bit_generator = self._rng.bit_generator
        self._d = d
        self._k = k

    def standard_normal(self, size=None):
        out = self._rng.standard_normal(size)
        out[self._k, :self._d] = 0.0
        return out

    def permutation(self, n):
        return self._rng.permutation(n)

    def permuted(self, x, axis=None, out=None):
        return self._rng.permuted(x, axis=axis, out=out)


def oracle_reflect(value, delta, lo, hi):
    if lo == hi:
        return lo
    v = value + delta
    while v < lo or v > hi:
        v = 2.0 * lo - v if v < lo else 2.0 * hi - v
    return v


def oracle_update_rotation(r, theta, order):
    pairs = plane_pairs(r.shape[0])
    out = np.array(r, dtype=float)
    c, s = math.cos(theta), math.sin(theta)
    rot2 = np.array([[c, -s], [s, c]])
    for idx in order[::-1]:
        p, q = pairs[idx]
        out[[p, q]] = rot2 @ out[[p, q]]
    if orthogonality_error(out) > 1e-9:
        out = gram_schmidt(out)
    return out


def oracle_change(comps, cfg, rng):
    """One environment change of every component, each from its row of the
    normals and its plane order, drawn in the documented order."""
    d = cfg.dimension
    normals = rng.standard_normal((len(comps), 2 * d + 7))
    # one permutation per component, in component order
    orders = [rng.permutation(d * (d - 1) // 2) if cfg.rotation_enabled else None
              for _ in comps]
    return [oracle_step(c, cfg, row, order) for c, row, order in zip(comps, normals, orders)]


def oracle_update_component(comp, cfg, rng):
    """The change of one component alone."""
    return oracle_change([comp], cfg, rng)[0]


def oracle_step(comp, cfg, normals, order):
    """One component's change from its row of normals: shift direction (d),
    height, widths (d), angle, eta (4) and tau; and its plane order."""
    d = comp.dimension
    r = normals[:d]
    norm = float(np.linalg.norm(r))
    if norm < 1e-12:
        r, norm = np.eye(d)[0], 1.0
    height_draw = float(normals[d])
    width_draws = normals[d + 1:2 * d + 1]
    angle_draw = float(normals[2 * d + 1])
    eta_draws = normals[2 * d + 2:2 * d + 6]
    tau_draw = float(normals[2 * d + 6])

    def each(values, deltas, lo, hi):
        return np.array([oracle_reflect(float(v), float(dv), lo, hi)
                         for v, dv in zip(values, deltas)])

    angle = oracle_reflect(comp.angle, cfg.angle_severity * angle_draw, *cfg.angle_range)
    return Peak(
        center=each(comp.center, cfg.shift_severity * r / norm, *cfg.search_range),
        height=oracle_reflect(comp.height, cfg.height_severity * height_draw, *cfg.height_range),
        widths=each(comp.widths, cfg.width_severity * width_draws, *cfg.width_range),
        angle=angle,
        eta=each(comp.eta, cfg.eta_severity * eta_draws, *cfg.eta_range),
        tau=oracle_reflect(comp.tau, cfg.tau_severity * tau_draw, *cfg.tau_range),
        rotation=(oracle_update_rotation(comp.rotation, angle, order)
                  if cfg.rotation_enabled else comp.rotation))


class TestGivens:
    def test_zero_angle_is_identity(self):
        np.testing.assert_array_equal(givens_matrix(2, (0, 1), 0.0), np.eye(2))

    def test_quarter_turn_in_2d(self):
        g = givens_matrix(2, (0, 1), math.pi / 2)
        np.testing.assert_allclose(g, [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)

    def test_half_turn_in_first_third_plane(self):
        g = givens_matrix(3, (0, 2), math.pi)
        np.testing.assert_allclose(g, np.diag([-1.0, 1.0, -1.0]), atol=1e-15)

    @given(d=st.integers(2, 8), theta=st.floats(-10, 10))
    def test_orthogonal_with_unit_determinant(self, d, theta):
        g = givens_matrix(d, (0, d - 1), theta)
        assert orthogonality_error(g) <= 1e-9
        assert abs(np.linalg.det(g) - 1.0) <= 1e-6

    def test_invalid_pair_rejected(self):
        for pair in [(1, 1), (2, 1), (-1, 0), (0, 3)]:
            with pytest.raises(ValueError):
                givens_matrix(3, pair, 0.5)


class TestGramSchmidt:
    @given(d=st.integers(1, 12), seed=st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_orthonormalizes(self, d, seed):
        a = np.random.default_rng(seed).standard_normal((d, d))
        q = _orthonormalize(a[None])[0][0]
        assert orthogonality_error(q) <= 1e-9
        assert abs(abs(np.linalg.det(q)) - 1.0) <= 1e-6

    def test_degenerate_pivot_rejected(self):
        a = np.ones((3, 3))
        _, norms = _orthonormalize(a[None])
        assert (norms[0] >= 1e-12).tolist() == [True, False, False]
        with pytest.raises(ValueError, match="pivot at column 1"):
            gram_schmidt(a)

    def test_identity_is_fixed(self):
        np.testing.assert_array_equal(_orthonormalize(np.eye(4)[None])[0][0], np.eye(4))

    @pytest.mark.parametrize("m", [1, 3, 50])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 10, 17, 20, 33, 64])
    def test_stack_is_bit_identical_to_the_loop(self, d, m):
        stack = np.random.default_rng(d * 100 + m).standard_normal((m, d, d))
        if d > 1:
            # one near-degenerate column: its pivot norm is about 1e-9
            stack[m // 2, :, 1] = stack[m // 2, :, 0] + 1e-9 * stack[m // 2, :, 1]
        q, norms = _orthonormalize(stack)
        assert (norms >= 1e-12).all()
        for i in range(m):
            assert np.array_equal(q[i], gram_schmidt(stack[i])), i

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_stack_flags_the_degenerate_matrix(self, d):
        stack = np.random.default_rng(d).standard_normal((4, d, d))
        stack[2] = np.ones((d, d))
        q, norms = _orthonormalize(stack)
        assert np.flatnonzero((norms < 1e-12).any(axis=1)).tolist() == [2]
        for i in (0, 1, 3):
            assert np.array_equal(q[i], gram_schmidt(stack[i]))
        with pytest.raises(ValueError, match="pivot"):
            gram_schmidt(stack[2])


class TestInitialRotation:
    def test_one_dimensional(self):
        ls = init_landscape(ScenarioConfig(dimension=1, num_components=3),
                            np.random.default_rng(0))
        assert ls.rotations.shape == (3, 1, 1)
        assert (abs(abs(ls.rotations) - 1.0) < 1e-12).all()

    def test_disabled_gives_identity(self):
        cfg = ScenarioConfig(dimension=5, num_components=3, rotation_enabled=False)
        ls = init_landscape(cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(ls.rotations, np.broadcast_to(np.eye(5), (3, 5, 5)))

    @given(d=st.integers(1, 10), seed=st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_orthogonal(self, d, seed):
        cfg = ScenarioConfig(dimension=d, num_components=2)
        for r in init_landscape(cfg, np.random.default_rng(seed)).rotations:
            assert orthogonality_error(r) <= 1e-9


def plane_orders(rng, m, d):
    """One plane permutation per matrix, drawn as a change draws them."""
    return np.stack([rng.permutation(d * (d - 1) // 2) for _ in range(m)])


class TestUpdateRotation:
    def test_identity_at_zero_angle(self):
        out = update_rotation(np.eye(4)[None], np.zeros(1),
                              plane_orders(np.random.default_rng(0), 1, 4))
        np.testing.assert_allclose(out[0], np.eye(4), atol=1e-15)

    def test_single_plane_2d(self):
        theta = math.pi / 9
        out = update_rotation(np.eye(2)[None], [theta],
                              plane_orders(np.random.default_rng(0), 1, 2))
        expect = [[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]]
        np.testing.assert_allclose(out[0], expect, atol=1e-15)

    def test_matches_explicit_matrix_product(self):
        # the two-row update must equal building each plane matrix and
        # multiplying in the same permuted order, for every matrix of the
        # stack with its own angle and order
        d, thetas = 5, [0.37, -1.1]
        rng = np.random.default_rng(5)
        r0 = np.stack([initial_rotation(rng.standard_normal((d, d))) for _ in thetas])
        orders = plane_orders(np.random.default_rng(99), len(thetas), d)
        out = update_rotation(r0, thetas, orders)
        pairs = plane_pairs(d)
        for k, theta in enumerate(thetas):
            product = np.eye(d)
            for idx in orders[k]:
                product = product @ givens_matrix(d, pairs[idx], theta)
            np.testing.assert_allclose(out[k], product @ r0[k], atol=1e-12)

    @given(d=st.integers(1, 8), seed=st.integers(0, 1000), theta=st.floats(-math.pi, math.pi))
    @settings(max_examples=50)
    def test_stays_orthogonal(self, d, seed, theta):
        rng = np.random.default_rng(seed)
        r = initial_rotation(rng.standard_normal((d, d)))
        out = update_rotation(r[None], [theta], plane_orders(rng, 1, d))[0]
        assert orthogonality_error(out) <= 1e-9
        assert abs(abs(np.linalg.det(out)) - 1.0) <= 1e-6

    def test_deterministic(self):
        r = initial_rotation(np.random.default_rng(1).standard_normal((6, 6)))[None]
        before = r.copy()
        a = update_rotation(r, [0.3], plane_orders(np.random.default_rng(7), 1, 6))
        b = update_rotation(r, [0.3], plane_orders(np.random.default_rng(7), 1, 6))
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(r, before)  # the result is a fresh stack

    def test_unrepairable_drift_raises(self):
        # an 8x8 Hilbert matrix (condition number about 1e10) has pivots well
        # above the degenerate limit, but Gram-Schmidt leaves it about 2e-7
        # from orthogonal; the check must hold under python -O too
        i = np.arange(8)
        hilbert = 1.0 / (i[:, None] + i[None, :] + 1)
        assert orthogonality_error(gram_schmidt(hilbert)) > ORTHOGONALITY_TOL
        good = np.eye(8)
        with pytest.raises(ValueError, match="rotation matrix 1 is not orthogonal"):
            update_rotation(np.stack([good, hilbert]), np.zeros(2),
                            np.tile(np.arange(28), (2, 1)))


def reflect_one(value, delta, lo, hi):
    """``value`` moved by ``delta`` and folded into [lo, hi], through
    :func:`reflect` on a one-element array."""
    return float(reflect(np.array([value + delta]), lo, hi)[0])


class TestReflect:
    def test_huge_deltas_land_inside(self):
        # a mirror loop never ends on these; run them in a child process so
        # a hang fails the test instead of stalling the suite
        code = (
            "import numpy as np\n"
            "from gmpbench import ScenarioConfig, advance_environment, init_landscape\n"
            "from gmpbench.dynamics import reflect\n"
            "v = reflect(np.array([1e300, -1e300, 1e308]), -1.0, 1.0)\n"
            "assert ((v >= -1.0) & (v <= 1.0)).all(), v\n"
            "cfg = ScenarioConfig(dimension=3, num_components=4, height_severity=1e12,\n"
            "                     num_environments=3)\n"
            "rng = np.random.default_rng(0)\n"
            "ls = advance_environment(init_landscape(cfg, rng), cfg, rng)\n"
            "lo, hi = cfg.height_range\n"
            "assert ((ls.heights >= lo) & (ls.heights <= hi)).all(), ls.heights\n"
            "print('inside')\n")
        src = str(Path(gmpbench.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "inside"

    @given(value=st.floats(-50, 50), delta=st.floats(-100, 100))
    def test_one_mirror_matches_the_loop(self, value, delta):
        # within a range width of an edge the fold is the exact mirror
        assert reflect_one(value, delta, -50.0, 50.0) == oracle_reflect(value, delta, -50.0, 50.0)

    def test_array_folds_elementwise(self):
        rng = np.random.default_rng(3)
        v = rng.uniform(-150.0, 150.0, (4, 5))
        before = v.copy()
        out = reflect(v, -50.0, 50.0)
        assert out.shape == v.shape
        np.testing.assert_array_equal(v, before)  # the result is a fresh array
        np.testing.assert_array_equal(
            out, [[oracle_reflect(x, 0.0, -50.0, 50.0) for x in row] for row in v.tolist()])

    def test_in_range_passes_through(self):
        assert reflect_one(5.0, 2.0, 0.0, 10.0) == 7.0

    def test_upper_reflection(self):
        assert reflect_one(8.0, 5.0, 0.0, 10.0) == 7.0

    def test_lower_reflection(self):
        assert reflect_one(2.0, -5.0, 0.0, 10.0) == 3.0

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            reflect(np.zeros(1), 1.0, 0.0)

    def test_degenerate_range(self):
        assert reflect_one(5.0, 3.0, 5.0, 5.0) == 5.0

    @given(value=st.floats(-50, 50), delta=st.floats(-500, 500))
    def test_always_lands_inside(self, value, delta):
        v = reflect_one(value, delta, -50.0, 50.0)
        assert -50.0 <= v <= 50.0

    @given(value=st.floats(-50, 50))
    def test_zero_delta_in_range_is_identity(self, value):
        assert reflect_one(value, 0.0, -50.0, 50.0) == value


class TestUpdateComponent:
    def test_zero_severities_keep_parameters(self):
        cfg = ScenarioConfig(dimension=3, num_components=1, shift_severity=0.0,
                             height_severity=0.0, width_severity=0.0,
                             angle_severity=0.0, tau_severity=0.0, eta_severity=0.0)
        rng = np.random.default_rng(42)
        comp = peaks(init_landscape(cfg, rng))[0]
        new = update_one(comp, cfg, rng)
        np.testing.assert_array_equal(new.center, comp.center)
        assert new.height == comp.height
        np.testing.assert_array_equal(new.widths, comp.widths)
        assert new.angle == comp.angle
        assert new.tau == comp.tau
        np.testing.assert_array_equal(new.eta, comp.eta)
        # rotation still advances by the plane-rotation product at the angle
        assert not np.array_equal(new.rotation, comp.rotation)
        assert orthogonality_error(new.rotation) <= 1e-9

    def test_shift_length_equals_severity_in_interior(self):
        cfg = ScenarioConfig(dimension=5, num_components=1, shift_severity=1.0,
                             height_severity=0.0, width_severity=0.0,
                             angle_severity=0.0, tau_severity=0.0, eta_severity=0.0)
        rng = np.random.default_rng(3)
        comp = peaks(init_landscape(cfg, rng))[0]
        # pin the center well inside so no reflection triggers
        comp = dataclasses.replace(comp, center=np.zeros(5))
        for _ in range(20):
            new = update_one(comp, cfg, rng)
            assert np.linalg.norm(new.center - comp.center) == pytest.approx(1.0, rel=1e-12)
            comp = dataclasses.replace(new, center=np.zeros(5))

    def test_parameters_stay_bounded(self):
        cfg = ScenarioConfig(dimension=4, num_components=1)
        rng = np.random.default_rng(8)
        comp = peaks(init_landscape(cfg, rng))[0]
        for _ in range(500):
            comp = update_one(comp, cfg, rng)
            assert in_ranges(comp, cfg)

    def test_rotation_disabled_stays_identity(self):
        cfg = ScenarioConfig(dimension=3, num_components=1, rotation_enabled=False)
        rng = np.random.default_rng(9)
        comp = peaks(init_landscape(cfg, rng))[0]
        for _ in range(5):
            comp = update_one(comp, cfg, rng)
        np.testing.assert_array_equal(comp.rotation, np.eye(3))

    def test_deterministic(self):
        cfg = ScenarioConfig(dimension=3, num_components=1)
        comp = peaks(init_landscape(cfg, np.random.default_rng(5)))[0]
        a = update_one(comp, cfg, np.random.default_rng(77))
        b = update_one(comp, cfg, np.random.default_rng(77))
        np.testing.assert_array_equal(a.center, b.center)
        np.testing.assert_array_equal(a.rotation, b.rotation)
        assert a.height == b.height


class TestStackedDynamics:
    @pytest.mark.parametrize("rotation", [True, False])
    @pytest.mark.parametrize("d,m", [(d, m) for d in (1, 2, 5, 20) for m in (1, 3, 50)])
    def test_bit_identical_to_per_component_oracle(self, d, m, rotation):
        cfg = ScenarioConfig(dimension=d, num_components=m, num_environments=21,
                             rotation_enabled=rotation, seed=d * 100 + m)
        rng = np.random.default_rng(cfg.seed)
        oracle_rng = np.random.default_rng(cfg.seed)
        ls = init_landscape(cfg, rng)
        comps = oracle_init_landscape(cfg, oracle_rng)
        assert_same_peaks(ls, comps, 0)
        for env in range(1, cfg.num_environments):
            ls = advance_environment(ls, cfg, rng)
            comps = oracle_change(comps, cfg, oracle_rng)
            assert ls.environment_index == env
            assert_same_peaks(ls, comps, env)
            k = int(np.argmax([c.height for c in comps]))
            assert ls.optimum_value == comps[k].height
            assert np.array_equal(ls.optimum_position, comps[k].center)
        # both generators consumed the same draws
        assert rng.standard_normal() == oracle_rng.standard_normal()

    @pytest.mark.parametrize("rotation", [True, False])
    @pytest.mark.parametrize("d,m", [(d, m) for d in (1, 2, 5, 20, 33) for m in (1, 3, 50)])
    def test_init_bit_identical_to_oracle(self, d, m, rotation):
        cfg = ScenarioConfig(dimension=d, num_components=m, rotation_enabled=rotation,
                             seed=d * 1000 + m)
        rng = np.random.default_rng(cfg.seed)
        oracle_rng = np.random.default_rng(cfg.seed)
        assert_same_peaks(init_landscape(cfg, rng), oracle_init_landscape(cfg, oracle_rng))
        assert np.array_equal(rng.standard_normal(8), oracle_rng.standard_normal(8))

    @pytest.mark.parametrize("k", [0, 1, 4])
    @pytest.mark.parametrize("d", [2, 5])
    def test_degenerate_source_redrawn_in_stream_order(self, d, k):
        # a degenerate source matrix is not drawn again: it becomes the
        # identity, so the stream and every other draw are an ordinary run's
        cfg = ScenarioConfig(dimension=d, num_components=5, seed=11)
        rng = DegenerateOnce(cfg.seed, k)
        oracle_rng = DegenerateOnce(cfg.seed, k)
        ls = init_landscape(cfg, rng)
        assert_same_peaks(ls, oracle_init_landscape(cfg, oracle_rng))
        plain_rng = np.random.default_rng(cfg.seed)
        plain = init_landscape(cfg, plain_rng)
        assert np.array_equal(ls.rotations[k], np.eye(d))
        others = np.arange(cfg.num_components) != k
        assert np.array_equal(ls.rotations[others], plain.rotations[others])
        assert_same_peaks(dataclasses.replace(ls, rotations=plain.rotations), peaks(plain))
        assert rng.bit_generator.state == plain_rng.bit_generator.state

    @pytest.mark.parametrize("rotation", [True, False])
    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_degenerate_shift_redrawn_in_stream_order(self, k, rotation):
        # a degenerate direction is not drawn again: it becomes the first
        # axis, so the stream and every other draw are an ordinary run's
        d, m = 3, 5
        cfg = ScenarioConfig(dimension=d, num_components=m, num_environments=3,
                             rotation_enabled=rotation, seed=12)
        rng = np.random.default_rng(cfg.seed)
        ls = init_landscape(cfg, rng)
        # component k at the origin, so that its step is not reflected
        centers = ls.centers.copy()
        centers[k] = 0.0
        ls = dataclasses.replace(ls, centers=centers)
        start = rng.bit_generator.state
        stub = DegenerateShift(start, d, k)
        oracle_rng = DegenerateShift(start, d, k)
        new = advance_environment(ls, cfg, stub)
        assert_same_peaks(new, oracle_change(peaks(ls), cfg, oracle_rng))
        plain = np.random.default_rng()
        plain.bit_generator.state = start
        undisturbed = advance_environment(ls, cfg, plain)
        assert new.centers[k].tolist() == [cfg.shift_severity, 0.0, 0.0]
        others = np.arange(m) != k
        assert np.array_equal(new.centers[others], undisturbed.centers[others])
        assert_same_peaks(dataclasses.replace(new, centers=undisturbed.centers),
                          peaks(undisturbed))
        assert stub.bit_generator.state == plain.bit_generator.state

    def test_update_component_is_a_one_component_change(self):
        cfg = ScenarioConfig(dimension=4, num_components=1)
        comp = peaks(init_landscape(cfg, np.random.default_rng(6)))[0]
        new = update_one(comp, cfg, np.random.default_rng(60))
        expect = oracle_update_component(comp, cfg, np.random.default_rng(60))
        for attr in ("center", "rotation", "widths", "height", "angle", "tau", "eta"):
            assert np.array_equal(getattr(new, attr), getattr(expect, attr)), attr


class TestLandscapeLifecycle:
    def test_init_fixed_height_range(self):
        cfg = ScenarioConfig(dimension=2, num_components=4, height_range=(50.0, 50.0))
        ls = init_landscape(cfg, np.random.default_rng(0))
        assert all(c.height == 50.0 for c in peaks(ls))
        assert ls.optimum_value == 50.0

    def test_init_respects_all_ranges(self):
        cfg = ScenarioConfig()
        ls = init_landscape(cfg, np.random.default_rng(1))
        assert len(peaks(ls)) == 10
        for comp in peaks(ls):
            assert in_ranges(comp, cfg)
            assert orthogonality_error(comp.rotation) <= 1e-9

    def test_init_deterministic(self):
        cfg = ScenarioConfig(dimension=4, num_components=3)
        a = init_landscape(cfg, np.random.default_rng(123))
        b = init_landscape(cfg, np.random.default_rng(123))
        for ca, cb in zip(peaks(a), peaks(b)):
            np.testing.assert_array_equal(ca.center, cb.center)
            np.testing.assert_array_equal(ca.rotation, cb.rotation)
            assert ca.height == cb.height

    def test_init_rejects_invalid_config(self):
        with pytest.raises(ValueError, match="width range must be positive"):
            init_landscape(ScenarioConfig(width_range=(0.0, 12.0)), np.random.default_rng(0))

    def test_advance_increments_and_recomputes(self):
        cfg = ScenarioConfig(dimension=2, num_components=3, num_environments=4)
        rng = np.random.default_rng(2)
        ls = init_landscape(cfg, rng)
        nxt = advance_environment(ls, cfg, rng)
        assert nxt.environment_index == 1
        assert nxt.optimum_value == max(c.height for c in peaks(nxt))
        assert ls.environment_index == 0  # original untouched

    def test_advance_zero_severity_keeps_values(self):
        cfg = ScenarioConfig(dimension=2, num_components=3, num_environments=4,
                             shift_severity=0.0, height_severity=0.0,
                             width_severity=0.0, angle_severity=0.0,
                             tau_severity=0.0, eta_severity=0.0,
                             rotation_enabled=False)
        rng = np.random.default_rng(2)
        ls = init_landscape(cfg, rng)
        nxt = advance_environment(ls, cfg, rng)
        assert nxt.environment_index == 1
        for a, b in zip(peaks(ls), peaks(nxt)):
            np.testing.assert_array_equal(a.center, b.center)
            assert a.height == b.height

    def test_full_trajectory_invariants(self):
        cfg = ScenarioConfig(dimension=3, num_components=2, num_environments=30)
        rng = np.random.default_rng(4)
        ls = init_landscape(cfg, rng)
        for _ in range(cfg.num_environments - 1):
            ls = advance_environment(ls, cfg, rng)
            for comp in peaks(ls):
                assert in_ranges(comp, cfg)
                assert orthogonality_error(comp.rotation) <= 1e-9
        assert ls.environment_index == 29
