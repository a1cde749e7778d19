"""Objective function: transform identities, component cones, max-composition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmpbench import (
    ComponentState,
    ScenarioConfig,
    advance_environment,
    component_value,
    evaluate_batch,
    evaluate_raw,
    init_landscape,
    irregularity_transform,
    make_landscape,
    optimum,
    transform_vector,
    validate_config,
)
from gmpbench.cli import main
from gmpbench.landscape import _BLOCK_ELEMENTS

ETA0 = np.zeros(4)


def plain_component(center, height, widths, d=None):
    center = np.asarray(center, dtype=float)
    return ComponentState(center=center, height=height,
                          widths=np.asarray(widths, dtype=float),
                          angle=0.0, tau=0.0, eta=ETA0,
                          rotation=np.eye(len(center)))


def oracle_value(x, landscape):
    """The landscape formula, component by component on the scalar warp."""
    best = -math.inf
    for comp in landscape.components:
        y = comp.rotation @ (x - comp.center)
        t = [irregularity_transform(v, comp.tau, comp.eta) for v in y]
        best = max(best, comp.height - math.sqrt(sum(w * v * v for w, v in zip(comp.widths, t))))
    return best


def random_component(rng, d=2):
    cfg = ScenarioConfig(dimension=d, num_components=1)
    return init_landscape(cfg, rng).components[0]


finite_offsets = st.floats(min_value=1e-12, max_value=1e6, allow_nan=False)
taus = st.floats(min_value=-1.0, max_value=1.0)
etas = st.floats(min_value=-20.0, max_value=20.0)


class TestIrregularityTransform:
    def test_zero_maps_to_zero_exactly(self):
        assert irregularity_transform(0.0, 0.7, [3.0, 4.0, 5.0, 6.0]) == 0.0

    def test_one_is_fixed_exactly(self):
        assert irregularity_transform(1.0, 0.9, [17.0, -3.0, 2.0, 8.0]) == 1.0
        assert irregularity_transform(-1.0, 0.9, [17.0, -3.0, 2.0, 8.0]) == -1.0

    def test_tau_zero_is_identity(self):
        assert irregularity_transform(5.0, 0.0, [9.0, 9.0, 9.0, 9.0]) == pytest.approx(5.0, rel=1e-12)

    def test_known_value_at_e(self):
        # y = e: log y = 1, sin(pi/2) = 1 twice, so exp(1 + 0.2 * 2) = e^1.4
        got = irregularity_transform(math.e, 0.2, [math.pi / 2, math.pi / 2, 0.0, 0.0])
        assert got == pytest.approx(math.exp(1.4), rel=1e-12)

    @given(y=finite_offsets, tau=taus, e1=etas, e2=etas, e3=etas, e4=etas)
    def test_sign_preserving(self, y, tau, e1, e2, e3, e4):
        eta = [e1, e2, e3, e4]
        assert irregularity_transform(y, tau, eta) > 0.0
        assert irregularity_transform(-y, tau, eta) < 0.0

    @given(y=finite_offsets, tau=taus, e1=etas, e2=etas)
    def test_odd_when_frequencies_mirror(self, y, tau, e1, e2):
        eta = [e1, e2, e1, e2]
        plus = irregularity_transform(y, tau, eta)
        minus = irregularity_transform(-y, tau, eta)
        assert minus == -plus

    @given(y=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), e1=etas, e2=etas)
    def test_tau_zero_identity_property(self, y, e1, e2):
        got = irregularity_transform(y, 0.0, [e1, e2, e1, e2])
        assert got == pytest.approx(y, rel=1e-12, abs=0.0) or (y == 0.0 and got == 0.0)

    @given(y=finite_offsets, tau=taus, e1=etas, e2=etas, e3=etas, e4=etas)
    def test_vector_matches_scalar(self, y, tau, e1, e2, e3, e4):
        eta = np.array([e1, e2, e3, e4])
        arr = np.array([y, -y, 0.0])
        out = transform_vector(arr, tau, eta)
        expect = [irregularity_transform(v, tau, eta) for v in arr]
        assert out == pytest.approx(expect, rel=1e-15)


class TestComponentValue:
    def test_unit_cone(self):
        comp = plain_component([0.0, 0.0], 50.0, [1.0, 1.0])
        assert component_value(np.array([3.0, 4.0]), comp) == pytest.approx(45.0, rel=1e-12)

    def test_weighted_cone(self):
        comp = plain_component([0.0, 0.0], 50.0, [4.0, 1.0])
        expect = 50.0 - math.sqrt(5.0)
        assert component_value(np.array([1.0, 1.0]), comp) == pytest.approx(expect, rel=1e-12)

    def test_center_attains_height_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            comp = random_component(rng, d=3)
            assert component_value(comp.center, comp) == comp.height

    def test_strictly_below_height_off_center(self):
        rng = np.random.default_rng(12)
        comp = random_component(rng, d=4)
        for _ in range(50):
            x = rng.uniform(-100, 100, 4)
            assert component_value(x, comp) < comp.height

    def test_dimension_mismatch(self):
        comp = plain_component([0.0, 0.0], 50.0, [1.0, 1.0])
        with pytest.raises(ValueError):
            component_value(np.zeros(3), comp)


class TestEvaluateRaw:
    def test_single_component_center(self):
        ls = make_landscape(0, [plain_component([1.0, 2.0], 42.0, [2.0, 3.0])])
        assert evaluate_raw(np.array([1.0, 2.0]), ls) == 42.0

    def test_max_of_two_cones(self):
        c1 = plain_component([0.0, 0.0], 50.0, [1.0, 1.0])
        c2 = plain_component([10.0, 0.0], 60.0, [1.0, 1.0])
        ls = make_landscape(0, [c1, c2])
        # at c2's center the first cone is 50 - 10 = 40 < 60
        assert evaluate_raw(np.array([10.0, 0.0]), ls) == 60.0
        # halfway: max(50 - 5, 60 - 5) = 55
        assert evaluate_raw(np.array([5.0, 0.0]), ls) == pytest.approx(55.0, rel=1e-12)

    def test_never_exceeds_optimum(self):
        rng = np.random.default_rng(21)
        ls = init_landscape(ScenarioConfig(dimension=2, num_components=10), rng)
        xs = rng.uniform(-100, 100, (500, 2))
        vals = evaluate_batch(xs, ls)
        assert (vals <= ls.optimum_value).all()

    def test_batch_matches_single(self):
        # (dimension, components, rotation, points); the first case spans
        # two full blocks of evaluate_batch plus a partial one
        rows = _BLOCK_ELEMENTS // (3 * 5)
        cases = [(3, 5, True, 2 * rows + 7), (4, 1, True, 40), (1, 6, True, 40),
                 (5, 4, False, 40)]
        rng = np.random.default_rng(22)
        for d, m, rotation, n in cases:
            ls = init_landscape(ScenarioConfig(dimension=d, num_components=m,
                                               rotation_enabled=rotation), rng)
            xs = rng.uniform(-100, 100, (n, d))
            xs[::7][:m] = ls.centers
            batch = evaluate_batch(xs, ls)
            single = np.array([evaluate_raw(x, ls) for x in xs])
            expect = np.array([oracle_value(x, ls) for x in xs])
            # stacked sums round differently; values are at most about 1e3
            np.testing.assert_allclose(single, expect, rtol=1e-12, atol=1e-10)
            # a row's value does not depend on the block it is scored in
            np.testing.assert_array_equal(batch, single)
            for size in range(1, 34):
                for start in range(0, 40, size):
                    np.testing.assert_array_equal(evaluate_raw(xs[start:start + size], ls),
                                                  single[start:start + size])
            for k, comp in enumerate(ls.components):
                alone = make_landscape(0, [comp])
                assert evaluate_raw(comp.center, alone) == comp.height
                assert evaluate_batch(xs, alone)[7 * k] == comp.height
            assert evaluate_raw(ls.optimum_position, ls) == ls.optimum_value

    def test_dimension_mismatch(self):
        ls = make_landscape(0, [plain_component([0.0, 0.0], 50.0, [1.0, 1.0])])
        with pytest.raises(ValueError):
            evaluate_raw(np.zeros(3), ls)
        with pytest.raises(ValueError):
            evaluate_batch(np.zeros((4, 3)), ls)

    def test_radial_symmetry_equal_widths(self):
        comp = plain_component([3.0, -7.0], 55.0, [4.0, 4.0])
        ls = make_landscape(0, [comp])
        rng = np.random.default_rng(23)
        for radius in (0.5, 2.0, 30.0):
            angles = rng.uniform(0, 2 * math.pi, 64)
            pts = comp.center + radius * np.column_stack([np.cos(angles), np.sin(angles)])
            vals = evaluate_batch(pts, ls)
            assert vals.max() - vals.min() <= 1e-9

    def test_rotated_symmetry_with_equal_eta(self):
        # all four frequencies equal: value at c + R^-1 u equals value at c - R^-1 u
        rng = np.random.default_rng(24)
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        comp = ComponentState(center=np.array([1.0, -2.0]), height=60.0,
                              widths=np.array([3.0, 8.0]), angle=theta,
                              tau=0.4, eta=np.full(4, 7.5), rotation=rot)
        for _ in range(30):
            u = rng.uniform(-20, 20, 2)
            back = np.linalg.solve(rot, u)
            plus = component_value(comp.center + back, comp)
            minus = component_value(comp.center - back, comp)
            assert plus == pytest.approx(minus, rel=1e-12)


class TestOptimum:
    def test_single_component(self):
        comp = plain_component([4.0, 5.0], 50.0, [1.0, 1.0])
        value, position = optimum(make_landscape(0, [comp]))
        assert value == 50.0
        np.testing.assert_array_equal(position, [4.0, 5.0])

    def test_argmax_of_heights(self):
        comps = [plain_component([float(i), 0.0], h, [1.0, 1.0])
                 for i, h in enumerate([30.0, 70.0, 55.0])]
        value, position = optimum(make_landscape(0, comps))
        assert value == 70.0
        np.testing.assert_array_equal(position, [1.0, 0.0])

    def test_tie_breaks_to_lowest_index(self):
        comps = [plain_component([float(i), 0.0], 50.0, [1.0, 1.0]) for i in range(3)]
        _, position = optimum(make_landscape(0, comps))
        np.testing.assert_array_equal(position, [0.0, 0.0])

    def test_grid_never_beats_optimum(self):
        # coarse audit of the analytic optimum against exhaustive sampling;
        # the gap bound is half-cell offset times the worst cone slope
        # sqrt(max width * 2) inflated by the transform factor e^(2|tau|)
        rng = np.random.default_rng(31)
        cfg = ScenarioConfig(dimension=2, num_components=10)
        ls = init_landscape(cfg, rng)
        axis = np.linspace(-100, 100, 401)
        g1, g2 = np.meshgrid(axis, axis, indexing="ij")
        vals = evaluate_batch(np.column_stack([g1.ravel(), g2.ravel()]), ls)
        spacing = axis[1] - axis[0]
        bound = (spacing / 2) * math.sqrt(2) * math.sqrt(2 * 12.0) * math.exp(2.0)
        assert vals.max() <= ls.optimum_value
        assert ls.optimum_value - vals.max() <= bound


class TestScenarioConfig:
    def test_defaults_are_standard_settings(self):
        cfg = ScenarioConfig()
        assert cfg.dimension == 10
        assert cfg.num_components == 10
        assert cfg.shift_severity == 1.0
        assert cfg.height_severity == 7.0
        assert cfg.width_severity == 1.0
        assert cfg.angle_severity == pytest.approx(math.pi / 9)
        assert cfg.tau_severity == 0.2
        assert cfg.eta_severity == 2.0
        assert cfg.search_range == (-100.0, 100.0)
        assert cfg.height_range == (30.0, 70.0)
        assert cfg.width_range == (1.0, 12.0)
        assert cfg.angle_range == (-math.pi, math.pi)
        assert cfg.tau_range == (-1.0, 1.0)
        assert cfg.eta_range == (-20.0, 20.0)
        assert cfg.change_frequency == 5000
        assert cfg.num_environments == 100
        assert cfg.budget == 500_000

    def test_violations_are_named(self):
        cfg = ScenarioConfig(dimension=0, width_range=(0.0, 12.0), shift_severity=-1.0)
        bad = "; ".join(cfg.violations())
        assert "dimension" in bad
        assert "width range must be positive" in bad
        assert "shift_severity" in bad

    def test_non_finite_values_are_violations(self, tmp_path, capsys):
        # Python's json reads NaN and Infinity as floats
        path = tmp_path / "scenario.json"
        path.write_text('{"shift_severity": NaN, "tau_severity": Infinity, '
                        '"search_range": [-Infinity, 100], "height_range": [30, NaN]}')
        _, problems = validate_config(path)
        bad = "; ".join(problems)
        for name in ("shift_severity", "tau_severity", "search_range", "height_range"):
            assert f"{name} must be finite" in bad or f"{name} bounds must be finite" in bad
        assert main(["validate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "shift_severity must be finite" in err
        assert "height_range bounds must be finite" in err

    def test_overflowing_severities_and_range_widths_are_violations(self):
        # 64 standard deviations bound every draw a severity scales
        bad = "; ".join(ScenarioConfig(height_severity=1e308).violations())
        assert "height_severity is too large" in bad
        bad = "; ".join(ScenarioConfig(search_range=(-1e308, 1e308),
                                       eta_range=(-1e308, 1e308)).violations())
        assert "search_range width" in bad and "eta_range width" in bad
        assert not ScenarioConfig(height_severity=1e306, search_range=(-8e307, 8e307)).violations()

    def test_large_severity_keeps_the_landscape_finite(self):
        cfg = ScenarioConfig(dimension=2, num_components=3, height_severity=1e306,
                             num_environments=30).validate()
        rng = np.random.default_rng(0)
        ls = init_landscape(cfg, rng)
        for _ in range(29):
            ls = advance_environment(ls, cfg, rng)
            for name in ("centers", "rotations", "widths", "heights", "angles", "tau", "eta"):
                assert np.isfinite(getattr(ls, name)).all()
            assert math.isfinite(ls.optimum_value)
        assert ls.environment_index == 29

    def test_validate_raises(self):
        with pytest.raises(ValueError, match="change_frequency"):
            ScenarioConfig(change_frequency=0).validate()
