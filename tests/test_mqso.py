"""Multi-swarm solver: particle moves, exclusion, anti-convergence, detection."""

import dataclasses

import numpy as np
import pytest

from gmpbench import (
    MQSO,
    BenchmarkSession,
    ExperimentSpec,
    ScenarioComplete,
    ScenarioConfig,
    SolverConfig,
    run_experiment,
)
from gmpbench.mqso import Swarm, _gbest_gaps
from gmpbench.protocol import CHANGE_DETECTION_TOL
from test_landscape import violations


def make_session(**kw):
    base = dict(dimension=2, num_components=2, change_frequency=2000,
                num_environments=2, seed=5)
    base.update(kw)
    return BenchmarkSession(ScenarioConfig(**base))


class ZeroNormalOnce:
    """A generator whose ``n``-th ``standard_normal`` call comes back with
    row ``row`` zeroed: the direction of that ball sample is degenerate.
    Every other draw is the seeded generator's; ``hits`` counts the zeroed
    rows."""

    def __init__(self, seed, n, row):
        self._rng = np.random.default_rng(seed)
        self.bit_generator = self._rng.bit_generator
        self._left = n
        self._row = row
        self.hits = 0

    def uniform(self, *args):
        return self._rng.uniform(*args)

    def random(self, *args):
        return self._rng.random(*args)

    def standard_normal(self, size=None):
        draw = self._rng.standard_normal(size)
        self._left -= 1
        if self._left == 0:
            draw[self._row] = 0.0
            self.hits += 1
        return draw


# three valid radii, for configs built by hand
RADII = dict(cloud_radius=1.0, exclusion_radius=2.0, convergence_radius=2.0)


def solver_config(scenario, **changes):
    """The config the harness runs for ``scenario``, with ``changes``."""
    return dataclasses.replace(SolverConfig.for_scenario(scenario), **changes)


def make_solver(session, rng_seed=0, cls=MQSO, **cfg_kw):
    return cls(session, solver_config(session.config, **cfg_kw), np.random.default_rng(rng_seed))


SWARM_STATE = ("positions", "velocities", "pbest_positions", "pbest_values",
               "gbest_position", "gbest_value")


def swarm_states(solver):
    """A copy of every swarm's state, in swarm order."""
    return [{name: np.copy(getattr(swarm, name)) for name in SWARM_STATE}
            for swarm in solver.swarms]


class Recording:
    """Solver mixin that records one entry per step, the step the budget
    cuts short included: the detection as :meth:`change_reaction` returned
    it (``None`` when the budget ran out before it returned), the
    environment index read from the session, and each swarm's generation as
    the step left it. A step that returned also records a copy of every
    swarm's state (``"swarms"``); the step that ``ScenarioComplete`` cut
    records none, as what it had committed is never used."""

    def __init__(self, *args, **kwargs):
        self.record = []
        super().__init__(*args, **kwargs)

    def change_reaction(self):
        self._detected = super().change_reaction()
        return self._detected

    def step(self):
        self._detected = None
        entry = {}
        try:
            super().step()
            entry["swarms"] = swarm_states(self)
        finally:
            entry.update(detected=self._detected,
                         environment_index=self.session.landscape.environment_index,
                         generations=tuple(s.generation for s in self.swarms))
            self.record.append(entry)


class RecordingMQSO(Recording, MQSO):
    pass


class TestSolverConfig:
    def test_scenario_defaults(self):
        scenario = ScenarioConfig(dimension=2, num_components=4)
        cfg = SolverConfig.for_scenario(scenario)
        assert cfg.cloud_radius == scenario.shift_severity
        assert cfg.exclusion_radius == pytest.approx(0.5 * 200 / 4 ** 0.5)
        assert cfg.convergence_radius == cfg.exclusion_radius

    def test_violations(self):
        assert violations(SolverConfig, chi=1.5, **RADII)
        assert violations(SolverConfig, num_swarms=0, **RADII)
        assert violations(SolverConfig, **dict(RADII, cloud_radius=-1.0))
        assert not violations(SolverConfig, cloud_radius=1.0, exclusion_radius=2.0,
                              convergence_radius=2.0)

    def test_zero_cloud_is_allowed(self):
        # a scenario whose peaks do not move resolves the cloud radius to 0
        assert not violations(SolverConfig, cloud_radius=0.0, exclusion_radius=2.0,
                              convergence_radius=2.0)
        assert (violations(SolverConfig, **dict(RADII, cloud_radius=-1e-9))
                == ["cloud_radius must be nonnegative"])
        for name in ("exclusion_radius", "convergence_radius"):
            assert (violations(SolverConfig, **dict(RADII, **{name: 0.0}))
                    == [f"{name} must be positive"])

    @pytest.mark.parametrize("name, value", [
        ("num_swarms", 2.5), ("neutral_count", 2.5), ("quantum_count", 1.5), ("num_swarms", True)])
    def test_counts_must_be_integers(self, name, value):
        # rejected when the config is built, before a solver evaluates anything
        assert violations(SolverConfig, **{name: value}, **RADII) == [f"{name} must be an integer"]
        session = make_session()
        with pytest.raises(ValueError, match=f"invalid solver config: {name} must be an integer"):
            MQSO(session, SolverConfig(**{name: value}, **RADII), np.random.default_rng(0))
        assert session.ledger.total == 0

    def test_numpy_integer_counts_run_as_python_ints(self):
        scenario = ScenarioConfig(dimension=2, num_components=3, change_frequency=150,
                                  num_environments=2, seed=3)
        ledgers = []
        for counts in (dict(num_swarms=3, neutral_count=2, quantum_count=2),
                       dict(num_swarms=np.int64(3), neutral_count=np.int32(2),
                            quantum_count=np.uint8(2))):
            assert not violations(solver_config, scenario, **counts)
            cfg = solver_config(scenario, **counts)
            session = BenchmarkSession(scenario)
            MQSO(session, cfg, np.random.default_rng(8)).run()
            ledgers.append(session.ledger.values)
        assert np.array_equal(*ledgers)
        # stored as ints: int8 counts of 100 would sum to -56 as given
        counts = dict(neutral_count=np.int8(100), quantum_count=np.int8(100))
        assert not violations(SolverConfig, **counts, **RADII)
        cfg = SolverConfig(**counts, **RADII)
        assert (type(cfg.neutral_count), type(cfg.quantum_count)) == (int, int)

    def test_bad_config_rejected_at_attach(self):
        with pytest.raises(ValueError, match="chi"):
            MQSO(make_session(), SolverConfig(chi=0.0, **RADII), np.random.default_rng(0))

    @pytest.mark.parametrize("name", ["chi", "c1", "c2", "cloud_radius",
                                      "exclusion_radius", "convergence_radius"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                       pytest.param(10 ** 400, id="huge-int"),
                                       pytest.param(-10 ** 400, id="huge-negative-int")])
    def test_non_finite_constants_are_violations(self, name, value):
        # nan radii would switch exclusion off or reinitialize every step,
        # an infinite cloud sends quantum particles to the box corners; an
        # int beyond the float range is not finite either
        scenario = ScenarioConfig(dimension=2, num_components=3)
        bad = violations(solver_config, scenario, **{name: value})
        assert f"{name} must be finite" in "; ".join(bad)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            MQSO(make_session(), solver_config(scenario, **{name: value}),
                 np.random.default_rng(0))

    @pytest.mark.parametrize("name", ["chi", "c1", "c2", "cloud_radius",
                                      "exclusion_radius", "convergence_radius"])
    @pytest.mark.parametrize("value", ["0.5", True, [0.5]])
    def test_constants_that_are_not_numbers_are_violations(self, name, value):
        # named, not crashed on; a bool is not a number
        scenario = ScenarioConfig(dimension=2, num_components=3)
        assert violations(solver_config, scenario, **{name: value}) == [f"{name} must be a number"]
        with pytest.raises(ValueError, match=f"{name} must be a number"):
            MQSO(make_session(), solver_config(scenario, **{name: value}),
                 np.random.default_rng(0))

    def test_chi_left_unset_is_a_violation(self):
        assert violations(SolverConfig, chi=None, **RADII) == ["chi must be a number"]


class TestRadiusRule:
    @pytest.mark.parametrize("name", ["cloud_radius", "exclusion_radius", "convergence_radius"])
    def test_unresolved_radius_rejected(self, name):
        # the radii are required: a config cannot leave one unset, and an
        # explicit None is not a number
        with pytest.raises(TypeError, match=name):
            SolverConfig()
        with pytest.raises(TypeError, match=name):
            SolverConfig(**{other: 1.0 for other in RADII if other != name})
        session = make_session()
        assert violations(solver_config, session.config, **{name: None}) == [
            f"{name} must be a number"]
        with pytest.raises(ValueError, match=f"invalid solver config: {name} must be a number"):
            MQSO(session, solver_config(session.config, **{name: None}), np.random.default_rng(0))

    def test_solver_uses_the_radii_the_experiment_reports(self, tmp_path):
        scenario = ScenarioConfig(dimension=5, num_components=25, shift_severity=2.0,
                                  change_frequency=200, num_environments=1)
        result = run_experiment(ExperimentSpec(scenario=scenario, run_count=1,
                                               output_dir=tmp_path))
        solver = MQSO(BenchmarkSession(scenario), SolverConfig.for_scenario(scenario),
                      np.random.default_rng(0))
        params = result["solver_params"]
        assert params["cloud_radius"] == 2.0
        assert params["exclusion_radius"] == 0.5 * 200.0 / 25 ** (1 / 5)
        assert dataclasses.asdict(solver.config) == params


class TestInitialization:
    def test_population_layout(self):
        s = make_session()
        solver = make_solver(s, num_swarms=3, neutral_count=4, quantum_count=2)
        assert len(solver.swarms) == 3
        assert all(sw.size == 6 for sw in solver.swarms)
        assert s.ledger.total == 18
        for sw in solver.swarms:
            assert sw.gbest_value == sw.pbest_values.max()
            lb, ub = s.bounds
            assert ((sw.positions >= lb) & (sw.positions <= ub)).all()
            assert (sw.velocities == 0).all()


def record_evaluations(session):
    """Wrap ``session.evaluate`` to log each scored ``(x, value)`` in call
    order; a block logs each row it consumed."""
    calls = []
    evaluate = session.evaluate

    def recording(x, **kwargs):
        value = evaluate(x, **kwargs)
        x = np.array(x, dtype=float)
        if x.ndim == 1:
            calls.append((x, value))
        else:
            calls.extend(zip(x, value))
        return value

    session.evaluate = recording
    return calls


class TestSolverStep:
    def test_degenerate_constants_freeze_neutrals(self):
        # The swarm attractor updates inside the particle loop, so each
        # quantum particle is checked against the gbest it was sampled
        # around, replayed from the step's evaluations, not the final gbest.
        for scenario_seed in (5, 9, 13):
            for rng_seed in range(5):
                s = make_session(seed=scenario_seed)
                # chi = 0 is rejected; 1e-12 is numerically zero
                solver = make_solver(s, rng_seed=rng_seed, num_swarms=2, chi=1e-12, c1=0.0, c2=0.0)
                before = [sw.positions[:sw.neutral_count].copy() for sw in solver.swarms]
                start = [(sw.gbest_position.copy(), sw.gbest_value) for sw in solver.swarms]
                env = s.landscape.environment_index
                calls = iter(record_evaluations(s))
                solver.solver_step()
                assert s.landscape.environment_index == env
                for sw, prev, (g_pos, g_val) in zip(solver.swarms, before, start):
                    np.testing.assert_allclose(sw.positions[:sw.neutral_count], prev, atol=1e-9)
                    for i in range(sw.size):
                        x, value = next(calls)
                        np.testing.assert_array_equal(x, sw.positions[i])
                        if i >= sw.neutral_count:
                            assert np.linalg.norm(x - g_pos) <= solver.config.cloud_radius + 1e-12
                        if value > g_val:
                            g_pos, g_val = x, value
                    np.testing.assert_array_equal(g_pos, sw.gbest_position)
                    assert g_val == sw.gbest_value
                assert next(calls, None) is None

    def test_quantum_ball_sampling(self):
        s = make_session()
        solver = make_solver(s, rng_seed=3)
        center = np.array([10.0, -20.0])
        samples = center + solver._ball_offsets(10_000, 2)
        dists = np.linalg.norm(samples - center, axis=1)
        assert (dists <= solver.config.cloud_radius).all()
        # uniform in the ball, not on the sphere: interior mass present
        assert (dists < 0.5 * solver.config.cloud_radius).mean() > 0.1

    @pytest.mark.parametrize("d", [1, 3])
    def test_zero_direction_takes_the_first_axis(self, d):
        # a degenerate direction is replaced, not drawn again: the sample's
        # radius lies on the first axis and the stream is an ordinary run's
        solver = make_solver(make_session(dimension=d), rng_seed=3)
        solver.rng = stub = ZeroNormalOnce(30, 1, 2)
        offsets = solver._ball_offsets(5, d)
        solver.rng = plain = np.random.default_rng(30)
        expected = solver._ball_offsets(5, d)
        assert stub.hits == 1
        assert stub.bit_generator.state == plain.bit_generator.state
        others = np.arange(5) != 2
        assert np.array_equal(offsets[others], expected[others])
        replay = np.random.default_rng(30)
        replay.standard_normal((5, d))
        radii = solver.config.cloud_radius * replay.random(5) ** (1.0 / d)
        assert offsets[2].tolist() == [radii[2]] + [0.0] * (d - 1)

    def test_gbest_nondecreasing_without_reinit(self):
        s = make_session(num_components=5, seed=9)
        solver = make_solver(s, rng_seed=1, num_swarms=4)
        traces = [[sw.gbest_value] for sw in solver.swarms]
        for _ in range(25):
            solver.solver_step()  # moves only: no exclusion, no detection
            for trace, sw in zip(traces, solver.swarms):
                trace.append(sw.gbest_value)
        for trace in traces:
            assert (np.diff(trace) >= 0).all()

    def test_positions_stay_in_bounds(self):
        s = make_session(seed=13)
        solver = make_solver(s, rng_seed=2, num_swarms=3)
        lb, ub = s.bounds
        for _ in range(20):
            solver.solver_step()
            for sw in solver.swarms:
                assert ((sw.positions >= lb) & (sw.positions <= ub)).all()

    def test_gbest_is_best_pbest(self):
        s = make_session(seed=17)
        solver = make_solver(s, rng_seed=4, num_swarms=3)
        for _ in range(10):
            solver.solver_step()
        for sw in solver.swarms:
            assert sw.gbest_value == sw.pbest_values.max()


class TestExclusion:
    def test_colliding_swarms_reinitialize_worse(self):
        s = make_session()
        solver = make_solver(s, num_swarms=3)
        spot = np.array([0.0, 0.0])
        for sw, value in zip(solver.swarms, [5.0, 3.0, 50.0]):
            sw.gbest_position = spot.copy()
            sw.gbest_value = value
        solver.swarms[2].gbest_position = np.array([90.0, 90.0])
        gen_before = [sw.generation for sw in solver.swarms]
        solver.exclusion()
        gens = [sw.generation for sw in solver.swarms]
        assert gens[1] == gen_before[1] + 1  # the worse of the colliding pair
        assert gens[0] == gen_before[0]
        assert gens[2] == gen_before[2]

    def test_tie_reinitializes_higher_index(self):
        s = make_session()
        solver = make_solver(s, num_swarms=2)
        spot = np.array([1.0, 2.0])
        for sw in solver.swarms:
            sw.gbest_position = spot.copy()
            sw.gbest_value = 10.0
        solver.exclusion()
        assert solver.swarms[0].generation == 0
        assert solver.swarms[1].generation == 1

    def test_distant_swarms_untouched(self):
        s = make_session()
        solver = make_solver(s, num_swarms=3)
        for i, sw in enumerate(solver.swarms):
            sw.gbest_position = np.array([i * 80.0 - 80.0, 0.0])
        evals_before = s.ledger.total
        solver.exclusion()
        assert all(sw.generation == 0 for sw in solver.swarms)
        assert s.ledger.total == evals_before

    def test_survivors_separated_or_fresh(self):
        s = make_session(seed=23)
        solver = make_solver(s, rng_seed=6, num_swarms=4)
        for _ in range(15):
            solver.solver_step()
            fresh = {i for i, sw in enumerate(solver.swarms) if False}
            gens = [sw.generation for sw in solver.swarms]
            solver.exclusion()
            for i in range(4):
                for j in range(i + 1, 4):
                    gap = np.linalg.norm(solver.swarms[i].gbest_position
                                         - solver.swarms[j].gbest_position)
                    refreshed = (solver.swarms[i].generation > gens[i]
                                 or solver.swarms[j].generation > gens[j])
                    assert gap >= solver.config.exclusion_radius or refreshed

    def test_reinitialization_mid_scan_matches_per_pair_loop(self):
        # Swarms 0 and 1 collide and 0 is the worse; swarm 3 sits where the
        # fresh swarm 0 lands, so the second collision, (0, 3), exists only
        # for a scan that sees the reinitialized swarm.
        def excluded(cls, spot_3):
            s = make_session(seed=29)
            solver = cls(s, solver_config(s.config, num_swarms=4),
                         np.random.default_rng(3))
            places = [[10.0, 10.0], [10.0, 10.0], [-80.0, 80.0], spot_3]
            for sw, place, value in zip(solver.swarms, places, [1.0, 2.0, 3.0, -1e9]):
                sw.gbest_position = np.array(place)
                sw.gbest_value = value
            solver.exclusion()
            return s, solver

        _, dry = excluded(MQSO, [80.0, -80.0])
        assert [sw.generation for sw in dry.swarms] == [1, 0, 0, 0]
        landing = dry.swarms[0].gbest_position
        runs = [excluded(cls, landing) for cls in (RecordingPerParticleMQSO, RecordingMQSO)]
        (s_old, old), (s_new, new) = runs
        assert [sw.generation for sw in new.swarms] == [1, 0, 0, 1]
        assert_same_run(s_new, new, s_old, old)

    def test_stacked_gaps_equal_norm(self):
        rng = np.random.default_rng(17)
        for d in (1, 2, 3, 5, 10, 20, 33, 64):
            bests = rng.uniform(-100, 100, (12, d))
            bests[5] = bests[2] + rng.uniform(-1e-6, 1e-6, d)  # a near collision
            bests[7] = bests[4]
            norms = np.array([[np.linalg.norm(a - b) for b in bests] for a in bests])
            np.testing.assert_array_equal(_gbest_gaps(bests), norms)
            # a swarm's diameter is the largest gap among its neutral rows
            for nc in (0, 1, 2, 5):
                swarm = Swarm(positions=bests, velocities=np.zeros_like(bests),
                              pbest_positions=bests, pbest_values=np.zeros(12),
                              neutral_count=nc)
                assert swarm.diameter() == max((norms[i, j] for i in range(nc)
                                                for j in range(nc)), default=0.0)


class TestAntiConvergence:
    def collapse(self, swarm, spot):
        n = swarm.neutral_count
        swarm.positions[:n] = spot + 1e-6 * np.arange(n)[:, None]

    def test_no_action_while_one_swarm_roams(self):
        s = make_session()
        solver = make_solver(s, num_swarms=3)
        for sw in solver.swarms[:2]:
            self.collapse(sw, np.zeros(2))
        solver.swarms[2].positions[: solver.swarms[2].neutral_count] = (
            np.array([[-90.0, -90.0], [90.0, 90.0], [0.0, 0.0], [50.0, -50.0], [-50.0, 50.0]]))
        solver.anti_convergence()
        assert all(sw.generation == 0 for sw in solver.swarms)

    def test_total_convergence_restarts_worst(self):
        s = make_session()
        solver = make_solver(s, num_swarms=3)
        for i, sw in enumerate(solver.swarms):
            self.collapse(sw, np.full(2, i * 10.0))
            sw.gbest_value = [40.0, 10.0, 30.0][i]
        solver.anti_convergence()
        gens = [sw.generation for sw in solver.swarms]
        assert gens == [0, 1, 0]
        lb, ub = s.bounds
        fresh = solver.swarms[1]
        assert ((fresh.positions >= lb) & (fresh.positions <= ub)).all()


class TestChangeReaction:
    def test_static_environment_not_flagged(self):
        s = make_session(num_environments=1)
        solver = make_solver(s, rng_seed=8)
        assert solver.change_reaction() is False
        assert solver.change_reaction() is False

    def test_detects_environment_changes(self):
        session = BenchmarkSession(ScenarioConfig(
            dimension=2, num_components=3, change_frequency=500,
            num_environments=5, seed=31))
        solver = make_solver(session, rng_seed=9, cls=RecordingMQSO)
        solver.run()
        detections = sum(bool(entry["detected"]) for entry in solver.record)
        assert detections == 4  # one per boundary crossed

    def test_reaction_resets_gbest_from_refreshed_pbests(self):
        session = BenchmarkSession(ScenarioConfig(
            dimension=2, num_components=3, change_frequency=200,
            num_environments=3, seed=37))
        solver = make_solver(session, rng_seed=10)
        while session.landscape.environment_index == 0:
            solver.solver_step()
        assert solver.change_reaction() is True
        for sw in solver.swarms:
            assert sw.gbest_value == sw.pbest_values.max()


class TestFullRun:
    def test_budget_fully_consumed(self):
        session = make_session(change_frequency=400, num_environments=3)
        solver = make_solver(session, rng_seed=11)
        solver.run()
        assert session.ledger.total == 1200
        assert session.ledger.complete
        e_o, e_bbc = session.indicators()
        assert e_bbc <= e_o

    def test_run_deterministic(self):
        outcomes = []
        for _ in range(2):
            session = make_session(change_frequency=300, num_environments=2)
            solver = make_solver(session, rng_seed=12)
            solver.run()
            outcomes.append(session.indicators())
        assert outcomes[0] == outcomes[1]

    def test_budget_exhaustion_mid_init_is_clean(self):
        session = make_session(change_frequency=30, num_environments=1)
        with pytest.raises(ScenarioComplete):
            make_solver(session)  # 100-particle init exceeds the 30-eval budget
        assert session.ledger.complete


class PerParticleMQSO(MQSO):
    """The particle-by-particle solver, one evaluation per call: the oracle
    that the block-scoring :class:`MQSO` must reproduce bit for bit."""

    def _new_swarm(self):
        lb, ub = self.session.bounds
        d = self.session.dimension
        n = self.config.neutral_count + self.config.quantum_count
        positions = self.rng.uniform(lb, ub, (n, d))
        values = np.empty(n)
        for i in range(n):
            values[i] = self.session.evaluate(positions[i])
        return Swarm(positions=positions, velocities=np.zeros((n, d)),
                     pbest_positions=positions.copy(), pbest_values=values,
                     neutral_count=self.config.neutral_count)

    def _sample_ball(self, count, d):
        """The offsets of ``count`` ball samples, one at a time, from all
        their directions drawn in one call and then all their radii."""
        directions = self.rng.standard_normal((count, d))
        radii = self.config.cloud_radius * self.rng.uniform(0.0, 1.0, count) ** (1.0 / d)
        offsets = []
        for v, radius in zip(directions, radii):
            norm = float(np.linalg.norm(v))
            if norm < 1e-12:
                v, norm = np.eye(d)[0], 1.0
            offsets.append((radius / norm) * v)
        return offsets

    def change_reaction(self):
        detected = False
        for swarm in self.swarms:
            value = self.session.evaluate(swarm.gbest_position)
            if abs(value - swarm.gbest_value) > CHANGE_DETECTION_TOL:
                detected = True
                break
        if detected:
            for swarm in self.swarms:
                for i in range(swarm.size):
                    swarm.pbest_values[i] = self.session.evaluate(swarm.pbest_positions[i])
                swarm.refresh_gbest()
        return detected

    def exclusion(self):
        n = len(self.swarms)
        for i in range(n - 1):
            for j in range(i + 1, n):
                gap = float(np.linalg.norm(self.swarms[i].gbest_position
                                           - self.swarms[j].gbest_position))
                if gap < self.config.exclusion_radius:
                    worse = j if self.swarms[j].gbest_value <= self.swarms[i].gbest_value else i
                    self._reinitialize(worse)

    def anti_convergence(self):
        def diameter(swarm):
            # numpy's axis=-1 norm, not the solver's stacked gaps
            p = swarm.positions[:swarm.neutral_count]
            if len(p) < 2:
                return 0.0
            return float(np.linalg.norm(p[:, None, :] - p[None, :, :], axis=-1).max())

        if any(diameter(s) >= self.config.convergence_radius for s in self.swarms):
            return
        worst = int(np.argmin([s.gbest_value for s in self.swarms]))
        self._reinitialize(worst)

    def solver_step(self):
        lb, ub = self.session.bounds
        cfg = self.config
        for swarm in self.swarms:
            nc = swarm.neutral_count
            for i in range(swarm.size):
                if i < nc:
                    u1 = self.rng.uniform(0.0, 1.0, self.session.dimension)
                    u2 = self.rng.uniform(0.0, 1.0, self.session.dimension)
                    v = cfg.chi * (swarm.velocities[i]
                                   + cfg.c1 * u1 * (swarm.pbest_positions[i] - swarm.positions[i])
                                   + cfg.c2 * u2 * (swarm.gbest_position - swarm.positions[i]))
                    x = swarm.positions[i] + v
                    out = (x < lb) | (x > ub)
                    if out.any():
                        x = np.clip(x, lb, ub)
                        v = np.where(out, 0.0, v)
                    swarm.velocities[i] = v
                else:
                    if i == nc:  # the swarm's quantum draws, at its first quantum particle
                        ball = self._sample_ball(swarm.size - nc, self.session.dimension)
                    x = np.clip(swarm.gbest_position + ball[i - nc], lb, ub)
                swarm.positions[i] = x
                value = self.session.evaluate(x)
                if value > swarm.pbest_values[i]:
                    swarm.pbest_values[i] = value
                    swarm.pbest_positions[i] = x.copy()
                    if value > swarm.gbest_value:
                        swarm.gbest_value = value
                        swarm.gbest_position = x.copy()


class RecordingPerParticleMQSO(Recording, PerParticleMQSO):
    pass


def log_blocks(session):
    """Wrap ``session.evaluate`` to log (rows sent, values, stop rule,
    raised) of each block call. The values are those the call returned, or,
    for a call that raised ``ScenarioComplete``, those it recorded in the
    ledger; the rule is the call's keywords (``above`` or
    ``differs_from``), and every keyword is passed on."""
    blocks = []
    evaluate = session.evaluate

    def logging(x, **kwargs):
        before = session.ledger.total
        try:
            values = evaluate(x, **kwargs)
        except ScenarioComplete:
            if np.ndim(x) == 2:
                recorded = session.ledger.values[before:session.ledger.total].copy()
                blocks.append((len(x), recorded, kwargs, True))
            raise
        if np.ndim(x) == 2:
            blocks.append((len(x), values, kwargs, False))
        return values

    session.evaluate = logging
    return blocks


def stopped(values, rule):
    """Per consumed row of a logged block, whether its stop rule fired,
    recomputed from the logged keywords."""
    if "above" in rule:
        return values > rule["above"]
    if "differs_from" in rule:
        remembered = rule["differs_from"][:len(values)]
        return np.abs(values - remembered) > CHANGE_DETECTION_TOL
    return np.zeros(len(values), dtype=bool)


def assert_same_swarms(new, old):
    """Two lists of :func:`swarm_states` are equal bit for bit."""
    for a, b in zip(new, old, strict=True):
        for name in SWARM_STATE:
            np.testing.assert_array_equal(a[name], b[name], err_msg=name)


def assert_same_run(s_new, new, s_old, old):
    """The two sessions' full ledgers are equal bit for bit, and so are the
    two solvers' records: each step's detection, environment index and
    generations, and the swarms' state after every step that returned. The
    solvers' current state is compared too, unless a step that the budget
    cut left it."""
    for name in ("values", "errors", "optima", "env_final_errors"):
        np.testing.assert_array_equal(getattr(s_new.ledger, name), getattr(s_old.ledger, name))
    assert len(new.record) == len(old.record)
    for a, b in zip(new.record, old.record):
        assert a.keys() == b.keys()
        for key in ("detected", "environment_index", "generations"):
            assert a[key] == b[key], key
        if "swarms" in a:
            assert_same_swarms(a["swarms"], b["swarms"])
    if not new.record or "swarms" in new.record[-1]:
        assert [s.generation for s in new.swarms] == [s.generation for s in old.swarms]
        assert_same_swarms(swarm_states(new), swarm_states(old))


class TestBlockScoring:
    # the environment counts make each budget end inside a block
    @pytest.mark.parametrize("d, m, environments, solver_kw", [
        (1, 4, 5, {}),
        (2, 3, 4, {"num_swarms": 5, "neutral_count": 3, "quantum_count": 4}),
        (10, 10, 5, {}),
        (20, 12, 4, {"neutral_count": 0, "quantum_count": 6}),
    ])
    def test_bit_identical_to_per_particle_oracle(self, d, m, environments, solver_kw):
        config = ScenarioConfig(dimension=d, num_components=m, change_frequency=137,
                                num_environments=environments, seed=40 + d)
        runs = []
        for cls in (RecordingPerParticleMQSO, RecordingMQSO):
            session = BenchmarkSession(config)
            blocks = log_blocks(session)
            solver = cls(session, solver_config(config, **solver_kw),
                         np.random.default_rng(d))
            solver.run()
            runs.append((session, solver, blocks))
        (s_old, old, _), (s_new, new, blocks) = runs
        # the budget ran out inside a block that no row of it had stopped:
        # the block recorded the rows that fit and raised
        n, values, rule, raised = blocks[-1]
        assert raised and 0 < len(values) < n and not stopped(values, rule).any()
        assert s_new.ledger.complete and s_old.ledger.complete
        assert_same_run(s_new, new, s_old, old)
        # moves were scored as blocks, some of them cut short by a new
        # gbest, and a block came back short only after its rule's hit
        short = [stopped(v, rule) for rows, v, rule, raised in blocks
                 if len(v) < rows and not raised]
        assert short and all(hits[-1] for hits in short)

    @pytest.mark.parametrize("d", [1, 3])
    def test_zero_direction_matches_the_oracle(self, d):
        config = ScenarioConfig(dimension=d, num_components=3, change_frequency=300,
                                num_environments=2, seed=70 + d)
        runs = []
        for cls in (RecordingPerParticleMQSO, RecordingMQSO):
            session = BenchmarkSession(config)
            rng = ZeroNormalOnce(d, 5, 2)
            solver = cls(session, SolverConfig.for_scenario(config), rng)
            solver.run()
            assert rng.hits == 1
            runs.append((session, solver))
        (s_old, old), (s_new, new) = runs
        assert_same_run(s_new, new, s_old, old)


class TestSentinelBlock:
    """The change-detection sentinels, sent as one block, against the
    oracle's one sentinel per call."""

    SOLVER = dict(num_swarms=5, neutral_count=3, quantum_count=2)
    STEPS = 4  # steps before the one whose sentinels are checked

    def config(self, **kw):
        return ScenarioConfig(dimension=2, num_components=3, seed=61, **kw)

    def sentinel_start(self):
        """Ledger position of the first sentinel of step ``STEPS``, from a
        run in a static environment: the same up to the first change."""
        session = BenchmarkSession(self.config(change_frequency=10_000, num_environments=1))
        solver = make_solver(session, rng_seed=7, **self.SOLVER)
        for _ in range(self.STEPS):
            solver.step()
        return session.ledger.total

    def run_both(self, config, perturb=None):
        """Both solvers on ``config``; ``perturb`` names a swarm whose
        remembered gbest value is raised before step ``STEPS``, so that its
        sentinel detects a change that did not happen."""
        runs = []
        for cls in (RecordingPerParticleMQSO, RecordingMQSO):
            session = BenchmarkSession(config)
            solver = cls(session, solver_config(config, **self.SOLVER),
                         np.random.default_rng(7))
            for _ in range(self.STEPS):
                solver.step()
            if perturb is not None:
                solver.swarms[perturb].gbest_value += 1.0
            blocks = log_blocks(session)
            solver.run()
            runs.append((session, solver, blocks))
        (s_old, old, _), (s_new, new, blocks) = runs
        assert_same_run(s_new, new, s_old, old)
        n, values, rule, raised = blocks[0]  # the sentinel block of step STEPS
        assert n == self.SOLVER["num_swarms"] and "differs_from" in rule
        return new, values, stopped(values, rule), raised

    def test_detection_at_a_later_sentinel(self):
        config = self.config(change_frequency=2000, num_environments=2)
        new, values, hits, raised = self.run_both(config, perturb=3)
        assert len(values) == 4 and hits[-1] and not hits[:-1].any() and not raised
        assert new.record[self.STEPS]["detected"] is True

    def test_block_across_a_change_detects_on_its_first_new_row(self):
        # sentinels 0-2 are scored before the change, sentinel 3 after it
        start = self.sentinel_start()
        config = self.config(change_frequency=start + 3, num_environments=2)
        new, values, hits, raised = self.run_both(config)
        assert len(values) == 4 and hits[-1] and not hits[:-1].any() and not raised
        assert new.record[self.STEPS]["detected"] is True
        assert new.record[self.STEPS]["environment_index"] == 1

    def test_budget_ends_inside_the_block(self):
        start = self.sentinel_start()
        config = self.config(change_frequency=start + 3, num_environments=1)
        new, values, hits, raised = self.run_both(config)
        # the block recorded the three sentinels that fit and raised
        assert raised and len(values) == 3 and not hits.any()
        assert len(new.record) == self.STEPS + 1
        # the budget ran out inside the sentinels, before any detection
        assert new.record[-1]["detected"] is None

    def test_detection_on_the_last_row_of_the_budget(self):
        start = self.sentinel_start()
        config = self.config(change_frequency=start + 4, num_environments=1)
        new, values, hits, raised = self.run_both(config, perturb=3)
        # the detection itself is the last sentinel's hit, returned with
        # the whole budget spent; the reaction to it found no budget left,
        # so change_reaction did not return
        assert len(values) == 4 and hits[-1] and not raised
        assert len(new.record) == self.STEPS + 1
        assert new.record[-1]["detected"] is None
