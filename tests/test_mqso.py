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
from gmpbench.mqso import CHANGE_DETECTION_TOL, Swarm, _gbest_gaps


def make_session(**kw):
    base = dict(dimension=2, num_components=2, change_frequency=2000,
                num_environments=2, seed=5)
    base.update(kw)
    return BenchmarkSession(ScenarioConfig(**base))


class ZeroNormalOnce:
    """A generator whose ``n``-th ``standard_normal`` call comes back as
    zeros: the direction of that ball sample is degenerate. Every other draw
    is the seeded generator's; ``hits`` counts the zeroed calls."""

    def __init__(self, seed, n):
        self._rng = np.random.default_rng(seed)
        self.bit_generator = self._rng.bit_generator
        self._left = n
        self.hits = 0

    def uniform(self, *args):
        return self._rng.uniform(*args)

    def random(self, *args):
        return self._rng.random(*args)

    def standard_normal(self, size=None, out=None):
        draw = self._rng.standard_normal(size, out=out)
        self._left -= 1
        if self._left == 0:
            draw[...] = 0.0
            self.hits += 1
        return draw


def make_solver(session, rng_seed=0, cls=MQSO, **cfg_kw):
    cfg = SolverConfig.for_scenario(session.config, **cfg_kw)
    return cls(session, cfg, np.random.default_rng(rng_seed))


class Recording:
    """Solver mixin that records one entry per step, the step the budget
    cuts short included: the detection as :meth:`change_reaction` returned
    it (``None`` when the budget ran out before it returned), the
    environment index read from the session, and each swarm's generation and
    gbest value as the step left them."""

    def __init__(self, *args, **kwargs):
        self.record = []
        super().__init__(*args, **kwargs)

    def change_reaction(self):
        self._detected = super().change_reaction()
        return self._detected

    def step(self):
        self._detected = None
        try:
            super().step()
        finally:
            self.record.append({
                "detected": self._detected,
                "environment_index": self.session.landscape.environment_index,
                "generations": tuple(s.generation for s in self.swarms),
                "gbest_values": tuple(s.gbest_value for s in self.swarms),
            })


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
        assert SolverConfig(chi=1.5).violations()
        assert SolverConfig(num_swarms=0).violations()
        assert SolverConfig(cloud_radius=-1.0).violations()
        assert not SolverConfig(cloud_radius=1.0, exclusion_radius=2.0,
                                convergence_radius=2.0).violations()

    def test_zero_cloud_is_allowed(self):
        # a scenario whose peaks do not move resolves the cloud radius to 0
        assert not SolverConfig(cloud_radius=0.0, exclusion_radius=2.0,
                                convergence_radius=2.0).violations()
        assert SolverConfig(cloud_radius=-1e-9).violations() == ["cloud_radius must be nonnegative"]
        for name in ("exclusion_radius", "convergence_radius"):
            assert SolverConfig(**{name: 0.0}).violations() == [f"{name} must be positive"]

    @pytest.mark.parametrize("name, value", [
        ("num_swarms", 2.5), ("neutral_count", 2.5), ("quantum_count", 1.5), ("num_swarms", True)])
    def test_counts_must_be_integers(self, name, value):
        # rejected with the spec, before any run starts
        cfg = SolverConfig(**{name: value})
        assert cfg.violations() == [f"{name} must be an integer"]
        scenario = ScenarioConfig(dimension=2, num_components=3)
        spec = ExperimentSpec(scenario=scenario, solver_config=cfg, run_count=1)
        with pytest.raises(ValueError, match=f"invalid experiment spec: {name} must be an integer"):
            run_experiment(spec)

    def test_bad_config_rejected_at_attach(self):
        with pytest.raises(ValueError, match="chi"):
            MQSO(make_session(), SolverConfig(chi=0.0), np.random.default_rng(0))

    @pytest.mark.parametrize("name", ["chi", "c1", "c2", "cloud_radius",
                                      "exclusion_radius", "convergence_radius"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_constants_are_violations(self, name, value):
        # nan radii would switch exclusion off or reinitialize every step,
        # an infinite cloud sends quantum particles to the box corners
        scenario = ScenarioConfig(dimension=2, num_components=3)
        cfg = SolverConfig.for_scenario(scenario, **{name: value})
        assert f"{name} must be finite" in "; ".join(cfg.violations())
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            MQSO(make_session(), cfg, np.random.default_rng(0))
        spec = ExperimentSpec(scenario=scenario, solver_config=cfg, run_count=1)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            run_experiment(spec)


class TestRadiusRule:
    @pytest.mark.parametrize("name", ["cloud_radius", "exclusion_radius", "convergence_radius"])
    def test_unresolved_radius_rejected(self, name):
        session = make_session()
        resolved = SolverConfig.for_scenario(session.config)
        with pytest.raises(ValueError, match=f"{name} not set.*for_scenario"):
            MQSO(session, dataclasses.replace(resolved, **{name: None}), np.random.default_rng(0))
        with pytest.raises(ValueError, match="cloud_radius, exclusion_radius, convergence_radius"):
            MQSO(session, SolverConfig(), np.random.default_rng(0))

    def test_solver_uses_the_radii_the_experiment_reports(self):
        scenario = ScenarioConfig(dimension=5, num_components=25, shift_severity=2.0,
                                  change_frequency=200, num_environments=1)
        result = run_experiment(ExperimentSpec(scenario=scenario, run_count=1))
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
        assert s.total_evaluations == 18
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
                solver = make_solver(s, rng_seed=rng_seed, num_swarms=2)
                solver.config.chi = 1e-12  # chi = 0 is rejected; this is numerically zero
                solver.config.c1 = 0.0
                solver.config.c2 = 0.0
                before = [sw.neutral_positions().copy() for sw in solver.swarms]
                start = [(sw.gbest_position.copy(), sw.gbest_value) for sw in solver.swarms]
                env = s.landscape.environment_index
                calls = iter(record_evaluations(s))
                solver.solver_step()
                assert s.landscape.environment_index == env
                for sw, prev, (g_pos, g_val) in zip(solver.swarms, before, start):
                    np.testing.assert_allclose(sw.neutral_positions(), prev, atol=1e-9)
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
        solver.rng = stub = ZeroNormalOnce(30, 3)
        offsets = solver._ball_offsets(5, d)
        solver.rng = plain = np.random.default_rng(30)
        expected = solver._ball_offsets(5, d)
        assert stub.hits == 1
        assert stub.bit_generator.state == plain.bit_generator.state
        others = np.arange(5) != 2
        assert np.array_equal(offsets[others], expected[others])
        replay = np.random.default_rng(30)
        for _ in range(3):
            replay.standard_normal(d)
            u = replay.random()
        radius = solver.config.cloud_radius * u ** (1.0 / d)
        assert offsets[2].tolist() == [radius] + [0.0] * (d - 1)

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
        evals_before = s.total_evaluations
        solver.exclusion()
        assert all(sw.generation == 0 for sw in solver.swarms)
        assert s.total_evaluations == evals_before

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
            solver = cls(s, SolverConfig.for_scenario(s.config, num_swarms=4),
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
        assert session.total_evaluations == 1200
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

    def _sample_ball(self, center):
        d = center.shape[0]
        v = self.rng.standard_normal(d)
        norm = float(np.linalg.norm(v))
        radius = self.config.cloud_radius * float(self.rng.uniform(0.0, 1.0)) ** (1.0 / d)
        if norm < 1e-12:
            v, norm = np.eye(d)[0], 1.0
        return center + (radius / norm) * v

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

    def solver_step(self):
        lb, ub = self.session.bounds
        cfg = self.config
        for swarm in self.swarms:
            for i in range(swarm.size):
                if i < swarm.neutral_count:
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
                    x = np.clip(self._sample_ball(swarm.gbest_position), lb, ub)
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
    """Wrap ``session.evaluate`` to log (rows sent, values, stop rule) of
    each block call; every keyword is passed on."""
    blocks = []
    evaluate = session.evaluate

    def logging(x, **kwargs):
        values = evaluate(x, **kwargs)
        if np.ndim(x) == 2:
            blocks.append((len(x), values, kwargs.get("stop")))
        return values

    session.evaluate = logging
    return blocks


def stopped(values, stop):
    """Per consumed row of a logged block, whether its stop rule fired."""
    if stop is None:
        return np.zeros(len(values), dtype=bool)
    return stop(values, slice(0, len(values)))


def assert_same_run(s_new, new, s_old, old):
    """The two sessions' ledgers and the two solvers are equal bit for bit."""
    for name in ("values", "errors", "optima", "env_final_errors"):
        np.testing.assert_array_equal(getattr(s_new.ledger, name), getattr(s_old.ledger, name))
    assert new.record == old.record
    for a, b in zip(new.swarms, old.swarms, strict=True):
        for name in ("positions", "velocities", "pbest_positions", "pbest_values",
                     "gbest_position"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert a.gbest_value == b.gbest_value
        assert a.generation == b.generation


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
            solver = cls(session, SolverConfig.for_scenario(config, **solver_kw),
                         np.random.default_rng(d))
            solver.run()
            runs.append((session, solver, blocks))
        (s_old, old, _), (s_new, new, blocks) = runs
        # the budget ran out inside a block that no row of it had stopped
        n, values, stop = blocks[-1]
        assert len(values) < n and not stopped(values, stop).any()
        assert s_new.ledger.complete and s_old.ledger.complete
        assert_same_run(s_new, new, s_old, old)
        # moves were scored as blocks, some of them cut short by a new gbest
        assert any(len(v) < rows and stopped(v, stop)[-1] for rows, v, stop in blocks)

    @pytest.mark.parametrize("d", [1, 3])
    def test_zero_direction_matches_the_oracle(self, d):
        config = ScenarioConfig(dimension=d, num_components=3, change_frequency=300,
                                num_environments=2, seed=70 + d)
        runs = []
        for cls in (RecordingPerParticleMQSO, RecordingMQSO):
            session = BenchmarkSession(config)
            rng = ZeroNormalOnce(d, 12)
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
        return session.total_evaluations

    def run_both(self, config, perturb=None):
        """Both solvers on ``config``; ``perturb`` names a swarm whose
        remembered gbest value is raised before step ``STEPS``, so that its
        sentinel detects a change that did not happen."""
        runs = []
        for cls in (RecordingPerParticleMQSO, RecordingMQSO):
            session = BenchmarkSession(config)
            solver = cls(session, SolverConfig.for_scenario(config, **self.SOLVER),
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
        n, values, stop = blocks[0]  # the sentinel block of step STEPS
        assert n == self.SOLVER["num_swarms"]
        return new, values, stopped(values, stop)

    def test_detection_at_a_later_sentinel(self):
        config = self.config(change_frequency=2000, num_environments=2)
        new, values, hits = self.run_both(config, perturb=3)
        assert len(values) == 4 and hits[-1] and not hits[:-1].any()
        assert new.record[self.STEPS]["detected"] is True

    def test_block_across_a_change_detects_on_its_first_new_row(self):
        # sentinels 0-2 are scored before the change, sentinel 3 after it
        start = self.sentinel_start()
        config = self.config(change_frequency=start + 3, num_environments=2)
        new, values, hits = self.run_both(config)
        assert len(values) == 4 and hits[-1] and not hits[:-1].any()
        assert new.record[self.STEPS]["detected"] is True
        assert new.record[self.STEPS]["environment_index"] == 1

    def test_budget_ends_inside_the_block(self):
        start = self.sentinel_start()
        config = self.config(change_frequency=start + 3, num_environments=1)
        new, values, hits = self.run_both(config)
        assert len(values) == 3 and not hits.any()
        assert len(new.record) == self.STEPS + 1
        # the budget ran out inside the sentinels, before any detection
        assert new.record[-1]["detected"] is None

    def test_detection_on_the_last_row_of_the_budget(self):
        start = self.sentinel_start()
        config = self.config(change_frequency=start + 4, num_environments=1)
        new, values, hits = self.run_both(config, perturb=3)
        # the detection itself is the last sentinel's hit; the reaction to
        # it found no budget left, so change_reaction did not return
        assert len(values) == 4 and hits[-1]
        assert len(new.record) == self.STEPS + 1
        assert new.record[-1]["detected"] is None
