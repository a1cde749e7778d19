"""Multi-swarm quantum PSO baseline (mQSO).

A fixed number of sub-swarms, each mixing neutral particles (constriction
PSO moves) with quantum particles (uniform resampling in a ball around the
swarm's global best, maintaining local diversity). The global best is the
swarm attractor and updates asynchronously, as in Blackwell & Branke (2006):
each quantum particle is sampled around the global best as it stands when
that particle moves, so the global best at the end of a step may lie up to
``2 * cloud_radius`` from a quantum particle sampled earlier in that step.
Exclusion reinitializes the worse of two swarms whose global bests collide;
anti-convergence reinitializes the worst swarm once every swarm has
contracted. Changes are detected by re-evaluating each swarm's global best
once per iteration, since the session gives no change signal.

Each swarm's moves are scored as blocks, speculatively and exactly. All of
a swarm's random draws are made first, in the order of a particle-by-particle
step; the moves of the particles not yet scored are then computed from the
current global best and sent as one block that the session stops after the
first row beating that global best. The consumed rows are committed, and the
rest are recomputed around the new global best and sent again. Every
particle therefore moves, and every evaluation lands in the ledger, exactly
as in the particle-by-particle step. The change-detection sentinels, one per
swarm, go out as one block too, which the session stops after the first
sentinel whose value differs from the remembered one.

The solver touches the benchmark only through the black-box session surface
(evaluate / bounds / dimension / budget), keeps no log of its steps, and is
single-threaded: evaluation order determines the error ledger, so it must be
reproducible from the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .landscape import _is_integer
from .protocol import BenchmarkSession, ScenarioComplete

__all__ = ["SolverConfig", "Swarm", "MQSO", "CHANGE_DETECTION_TOL"]

CHANGE_DETECTION_TOL = 1e-9

_COUNTS = ("num_swarms", "neutral_count", "quantum_count")
_RADII = ("cloud_radius", "exclusion_radius", "convergence_radius")


@dataclass
class SolverConfig:
    """mQSO parameters.

    ``chi``, ``c1``, ``c2`` are the standard constriction constants. The
    three radii have one rule, applied by :meth:`for_scenario` to the radii
    left as ``None``, after Blackwell & Branke (2006):

    * ``cloud_radius`` = the scenario's ``shift_severity``;
    * ``exclusion_radius`` = ``convergence_radius`` =
      ``0.5 * (ub - lb) / num_components ** (1 / dimension)``, half the
      expected spacing of the peaks in the search box ``[lb, ub]``.

    :class:`MQSO` takes a config with all three radii set, so the solver
    that the harness runs and one built by hand from ``for_scenario`` are
    the same solver. The exclusion and convergence radii must be positive.
    The cloud radius may be 0, as it is for a scenario whose peaks do not
    move (``shift_severity`` 0): each quantum particle then samples the
    global best itself.
    """

    num_swarms: int = 10
    neutral_count: int = 5
    quantum_count: int = 5
    chi: float = 0.729843788
    c1: float = 2.05
    c2: float = 2.05
    cloud_radius: float | None = None
    exclusion_radius: float | None = None
    convergence_radius: float | None = None

    @classmethod
    def for_scenario(cls, scenario, **overrides) -> "SolverConfig":
        """A config with ``overrides`` and the radii they leave open
        resolved from ``scenario`` by the rule of the class docstring."""
        cfg = cls(**overrides)
        lb, ub = scenario.search_range
        spacing = 0.5 * (ub - lb) / scenario.num_components ** (1.0 / scenario.dimension)
        if cfg.cloud_radius is None:
            cfg = replace(cfg, cloud_radius=scenario.shift_severity)
        if cfg.exclusion_radius is None:
            cfg = replace(cfg, exclusion_radius=spacing)
        if cfg.convergence_radius is None:
            cfg = replace(cfg, convergence_radius=spacing)
        return cfg

    def violations(self) -> list[str]:
        """All violated constraints, each naming the offending field; radii
        left as ``None`` are not violations here."""
        bad = [f"{name} must be an integer" for name in _COUNTS
               if not _is_integer(getattr(self, name))]
        if not bad:
            if self.num_swarms < 1:
                bad.append("num_swarms must be >= 1")
            if self.neutral_count < 0 or self.quantum_count < 0:
                bad.append("particle counts must be nonnegative")
            if self.neutral_count + self.quantum_count < 1:
                bad.append("each swarm needs at least one particle")
        for name in ("chi", "c1", "c2") + _RADII:
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                bad.append(f"{name} must be finite")
        if math.isfinite(self.chi) and not 0.0 < self.chi < 1.0:
            bad.append("chi must lie in (0, 1)")
        if self.cloud_radius is not None and math.isfinite(self.cloud_radius) and self.cloud_radius < 0:
            bad.append("cloud_radius must be nonnegative")
        for name in ("exclusion_radius", "convergence_radius"):
            v = getattr(self, name)
            if v is not None and math.isfinite(v) and v <= 0:
                bad.append(f"{name} must be positive")
        return bad


@dataclass(eq=False)
class Swarm:
    """One sub-swarm, stored particle-per-row.

    The first ``neutral_count`` rows are neutral particles, the rest quantum.
    ``generation`` counts the reinitializations of this slot; the
    benchmark's tracer counts a run's reinitializations from it.
    """

    positions: np.ndarray
    velocities: np.ndarray
    pbest_positions: np.ndarray
    pbest_values: np.ndarray
    neutral_count: int
    gbest_position: np.ndarray = field(init=False)
    gbest_value: float = field(init=False)
    generation: int = 0

    def __post_init__(self):
        self.refresh_gbest()

    @property
    def size(self) -> int:
        return self.positions.shape[0]

    def neutral_positions(self) -> np.ndarray:
        return self.positions[: self.neutral_count]

    def refresh_gbest(self):
        """Reset the global best from the personal bests (ties: lowest index)."""
        k = int(np.argmax(self.pbest_values))
        self.gbest_position = self.pbest_positions[k].copy()
        self.gbest_value = float(self.pbest_values[k])

    def diameter(self) -> float:
        """Largest pairwise distance among the neutral particles."""
        p = self.neutral_positions()
        if len(p) < 2:
            return 0.0
        return float(np.linalg.norm(p[:, None, :] - p[None, :, :], axis=-1).max())


def _above(best: float):
    """Stop rule for a block of moves: the rows scoring strictly above
    ``best``. Built by a function, not written inline, so that each rule
    keeps its own threshold once the caller's variable moves on."""
    return lambda values, rows: values > best


def _differs_from(remembered: np.ndarray):
    """Stop rule for a block of sentinels: the rows whose value differs from
    the value remembered for that row by more than the detection tolerance,
    as ``abs(value - remembered) > CHANGE_DETECTION_TOL``."""
    return lambda values, rows: np.abs(values - remembered[rows]) > CHANGE_DETECTION_TOL


def _gbest_gaps(points: np.ndarray) -> np.ndarray:
    """Euclidean distances between every pair of rows of ``points``.

    Each distance is ``sqrt`` of one vector-vector product, equal bit for
    bit to ``np.linalg.norm`` of the difference.
    """
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])


class MQSO:
    """Drives a benchmark session with the multi-swarm solver.

    Each :meth:`step` runs change detection (one sentinel evaluation per
    swarm, in one block cut short after the first hit), particle moves,
    exclusion and anti-convergence. Swarm reinitializations evaluate the
    fresh particles right away, so the ledger accounts for every evaluation
    the solver causes. Budget exhaustion surfaces as ``ScenarioComplete``
    from any evaluating call; a partially executed step is valid. The radii
    are read from ``config``, which must have all three set. Every random
    draw comes from ``rng``, so a run is reproducible from the generator's
    seed.
    """

    def __init__(self, session: BenchmarkSession, config: SolverConfig,
                 rng: np.random.Generator):
        bad = config.violations()
        unresolved = [name for name in _RADII if getattr(config, name) is None]
        if unresolved:
            bad.append(f"{', '.join(unresolved)} not set; resolve the radii with "
                       "SolverConfig.for_scenario(scenario)")
        if bad:
            raise ValueError("invalid solver config: " + "; ".join(bad))
        self.session = session
        self.rng = rng
        self.config = config
        self.swarms = [self._new_swarm() for _ in range(config.num_swarms)]

    # -- swarm construction -------------------------------------------------

    def _new_swarm(self) -> Swarm:
        lb, ub = self.session.bounds
        d = self.session.dimension
        n = self.config.neutral_count + self.config.quantum_count
        positions = self.rng.uniform(lb, ub, (n, d))
        values = np.empty(n)
        self._evaluate_into(positions, values)
        return Swarm(positions=positions,
                     velocities=np.zeros((n, d)),
                     pbest_positions=positions.copy(),
                     pbest_values=values,
                     neutral_count=self.config.neutral_count)

    def _reinitialize(self, index: int):
        generation = self.swarms[index].generation
        self.swarms[index] = self._new_swarm()
        self.swarms[index].generation = generation + 1

    def _evaluate_into(self, points: np.ndarray, out: np.ndarray):
        """Score every row of ``points`` into ``out``, block by block, so
        that the rows scored before the budget runs out are kept."""
        done = 0
        while done < points.shape[0]:
            values = self.session.evaluate(points[done:])
            out[done:done + values.shape[0]] = values
            done += values.shape[0]

    def _ball_offsets(self, count: int, d: int) -> np.ndarray:
        """Offsets of ``count`` uniform samples from the ball of
        ``cloud_radius`` around the origin, one per row.

        The draws are made sample by sample: a normal direction, then a
        uniform radius. A direction whose norm is below 1e-12 (probability
        zero) becomes the first axis, so each sample makes exactly these
        two draws. The norms and scales are computed once for all rows.
        """
        cloud = self.config.cloud_radius
        offsets = np.empty((count, d))
        radii = []
        for v in offsets:
            self.rng.standard_normal(d, out=v)
            radii.append(cloud * self.rng.random() ** (1.0 / d))
        # one vector-vector product per row, np.linalg.norm's dot bit for bit
        norms = np.sqrt((offsets[:, None, :] @ offsets[:, :, None])[:, 0, 0])
        degenerate = norms < 1e-12
        offsets[degenerate] = np.eye(1, d)
        norms[degenerate] = 1.0
        offsets *= (np.array(radii) / norms)[:, None]
        return offsets

    # -- the four phases ----------------------------------------------------

    def change_reaction(self) -> bool:
        """Sentinel-check each swarm's gbest; on a mismatch, refresh memory.

        The gbests are sent as one block of sentinels, in swarm order, with
        the stop rule ``abs(value - gbest_value) > CHANGE_DETECTION_TOL``, so
        the session stops after the first sentinel that detects a change and
        the evaluations are those of sentinels sent one at a time.

        Returns whether a change was detected. Reaction re-evaluates every
        personal best under the new environment and resets each swarm's
        global best from them; when the budget runs out during it,
        ``ScenarioComplete`` propagates and nothing is returned.
        """
        sentinels = np.array([swarm.gbest_position for swarm in self.swarms])
        remembered = np.array([swarm.gbest_value for swarm in self.swarms])
        detected = False
        done = 0
        # a block cut short without a detection was cut by the budget, and
        # the next call raises ScenarioComplete
        while not detected and done < len(self.swarms):
            values = self.session.evaluate(sentinels[done:], stop=_differs_from(remembered[done:]))
            done += values.shape[0]
            detected = bool(abs(values[-1] - remembered[done - 1]) > CHANGE_DETECTION_TOL)
        if detected:
            for swarm in self.swarms:
                self._evaluate_into(swarm.pbest_positions, swarm.pbest_values)
                swarm.refresh_gbest()
        return detected

    def solver_step(self):
        """Move and evaluate every particle; update personal/global bests.

        Neutral particles use the constriction update
        ``v <- chi * (v + c1*u1*(pbest - x) + c2*u2*(gbest - x))`` followed by
        clamping to the search box (violating velocity components are
        zeroed). Quantum particles resample uniformly inside the cloud ball
        around the swarm's current global best; clamping cannot push them
        outside the ball. Bests update particle by particle, so later
        particles see the freshest global best: each quantum particle lies
        within ``cloud_radius`` of the global best as it stood when that
        particle was sampled (the asynchronous attractor of Blackwell &
        Branke, 2006). When a later particle improves the global best, an
        earlier quantum particle may therefore end the step up to
        ``2 * cloud_radius`` from it.

        The moves are scored in blocks: those of all particles not yet
        scored, computed from the current global best, stopped by the
        session after the first row that beats it. Positions, velocities
        and bests are exactly those of a particle-by-particle step.
        """
        lb, ub = self.session.bounds
        cfg = self.config
        d = self.session.dimension
        for swarm in self.swarms:
            nc = swarm.neutral_count
            # the draws of a particle-by-particle step, in its order: u1 and
            # u2 per neutral particle, then a ball sample per quantum particle
            u = self.rng.random((nc, 2, d))
            offsets = self._ball_offsets(swarm.size - nc, d)
            # the neutral update, v = chi * (inertia + pull * (gbest - x)),
            # up to its global-best term
            x0 = swarm.positions[:nc].copy()
            inertia = swarm.velocities[:nc] + cfg.c1 * u[:, 0] * (swarm.pbest_positions[:nc] - x0)
            pull = cfg.c2 * u[:, 1]
            # row i holds particle i's move, recomputed from row ``start`` on
            moves = np.empty((swarm.size, d))
            velocities = np.empty((nc, d))
            start = 0
            while start < swarm.size:
                # the moves of the particles not yet scored, around the
                # current global best
                gbest = swarm.gbest_position
                v = velocities[start:]
                np.subtract(gbest, x0[start:], out=v)
                v *= pull[start:]
                v += inertia[start:]
                v *= cfg.chi
                neutral = moves[start:nc]
                np.add(x0[start:], v, out=neutral)
                np.add(gbest, offsets[max(0, start - nc):], out=moves[max(start, nc):])
                v[(neutral < lb) | (neutral > ub)] = 0.0
                x = moves[start:]
                np.maximum(x, lb, out=x)
                np.minimum(x, ub, out=x)
                # the first move is stored before it is scored, as a
                # particle-by-particle step does, should the budget run out
                swarm.positions[start] = x[0]
                swarm.velocities[start:nc][:1] = v[:1]
                best = swarm.gbest_value
                values = self.session.evaluate(x, stop=_above(best))
                k = values.shape[0]
                stop = start + k
                swarm.positions[start:stop] = x[:k]
                swarm.velocities[start:nc][:k] = v[:k]
                better = values > swarm.pbest_values[start:stop]
                np.copyto(swarm.pbest_values[start:stop], values, where=better)
                np.copyto(swarm.pbest_positions[start:stop], x[:k], where=better[:, None])
                # only the last consumed row can beat the global best
                if better[-1] and values[-1] > best:
                    swarm.gbest_value = float(values[-1])
                    swarm.gbest_position = x[k - 1].copy()
                start = stop

    def exclusion(self):
        """Reinitialize the worse of any two swarms with colliding bests.

        Pairs are scanned in index order; ties send the higher index back to
        random. The fresh swarm is evaluated immediately, so its new best
        participates in the remaining comparisons. The gaps between all
        pairs are computed at once, and again after each reinitialization.
        """
        n = len(self.swarms)
        bests = np.array([swarm.gbest_position for swarm in self.swarms])
        gaps = _gbest_gaps(bests).tolist()
        for i in range(n - 1):
            for j in range(i + 1, n):
                if gaps[i][j] < self.config.exclusion_radius:
                    worse = j if self.swarms[j].gbest_value <= self.swarms[i].gbest_value else i
                    self._reinitialize(worse)
                    bests[worse] = self.swarms[worse].gbest_position
                    gaps = _gbest_gaps(bests).tolist()

    def anti_convergence(self):
        """If every swarm has contracted, reinitialize the worst one."""
        if any(s.diameter() >= self.config.convergence_radius for s in self.swarms):
            return
        worst = int(np.argmin([s.gbest_value for s in self.swarms]))
        self._reinitialize(worst)

    # -- driving ------------------------------------------------------------

    def step(self):
        """Run the four phases once."""
        self.change_reaction()
        self.solver_step()
        self.exclusion()
        self.anti_convergence()

    def run(self):
        """Step until the session budget is exhausted."""
        try:
            while True:
                self.step()
        except ScenarioComplete:
            return
