"""Multi-swarm quantum PSO baseline (mQSO).

A fixed number of sub-swarms, each mixing neutral particles (constriction
PSO moves) with quantum particles (uniform resampling in a ball around the
swarm's global best, maintaining local diversity). Exclusion reinitializes
the worse of two swarms whose global bests collide; anti-convergence
reinitializes the worst swarm once every swarm has contracted. Changes are
detected by re-evaluating each swarm's global best once per iteration, since
the session gives no change signal.

The solver touches the benchmark only through the black-box session surface
(evaluate / bounds / dimension / budget), and is single-threaded: evaluation
order determines the error ledger, so it must be reproducible from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .protocol import BenchmarkSession

__all__ = ["SolverConfig", "Swarm", "MQSO", "CHANGE_DETECTION_TOL"]

CHANGE_DETECTION_TOL = 1e-9


@dataclass
class SolverConfig:
    """mQSO parameters.

    ``chi``, ``c1``, ``c2`` are the standard constriction constants. Radii
    left as ``None`` are derived at attach time: the quantum cloud radius
    falls back to 1.0 (matching the default shift severity; use
    :meth:`for_scenario` to tie it to a scenario), and the exclusion and
    convergence radii to ``0.5 * (ub - lb) / k**(1/d)`` with ``k`` the peak
    count if known, else the swarm count.
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
        """Defaults tied to a scenario: cloud radius = shift severity,
        exclusion/convergence radius = half the expected peak spacing."""
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
        bad = []
        if self.num_swarms < 1:
            bad.append("num_swarms must be >= 1")
        if self.neutral_count < 0 or self.quantum_count < 0:
            bad.append("particle counts must be nonnegative")
        if self.neutral_count + self.quantum_count < 1:
            bad.append("each swarm needs at least one particle")
        if not 0.0 < self.chi < 1.0:
            bad.append("chi must lie in (0, 1)")
        for name in ("cloud_radius", "exclusion_radius", "convergence_radius"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                bad.append(f"{name} must be positive")
        return bad


@dataclass(eq=False)
class Swarm:
    """One sub-swarm, stored particle-per-row.

    The first ``neutral_count`` rows are neutral particles, the rest quantum.
    ``generation`` counts reinitializations so monitoring can tell a fresh
    swarm from a tracked one.
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


class MQSO:
    """Drives a benchmark session with the multi-swarm solver.

    Each :meth:`step` runs change detection (one sentinel evaluation per
    swarm, short-circuited on the first hit), particle moves, exclusion and
    anti-convergence. Swarm reinitializations evaluate the fresh particles
    right away, so the ledger accounts for every evaluation the solver
    causes. Budget exhaustion surfaces as ``ScenarioComplete`` from any
    evaluating call; a partially executed step is valid.
    """

    def __init__(self, session: BenchmarkSession, config: SolverConfig | None = None,
                 rng: np.random.Generator | None = None, track_history: bool = False):
        config = config if config is not None else SolverConfig()
        bad = config.violations()
        if bad:
            raise ValueError("invalid solver config: " + "; ".join(bad))
        self.session = session
        self.rng = rng if rng is not None else np.random.default_rng()
        lb, ub = session.bounds
        d = session.dimension
        self.cloud_radius = (config.cloud_radius if config.cloud_radius is not None
                             else 1.0)
        spacing = 0.5 * (ub - lb) / config.num_swarms ** (1.0 / d)
        self.exclusion_radius = (config.exclusion_radius
                                 if config.exclusion_radius is not None else spacing)
        self.convergence_radius = (config.convergence_radius
                                   if config.convergence_radius is not None else spacing)
        self.config = config
        self.history: list[dict] = [] if track_history else None
        self.iteration = 0
        self.change_detected = False  # whether the current step detected a change
        self.swarms = [self._new_swarm() for _ in range(config.num_swarms)]

    # -- swarm construction -------------------------------------------------

    def _new_swarm(self) -> Swarm:
        lb, ub = self.session.bounds
        d = self.session.dimension
        n = self.config.neutral_count + self.config.quantum_count
        positions = self.rng.uniform(lb, ub, (n, d))
        values = np.empty(n)
        for i in range(n):
            values[i] = self.session.evaluate(positions[i])
        return Swarm(positions=positions,
                     velocities=np.zeros((n, d)),
                     pbest_positions=positions.copy(),
                     pbest_values=values,
                     neutral_count=self.config.neutral_count)

    def _reinitialize(self, index: int):
        generation = self.swarms[index].generation
        self.swarms[index] = self._new_swarm()
        self.swarms[index].generation = generation + 1

    def _sample_ball(self, center: np.ndarray) -> np.ndarray:
        """Uniform sample from the ball of ``cloud_radius`` around ``center``."""
        d = center.shape[0]
        v = self.rng.standard_normal(d)
        norm = float(np.linalg.norm(v))
        while norm < 1e-12:
            v = self.rng.standard_normal(d)
            norm = float(np.linalg.norm(v))
        radius = self.cloud_radius * float(self.rng.uniform(0.0, 1.0)) ** (1.0 / d)
        return center + (radius / norm) * v

    # -- the four phases ----------------------------------------------------

    def change_reaction(self) -> bool:
        """Sentinel-check each swarm's gbest; on a mismatch, refresh memory.

        Returns whether a change was detected, and notes a detection in
        :attr:`change_detected` as soon as it is made, so that it is kept
        even when the budget runs out during the reaction. Reaction
        re-evaluates every personal best under the new environment and
        resets each swarm's global best from them.
        """
        detected = False
        for swarm in self.swarms:
            value = self.session.evaluate(swarm.gbest_position)
            if abs(value - swarm.gbest_value) > CHANGE_DETECTION_TOL:
                detected = self.change_detected = True
                break
        if detected:
            for swarm in self.swarms:
                for i in range(swarm.size):
                    swarm.pbest_values[i] = self.session.evaluate(swarm.pbest_positions[i])
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
        particles see the freshest global best.
        """
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

    def exclusion(self):
        """Reinitialize the worse of any two swarms with colliding bests.

        Pairs are scanned in index order; ties send the higher index back to
        random. The fresh swarm is evaluated immediately, so its new best
        participates in the remaining comparisons.
        """
        n = len(self.swarms)
        for i in range(n - 1):
            for j in range(i + 1, n):
                gap = float(np.linalg.norm(self.swarms[i].gbest_position
                                           - self.swarms[j].gbest_position))
                if gap < self.exclusion_radius:
                    worse = j if self.swarms[j].gbest_value <= self.swarms[i].gbest_value else i
                    self._reinitialize(worse)

    def anti_convergence(self):
        """If every swarm has contracted, reinitialize the worst one."""
        if any(s.diameter() >= self.convergence_radius for s in self.swarms):
            return
        worst = int(np.argmin([s.gbest_value for s in self.swarms]))
        self._reinitialize(worst)

    # -- driving ------------------------------------------------------------

    def step(self):
        """Run the four phases once.

        The history entry is recorded even when ``ScenarioComplete`` cuts
        the step short, so a detection made in the final step is not lost.
        """
        self.change_detected = False
        try:
            self.change_reaction()
            self.solver_step()
            self.exclusion()
            self.anti_convergence()
        finally:
            self.iteration += 1
            if self.history is not None:
                self.history.append({
                    "iteration": self.iteration,
                    "environment_index": self.session.landscape.environment_index,
                    "change_detected": self.change_detected,
                    "generations": tuple(s.generation for s in self.swarms),
                    "gbest_values": tuple(s.gbest_value for s in self.swarms),
                })

    def run(self):
        """Step until the session budget is exhausted."""
        from .protocol import ScenarioComplete
        try:
            while True:
                self.step()
        except ScenarioComplete:
            return
