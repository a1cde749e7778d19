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
a swarm's random draws are made first: its neutral particles' uniforms, then
its quantum particles' directions and radii. The moves of the particles not
yet scored are then computed from the current global best and sent as one
block that the session stops after the first row beating that global best;
the consumed rows are committed and the rest recomputed and sent again. So
every evaluation lands in the ledger exactly as in the particle-by-particle
step. The change-detection sentinels, one per swarm, go out as one block
too, stopped after the first sentinel whose value differs from the
remembered one. The budget's end is the session's: it raises
``ScenarioComplete``, which ends :meth:`MQSO.run` inside the step it cuts.

The solver touches the benchmark only through the black-box session surface
(evaluate / bounds / dimension), keeps no log of its steps, and is
single-threaded: evaluation order determines the error ledger, so it must be
reproducible from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import _directions
from .landscape import _is_finite, _is_integer, _is_number
from .protocol import BenchmarkSession, ScenarioComplete, differs

__all__ = ["SolverConfig", "Swarm", "MQSO"]

_COUNTS = ("num_swarms", "neutral_count", "quantum_count")
_RADII = ("cloud_radius", "exclusion_radius", "convergence_radius")


@dataclass(frozen=True)
class SolverConfig:
    """mQSO parameters.

    ``chi``, ``c1``, ``c2`` are the standard constriction constants. The
    three radii are required keyword arguments. :meth:`for_scenario` sets
    them by one rule, after Blackwell & Branke (2006):

    * ``cloud_radius`` = the scenario's ``shift_severity``;
    * ``exclusion_radius`` = ``convergence_radius`` =
      ``0.5 * (ub - lb) / num_components ** (1 / dimension)``, half the
      expected spacing of the peaks in the search box ``[lb, ub]``.

    The harness runs the config that ``for_scenario`` gives; another one is
    built with :func:`dataclasses.replace`. The exclusion and convergence
    radii must be positive. The cloud radius may be 0, as it is for a
    scenario whose peaks do not move (``shift_severity`` 0): each quantum
    particle then samples the global best itself.

    A config that exists is valid, and frozen, so it stays valid: a numpy
    count is stored as an ``int``, and any violation raises ``ValueError(
    "invalid solver config: ...")`` naming each (a ``bool`` or ``None`` is
    not a number).
    """

    num_swarms: int = 10
    neutral_count: int = 5
    quantum_count: int = 5
    chi: float = 0.729843788
    c1: float = 2.05
    c2: float = 2.05
    cloud_radius: float = field(kw_only=True)
    exclusion_radius: float = field(kw_only=True)
    convergence_radius: float = field(kw_only=True)

    def __post_init__(self):
        # a numpy count is stored as an int, whose sums cannot wrap
        for name in filter(lambda name: _is_integer(getattr(self, name)), _COUNTS):
            object.__setattr__(self, name, int(getattr(self, name)))
        bad = [f"{name} must be an integer" for name in _COUNTS
               if not _is_integer(getattr(self, name))]
        if not bad:
            if self.num_swarms < 1:
                bad.append("num_swarms must be >= 1")
            if self.neutral_count < 0 or self.quantum_count < 0:
                bad.append("particle counts must be nonnegative")
            if self.neutral_count + self.quantum_count < 1:
                bad.append("each swarm needs at least one particle")
        # the finite numbers among the constants and the radii
        finite = {}
        for name in ("chi", "c1", "c2") + _RADII:
            v = getattr(self, name)
            if not _is_number(v):
                bad.append(f"{name} must be a number")
            elif not _is_finite(v):
                bad.append(f"{name} must be finite")
            else:
                finite[name] = v
        if "chi" in finite and not 0.0 < self.chi < 1.0:
            bad.append("chi must lie in (0, 1)")
        if finite.get("cloud_radius", 0.0) < 0:
            bad.append("cloud_radius must be nonnegative")
        for name in ("exclusion_radius", "convergence_radius"):
            if finite.get(name, 1.0) <= 0:
                bad.append(f"{name} must be positive")
        if bad:
            raise ValueError("invalid solver config: " + "; ".join(bad))

    @classmethod
    def for_scenario(cls, scenario) -> "SolverConfig":
        """The default constants with the radii set from ``scenario`` by the
        rule of the class docstring."""
        lb, ub = scenario.search_range
        spacing = 0.5 * (ub - lb) / scenario.num_components ** (1.0 / scenario.dimension)
        return cls(cloud_radius=scenario.shift_severity, exclusion_radius=spacing,
                   convergence_radius=spacing)


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

    def refresh_gbest(self):
        """Reset the global best from the personal bests (ties: lowest index)."""
        k = int(np.argmax(self.pbest_values))
        self.gbest_position = self.pbest_positions[k].copy()
        self.gbest_value = float(self.pbest_values[k])

    def diameter(self) -> float:
        """Largest pairwise distance among the neutral particles, 0 below two."""
        return float(_gbest_gaps(self.positions[:self.neutral_count]).max(initial=0.0))


def _gbest_gaps(points: np.ndarray) -> np.ndarray:
    """Euclidean distances between every pair of rows of ``points``.

    Each distance is ``sqrt`` of one vector-vector product, equal bit for
    bit to ``np.linalg.norm`` of the difference.
    """
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])


class MQSO:
    """Drives a benchmark session with the multi-swarm solver.

    Each :meth:`step` runs change detection, particle moves, exclusion and
    anti-convergence. Swarm reinitializations evaluate the fresh particles
    right away, so the ledger accounts for every evaluation the solver
    causes. Every random draw comes from ``rng``, so a run is reproducible
    from the generator's seed.
    """

    def __init__(self, session: BenchmarkSession, config: SolverConfig,
                 rng: np.random.Generator):
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
        return Swarm(positions=positions,
                     velocities=np.zeros((n, d)),
                     pbest_positions=positions.copy(),
                     pbest_values=self.session.evaluate(positions),
                     neutral_count=self.config.neutral_count)

    def _reinitialize(self, index: int):
        generation = self.swarms[index].generation
        self.swarms[index] = self._new_swarm()
        self.swarms[index].generation = generation + 1

    def _ball_offsets(self, count: int, d: int) -> np.ndarray:
        """Offsets of ``count`` uniform samples from the ball of
        ``cloud_radius`` around the origin, one per row.

        All normal directions are drawn in one call, then all uniform
        radii in another. The directions follow the peaks' shift rule,
        :func:`dynamics._directions`: a degenerate one becomes the first
        axis, so a call makes exactly these two draws.
        """
        offsets = self.rng.standard_normal((count, d))
        radii = self.config.cloud_radius * self.rng.random(count) ** (1.0 / d)
        offsets *= (radii / _directions(offsets))[:, None]
        return offsets

    # -- the four phases ----------------------------------------------------

    def change_reaction(self) -> bool:
        """Sentinel-check each swarm's gbest; on a mismatch, refresh memory.

        The gbests go out as one block, in swarm order, with their
        remembered values as the stop rule ``differs_from``, so the block
        ends on the first sentinel that detects a change, and only there.
        The reaction re-evaluates every personal best under the new
        environment and resets each swarm's global best from them. Returns
        whether a change was detected.
        """
        sentinels = np.array([swarm.gbest_position for swarm in self.swarms])
        remembered = np.array([swarm.gbest_value for swarm in self.swarms])
        values = self.session.evaluate(sentinels, differs_from=remembered)
        detected = bool(differs(values[-1], remembered[len(values) - 1]))
        if detected:
            for swarm in self.swarms:
                swarm.pbest_values[:] = self.session.evaluate(swarm.pbest_positions)
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
        particles see the freshest global best (the asynchronous attractor
        of the module docstring). The moves are scored in blocks, each
        stopped after the first row that beats the current global best, and
        end exactly as in a particle-by-particle step.
        """
        lb, ub = self.session.bounds
        cfg = self.config
        d = self.session.dimension
        for swarm in self.swarms:
            nc = swarm.neutral_count
            # the draws of a particle-by-particle step, in its order: u1 and
            # u2 per neutral particle, then the quantum particles' ball samples
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
                best = swarm.gbest_value
                values = self.session.evaluate(x, above=best)
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
