"""Evaluation budget, change scheduling, and performance indicators.

Time is measured purely in fitness evaluations. A session spends exactly
``change_frequency`` evaluations per environment; the evaluation that fills
an environment's quota is scored under that environment, after which the
landscape silently advances (solvers get no notification; change detection
is their job). Errors are best-so-far within the current environment, so the
per-evaluation error sequence is non-increasing between changes.

Only points inside the search box are scored. A point with a coordinate
outside ``search_range``, NaN or infinite is rejected with ``ValueError``
and costs no evaluation; it is not clamped into the box.

A solver may hand the session a block of points, one per row. The rows are
scored in order, exactly as if they had been sent one at a time: a block may
run across environment changes (the rows after a change are scored under the
new environment, and the call does not end there, which would tell the
solver that the environment changed). The block is range-checked as a whole,
so one bad row rejects the call and spends nothing. A call ends early only
when the budget runs out, or after the first row that meets the caller's
stop rule, a predicate on the scored values and their row indices (for
example "beats my best" or "differs from the value I remembered"); rows
after that are neither recorded nor returned, so a solver can send
speculative moves and resend the rest.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import advance_environment, init_landscape
from .landscape import ScenarioConfig, evaluate_raw

__all__ = [
    "ScenarioComplete",
    "IncompleteLedgerError",
    "EvaluationLedger",
    "BenchmarkSession",
    "offline_error",
    "best_before_change_error",
]


class IncompleteLedgerError(ValueError):
    """An indicator was requested before the ledger held the full budget."""


class ScenarioComplete(Exception):
    """The evaluation budget is spent. Carries the final indicators."""

    def __init__(self, offline_error: float, best_before_change_error: float):
        super().__init__(
            f"scenario complete: offline error {offline_error:.6g}, "
            f"best-before-change error {best_before_change_error:.6g}")
        self.offline_error = offline_error
        self.best_before_change_error = best_before_change_error


class EvaluationLedger:
    """Per-evaluation error stream plus per-environment bests.

    The ledger is decoupled from any landscape: it consumes a stream of
    (value, environment optimum) pairs and does the best-so-far bookkeeping.
    Raw values and optima are kept alongside the error stream so indicators
    can be audited by an independent pass.
    """

    def __init__(self, change_frequency: int, num_environments: int):
        if change_frequency < 1 or num_environments < 1:
            raise ValueError("change_frequency and num_environments must be >= 1")
        self.change_frequency = change_frequency
        self.num_environments = num_environments
        self.capacity = change_frequency * num_environments
        self.errors = np.full(self.capacity, np.nan)
        self.values = np.full(self.capacity, np.nan)
        self.optima = np.full(self.capacity, np.nan)
        self.env_final_errors = np.full(num_environments, np.nan)
        self.total = 0
        self.env_eval_count = 0
        self.environments_completed = 0
        self._best_value = -math.inf

    @property
    def complete(self) -> bool:
        return self.total == self.capacity

    def record(self, values, optimum_value: float) -> float:
        """Record one evaluation, or a block of evaluations in order, all in
        the current environment; returns the best-so-far error the last one
        leaves."""
        if type(values) is not np.ndarray or values.ndim != 1 or values.dtype != np.float64:
            values = np.asarray(values, dtype=float).reshape(-1)
        n = values.shape[0]
        if n == 0:
            raise ValueError("cannot record an empty block of evaluations")
        start = self.total
        end = start + n
        if end > self.capacity:
            raise ValueError("ledger is full")
        if self.env_eval_count + n > self.change_frequency:
            raise ValueError("block runs past the end of the environment")
        # the best-so-far values, then the errors, in place in the error slots
        errors = self.errors[start:end]
        np.maximum.accumulate(values, out=errors)
        np.maximum(errors, self._best_value, out=errors)
        self._best_value = errors[-1]
        np.subtract(optimum_value, errors, out=errors)
        self.values[start:end] = values
        self.optima[start:end] = optimum_value
        error = float(errors[-1])
        self.total = end
        self.env_eval_count += n
        if self.env_eval_count == self.change_frequency:
            self.env_final_errors[self.environments_completed] = error
            self.environments_completed += 1
            self.env_eval_count = 0
            self._best_value = -math.inf
        return error


def offline_error(ledger: EvaluationLedger) -> float:
    """Mean best-so-far error over all evaluations of a complete ledger."""
    if not ledger.complete:
        raise IncompleteLedgerError(
            f"ledger holds {ledger.total} of {ledger.capacity} evaluations")
    return float(np.mean(ledger.errors))


def best_before_change_error(ledger: EvaluationLedger) -> float:
    """Mean over the environments of a complete ledger of the final
    best-so-far error in each."""
    if not ledger.complete:
        raise IncompleteLedgerError(
            f"ledger holds {ledger.total} of {ledger.capacity} evaluations")
    return float(np.mean(ledger.env_final_errors))


class BenchmarkSession:
    """Black-box face of one benchmark run.

    Solvers may call :meth:`evaluate` and read :attr:`bounds`,
    :attr:`dimension` and :attr:`budget_remaining`; the optimum and the change
    schedule are deliberately not part of that surface. Exactly one solver
    drives a session at a time; independent sessions share nothing.
    """

    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.landscape = init_landscape(config, self.rng)
        self.ledger = EvaluationLedger(config.change_frequency, config.num_environments)

    @property
    def dimension(self) -> int:
        return self.config.dimension

    @property
    def bounds(self) -> tuple[float, float]:
        return self.config.search_range

    @property
    def total_evaluations(self) -> int:
        return self.ledger.total

    @property
    def budget_remaining(self) -> int:
        return self.ledger.capacity - self.ledger.total

    def evaluate(self, x, stop=None):
        """Objective value of ``x`` under the current environment.

        ``x`` is one ``(d,)`` point, which gives a float, or an ``(n, d)``
        block of points, which gives the values of the rows consumed, in
        order (an empty block gives an empty array and spends nothing). The
        rows are scored as if sent one by one, across environment changes.

        ``stop`` is the caller's stop rule. It is called once per
        environment segment of the block as ``stop(values, rows)``, with the
        segment's values and ``rows``, the slice of the block's row indices
        they belong to, and returns a boolean array over the segment. The
        call ends after the first row where it is true, or when the budget
        runs out; the rows after it are neither recorded nor returned.

        The evaluation that exhausts an environment's quota is scored there;
        the landscape then advances without notice. Raises
        :class:`ScenarioComplete` once the total budget is spent, and
        ``ValueError``, spending no budget, when any point has a NaN or
        infinite coordinate or lies outside the search box. Such points are
        rejected rather than clamped: a clamped point would be scored at a
        position the solver never asked for, so a solver must keep its own
        points inside :attr:`bounds` (the box edges included).
        """
        ledger = self.ledger
        if ledger.complete:
            raise ScenarioComplete(offline_error(ledger), best_before_change_error(ledger))
        if type(x) is not np.ndarray or x.dtype != np.float64:
            x = np.asarray(x, dtype=float)
        config = self.config
        if x.ndim not in (1, 2) or x.shape[-1] != config.dimension:
            raise ValueError(f"points of shape {x.shape} do not match dimension {config.dimension}")
        points = x if x.ndim == 2 else x[None, :]
        n = points.shape[0]
        if n == 0:
            return np.empty(0)
        lb, ub = config.search_range
        # one range check; a NaN fails both comparisons
        if not (lb <= points.min() and points.max() <= ub):
            if not np.isfinite(points).all():
                raise ValueError(f"point has a non-finite coordinate: {x}")
            raise ValueError(f"point lies outside the search box [{lb}, {ub}]: {x}")
        values = np.empty(n)
        done = 0
        # one kernel call per environment the block reaches
        while done < n and not ledger.complete:
            end = min(n, done + ledger.change_frequency - ledger.env_eval_count)
            segment = values[done:end]
            segment[:] = evaluate_raw(points[done:end], self.landscape)
            if stop is not None:
                hit = stop(segment, slice(done, end))
                first = int(hit.argmax())
                if hit[first]:
                    # the rows after the first hit are dropped
                    end = n = done + first + 1
                    segment = segment[:first + 1]
            ledger.record(segment, self.landscape.optimum_value)
            if (ledger.env_eval_count == 0
                    and ledger.environments_completed < config.num_environments):
                self.landscape = advance_environment(self.landscape, config, self.rng)
            done = end
        return values[:done] if x.ndim == 2 else float(values[0])

    def indicators(self) -> tuple[float, float]:
        """(offline error, best-before-change error) for this run, once its
        budget is spent."""
        return offline_error(self.ledger), best_before_change_error(self.ledger)
