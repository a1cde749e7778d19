"""Evaluation budget, change scheduling, and performance indicators.

Time is measured purely in fitness evaluations. A session spends exactly
``change_frequency`` evaluations per environment; the evaluation that fills
an environment's quota is scored under that environment, after which the
landscape silently advances (solvers get no notification; change detection
is their job). Errors are best-so-far within the current environment, so the
per-evaluation error sequence is non-increasing between changes.

The ledger keeps only each evaluation's value and its environment's
optimum; the errors and the indicators are derived from them when read.

A session takes one caller at a time (another call raises ``RuntimeError``).
Points and stop values must have an integer or float dtype: bool, complex,
string, object and datetime input, and masked, non-finite or out-of-box points
raise ``ValueError`` rather than be cast or clamped, and cost no evaluation.

A solver may hand the session a block of points, one per row. The rows are
scored in order, exactly as if they had been sent one at a time: a block may
run across environment changes (the rows after a change are scored under the
new environment, and the call does not end there, which would tell the
solver that the environment changed). One bad row rejects the whole call. A
block comes back short only after the first row that meets the caller's stop
rule, given as data (see :meth:`BenchmarkSession.evaluate`); rows after that
are neither recorded nor returned, so a solver can send speculative moves
and resend the rest. The session applies the rule itself and runs no solver
code during a call, so a solver learns only the values it pays for.

The session alone owns the budget's end: a block whose rows outlast the
budget records the rows that fit and raises :class:`ScenarioComplete`, so a
solver never sees a block cut short by the budget.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

from .dynamics import advance_environment, init_landscape
from .landscape import ScenarioConfig, evaluate_raw

__all__ = [
    "ScenarioComplete",
    "EvaluationLedger",
    "BenchmarkSession",
    "CHANGE_DETECTION_TOL",
    "differs",
]

CHANGE_DETECTION_TOL = 1e-9


def differs(values, remembered):
    """The change-detection rule: whether each value is more than
    ``CHANGE_DETECTION_TOL`` from its remembered value."""
    return np.abs(values - remembered) > CHANGE_DETECTION_TOL


class ScenarioComplete(Exception):
    """The evaluation budget is spent. A plain signal: the indicators are
    read from the session with :meth:`BenchmarkSession.indicators`."""


class EvaluationLedger:
    """A stream of (value, environment optimum) pairs, decoupled from any
    landscape. Its only state is ``values``, ``optima`` and their count
    ``total``; the errors and the position in the change schedule are
    derived from them on each access.
    """

    def __init__(self, change_frequency: int, num_environments: int):
        if change_frequency < 1 or num_environments < 1:
            raise ValueError("change_frequency and num_environments must be >= 1")
        self.change_frequency = change_frequency
        self.num_environments = num_environments
        self.capacity = change_frequency * num_environments
        self.values = np.full(self.capacity, np.nan)
        self.optima = np.full(self.capacity, np.nan)
        self.total = 0

    @property
    def complete(self) -> bool:
        return self.total == self.capacity

    @property
    def env_eval_count(self) -> int:
        return self.total % self.change_frequency

    @property
    def errors(self) -> np.ndarray:
        """Each evaluation's optimum minus the best value so far in its
        environment, as a fresh array; NaN where nothing is recorded yet."""
        shape = (self.num_environments, self.change_frequency)
        errors = np.maximum.accumulate(self.values.reshape(shape), axis=1)
        np.subtract(self.optima.reshape(shape), errors, out=errors)
        return errors.reshape(-1)

    @property
    def env_final_errors(self) -> np.ndarray:
        """Each environment's last error; NaN until it is completed. A row's
        maximum is exact, so it is the last best-so-far value bit for bit."""
        cf = self.change_frequency
        return self.optima[cf - 1::cf] - self.values.reshape(-1, cf).max(axis=1)

    def record(self, values, optimum_value: float) -> None:
        """Record one evaluation, or a block of evaluations in order, all in
        the current environment."""
        values = np.asarray(values, dtype=float).reshape(-1)
        n = values.shape[0]
        if n == 0:
            raise ValueError("cannot record an empty block of evaluations")
        end = self.total + n
        if end > self.capacity:
            raise ValueError("ledger is full")
        if self.env_eval_count + n > self.change_frequency:
            raise ValueError("block runs past the end of the environment")
        self.values[self.total:end] = values
        self.optima[self.total:end] = optimum_value
        self.total = end

    def indicators(self) -> tuple[float, float]:
        """(offline error, best-before-change error) of a complete ledger: the
        mean error over all evaluations and over the environments' final ones."""
        if not self.complete:
            raise ValueError(f"ledger holds {self.total} of {self.capacity} evaluations")
        return float(np.mean(self.errors)), float(np.mean(self.env_final_errors))


class BenchmarkSession:
    """Black-box face of one benchmark run.

    Solvers may call :meth:`evaluate` and read :attr:`bounds` and
    :attr:`dimension`; the optimum, the remaining budget and the change
    schedule are deliberately not part of that surface. Independent sessions
    share nothing. One caller at a time: a call made during another raises
    ``RuntimeError`` rather than wait, so no thread scheduler orders the
    calls. It takes integer or float input and scores its own float64 copy.

    The surface is an API boundary, not a sandbox. ``evaluate.__self__``
    reaches the session, whose attributes are plain. Wall time reveals each
    change: at d = 10, m = 10 the call that fills an environment's quota, and
    so advances the landscape, took at least 764 us against a 59-us median
    for the others, and a 235-us threshold found 58 of 58 changes with 17
    false alarms in 11 742 calls.
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.landscape = init_landscape(config, self.rng)
        self.ledger = EvaluationLedger(config.change_frequency, config.num_environments)
        self._calling = threading.Lock()

    @property
    def dimension(self) -> int:
        return self.config.dimension

    @property
    def bounds(self) -> tuple[float, float]:
        return self.config.search_range

    def evaluate(self, x, *, above=None, differs_from=None):
        """Objective value of ``x`` under the current environment.

        ``x`` is one ``(d,)`` point, which gives a float, or an ``(n, d)``
        block of points, which gives the values of the rows consumed, in
        order (an empty block gives an empty array and spends nothing). The
        rows are scored as if sent one by one, across environment changes.

        At most one stop rule is given. ``above=best`` ends the call after
        the first row whose value is strictly above ``best``;
        ``differs_from=remembered``, one value per row, after the first row
        whose value is more than ``CHANGE_DETECTION_TOL`` from that row's
        remembered value. The rows after that are neither recorded nor
        returned; no other cause returns fewer rows than were sent. The
        session computes the rule on each environment segment and runs no
        solver code during the call.

        Raises :class:`ScenarioComplete` when a row is left to score and the
        budget is spent: on a call after the budget's end, and on a block whose
        rows outlast the budget, once the rows that fit are recorded. Spending
        nothing, raises ``RuntimeError`` on a call made during another, and
        ``ValueError`` when both stop rules are given, when ``differs_from``
        does not hold one value per row, when ``above`` is not one number,
        when ``x`` or a stop value is not of an integer or float dtype (bool,
        complex, string, object and datetime input), when ``x`` has a masked
        element, or when a point has a NaN or infinite coordinate or lies
        outside :attr:`bounds` (edges included): such input is rejected, not
        cast or clamped into points never asked for. The rest is scored from
        the session's own float64 copy of ``x``, so the rows checked are the
        rows scored even if the caller's array changes during the call.
        """
        if not self._calling.acquire(blocking=False):
            raise RuntimeError("another call to evaluate is in progress on this session")
        try:
            if above is not None and differs_from is not None:
                raise ValueError("give at most one stop rule: above or differs_from")
            # the mask (numpy.ma is never imported here), then the schema's number rule on each dtype:
            # a cast would drop a mask or an imaginary part, parse a string or run an object's __float__
            if "numpy.ma" in sys.modules and np.ma.is_masked(x):
                raise ValueError("points must be unmasked")
            x = np.array(x)  # the session's own copy
            stop = differs_from if above is None else above  # a Python float needs no check
            stop = stop if stop is None or type(stop) is float else np.asarray(stop)
            bad = stop if x.dtype.kind in "iuf" and type(stop) is np.ndarray else x
            if bad.dtype.kind not in "iuf" or bad is stop and above is not None and bad.ndim:
                raise ValueError(f"points and stop values must be real numbers (an integer or float"
                                 f" dtype; above a single one), not {bad.dtype} of shape {bad.shape}")
            x = x.astype(float, copy=False)
            above = None if above is None else float(stop)
            differs_from = None if differs_from is None else np.asarray(stop, dtype=float)
            config = self.config
            if x.ndim not in (1, 2) or x.shape[-1] != config.dimension:
                raise ValueError(f"points of shape {x.shape} do not match dimension {config.dimension}")
            points = x if x.ndim == 2 else x[None, :]
            n = points.shape[0]
            if differs_from is not None and differs_from.shape != (n,):
                raise ValueError(f"differs_from of shape {differs_from.shape} does not match {n} rows")
            if n == 0:
                return np.empty(0)
            lb, ub = config.search_range
            # one range check; a NaN fails both comparisons
            if not (lb <= points.min() and points.max() <= ub):
                if not np.isfinite(points).all():
                    raise ValueError(f"point has a non-finite coordinate: {x}")
                raise ValueError(f"point lies outside the search box [{lb}, {ub}]: {x}")
            ledger = self.ledger
            values = np.empty(n)
            done = 0
            # one kernel call per environment the block reaches
            while done < n:
                if ledger.complete:
                    raise ScenarioComplete("scenario complete: the evaluation budget is spent")
                end = min(n, done + ledger.change_frequency - ledger.env_eval_count)
                segment = values[done:end]
                segment[:] = evaluate_raw(points[done:end], self.landscape)
                hit = None
                if above is not None:
                    hit = segment > above
                elif differs_from is not None:
                    hit = differs(segment, differs_from[done:end])
                if hit is not None:
                    first = int(hit.argmax())
                    if hit[first]:
                        # the rows after the first hit are dropped
                        end = n = done + first + 1
                        segment = segment[:first + 1]
                ledger.record(segment, self.landscape.optimum_value)
                if ledger.env_eval_count == 0 and not ledger.complete:
                    self.landscape = advance_environment(self.landscape, config, self.rng)
                done = end
            # a copy: a view would keep the unconsumed rows reachable through .base
            return values[:done].copy() if x.ndim == 2 else float(values[0])
        finally:
            self._calling.release()

    def indicators(self) -> tuple[float, float]:
        """(offline error, best-before-change error) for this run, once its
        budget is spent."""
        return self.ledger.indicators()
