"""Span tracing of gmpbench's layers, patched in at the call sites.

Each traced function is replaced, for the duration of a ``with
tracer.installed():`` block, by a wrapper that opens a span (name, start,
end, parent) around the call. Spans are folded into per-name totals as they
close, so memory stays constant however long the run is:

* ``calls`` and ``total_s`` (inclusive duration);
* ``self_s``, the duration minus the time covered by child spans.

The sum of every span's self time equals the summed duration of the root
spans, which is the traced wall time. Nothing under ``src`` is edited: the
wrappers replace module attributes where the callers look them up (for
example ``gmpbench.protocol.evaluate_raw``, the name ``BenchmarkSession``
calls) and are removed when the block exits.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from time import perf_counter

from gmpbench import dynamics, harness, landscape, mqso, protocol

MQSO_PHASES = ("mqso.change_reaction", "mqso.solver_step",
               "mqso.exclusion", "mqso.anti_convergence")


def _count_points(tracer, args, result):
    tracer.counts["landscape.evaluate_batch.points"] += len(args[0])


def _count_reinitializations(tracer, args, result):
    # a swarm's generation counts how often that slot was reinitialized
    tracer.counts["mqso.reinitializations"] += sum(s.generation for s in args[0].swarms)


# (owner, attribute, span name, hook run on return); owners are the modules
# or classes whose attribute the caller resolves at call time.
TARGETS = (
    (harness, "run_session", "harness.run_session", None),
    (harness, "write_result", "harness.write_result", None),
    (harness, "landscape_at", "harness.landscape_at", None),
    (harness, "evaluate_batch", "landscape.evaluate_batch", _count_points),
    (harness, "advance_environment", "dynamics.advance_environment", None),
    (harness, "init_landscape", "dynamics.init_landscape", None),
    (protocol, "evaluate_raw", "landscape.evaluate_raw", None),
    (protocol, "advance_environment", "dynamics.advance_environment", None),
    (protocol, "init_landscape", "dynamics.init_landscape", None),
    (protocol.BenchmarkSession, "evaluate", "protocol.session_evaluate", None),
    (protocol.BenchmarkSession, "indicators", "protocol.indicators", None),
    (protocol.EvaluationLedger, "record", "protocol.ledger_record", None),
    (landscape, "transform_vector", "landscape.transform_vector", None),
    (dynamics, "update_rotation", "dynamics.update_rotation", None),
    (dynamics, "reflect", "dynamics.reflect", None),
    (mqso.MQSO, "run", "mqso.run", _count_reinitializations),
    (mqso.MQSO, "change_reaction", "mqso.change_reaction", None),
    (mqso.MQSO, "solver_step", "mqso.solver_step", None),
    (mqso.MQSO, "exclusion", "mqso.exclusion", None),
    (mqso.MQSO, "anti_convergence", "mqso.anti_convergence", None),
)


class _Span:
    __slots__ = ("name", "parent", "phase", "start", "end", "child_s")

    def __init__(self, name, parent, phase):
        self.name = name
        self.parent = parent
        self.phase = phase
        self.start = self.end = 0.0
        self.child_s = 0.0


class Tracer:
    """In-memory span aggregator. One tracer serves one benchmark run."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        # evaluations by the mQSO phase they ran under (None: outside a phase)
        self.phase_evals: Counter = Counter()
        self.wall_s = 0.0
        self._stack: list[_Span] = []

    def wrap(self, name, fn, hook=None):
        """``fn`` wrapped in a span called ``name``."""
        stack = self._stack
        stats = self.stats
        is_phase = name in MQSO_PHASES
        is_evaluation = name == "protocol.session_evaluate"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if is_phase:
                phase = name
            else:
                phase = parent.phase if parent is not None else None
            span = _Span(name, parent, phase)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                duration = span.end - span.start
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - span.child_s
                if parent is not None:
                    parent.child_s += duration
                else:
                    self.wall_s += duration
            if is_evaluation:
                self.phase_evals[phase] += 1  # completed evaluations only
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        with contextlib.ExitStack() as stack:
            for owner, attr, name, hook in TARGETS:
                stack.enter_context(patched(owner, attr, self.wrap(name, getattr(owner, attr), hook)))
            yield self

    def calls(self, name) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]


@contextlib.contextmanager
def patched(owner, attr, value):
    """Set ``owner.attr`` to ``value`` for the duration of the block."""
    original = owner.__dict__[attr]
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _ratio(num, den):
    return num / den if den else 0.0


# Self times reported as metrics; the identity trace.wall_s ==
# sum(these) + trace.unattributed_s is what makes the split exhaustive. The
# ``.s`` metrics of spans with no traced children are self times too.
_SELF_METRICS = {
    "landscape.evaluate_raw.self_s": "landscape.evaluate_raw",
    "landscape.transform_vector.self_s": "landscape.transform_vector",
    "landscape.evaluate_batch.self_s": "landscape.evaluate_batch",
    "dynamics.advance_environment.self_s": "dynamics.advance_environment",
    "dynamics.update_rotation.self_s": "dynamics.update_rotation",
    "dynamics.reflect.self_s": "dynamics.reflect",
    "dynamics.init_landscape.s": "dynamics.init_landscape",
    "protocol.session_evaluate.self_s": "protocol.session_evaluate",
    "protocol.ledger_record.self_s": "protocol.ledger_record",
    "protocol.indicators.s": "protocol.indicators",
    "mqso.change_reaction.self_s": "mqso.change_reaction",
    "mqso.solver_step.self_s": "mqso.solver_step",
    "mqso.exclusion.self_s": "mqso.exclusion",
    "mqso.anti_convergence.self_s": "mqso.anti_convergence",
    "harness.export_grid.write_self_s": "harness.export_grid",
    "harness.write_result.s": "harness.write_result",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of everything traced so far, by metric name.

    ``us_per_call``, ``us_per_point`` and ``ms_per_call`` are inclusive
    (span duration, children included) per unit of work.
    """
    t = tracer
    m = {name: t.self_s(span) for name, span in _SELF_METRICS.items()}
    attributed = set(_SELF_METRICS.values())
    m["trace.unattributed_s"] = sum(entry[2] for name, entry in t.stats.items()
                                    if name not in attributed)
    m["trace.wall_s"] = t.wall_s
    m["landscape.evaluate_raw.calls"] = t.calls("landscape.evaluate_raw")
    m["landscape.evaluate_raw.us_per_call"] = 1e6 * _ratio(
        t.total_s("landscape.evaluate_raw"), t.calls("landscape.evaluate_raw"))
    m["landscape.transform_vector.calls"] = t.calls("landscape.transform_vector")
    points = t.counts["landscape.evaluate_batch.points"]
    m["landscape.evaluate_batch.points"] = points
    m["landscape.evaluate_batch.us_per_point"] = 1e6 * _ratio(
        t.total_s("landscape.evaluate_batch"), points)
    m["dynamics.advance_environment.calls"] = t.calls("dynamics.advance_environment")
    m["dynamics.advance_environment.ms_per_call"] = 1e3 * _ratio(
        t.total_s("dynamics.advance_environment"), t.calls("dynamics.advance_environment"))
    m["dynamics.reflect.calls"] = t.calls("dynamics.reflect")
    m["protocol.session_evaluate.calls"] = t.calls("protocol.session_evaluate")
    for phase in MQSO_PHASES:
        m[f"{phase}.evals"] = t.phase_evals[phase]
    m["mqso.reinitializations"] = t.counts["mqso.reinitializations"]
    m["mqso.useful_eval_share"] = _ratio(t.phase_evals["mqso.solver_step"],
                                         t.calls("protocol.session_evaluate"))
    m["harness.export_grid.bytes_written"] = t.counts["harness.export_grid.bytes_written"]
    m["harness.landscape_at.s"] = t.total_s("harness.landscape_at")
    return m


def attributed_sum(metrics: dict[str, float]) -> float:
    """Sum of the self-time metrics plus the unattributed remainder."""
    return sum(metrics[name] for name in _SELF_METRICS) + metrics["trace.unattributed_s"]
