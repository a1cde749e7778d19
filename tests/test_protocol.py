"""Budget accounting, change scheduling, and the two performance indicators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmpbench import (
    BenchmarkSession,
    IncompleteLedgerError,
    ScenarioComplete,
    ScenarioConfig,
    best_before_change_error,
    offline_error,
)
from gmpbench.protocol import EvaluationLedger


def feed(ledger, pairs):
    for value, opt in pairs:
        ledger.record(value, opt)


def indicators_by_hand(values, optima, change_frequency):
    """Independent recomputation: best-so-far per environment, then averages."""
    values = np.asarray(values, dtype=float)
    optima = np.asarray(optima, dtype=float)
    errors = []
    finals = []
    for start in range(0, len(values), change_frequency):
        chunk = values[start:start + change_frequency]
        opts = optima[start:start + change_frequency]
        best = np.maximum.accumulate(chunk)
        errs = opts - best
        errors.extend(errs)
        finals.append(errs[-1])
    return float(np.mean(errors)), float(np.mean(finals))


class TestLedger:
    def test_worked_example(self):
        led = EvaluationLedger(change_frequency=4, num_environments=2)
        feed(led, [(4, 10), (6, 10), (6, 10), (9, 10)])
        np.testing.assert_array_equal(led.errors[:4], [6, 4, 4, 1])
        assert led.errors[:4].mean() == pytest.approx(3.75)
        feed(led, [(8, 10), (8, 10), (8, 10), (8, 10)])
        assert led.complete
        assert offline_error(led) == pytest.approx(2.875)
        assert best_before_change_error(led) == pytest.approx(1.5)

    def test_first_evaluation_at_optimum(self):
        led = EvaluationLedger(1, 1)
        assert led.record(50.0, 50.0) == 0.0

    def test_nonincreasing_within_environment(self):
        rng = np.random.default_rng(0)
        led = EvaluationLedger(50, 3)
        for _ in range(150):
            led.record(rng.uniform(0, 70), 70.0)
        errs = led.errors.reshape(3, 50)
        assert (np.diff(errs, axis=1) <= 0).all()

    def test_all_errors_nonnegative(self):
        rng = np.random.default_rng(1)
        led = EvaluationLedger(20, 4)
        for _ in range(80):
            led.record(rng.uniform(-100, 60), 60.0)
        assert (led.errors >= 0).all()

    def test_overfull_rejected(self):
        led = EvaluationLedger(2, 1)
        feed(led, [(1, 2), (1, 2)])
        with pytest.raises(ValueError, match="full"):
            led.record(1, 2)

    def test_empty_block_rejected(self):
        led = EvaluationLedger(4, 2)
        with pytest.raises(ValueError, match="empty block"):
            led.record([], 75.0)
        assert led.total == 0 and led.env_eval_count == 0

    def test_incomplete_indicators_raise(self):
        led = EvaluationLedger(4, 2)
        led.record(1.0, 2.0)
        with pytest.raises(IncompleteLedgerError):
            offline_error(led)
        with pytest.raises(IncompleteLedgerError):
            best_before_change_error(led)

    @given(seed=st.integers(0, 10_000),
           frequency=st.integers(1, 20),
           environments=st.integers(1, 8))
    @settings(max_examples=50)
    def test_matches_independent_recomputation(self, seed, frequency, environments):
        rng = np.random.default_rng(seed)
        n = frequency * environments
        values = rng.uniform(-50, 70, n)
        optima = np.repeat(rng.uniform(70, 80, environments), frequency)
        led = EvaluationLedger(frequency, environments)
        feed(led, zip(values, optima))
        e_o, e_bbc = indicators_by_hand(values, optima, frequency)
        assert offline_error(led) == pytest.approx(e_o, rel=1e-12)
        assert best_before_change_error(led) == pytest.approx(e_bbc, rel=1e-12)
        assert e_bbc <= e_o + 1e-12


class TestSession:
    def cfg(self, **kw):
        base = dict(dimension=2, num_components=2, change_frequency=5,
                    num_environments=3, seed=11)
        base.update(kw)
        return ScenarioConfig(**base)

    def test_black_box_surface(self):
        s = BenchmarkSession(self.cfg())
        assert s.dimension == 2
        assert s.bounds == (-100.0, 100.0)
        assert s.budget_remaining == 15
        assert s.total_evaluations == 0

    def test_scheduling_and_transitions(self):
        s = BenchmarkSession(self.cfg())
        x = np.zeros(2)
        transitions = []
        last_index = s.landscape.environment_index
        for i in range(1, 16):
            s.evaluate(x)
            if s.landscape.environment_index != last_index:
                transitions.append(i)
                last_index = s.landscape.environment_index
        assert s.total_evaluations == 15
        assert transitions == [5, 10]  # none after the final environment
        assert s.landscape.environment_index == 2

    def test_change_eval_scored_in_old_environment(self):
        s = BenchmarkSession(self.cfg(height_severity=7.0))
        x = np.zeros(2)
        for _ in range(5):
            s.evaluate(x)
        # the five recorded optima all belong to environment 0
        assert (s.ledger.optima[:5] == s.ledger.optima[0]).all()

    def test_environment_index_tracks_evaluation_count(self):
        s = BenchmarkSession(self.cfg())
        x = np.zeros(2)
        for i in range(1, 16):
            s.evaluate(x)
            scored_env = (i - 1) // 5
            assert s.ledger.optima[i - 1] == pytest.approx(
                s.ledger.optima[scored_env * 5])

    def test_budget_exhaustion_carries_indicators(self):
        s = BenchmarkSession(self.cfg())
        x = np.ones(2)
        for _ in range(15):
            s.evaluate(x)
        with pytest.raises(ScenarioComplete) as exc:
            s.evaluate(x)
        e_o, e_bbc = s.indicators()
        assert exc.value.offline_error == e_o
        assert exc.value.best_before_change_error == e_bbc
        assert e_bbc <= e_o

    def test_error_zero_at_optimum(self):
        s = BenchmarkSession(self.cfg())
        s.evaluate(s.landscape.optimum_position)
        assert s.ledger.errors[0] == 0.0

    def test_non_finite_point_rejected_without_spending_budget(self):
        s = BenchmarkSession(self.cfg())
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                s.evaluate(np.array([0.0, bad]))
        assert s.total_evaluations == 0
        assert s.budget_remaining == 15

    def test_point_outside_box_rejected_without_spending_budget(self):
        s = BenchmarkSession(self.cfg())
        for bad in ([100.5, 0.0], [0.0, -100.0 - 1e-9], [1e300, -1e300]):
            with pytest.raises(ValueError, match="outside the search box"):
                s.evaluate(np.array(bad))
        assert s.total_evaluations == 0
        assert s.budget_remaining == 15
        # the box edges belong to the box
        s.evaluate(np.array([-100.0, 100.0]))
        assert s.total_evaluations == 1

    def test_best_resets_across_change(self):
        s = BenchmarkSession(self.cfg(seed=4))
        for _ in range(5):
            s.evaluate(s.landscape.optimum_position)  # error 0 throughout env 0
        far = np.array([99.0, -99.0])
        s.evaluate(far)
        assert s.ledger.errors[5] > 0.0  # fresh best-so-far, not carried over

    def test_session_deterministic(self):
        results = []
        for _ in range(2):
            s = BenchmarkSession(self.cfg())
            rng = np.random.default_rng(0)
            for _ in range(15):
                s.evaluate(rng.uniform(-100, 100, 2))
            results.append((s.indicators(), s.ledger.values.tolist()))
        assert results[0] == results[1]


class TestBlockEvaluation:
    def cfg(self, **kw):
        base = dict(dimension=3, num_components=4, change_frequency=5,
                    num_environments=4, seed=19)
        base.update(kw)
        return ScenarioConfig(**base)

    def assert_same_state(self, a, b):
        for name in ("values", "errors", "optima", "env_final_errors"):
            np.testing.assert_array_equal(getattr(a.ledger, name), getattr(b.ledger, name))
        assert a.total_evaluations == b.total_evaluations
        assert a.landscape.environment_index == b.landscape.environment_index
        for name in ("centers", "rotations", "widths", "heights", "angles", "tau", "eta"):
            np.testing.assert_array_equal(getattr(a.landscape, name), getattr(b.landscape, name))

    def test_blocks_match_point_by_point(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(-100, 100, (20, 3))
        by_point = BenchmarkSession(self.cfg())
        single = np.array([by_point.evaluate(x) for x in xs])
        for sizes in ([20], [1, 19], [3, 7, 2, 8], [4, 1, 5, 10]):
            by_block = BenchmarkSession(self.cfg())
            cuts = np.cumsum([0] + sizes)
            got = np.concatenate([by_block.evaluate(xs[a:b]) for a, b in zip(cuts, cuts[1:])])
            np.testing.assert_array_equal(got, single)
            self.assert_same_state(by_block, by_point)
        with pytest.raises(ScenarioComplete):
            by_point.evaluate(xs[:2])

    def test_block_crosses_environment_changes_without_stopping(self):
        s = BenchmarkSession(self.cfg())
        values = s.evaluate(np.zeros((12, 3)))
        assert values.shape == (12,)
        assert s.total_evaluations == 12
        assert s.landscape.environment_index == 2
        # each row is scored under the environment it falls in
        assert s.ledger.optima[4] != s.ledger.optima[5]
        assert values[4] != values[5]

    def test_stops_after_first_row_strictly_above(self):
        twin = BenchmarkSession(self.cfg())
        low, high = np.full(3, 90.0), np.full(3, -90.0)
        v_low, v_high = twin.evaluate(low), twin.evaluate(high)
        if v_low > v_high:
            low, high, v_low, v_high = high, low, v_high, v_low
        s = BenchmarkSession(self.cfg())
        best = s.landscape.optimum_position
        block = np.array([low, high, high, best, low])
        values = s.evaluate(block, stop=lambda v, rows: v > v_high)  # equal rows do not stop
        np.testing.assert_array_equal(values, [v_low, v_high, v_high, s.landscape.optimum_value])
        assert s.total_evaluations == 4
        np.testing.assert_array_equal(s.ledger.values[:4], values)
        assert np.isnan(s.ledger.values[4])  # the row after the stop is not recorded

    def test_stop_on_an_environment_last_row_ends_the_call(self):
        s = BenchmarkSession(self.cfg())
        block = np.zeros((8, 3))
        block[4] = s.landscape.optimum_position
        threshold = s.landscape.optimum_value - 1e-6
        values = s.evaluate(block, stop=lambda v, rows: v > threshold)
        assert values.shape == (5,)
        assert s.total_evaluations == 5
        assert s.landscape.environment_index == 1

    def test_stop_rule_sees_each_segment_with_its_rows(self):
        s = BenchmarkSession(self.cfg())
        block = np.zeros((12, 3))
        calls = []

        def stop(values, rows):
            calls.append(rows)
            return np.arange(rows.start, rows.stop) == 7

        values = s.evaluate(block, stop=stop)
        assert calls == [slice(0, 5), slice(5, 10)]
        assert values.shape == (8,)
        assert s.total_evaluations == 8
        np.testing.assert_array_equal(s.ledger.values[:8], values)

    def test_empty_block_spends_nothing(self):
        s = BenchmarkSession(self.cfg())
        values = s.evaluate(np.empty((0, 3)))
        assert values.shape == (0,)
        assert s.total_evaluations == 0
        assert np.isnan(s.ledger.values).all()

    def test_budget_end_returns_the_consumed_prefix(self):
        s = BenchmarkSession(self.cfg())
        values = s.evaluate(np.ones((23, 3)))
        assert values.shape == (20,)
        assert s.ledger.complete
        with pytest.raises(ScenarioComplete):
            s.evaluate(np.ones((1, 3)))

    def test_one_bad_row_spends_nothing(self):
        s = BenchmarkSession(self.cfg())
        for bad in ([0.0, 100.5, 0.0], [0.0, np.nan, 0.0]):
            block = np.zeros((6, 3))
            block[4] = bad
            with pytest.raises(ValueError, match="outside the search box|non-finite"):
                s.evaluate(block)
        with pytest.raises(ValueError, match="dimension"):
            s.evaluate(np.zeros((2, 4)))
        assert s.total_evaluations == 0
        assert np.isnan(s.ledger.values).all()

    def test_ledger_block_matches_value_by_value(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(-50, 70, 12)
        one = EvaluationLedger(4, 3)
        feed(one, [(v, 75.0) for v in values])
        blocks = EvaluationLedger(4, 3)
        for a, b in ((0, 3), (3, 4), (4, 8), (8, 9), (9, 12)):
            blocks.record(values[a:b], 75.0)
        for name in ("errors", "values", "optima", "env_final_errors"):
            np.testing.assert_array_equal(getattr(blocks, name), getattr(one, name))
        with pytest.raises(ValueError, match="environment"):
            EvaluationLedger(4, 3).record(values[:5], 75.0)
