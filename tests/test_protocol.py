"""Budget accounting, change scheduling, and the two performance indicators."""

import math
import re
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmpbench import BenchmarkSession, ScenarioComplete, ScenarioConfig, evaluate_raw
from gmpbench.protocol import CHANGE_DETECTION_TOL, EvaluationLedger
from test_golden import run_in_checkout


def feed(ledger, pairs):
    for value, opt in pairs:
        ledger.record(value, opt)


class IncrementalLedger:
    """Oracle: the ledger as it was kept before its errors were derived.

    Each ``record`` updates the best-so-far errors and each environment's
    final error in place, carrying the best value across the blocks of an
    environment, and returns the error the last evaluation leaves.
    """

    def __init__(self, change_frequency, num_environments):
        self.change_frequency = change_frequency
        capacity = change_frequency * num_environments
        self.errors = np.full(capacity, np.nan)
        self.env_final_errors = np.full(num_environments, np.nan)
        self.total = 0
        self.env_eval_count = 0
        self.environments_completed = 0
        self._best_value = -math.inf

    def record(self, values, optimum_value):
        values = np.asarray(values, dtype=float).reshape(-1)
        n = values.shape[0]
        errors = self.errors[self.total:self.total + n]
        np.maximum.accumulate(values, out=errors)
        np.maximum(errors, self._best_value, out=errors)
        self._best_value = errors[-1]
        np.subtract(optimum_value, errors, out=errors)
        error = float(errors[-1])
        self.total += n
        self.env_eval_count += n
        if self.env_eval_count == self.change_frequency:
            self.env_final_errors[self.environments_completed] = error
            self.environments_completed += 1
            self.env_eval_count = 0
            self._best_value = -math.inf
        return error


def assert_same_bits(a, b):
    """Equal dtype, NaN in the same slots, and the same bytes elsewhere."""
    assert a.dtype == b.dtype and a.shape == b.shape
    nan = np.isnan(a)
    np.testing.assert_array_equal(nan, np.isnan(b))
    assert a[~nan].tobytes() == b[~nan].tobytes()


def random_blocks(rng, change_frequency, num_environments):
    """Block lengths that fill a ledger, none crossing an environment end:
    a mix of one-row blocks, blocks that end on the boundary and random
    splits."""
    blocks = []
    for _ in range(num_environments):
        left = change_frequency
        while left:
            kind = rng.integers(3)
            n = 1 if kind == 0 else left if kind == 1 else int(rng.integers(1, left + 1))
            blocks.append(n)
            left -= n
    return blocks


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
        assert led.indicators() == pytest.approx((2.875, 1.5))

    def test_first_evaluation_at_optimum(self):
        led = EvaluationLedger(1, 1)
        led.record(50.0, 50.0)
        assert led.errors[0] == 0.0

    @pytest.mark.parametrize("frequency,environments", [(1, 1), (1, 6), (2, 3), (7, 4), (25, 2)])
    @pytest.mark.parametrize("seed", range(4))
    def test_derived_state_matches_the_incremental_oracle(self, frequency, environments, seed):
        rng = np.random.default_rng(seed)
        optima = rng.uniform(60, 80, environments)
        led = EvaluationLedger(frequency, environments)
        oracle = IncrementalLedger(frequency, environments)
        for n in random_blocks(rng, frequency, environments):
            # a small value set, so that blocks tie with the carried best
            values = rng.choice(rng.uniform(-50, 70, 4), n)
            optimum = optima[oracle.environments_completed]
            led.record(values, optimum)
            last = oracle.record(values, optimum)
            assert_same_bits(led.errors, oracle.errors)
            assert_same_bits(led.env_final_errors, oracle.env_final_errors)
            assert led.errors[led.total - 1] == last
            assert (led.total, led.env_eval_count, led.total // led.change_frequency) == (
                oracle.total, oracle.env_eval_count, oracle.environments_completed)
        assert led.complete

    def test_state_is_values_optima_and_total(self):
        led = EvaluationLedger(3, 2)
        state = dict(vars(led))
        assert set(state) == {"change_frequency", "num_environments", "capacity",
                              "values", "optima", "total"}
        for n in (2, 1, 3):
            led.record(np.ones(n), 2.0)
        assert set(vars(led)) == set(state)
        for name, value in state.items():
            if name != "total":
                assert getattr(led, name) is value
        assert led.total == 6

    def test_writing_into_returned_errors_changes_no_indicator(self):
        rng = np.random.default_rng(4)
        led = EvaluationLedger(5, 3)
        for optimum in (70.0, 75.0, 72.0):
            led.record(rng.uniform(0, 60, 5), optimum)
        before = led.indicators()
        errors = led.errors
        errors[:] = -1.0
        led.env_final_errors[:] = -1.0
        assert led.errors is not errors
        assert led.indicators() == before

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
        with pytest.raises(ValueError, match="ledger holds 1 of 8 evaluations"):
            led.indicators()

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
        assert led.indicators() == pytest.approx((e_o, e_bbc), rel=1e-12)
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
        assert s.ledger.capacity - s.ledger.total == 15
        assert s.ledger.total == 0

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
        assert s.ledger.total == 15
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

    def test_budget_exhaustion_leaves_final_indicators(self):
        s = BenchmarkSession(self.cfg())
        x = np.ones(2)
        for _ in range(15):
            s.evaluate(x)
        e_o, e_bbc = s.indicators()
        with pytest.raises(ScenarioComplete):
            s.evaluate(x)
        # the raise spends nothing and the indicators stay final
        assert s.ledger.total == 15
        assert s.indicators() == (e_o, e_bbc)
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
        assert s.ledger.total == 0
        assert s.ledger.capacity - s.ledger.total == 15

    def test_complex_point_rejected_without_spending_budget(self):
        # a cast to float would score the real part, a point never asked for
        s = BenchmarkSession(self.cfg())
        for bad in (np.array([[1 + 500j, 2 - 900j]]), np.array([1 + 0j, 2 + 0j]),
                    [[1 + 500j, 2.0]], [np.complex128(1 + 1j), 2.0]):
            with pytest.raises(ValueError, match="complex"):
                s.evaluate(bad)
        # so are numpy complex stop values, which a cast reads as their real parts
        for rules in ({"above": np.complex128(1 + 2j)}, {"differs_from": np.array([1 + 2j])}):
            with pytest.raises(ValueError, match="complex"):
                s.evaluate(np.array([[1.0, 2.0]]), **rules)
        # so is input that numpy reads as objects or as Python complex numbers
        for bad, rules in ((np.array([1 + 2j, 0], dtype=object), {}),
                           (np.array([1.0, 2.0]), {"above": 1 + 2j}),
                           (np.array([[1.0, 2.0]]), {"differs_from": [1 + 2j]})):
            with pytest.raises(ValueError, match="real numbers"):
                s.evaluate(bad, **rules)
        assert s.ledger.total == 0
        s.evaluate(np.array([[1.0, 2.0]]))
        assert s.ledger.total == 1

    # a cast to float would score each of these as points or a stop value never sent
    @pytest.mark.parametrize("bad, rules, dtype", [
        (np.array([np.complex128(1 + 2j), 2.0], dtype=object), {}, "object"),
        (np.array(["1.0", "2.0"]), {}, "<U3"),
        (np.array([True, False]), {}, "bool"),
        (np.array([[1.0, 2.0]]), {"differs_from": [np.complex128(1 + 2j)]}, "complex128"),
        (np.array([[1.0, 2.0]]), {"differs_from": np.array([np.complex128(1 + 2j)], dtype=object)},
         "object"),
        (np.array([[1.0, 2.0]]), {"above": np.array(np.complex128(1 + 2j), dtype=object)}, "object"),
        (np.array([[1.0, 2.0]]), {"above": True}, "bool"),
    ], ids=["x-object-complex", "x-string", "x-bool", "differs-list-complex",
            "differs-object-complex", "above-object-complex", "above-bool"])
    def test_input_that_a_cast_would_read_is_rejected_without_spending_budget(self, bad, rules, dtype):
        s = BenchmarkSession(self.cfg())
        with pytest.raises(ValueError, match=f"not {dtype} of shape"):
            s.evaluate(bad, **rules)
        assert s.ledger.total == 0

    KIND_SAMPLES = {
        "b": np.array([True, False]),
        "i": np.array([1, -2], dtype=np.int64),
        "u": np.array([1, 2], dtype=np.uint16),
        "f": np.array([1.5, -2.25], dtype=np.float32),
        "c": np.array([1.5, -2.25], dtype=np.complex128),
        "m": np.array([1, 2], dtype="m8[s]"),
        "M": np.array([1, 2], dtype="M8[D]"),
        "O": np.array([1.5, -2.25], dtype=object),
        "S": np.array([b"1.5", b"2.0"]),
        "U": np.array(["1.5", "2.0"]),
        "V": np.array([(1.5,), (2.0,)], dtype=[("a", float)]),
    }

    @pytest.mark.parametrize("kind", list(KIND_SAMPLES))
    def test_integer_and_float_dtypes_alone_are_accepted(self, kind):
        # the schema's number rule, read from the dtype of the points and of each stop value
        sample = self.KIND_SAMPLES[kind]
        assert sample.dtype.kind == kind
        accepted = kind in "iuf"
        for x, rules in ((sample, {}), (np.zeros((1, 2)), {"differs_from": sample[:1]}),
                         (np.zeros((1, 2)), {"above": sample[0, ...]})):
            s = BenchmarkSession(self.cfg())
            if not accepted:
                with pytest.raises(ValueError, match=re.escape(f"not {sample.dtype} of shape")):
                    s.evaluate(x, **rules)
                assert s.ledger.total == 0
                continue
            expected = evaluate_raw(np.asarray(x, dtype=float).reshape(1, 2), s.landscape)
            value = s.evaluate(x, **rules)
            assert s.ledger.total == 1
            # int64 and float32 points score bit-equal to their float64 values
            assert_same_bits(np.asarray(value).reshape(1), expected)

    def test_masked_point_rejected_without_spending_budget(self):
        # a cast to float would score the data under the mask
        s = BenchmarkSession(self.cfg())
        with pytest.raises(ValueError, match="masked"):
            s.evaluate(np.ma.array([[1.0, 2.0]], mask=[[False, True]]))
        assert s.ledger.total == 0
        # a masked array with nothing masked is scored as its data
        value = s.evaluate(np.ma.array([[1.0, 2.0]], mask=[[False, False]]))
        assert s.ledger.total == 1
        np.testing.assert_array_equal(value, evaluate_raw(np.array([[1.0, 2.0]]), s.landscape))

    def test_sessions_do_not_import_numpy_ma(self):
        # a masked array cannot exist before numpy.ma is imported, so the
        # masked-input rule needs no import of it (about 1 MiB of memory)
        code = "\n".join([
            "import sys",
            "from gmpbench import ScenarioConfig, run_session",
            "from gmpbench.harness import SOLVERS",
            "scenario = ScenarioConfig(dimension=3, num_components=4, change_frequency=300,",
            "                          num_environments=2)",
            "for solver in SOLVERS:",
            "    run_session(scenario, solver)",
            "print('numpy.ma' in sys.modules)"])
        run = run_in_checkout({}, "-c", code)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "False\n"

    def test_point_outside_box_rejected_without_spending_budget(self):
        s = BenchmarkSession(self.cfg())
        for bad in ([100.5, 0.0], [0.0, -100.0 - 1e-9], [1e300, -1e300]):
            with pytest.raises(ValueError, match="outside the search box"):
                s.evaluate(np.array(bad))
        assert s.ledger.total == 0
        assert s.ledger.capacity - s.ledger.total == 15
        # the box edges belong to the box
        s.evaluate(np.array([-100.0, 100.0]))
        assert s.ledger.total == 1

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


def run_threads(*targets):
    """Run each target in its own thread under a 1-us switch interval, so
    the interpreter hands the GIL over between almost any two bytecodes.
    The interval is restored and every started thread joined, whatever
    happens. Each target catches its own failures; a thread's exception
    would otherwise only be printed."""
    interval = sys.getswitchinterval()
    threads = [threading.Thread(target=target) for target in targets]
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
        sys.setswitchinterval(interval)


class TestConcurrentCallers:
    """A session takes one caller at a time and scores its own copy of the
    points: no thread can interleave a call with another, or change a block
    between its range check and its scoring."""

    @pytest.mark.parametrize("seed", range(6))
    def test_four_threads_never_share_a_call(self, seed):
        cfg = ScenarioConfig(change_frequency=37, num_environments=400, seed=seed)
        s = BenchmarkSession(cfg)
        rng = np.random.default_rng(seed)
        # four lists of random 1-8-row blocks, each list a quarter of the budget
        share = s.ledger.capacity // 4
        work = []
        for _ in range(4):
            ends = np.cumsum(rng.integers(1, 9, size=share))
            ends = ends[ends < share]
            work.append(np.split(rng.uniform(-100, 100, (share, cfg.dimension)), ends))
        returned, refused, failures = [], [], []

        def caller(blocks):
            try:
                for block in blocks:
                    # a refused block is sent again, after giving way to the call in progress
                    while True:
                        try:
                            values = s.evaluate(block)
                            break
                        except RuntimeError as err:
                            assert "in progress" in str(err)
                            refused.append(len(block))
                            time.sleep(1e-4)
                    assert values.shape == (len(block),)
                    returned.append(len(block))
            except BaseException as err:  # the test reports it
                failures.append(err)

        run_threads(*(lambda blocks=blocks: caller(blocks) for blocks in work))
        assert failures == []
        assert refused, "no call ever met another; the test exercised nothing"
        # a refused call recorded nothing, and each returned call its rows
        assert sum(returned) == s.ledger.total == s.ledger.capacity
        assert s.landscape.environment_index == min(s.ledger.total // 37, 399)

    def test_a_block_changed_during_the_call_is_scored_as_checked(self):
        # one environment, so every recorded row has one right value
        s = BenchmarkSession(ScenarioConfig(change_frequency=64 * 50, num_environments=1))
        block = np.random.default_rng(3).uniform(-100, 100, (64, 10))
        block[:, 0] = 0.0
        expected = evaluate_raw(block, s.landscape)
        stop = threading.Event()
        rejected, failures = [], []

        def flipper():
            # one write per pass, so the thread can be switched out in either state
            x1 = 1e6
            while not stop.is_set():
                block[:, 0] = x1
                x1 = 1e6 - x1

        def caller():
            try:
                while not s.ledger.complete:
                    try:
                        s.evaluate(block)
                    except ValueError as err:
                        assert "outside the search box" in str(err)
                        rejected.append(err)
            except BaseException as err:  # the test reports it
                failures.append(err)
            finally:
                stop.set()

        run_threads(caller, flipper)
        assert failures == []
        assert rejected, "the flipper never moved a row out of the box; the test exercised nothing"
        np.testing.assert_array_equal(s.ledger.values.reshape(-1, 64),
                                      np.broadcast_to(expected, (50, 64)))


class TestBlockEvaluation:
    def cfg(self, **kw):
        base = dict(dimension=3, num_components=4, change_frequency=5,
                    num_environments=4, seed=19)
        base.update(kw)
        return ScenarioConfig(**base)

    def assert_same_state(self, a, b):
        for name in ("values", "errors", "optima", "env_final_errors"):
            np.testing.assert_array_equal(getattr(a.ledger, name), getattr(b.ledger, name))
        assert a.ledger.total == b.ledger.total
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
        assert s.ledger.total == 12
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
        values = s.evaluate(block, above=v_high)  # equal rows do not stop
        np.testing.assert_array_equal(values, [v_low, v_high, v_high, s.landscape.optimum_value])
        assert s.ledger.total == 4
        np.testing.assert_array_equal(s.ledger.values[:4], values)
        assert np.isnan(s.ledger.values[4])  # the row after the stop is not recorded

    def test_stop_on_an_environment_last_row_ends_the_call(self):
        s = BenchmarkSession(self.cfg())
        block = np.zeros((8, 3))
        block[4] = s.landscape.optimum_position
        threshold = s.landscape.optimum_value - 1e-6
        values = s.evaluate(block, above=threshold)
        assert values.shape == (5,)
        assert s.ledger.total == 5
        assert s.landscape.environment_index == 1

    def test_differs_from_lines_up_with_the_block_rows_across_segments(self):
        # 12 rows span environments 0-2; only row 7, in the second
        # segment, differs from its remembered value
        block = np.random.default_rng(5).uniform(-100, 100, (12, 3))
        scored = BenchmarkSession(self.cfg()).evaluate(block)
        assert len(np.unique(scored)) == 12  # a misaligned row would differ
        remembered = scored.copy()
        remembered[7] += 1e-6
        remembered[3] += 5e-10  # within the tolerance, so no stop
        s = BenchmarkSession(self.cfg())
        values = s.evaluate(block, differs_from=remembered)
        np.testing.assert_array_equal(values, scored[:8])
        assert s.ledger.total == 8
        np.testing.assert_array_equal(s.ledger.values[:8], values)

    def test_empty_block_spends_nothing(self):
        s = BenchmarkSession(self.cfg())
        values = s.evaluate(np.empty((0, 3)))
        assert values.shape == (0,)
        assert s.ledger.total == 0
        assert np.isnan(s.ledger.values).all()

    def test_budget_end_inside_a_block_records_the_rows_that_fit_and_raises(self):
        xs = np.random.default_rng(4).uniform(-100, 100, (23, 3))
        by_point = BenchmarkSession(self.cfg())
        for x in xs[:20]:
            by_point.evaluate(x)
        s = BenchmarkSession(self.cfg())
        with pytest.raises(ScenarioComplete):
            s.evaluate(xs)
        assert s.ledger.complete
        self.assert_same_state(s, by_point)
        with pytest.raises(ScenarioComplete):
            s.evaluate(xs[:1])

    @pytest.mark.parametrize("seed", range(4))
    def test_a_block_comes_back_short_only_after_its_rule_hits(self, seed):
        # random blocks under random rules, crossing environment changes,
        # up to the budget's end: a call that returns fewer rows than it
        # was sent ends on its first hit, one that raises recorded every
        # row that fit and met no rule, and the ledger is that of the rows
        # scored one at a time
        rng = np.random.default_rng(seed)
        cfg = self.cfg(change_frequency=7, num_environments=30, seed=seed)
        s, by_point = BenchmarkSession(cfg), BenchmarkSession(cfg)
        short = crossed = 0
        raised = False
        while not raised:
            n = int(rng.integers(1, 16))
            block = rng.uniform(-100, 100, (n, 3))
            # the rows' values if the environment stayed as it is
            static = evaluate_raw(block, s.landscape)
            rule = [{}, {"above": float(np.quantile(static, rng.random()))},
                    {"differs_from": static + (rng.random(n) < 0.1)}][rng.integers(3)]
            before = s.ledger.total
            try:
                values = s.evaluate(block, **rule)
            except ScenarioComplete:
                raised = True
                values = s.ledger.values[before:s.ledger.total]
            if "above" in rule:
                hits = values > rule["above"]
            elif "differs_from" in rule:
                hits = np.abs(values - rule["differs_from"][:len(values)]) > CHANGE_DETECTION_TOL
            else:
                hits = np.zeros(len(values), dtype=bool)
            assert not hits[:-1].any()
            if raised:
                assert s.ledger.complete and len(values) < n and not hits.any()
            elif len(values) < n:
                assert hits[-1]
                short += 1
                crossed += before // 7 != (before + len(values) - 1) // 7
            for x in block[:len(values)]:
                by_point.evaluate(x)
            self.assert_same_state(s, by_point)
        assert short > 0 and crossed > 0

    def test_one_bad_row_spends_nothing(self):
        s = BenchmarkSession(self.cfg())
        for bad in ([0.0, 100.5, 0.0], [0.0, np.nan, 0.0]):
            block = np.zeros((6, 3))
            block[4] = bad
            with pytest.raises(ValueError, match="outside the search box|non-finite"):
                s.evaluate(block)
        with pytest.raises(ValueError, match="dimension"):
            s.evaluate(np.zeros((2, 4)))
        assert s.ledger.total == 0
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


class TestStopRulesAsData:
    """The session applies the stop rule itself: a solver learns only the
    values the ledger charges it for."""

    ROWS = 4000

    def session(self):
        return BenchmarkSession(ScenarioConfig(dimension=3, num_components=4,
                                               change_frequency=5000, num_environments=2))

    def block(self):
        return np.random.default_rng(2).uniform(-100, 100, (self.ROWS, 3))

    def test_a_callable_stop_is_rejected_and_never_called(self):
        s = self.session()
        shown = []
        with pytest.raises(TypeError):
            s.evaluate(self.block(), stop=lambda values, rows: shown.append(values.copy()))
        assert shown == []
        assert s.ledger.total == 0
        assert np.isnan(s.ledger.values).all()

    @pytest.mark.parametrize("rule", ["above", "differs_from"])
    def test_a_hit_on_row_zero_returns_one_charged_value(self, rule):
        # every row meets the rule, so the call ends after row 0
        s = self.session()
        threshold = {"above": -math.inf, "differs_from": np.full(self.ROWS, 1e3)}[rule]
        values = s.evaluate(self.block(), **{rule: threshold})
        assert values.shape == (1,)
        assert s.ledger.total == 1
        np.testing.assert_array_equal(values, s.ledger.values[:1])
        # no buffer of the other scored rows stays reachable
        assert values.base is None

    def test_a_block_past_the_budget_charges_the_rows_that_fit_and_raises(self):
        cfg = ScenarioConfig(dimension=3, num_components=4, change_frequency=5,
                             num_environments=2)
        charged = BenchmarkSession(cfg).evaluate(self.block()[:10])
        s = BenchmarkSession(cfg)
        with pytest.raises(ScenarioComplete):
            s.evaluate(self.block()[:25])
        assert s.ledger.total == 10
        np.testing.assert_array_equal(s.ledger.values, charged)

    def test_a_threshold_object_sees_no_values(self):
        shown = []

        class Spy:
            """A threshold that numpy's comparison would hand the values."""
            __array_ufunc__ = None

            def __float__(self):
                return 1e3

            def __lt__(self, other):
                shown.append(other)
                return np.zeros(len(other), dtype=bool)

            __gt__ = __lt__

        # an object is not a number: it is rejected before any value exists
        s = self.session()
        with pytest.raises(ValueError, match="object"):
            s.evaluate(self.block(), above=Spy())
        assert shown == []
        assert s.ledger.total == 0
        assert np.isnan(s.ledger.values).all()

    @pytest.mark.parametrize("rules", [
        {"differs_from": np.zeros(ROWS - 1)},
        {"differs_from": np.zeros((ROWS, 1))},
        {"differs_from": 0.0},
        {"above": 0.0, "differs_from": np.zeros(ROWS)},
    ], ids=["short", "column", "scalar", "both"])
    def test_malformed_rules_are_rejected_without_spending_budget(self, rules):
        s = self.session()
        with pytest.raises(ValueError, match="differs_from"):
            s.evaluate(self.block(), **rules)
        assert s.ledger.total == 0
        assert np.isnan(s.ledger.values).all()
