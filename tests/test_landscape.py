"""Objective function: transform identities, component cones, max-composition."""

import hashlib
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmpbench import (
    ScenarioConfig,
    advance_environment,
    evaluate_batch,
    evaluate_raw,
    init_landscape,
    run_session,
    scenario_from_dict,
    scenario_to_dict,
    validate_config,
)
from gmpbench import landscape as landscape_module
from gmpbench.cli import main
from gmpbench.landscape import (
    _BLOCK_ELEMENTS,
    MAX_ARRAY_ELEMENTS,
    Landscape,
    transform_vector,
)

ETA0 = np.zeros(4)
FIELDS = ("centers", "rotations", "widths", "heights", "angles", "tau", "eta")


def irregularity_transform(y, tau, eta):
    """Scalar oracle of the warp: sign-preserving, 0 maps to 0 exactly.

    Positive inputs use the first two ``eta`` frequencies, negative inputs
    the last two. The ``exp(log|y| + ...)`` form is evaluated literally, as
    :func:`transform_vector` does.
    """
    if y == 0.0:
        return 0.0
    ly = math.log(abs(y))
    if y > 0.0:
        a, b = eta[0], eta[1]
    else:
        a, b = eta[2], eta[3]
    out = math.exp(ly + tau * (math.sin(a * ly) + math.sin(b * ly)))
    return out if y > 0.0 else -out


def warp(y, tau, eta):
    """:func:`transform_vector` of a float64 ``y`` with a fresh scratch laid
    out as the kernel's workspace: three float slots, the bool mask and the
    gather index shaped as ``y``, and ``eta``'s rows ``2 * arange`` laid out
    as its leading axes."""
    scratch = (np.empty(y.shape), np.empty(y.shape), np.empty(y.shape),
               np.empty(y.shape, dtype=bool), np.empty(y.shape, dtype=np.intp),
               np.arange(0, eta.size // 2, 2).reshape(eta.shape[:-1]))
    return transform_vector(y, tau, eta, scratch=scratch)


def where_transform(y, tau, eta):
    """The warp with each element's frequency pair picked by two ``np.where``
    selections on ``y > 0``: the oracle of the gather in
    :func:`transform_vector`."""
    y = np.asarray(y, dtype=float)
    eta = np.asarray(eta, dtype=float)
    pos = y > 0.0
    ly = np.abs(y)
    ly += y == 0.0
    np.log(ly, out=ly)
    out = np.where(pos, eta[..., 0], eta[..., 2])
    out *= ly
    np.sin(out, out=out)
    wave = np.where(pos, eta[..., 1], eta[..., 3])
    wave *= ly
    np.sin(wave, out=wave)
    out += wave
    out *= tau
    out += ly
    np.exp(out, out=out)
    out *= np.sign(y)
    return out


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def plain_component(center, height, widths, rotation=None, tau=0.0, eta=ETA0):
    """One-component landscape; unrotated and unwarped unless told."""
    center = np.asarray(center, dtype=float)
    d = len(center)
    return Landscape(environment_index=0, centers=center[None],
                     rotations=np.eye(d)[None] if rotation is None else np.asarray(rotation)[None],
                     widths=np.asarray(widths, dtype=float)[None],
                     heights=np.array([height], dtype=float), angles=np.zeros(1),
                     tau=np.array([tau], dtype=float), eta=np.asarray(eta, dtype=float)[None])


def stacked(*landscapes):
    """One landscape holding the components of all of ``landscapes``."""
    return Landscape(environment_index=0, **{
        name: np.concatenate([getattr(ls, name) for ls in landscapes]) for name in FIELDS})


def component(landscape, k):
    """Component ``k`` of ``landscape`` as a one-component landscape."""
    return Landscape(environment_index=0, **{
        name: getattr(landscape, name)[k:k + 1] for name in FIELDS})


def oracle_value(x, landscape):
    """The landscape formula, component by component on the scalar warp."""
    best = -math.inf
    for k in range(landscape.num_components):
        y = landscape.rotations[k] @ (x - landscape.centers[k])
        t = [irregularity_transform(v, landscape.tau[k], landscape.eta[k]) for v in y]
        best = max(best, landscape.heights[k]
                   - math.sqrt(sum(w * v * v for w, v in zip(landscape.widths[k], t))))
    return best


def random_component(rng, d=2):
    return init_landscape(ScenarioConfig(dimension=d, num_components=1), rng)


# the machine epsilon, and the ulps within which a log, sin or exp is taken
# to round
EPS = np.finfo(float).eps
ULPS = 4

finite_offsets = st.floats(min_value=1e-12, max_value=1e6, allow_nan=False)
taus = st.floats(min_value=-1.0, max_value=1.0)
etas = st.floats(min_value=-20.0, max_value=20.0)


class TestIrregularityTransform:
    def test_zero_maps_to_zero_exactly(self):
        assert irregularity_transform(0.0, 0.7, [3.0, 4.0, 5.0, 6.0]) == 0.0

    def test_one_is_fixed_exactly(self):
        assert irregularity_transform(1.0, 0.9, [17.0, -3.0, 2.0, 8.0]) == 1.0
        assert irregularity_transform(-1.0, 0.9, [17.0, -3.0, 2.0, 8.0]) == -1.0

    def test_tau_zero_is_identity(self):
        assert irregularity_transform(5.0, 0.0, [9.0, 9.0, 9.0, 9.0]) == pytest.approx(5.0, rel=1e-12)

    def test_known_value_at_e(self):
        # y = e: log y = 1, sin(pi/2) = 1 twice, so exp(1 + 0.2 * 2) = e^1.4
        got = irregularity_transform(math.e, 0.2, [math.pi / 2, math.pi / 2, 0.0, 0.0])
        assert got == pytest.approx(math.exp(1.4), rel=1e-12)

    @given(y=finite_offsets, tau=taus, e1=etas, e2=etas, e3=etas, e4=etas)
    def test_sign_preserving(self, y, tau, e1, e2, e3, e4):
        eta = [e1, e2, e3, e4]
        assert irregularity_transform(y, tau, eta) > 0.0
        assert irregularity_transform(-y, tau, eta) < 0.0

    @given(y=finite_offsets, tau=taus, e1=etas, e2=etas)
    def test_odd_when_frequencies_mirror(self, y, tau, e1, e2):
        eta = [e1, e2, e1, e2]
        plus = irregularity_transform(y, tau, eta)
        minus = irregularity_transform(-y, tau, eta)
        assert minus == -plus

    @given(y=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), e1=etas, e2=etas)
    def test_tau_zero_identity_property(self, y, e1, e2):
        got = irregularity_transform(y, 0.0, [e1, e2, e1, e2])
        assert got == pytest.approx(y, rel=1e-12, abs=0.0) or (y == 0.0 and got == 0.0)

    @given(y=finite_offsets, tau=taus, e1=etas, e2=etas, e3=etas, e4=etas)
    # numpy's SIMD log and math.log differ by 1 ulp here, and exp turns that
    # into a relative difference of 1.76e-15
    @example(y=397295.4075321314, tau=0.0, e1=0.0, e2=0.0, e3=0.0, e4=0.0)
    def test_vector_matches_scalar(self, y, tau, e1, e2, e3, e4):
        eta = np.array([e1, e2, e3, e4])
        arr = np.array([y, -y, 0.0])
        out = warp(arr, tau, eta)
        expect = [irregularity_transform(v, tau, eta) for v in arr]
        # Error model: numpy's log, sin and exp (SIMD code on some CPUs) and
        # the oracle's libm ones are each within ULPS ulp of the true value.
        # An error of k ulp in ly = log|y| moves the exponent ly + tau *
        # (sin(a ly) + sin(b ly)) by k ulp(ly) times at most 1 + |tau| (|a|
        # + |b|); each sine adds ULPS ulp(1) times |tau|; exp turns an
        # exponent error e into a relative error e and adds its own ULPS
        # ulp. Both sides err, hence the factor 2.
        ly = abs(math.log(y))
        ab = max(abs(e1) + abs(e2), abs(e3) + abs(e4))
        rel = 2 * ULPS * EPS * (1 + 2 * abs(tau) + ly * (1 + abs(tau) * ab))
        assert out == pytest.approx(expect, rel=rel, abs=0.0)


class TestFrequencyGather:
    # zeros of both signs, the smallest subnormals, the largest subnormal,
    # the smallest normal, and ordinary offsets of both signs
    SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                        -2.2250738585072009e-308, 2.2250738585072014e-308, 1e-300,
                        -1e-300, 1.0, -1.0, 0.37, -0.37, 12.5, -12.5, 1e6, -1e6])

    def offsets(self, shape, seed):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 4, shape)
        flat = y.reshape(-1)
        flat[:self.SPECIAL.size] = self.SPECIAL[:flat.size]
        return y

    def test_one_row_of_frequencies(self):
        rng = np.random.default_rng(30)
        for shape in [(17,), (3, 17), (2, 4, 5)]:
            y = self.offsets(shape, 31)
            eta = rng.uniform(-20, 20, 4)
            for tau in (0.0, 0.8, -1.0):
                assert same_bits(warp(y, tau, eta), where_transform(y, tau, eta))

    def test_one_row_per_component(self):
        # the kernel's layout: y (m, n, d), tau (m, 1, 1), eta (m, 1, 1, 4)
        rng = np.random.default_rng(32)
        for m, n, d in [(1, 1, 17), (3, 2, 17), (50, 16, 20)]:
            y = self.offsets((m, n, d), 33)
            tau = rng.uniform(-1, 1, m)[:, None, None]
            eta = rng.uniform(-20, 20, (m, 4))[:, None, None, :]
            assert same_bits(warp(y, tau, eta), where_transform(y, tau, eta))

    def test_one_row_per_element(self):
        rng = np.random.default_rng(34)
        for shape in [(17,), (3, 17), (2, 3, 17)]:
            y = self.offsets(shape, 35)
            tau = rng.uniform(-1, 1, shape)
            eta = rng.uniform(-20, 20, shape + (4,))
            assert same_bits(warp(y, tau, eta), where_transform(y, tau, eta))
            # a strided eta is gathered from its own copy
            wide = np.repeat(eta, 2, axis=-1)[..., ::2]
            assert same_bits(warp(y, tau, wide), where_transform(y, tau, eta))


class TestKernelOperands:
    def test_operands_are_views_of_the_arrays(self):
        ls = init_landscape(ScenarioConfig(dimension=3, num_components=4),
                            np.random.default_rng(36))
        sources = ("centers", "rotations", "tau", "eta", "widths", "heights")
        for operand, name in zip(ls._operands, sources):
            assert np.shares_memory(operand, getattr(ls, name)), name
            assert operand.base is not None, name
        # a write to an array reaches the kernel
        x = ls.centers[1] + 0.5
        before = evaluate_raw(x, ls)
        ls.heights[:] += 100.0
        assert evaluate_raw(x, ls) > before

    def test_integer_eta_scores_as_its_float64_copy(self):
        # the warp gathers eta into float64 slots, so a hand-built landscape
        # with an integer eta is given a float64 operand once, at construction
        rng = np.random.default_rng(39)
        ls = init_landscape(ScenarioConfig(dimension=3, num_components=4), rng)
        arrays = {name: getattr(ls, name) for name in FIELDS}
        eta = rng.integers(-20, 21, (4, 4))
        ints = Landscape(environment_index=0, **dict(arrays, eta=eta))
        floats = Landscape(environment_index=0, **dict(arrays, eta=eta.astype(float)))
        xs = np.vstack([rng.uniform(-100, 100, (40, 3)), ls.centers])
        assert same_bits(evaluate_raw(xs, ints), evaluate_raw(xs, floats))
        assert evaluate_raw(xs[0], ints) == evaluate_raw(xs[0], floats)

    @pytest.mark.parametrize("name", FIELDS)
    def test_wrong_shape_is_rejected(self, name):
        # an (m, 3) eta would broadcast in the kernel and score x = (7, 7, 7)
        # with the wrong frequencies instead of failing
        ls = init_landscape(ScenarioConfig(dimension=3, num_components=4),
                            np.random.default_rng(39))
        arrays = {field: getattr(ls, field) for field in FIELDS}
        cut = {"centers": np.s_[0], "rotations": np.s_[:, :, :2], "widths": np.s_[:, :2],
               "heights": np.s_[:3], "angles": np.s_[None], "tau": np.s_[:, None],
               "eta": np.s_[:, :3]}[name]
        arrays[name] = arrays[name][cut]
        with pytest.raises(ValueError, match=f"^{name} has shape"):
            Landscape(environment_index=0, **arrays)

    def test_one_piece_block_is_scored_in_one_kernel_call(self, helper_thread, monkeypatch):
        ls = init_landscape(ScenarioConfig(dimension=3, num_components=5),
                            np.random.default_rng(37))
        rows = _BLOCK_ELEMENTS // ls.centers.size
        small = -(-landscape_module._SPLIT_ELEMENTS // ls.centers.size) - 1
        xs = np.random.default_rng(38).uniform(-100, 100, (rows + 1, 3))
        expect = np.array([evaluate_raw(x, ls) for x in xs])
        calls = counted_pieces(monkeypatch)
        main = threading.get_ident()
        # a block below the split threshold is one kernel call on this thread
        for n in (1, 2, small):
            calls.clear()
            assert same_bits(evaluate_raw(xs[:n], ls), expect[:n])
            assert calls == [(main, n)]
        # a block from the threshold on is two pieces, one per thread
        for n in (small + 1, rows, rows + 1):
            calls.clear()
            assert same_bits(evaluate_raw(xs[:n], ls), expect[:n])
            assert sorted(calls, key=lambda call: call[0] != main) == [
                (main, -(-n // 2)), (helper_thread, n // 2)]
        # with no helper, a block over the cap is scored in pieces of the cap
        monkeypatch.setattr(landscape_module, "_kernel_helper", lambda: False)
        for n, pieces in [(small + 1, [small + 1]), (rows, [rows]), (rows + 1, [rows, 1])]:
            calls.clear()
            assert same_bits(evaluate_raw(xs[:n], ls), expect[:n])
            assert calls == [(main, n) for n in pieces]


def wide_landscape(rng):
    """A d=1 landscape with more components than ``_BLOCK_ELEMENTS``, so that
    one row of it is above the kernel's bound."""
    m = _BLOCK_ELEMENTS + 3
    return Landscape(environment_index=0, centers=rng.uniform(-100, 100, (m, 1)),
                     rotations=np.ones((m, 1, 1)), widths=rng.uniform(1, 12, (m, 1)),
                     heights=rng.uniform(30, 70, m), angles=np.zeros(m),
                     tau=rng.uniform(-1, 1, m), eta=rng.uniform(-20, 20, (m, 4)))


class TestWorkspace:
    """The kernel's per-thread workspace: private to its thread, bounded,
    and never aliased by a returned array."""

    def test_threads_score_as_a_sequential_run(self):
        # each worker scores its own landscape in block shapes of its own, so
        # a workspace shared between threads would mix their temporaries
        rng = np.random.default_rng(40)
        jobs = []
        for d, m, rows in [(20, 50, (16, 3)), (3, 7, (1, 40)), (10, 10, (5, 33)),
                           (2, 10, (2000, 7))]:
            ls = init_landscape(ScenarioConfig(dimension=d, num_components=m), rng)
            jobs.append((ls, [rng.uniform(-100, 100, (n, d)) for n in rows * 3]))
        expect = [[evaluate_raw(xs, ls) for xs in blocks] for ls, blocks in jobs]
        got = [None] * len(jobs)
        start = threading.Barrier(len(jobs))

        def work(i):
            ls, blocks = jobs[i]
            start.wait(timeout=30)
            got[i] = [[evaluate_raw(xs, ls) for xs in blocks] for _ in range(10)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for rounds, values in zip(got, expect):
            assert rounds is not None
            for blocks in rounds:
                assert all(same_bits(a, b) for a, b in zip(blocks, values))

    def test_results_do_not_change_after_later_calls(self):
        rng = np.random.default_rng(41)
        ls = init_landscape(ScenarioConfig(dimension=20, num_components=50), rng)
        xs = rng.uniform(-100, 100, (16, 20))
        block = evaluate_raw(xs, ls)
        kept = block.copy()
        for n in (16, 16, 1, 9):
            evaluate_raw(rng.uniform(-100, 100, (n, 20)), ls)
        workspace = landscape_module._workspace
        assert same_bits(block, kept)
        for arena in (workspace.floats, workspace.mask, workspace.index):
            assert not np.shares_memory(block, arena)

    def test_workspace_stays_within_the_block_bound(self, helper_thread, monkeypatch):
        thread = landscape_module._workspace
        kernel = landscape_module._peak_values
        handed = []

        def measured(points, landscape, workspace, out, *warp):
            kernel(points, landscape, workspace, out, *warp)
            # read on the thread that scored the piece, whose arrays these are
            handed.append((threading.get_ident(), workspace, workspace.floats, workspace.mask,
                           workspace.index))

        def arrays_of(work):
            return {(ident, tuple(map(id, arrays))): arrays for ident, w, *arrays in work}

        def assert_unaliased(values, arrays):
            for arena in (a for group in arrays for a in group):
                assert not np.shares_memory(values, arena)

        monkeypatch.setattr(landscape_module, "_peak_values", measured)
        rng = np.random.default_rng(42)
        ls = init_landscape(ScenarioConfig(dimension=2, num_components=10), rng)
        evaluate_raw(ls.centers, ls)
        main = threading.get_ident()
        ((ident, workspace, *found),) = handed
        assert ident == main and workspace is thread
        # a block of many pieces is scored in each thread's workspace: the
        # same fixed arrays for every piece, never replaced or grown
        handed.clear()
        block = evaluate_raw(rng.uniform(-100, 100, (200_000, 2)), ls)
        assert len(handed) > 100 and all(w is thread for _, w, *_ in handed)
        arrays = arrays_of(handed)
        assert sorted(ident for ident, _ in arrays) == sorted([main, helper_thread])
        assert all(a is b for a, b in zip(arrays[main, tuple(map(id, found))], found))
        for floats, mask, index in arrays.values():
            assert (floats.size, mask.size, index.size) == (5 * _BLOCK_ELEMENTS,) + (_BLOCK_ELEMENTS,) * 2
        assert_unaliased(block, arrays.values())
        # one row of this landscape is above the bound: each row is scored
        # alone on this thread, in a workspace of the call's own, as the
        # point by itself is
        wide = wide_landscape(rng)
        x = rng.uniform(-100, 100, (3, 1))
        handed.clear()
        alone = np.array([evaluate_raw(p, wide) for p in x])
        rows = evaluate_raw(x, wide)
        assert same_bits(rows, alone)
        assert len(handed) == 6
        assert all(ident == main and w is not thread for ident, w, *_ in handed)
        # its own workspace holds one row, m * d rounded up to 64 bytes per slot
        slot = -(-wide.centers.size // 8) * 8
        assert all(tuple(a.size for a in arrays) == (5 * slot, slot, slot)
                   for _, _, *arrays in handed)
        assert_unaliased(rows, [arrays for _, _, *arrays in handed] + [found])
        # and the thread's arrays are still the ones found at the start
        handed.clear()
        evaluate_raw(ls.centers, ls)
        assert all(a is b for a, b in zip(handed[0][2:], found))

    def test_evaluation_never_mutates_the_landscape(self):
        # the module docstring's promise, on each workspace rule's input: a
        # one-piece block, a block scored in pieces and a row over the bound
        def digest(landscape):
            arrays = {name: getattr(landscape, name) for name in FIELDS + ("optimum_position",)}
            arrays.update(("operand %d" % i, a) for i, a in enumerate(landscape._operands))
            return {name: (a.dtype.str, a.shape, hashlib.sha256(a.tobytes()).hexdigest())
                    for name, a in arrays.items()}

        rng = np.random.default_rng(45)
        ls = init_landscape(ScenarioConfig(dimension=2, num_components=10), rng)
        wide = wide_landscape(rng)
        for landscape, rows in ((ls, 16), (ls, 200_000), (wide, 1)):
            d = landscape.dimension
            assert (rows * landscape.num_components * d > _BLOCK_ELEMENTS) == (rows != 16)
            before = digest(landscape)
            evaluate_raw(rng.uniform(-100, 100, (rows, d)), landscape)
            assert digest(landscape) == before

    def test_a_thread_workspace_is_allocated_once(self):
        rng = np.random.default_rng(46)
        landscapes = [init_landscape(ScenarioConfig(dimension=d, num_components=m), rng)
                      for d, m in ((10, 10), (20, 50))]
        found = []

        def work():
            # a new thread's workspace holds its whole arena before any block
            workspace = landscape_module._workspace
            arrays = (workspace.floats, workspace.mask, workspace.index)
            found.append(tuple(a.size for a in arrays))
            for ls in landscapes:
                for n in range(1, _BLOCK_ELEMENTS // ls.centers.size + 1):
                    evaluate_raw(rng.uniform(-100, 100, (n, ls.dimension)), ls)
            found.append(all(a is b for a, b in zip(
                (workspace.floats, workspace.mask, workspace.index), arrays)))

        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert found == [(5 * _BLOCK_ELEMENTS, _BLOCK_ELEMENTS, _BLOCK_ELEMENTS), True]

    def test_a_fresh_workspace_scores_every_block(self):
        rng = np.random.default_rng(44)
        ls = init_landscape(ScenarioConfig(dimension=1, num_components=1), rng)
        xs = rng.uniform(-100, 100, (20, 1))
        expect = np.array([evaluate_raw(x, ls) for x in xs])
        got = []
        # a new thread starts with a workspace of its own
        worker = threading.Thread(target=lambda: got.extend(
            evaluate_raw(xs[:n], ls) for n in [*range(1, 21), *range(19, 0, -1)]))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert len(got) == 39
        for block in got:
            assert same_bits(block, expect[:len(block)])

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="minor page faults are counted by Linux getrusage")
    def test_kernel_calls_fault_in_no_new_pages(self):
        # counted in a fresh interpreter: whether freed temporaries go back
        # to the system depends on what else the heap holds
        code = """if True:
            import resource
            import numpy as np
            from gmpbench import ScenarioConfig, evaluate_raw, init_landscape
            rng = np.random.default_rng(43)
            ls = init_landscape(ScenarioConfig(dimension=20, num_components=50), rng)
            xs = rng.uniform(-100, 100, (16, 20))
            for _ in range(5):
                evaluate_raw(xs, ls)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(50):
                evaluate_raw(xs, ls)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """
        src = str(Path(landscape_module.__file__).resolve().parents[1])
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert child.returncode == 0, child.stderr
        # fresh temporaries fault in over a hundred pages per call
        assert int(child.stdout) / 50 < 5


def usable_cpus():
    """The CPUs this process may run on, by the kernel's rule for its helper."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@pytest.fixture
def helper_thread(monkeypatch):
    """The identity of the process's kernel helper thread. Where the kernel
    makes none (one CPU), an executor of one thread stands in for it, so
    the split runs anyway."""
    made = landscape_module._kernel_helper()
    if made:
        yield made.submit(threading.get_ident).result()
        return
    from concurrent.futures import ThreadPoolExecutor
    executor = ThreadPoolExecutor(1)
    monkeypatch.setattr(landscape_module, "_helper", executor)
    try:
        yield executor.submit(threading.get_ident).result()
    finally:
        executor.shutdown()


def counted_pieces(monkeypatch):
    """A list that notes each piece the kernel scores, as (thread, rows)."""
    kernel = landscape_module._peak_values
    calls = []

    def counted(points, *args):
        calls.append((threading.get_ident(), len(points)))
        kernel(points, *args)

    monkeypatch.setattr(landscape_module, "_peak_values", counted)
    return calls


def scored_serially(jobs, monkeypatch):
    """Each job's blocks, scored on the calling thread alone."""
    with monkeypatch.context() as patch:
        patch.setattr(landscape_module, "_kernel_helper", lambda: False)
        return [[evaluate_raw(xs, ls) for xs in blocks] for ls, blocks in jobs]


def large_jobs(rng):
    """Landscapes with blocks that the kernel scores two pieces at a time:
    two pieces of 8 000 to 16 000 elements in all, or pieces of 32 760
    (the d=2 blocks: three of them, and four)."""
    jobs = []
    for d, m, rows in [(20, 50, 16), (10, 10, 81), (5, 20, 80), (3, 7, 400), (2, 10, 4000),
                       (2, 10, 5000)]:
        assert rows * m * d >= landscape_module._SPLIT_ELEMENTS
        ls = init_landscape(ScenarioConfig(dimension=d, num_components=m), rng)
        jobs.append((ls, [rng.uniform(-100, 100, (rows, d)) for _ in range(2)]))
    return jobs


def pairs_of_pieces(n, landscape, main, helper):
    """The pieces an n-row block of ``landscape`` is scored in, as (thread,
    rows): at most min(the cap, ceil(n / 2)) rows each, the first of each
    pair on ``main`` and the second on ``helper``."""
    rows = min(_BLOCK_ELEMENTS // landscape.centers.size, -(-n // 2))
    return [(helper if i % 2 else main, min(rows, n - start))
            for i, start in enumerate(range(0, n, rows))]


def placed_pieces(monkeypatch):
    """A list that notes each piece the kernel scores, as (thread, points)."""
    kernel = landscape_module._peak_values
    calls = []

    def placed(points, *args):
        calls.append((threading.get_ident(), points))
        kernel(points, *args)

    monkeypatch.setattr(landscape_module, "_peak_values", placed)
    return calls


def assert_pairs_of_pieces(calls, xs, landscape, main, helper):
    """The pieces noted by :func:`placed_pieces` for the block ``xs``, each
    scored once: their rows are :func:`pairs_of_pieces`, the first of each
    pair is on ``main`` and the second on ``main`` (a piece taken back before
    the helper started it) or ``helper``. Returns the thread of each piece."""
    first = {(p.__array_interface__["data"][0] - xs.__array_interface__["data"][0])
             // xs.strides[0]: (thread, len(p)) for thread, p in calls}
    assert len(first) == len(calls), "a piece was scored twice"
    placed = [first[row] for row in sorted(first)]
    planned = pairs_of_pieces(len(xs), landscape, main, helper)
    assert [rows for _, rows in placed] == [rows for _, rows in planned]
    assert sorted(first) == list(range(0, len(xs), planned[0][1]))
    assert all(thread == main if want == main else thread in (main, helper)
               for (thread, _), (want, _) in zip(placed, planned))
    return [thread for thread, _ in placed]


class SlowHelper:
    """A kernel helper that starts each job 0.2 s late and notes its end.
    A submit returns once the job has started, so the kernel never takes a
    piece back from it."""

    def __init__(self):
        from concurrent.futures import ThreadPoolExecutor
        self.pool = ThreadPoolExecutor(1)
        self.ended = []

    def submit(self, fn, *args, **kwargs):
        started = threading.Event()

        def late():
            started.set()
            time.sleep(0.2)
            try:
                return fn(*args, **kwargs)
            finally:
                self.ended.append(True)
        future = self.pool.submit(late)
        started.wait()
        return future


def _score_in_child(conn, landscape, points):
    """A forked child's report: whether it started without the parent's
    helper, and the bytes of its values."""
    dropped = landscape_module._helper is None
    conn.send((dropped, evaluate_raw(points, landscape).tobytes()))
    conn.close()


class TestSineHelper:
    """A block of at least ``_SPLIT_ELEMENTS`` elements is scored two
    pieces at a time, the second of each pair on the process's one helper
    thread unless the calling thread takes it back before the helper has
    started it: bit for bit the serial kernel, from any thread, in a forked
    child, under the caller's error state, with every traced call on the
    calling thread."""

    def test_a_large_block_scores_as_the_serial_kernel(self, helper_thread, monkeypatch):
        rng = np.random.default_rng(50)
        jobs = large_jobs(rng)
        expect = [[np.array([evaluate_raw(x, ls) for x in xs]) for xs in blocks]
                  for ls, blocks in jobs]
        assert all(same_bits(a, b) for got, want in zip(scored_serially(jobs, monkeypatch), expect)
                   for a, b in zip(got, want))
        calls = placed_pieces(monkeypatch)
        main = threading.get_ident()
        counts = []
        for (ls, blocks), values in zip(jobs, expect):
            for xs, value in zip(blocks, values):
                calls.clear()
                assert same_bits(evaluate_raw(xs, ls), value)
                assert_pairs_of_pieces(calls, xs, ls, main, helper_thread)
                counts.append(len(calls))
        # two pieces per block, and an odd and an even count of pieces over the cap
        assert counts == [2] * 8 + [3] * 2 + [4] * 2
        # a block below the threshold is one kernel call on this thread
        calls = counted_pieces(monkeypatch)
        small = init_landscape(ScenarioConfig(), np.random.default_rng(51))
        evaluate_raw(np.zeros((40, 10)), small)
        assert calls == [(main, 40)]
        # and a landscape whose one row is over the cap scores row by row here
        wide = wide_landscape(rng)
        xs = rng.uniform(-100, 100, (3, 1))
        alone = np.array([evaluate_raw(x, wide) for x in xs])
        calls.clear()
        assert same_bits(evaluate_raw(xs, wide), alone)
        assert calls == [(main, 1)] * 3

    def test_the_tracer_stays_on_the_calling_thread(self, helper_thread, monkeypatch):
        # the benchmark's tracer patches landscape.transform_vector; its one
        # span stack is the calling thread's, so the patched warp must run
        # on that thread alone, while the helper's pieces warp with the
        # function bound at import
        warp = landscape_module.transform_vector
        warped = []

        def traced(*args, **kwargs):
            warped.append(threading.get_ident())
            return warp(*args, **kwargs)

        rng = np.random.default_rng(58)
        grid = init_landscape(ScenarioConfig(dimension=2, num_components=10), rng)
        big = init_landscape(ScenarioConfig(dimension=20, num_components=50), rng)
        blocks = [(grid, rng.uniform(-100, 100, (199_532, 2))),
                  (big, rng.uniform(-100, 100, (16, 20)))]
        expect = scored_serially([(ls, [xs]) for ls, xs in blocks], monkeypatch)
        calls = placed_pieces(monkeypatch)
        monkeypatch.setattr(landscape_module, "transform_vector", traced)
        main = threading.get_ident()
        helper_pieces = 0
        for (ls, xs), (values,) in zip(blocks, expect):
            calls.clear()
            warped.clear()
            assert same_bits(evaluate_raw(xs, ls), values)
            threads = assert_pairs_of_pieces(calls, xs, ls, main, helper_thread)
            # one traced warp per piece of this thread
            assert warped == [main] * threads.count(main)
            helper_pieces += threads.count(helper_thread)
        # and the helper scored pieces of its own (the grid block has 61 pairs)
        assert helper_pieces >= 1

    def test_a_busy_helper_never_keeps_a_piece(self, monkeypatch):
        # a stand-in helper whose one worker waits until the blocks are
        # scored: each piece handed to it is taken back unstarted, so this
        # thread scores every piece, bit for bit, and no taken piece runs
        from concurrent.futures import ThreadPoolExecutor
        jobs = large_jobs(np.random.default_rng(59))
        expect = scored_serially(jobs, monkeypatch)
        pool = ThreadPoolExecutor(1)
        release = threading.Event()
        pool.submit(release.wait, 60)
        helper = pool.submit(threading.get_ident)
        monkeypatch.setattr(landscape_module, "_helper", pool)
        calls = placed_pieces(monkeypatch)
        main = threading.get_ident()
        try:
            for (ls, blocks), values in zip(jobs, expect):
                for xs, value in zip(blocks, values):
                    calls.clear()
                    assert same_bits(evaluate_raw(xs, ls), value)
                    threads = assert_pairs_of_pieces(calls, xs, ls, main, None)
                    assert threads == [main] * len(threads) and len(threads) >= 2
            calls.clear()
            assert not helper.done()
        finally:
            release.set()
            pool.shutdown()
        assert helper.result() != main and calls == []

    def test_threads_score_large_blocks_as_a_serial_run(self, helper_thread, monkeypatch):
        # more threads than CPUs, each cycling over the landscapes from its
        # own start, so blocks of different shapes queue on the one helper
        jobs = large_jobs(np.random.default_rng(52))
        expect = scored_serially(jobs, monkeypatch)
        count = max(4, usable_cpus() + 1)
        rounds = [0] * count
        wrong = []
        start = threading.Barrier(count)

        def work(i):
            start.wait(timeout=30)
            deadline = time.perf_counter() + 2.0
            while not rounds[i] or time.perf_counter() < deadline:
                for j in range(len(jobs)):
                    ls, blocks = jobs[(i + j) % len(jobs)]
                    for xs, values in zip(blocks, expect[(i + j) % len(jobs)]):
                        if not same_bits(evaluate_raw(xs, ls), values):
                            wrong.append((i, j))
                rounds[i] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == [] and all(rounds)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork on this platform")
    def test_a_forked_child_scores_as_its_parent(self, helper_thread):
        rng = np.random.default_rng(53)
        ls = init_landscape(ScenarioConfig(dimension=20, num_components=50), rng)
        xs = rng.uniform(-100, 100, (16, 20))
        expect = evaluate_raw(xs, ls)  # the helper has run before the fork
        context = multiprocessing.get_context("fork")
        reader, writer = context.Pipe(duplex=False)
        child = context.Process(target=_score_in_child, args=(writer, ls, xs))
        child.start()
        writer.close()
        try:
            # a child that submits to the parent's helper waits forever
            assert reader.poll(60), "the forked child did not score its block"
            got = reader.recv()
            child.join(timeout=60)
            assert not child.is_alive()
        finally:
            if child.is_alive():
                child.kill()
                child.join(timeout=10)
            reader.close()
        assert child.exitcode == 0
        assert got == (True, expect.tobytes())

    def test_the_callers_error_state_reaches_the_helper(self, helper_thread):
        # an infinite coordinate makes every sine of its point's offsets
        # invalid; row 11 is in the helper's piece, rows 8 to 15, so only
        # the helper can raise or warn
        rng = np.random.default_rng(54)
        ls = init_landscape(ScenarioConfig(dimension=20, num_components=50), rng)
        xs = rng.uniform(-100, 100, (16, 20))
        expect = evaluate_raw(xs, ls)
        xs[11, 7] = np.inf
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
                evaluate_raw(xs, ls)
            with np.errstate(all="ignore"):
                values = evaluate_raw(xs, ls)
        # a helper under its own thread's state would have warned
        assert caught == []
        assert np.isnan(values[11])
        assert same_bits(np.delete(values, 11), np.delete(expect, 11))

    def test_a_raising_sine_waits_for_the_helper(self, monkeypatch):
        # 100 rows of d20/m50 are four pieces of at most 32 rows: two pairs
        rng = np.random.default_rng(55)
        ls = init_landscape(ScenarioConfig(dimension=20, num_components=50), rng)
        xs = rng.uniform(-100, 100, (100, 20))
        expect = scored_serially([(ls, [xs])], monkeypatch)[0][0]
        workspace = landscape_module._workspace
        arrays = (workspace.floats, workspace.mask, workspace.index)
        # a bad row in this thread's first piece, then in the helper's
        for row in (5, 40):
            bad = xs.copy()
            bad[row, 0] = -np.inf
            slow = SlowHelper()
            monkeypatch.setattr(landscape_module, "_helper", slow)
            ended = None
            try:
                with np.errstate(invalid="raise"):
                    evaluate_raw(bad, ls)
            except FloatingPointError:
                ended = list(slow.ended)
            finally:
                slow.pool.shutdown()
            # the raise came from the first pair, and only once the
            # helper's piece of it was done; the second pair never started
            assert ended == [True] and slow.ended == [True], row
        # the next call scores in the same workspace, and the helper wrote
        # nothing into it after the raise
        slow = SlowHelper()
        monkeypatch.setattr(landscape_module, "_helper", slow)
        try:
            assert same_bits(evaluate_raw(xs, ls), expect)
        finally:
            slow.pool.shutdown()
        assert slow.ended == [True, True]
        assert all(a is b for a, b in zip(
            (workspace.floats, workspace.mask, workspace.index), arrays))

    @pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no interval timer")
    def test_an_interrupted_wait_still_waits_for_the_helper(self, monkeypatch):
        class Interrupt(Exception):
            pass

        def interrupt(signum, frame):
            raise Interrupt

        # two pairs of pieces, as in the raising test
        rng = np.random.default_rng(57)
        ls = init_landscape(ScenarioConfig(dimension=20, num_components=50), rng)
        xs = rng.uniform(-100, 100, (100, 20))
        expect = scored_serially([(ls, [xs])], monkeypatch)[0][0]
        slow = SlowHelper()
        monkeypatch.setattr(landscape_module, "_helper", slow)
        handler = signal.signal(signal.SIGALRM, interrupt)
        ended = None
        try:
            # the alarm comes while the kernel waits for the helper's first,
            # late piece
            signal.setitimer(signal.ITIMER_REAL, 0.05)
            evaluate_raw(xs, ls)
        except Interrupt:
            ended = list(slow.ended)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, handler)
            slow.pool.shutdown()
        # raised once that piece was done, and before the second pair
        assert ended == [True] and slow.ended == [True]
        assert same_bits(evaluate_raw(xs, ls), expect)

    def test_mqso_at_the_default_scale_never_asks_for_the_helper(self, monkeypatch):
        # d = 10, m = 10: mQSO's largest block, a swarm or the sentinels,
        # has 10 rows, 1 000 elements
        def refuse():
            raise AssertionError("the kernel asked for its helper")

        monkeypatch.setattr(landscape_module, "_kernel_helper", refuse)
        _, session = run_session(ScenarioConfig(change_frequency=1000, num_environments=3),
                                 "mqso", seed=5)
        assert session.ledger.complete

    @pytest.mark.parametrize("cpus", ["given", "one"])
    def test_the_helper_starts_with_the_first_large_block(self, cpus, monkeypatch):
        # a fresh interpreter: what it imports and which threads it runs
        # after import, a small block, two large blocks and, from an atexit
        # hook, one more after interpreter shutdown has begun
        code = """if True:
            import atexit, json, os, sys, threading
            import numpy as np
            import gmpbench
            from gmpbench import ScenarioConfig, evaluate_raw, init_landscape
            from gmpbench import landscape

            if sys.argv[1] == "one":
                os.sched_getaffinity = lambda pid: {0}
                os.cpu_count = lambda: 1

            # the threads that scored a piece since the last state
            kernel, ran = landscape._peak_values, set()
            landscape._peak_values = lambda *args: (
                ran.add(threading.current_thread().name), kernel(*args))

            def state():
                scored = sorted(ran)
                ran.clear()
                return [sorted(t.name for t in threading.enumerate()), scored,
                        "concurrent.futures" in sys.modules, "logging" in sys.modules]

            seen = [state()]
            rng = np.random.default_rng(56)
            small = init_landscape(ScenarioConfig(), rng)
            large = init_landscape(ScenarioConfig(dimension=20, num_components=50), rng)
            xs = rng.uniform(-100, 100, (16, 20))
            evaluate_raw(rng.uniform(-100, 100, (40, 10)), small)
            seen.append(state())
            values = [evaluate_raw(xs, large)]
            seen.append(state())
            values.append(evaluate_raw(xs, large))
            seen.append(state())
            # the helper may not have started its piece of those two when
            # this thread was done with its own, and this thread took it
            # back; a block more until the helper has scored one, 200 at most
            for _ in range(200):
                if "gmpbench-kernel_0" in ran:
                    break
                evaluate_raw(xs, large)
            helped = "gmpbench-kernel_0" in ran
            ran.clear()

            def at_exit():
                values.append(evaluate_raw(xs, large))
                seen.append(state())
                print(json.dumps([seen, [v.tobytes().hex() for v in values], helped]))

            atexit.register(at_exit)
        """
        rng = np.random.default_rng(56)
        init_landscape(ScenarioConfig(), rng)
        large = init_landscape(ScenarioConfig(dimension=20, num_components=50), rng)
        xs = rng.uniform(-100, 100, (16, 20))
        expect = scored_serially([(large, [xs])], monkeypatch)[0][0].tobytes().hex()
        src = str(Path(landscape_module.__file__).resolve().parents[1])
        child = subprocess.run([sys.executable, "-c", code, cpus], capture_output=True,
                               text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert child.returncode == 0, child.stderr
        seen, values, helped = json.loads(child.stdout)
        assert values == [expect] * 3
        # import and a block below the threshold start no thread and import nothing
        main = ["MainThread"]
        assert seen[:2] == [[main, [], False, False], [main, main, False, False]]
        if cpus == "one" or usable_cpus() < 2:
            assert seen[2:] == [[main, main, False, False]] * 3 and not helped
        else:
            # one helper thread, whose import brings logging, scores the
            # second piece of a large block unless this thread took it back
            # unstarted; at exit it has been joined, and the last block was
            # scored on the main thread alone
            both = ["MainThread", "gmpbench-kernel_0"]
            assert [state[0] for state in seen[2:4]] == [both, both]
            assert all(state[1] in (main, both) and state[2:] == [True, True]
                       for state in seen[2:4])
            assert helped
            assert seen[4:] == [[main, main, True, True]]


class TestComponentValue:
    """The value of a single component: a one-component landscape."""

    def test_unit_cone(self):
        comp = plain_component([0.0, 0.0], 50.0, [1.0, 1.0])
        assert evaluate_raw(np.array([3.0, 4.0]), comp) == pytest.approx(45.0, rel=1e-12)

    def test_weighted_cone(self):
        comp = plain_component([0.0, 0.0], 50.0, [4.0, 1.0])
        expect = 50.0 - math.sqrt(5.0)
        assert evaluate_raw(np.array([1.0, 1.0]), comp) == pytest.approx(expect, rel=1e-12)

    def test_center_attains_height_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            comp = random_component(rng, d=3)
            assert evaluate_raw(comp.centers[0], comp) == comp.heights[0]

    def test_strictly_below_height_off_center(self):
        rng = np.random.default_rng(12)
        comp = random_component(rng, d=4)
        for _ in range(50):
            x = rng.uniform(-100, 100, 4)
            assert evaluate_raw(x, comp) < comp.heights[0]

    def test_dimension_mismatch(self):
        comp = plain_component([0.0, 0.0], 50.0, [1.0, 1.0])
        with pytest.raises(ValueError):
            evaluate_raw(np.zeros(3), comp)


class TestEvaluateRaw:
    def test_single_component_center(self):
        ls = plain_component([1.0, 2.0], 42.0, [2.0, 3.0])
        assert evaluate_raw(np.array([1.0, 2.0]), ls) == 42.0

    def test_max_of_two_cones(self):
        c1 = plain_component([0.0, 0.0], 50.0, [1.0, 1.0])
        c2 = plain_component([10.0, 0.0], 60.0, [1.0, 1.0])
        ls = stacked(c1, c2)
        # at c2's center the first cone is 50 - 10 = 40 < 60
        assert evaluate_raw(np.array([10.0, 0.0]), ls) == 60.0
        # halfway: max(50 - 5, 60 - 5) = 55
        assert evaluate_raw(np.array([5.0, 0.0]), ls) == pytest.approx(55.0, rel=1e-12)

    def test_never_exceeds_optimum(self):
        rng = np.random.default_rng(21)
        ls = init_landscape(ScenarioConfig(dimension=2, num_components=10), rng)
        xs = rng.uniform(-100, 100, (500, 2))
        vals = evaluate_batch(xs, ls)
        assert (vals <= ls.optimum_value).all()

    def test_batch_matches_single(self):
        # (dimension, components, rotation, points); the first case spans
        # two full blocks of evaluate_batch plus a partial one
        rows = _BLOCK_ELEMENTS // (3 * 5)
        cases = [(3, 5, True, 2 * rows + 7), (4, 1, True, 40), (1, 6, True, 40),
                 (5, 4, False, 40)]
        rng = np.random.default_rng(22)
        for d, m, rotation, n in cases:
            ls = init_landscape(ScenarioConfig(dimension=d, num_components=m,
                                               rotation_enabled=rotation), rng)
            xs = rng.uniform(-100, 100, (n, d))
            xs[::7][:m] = ls.centers
            batch = evaluate_batch(xs, ls)
            single = np.array([evaluate_raw(x, ls) for x in xs])
            expect = np.array([oracle_value(x, ls) for x in xs])
            # stacked sums round differently; values are at most about 1e3
            np.testing.assert_allclose(single, expect, rtol=1e-12, atol=1e-10)
            # a row's value does not depend on the block it is scored in
            np.testing.assert_array_equal(batch, single)
            for size in range(1, 34):
                for start in range(0, 40, size):
                    np.testing.assert_array_equal(evaluate_raw(xs[start:start + size], ls),
                                                  single[start:start + size])
            for k in range(m):
                alone = component(ls, k)
                assert evaluate_raw(ls.centers[k], alone) == ls.heights[k]
                assert evaluate_batch(xs, alone)[7 * k] == ls.heights[k]
            assert evaluate_raw(ls.optimum_position, ls) == ls.optimum_value

    def test_block_memory_is_bounded(self):
        # scored whole, this block's temporaries peak above 200 MiB
        rng = np.random.default_rng(25)
        ls = init_landscape(ScenarioConfig(dimension=20, num_components=50), rng)
        xs = rng.uniform(-100, 100, (5000, 20))
        tracemalloc.start()
        try:
            values = evaluate_raw(xs, ls)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        np.testing.assert_array_equal(values, [evaluate_raw(x, ls) for x in xs])

    @pytest.mark.parametrize("bad", [
        np.array([[1 + 5j, 2.0]]), np.array([["1.0", "2.0"]]), np.array([[True, False]]),
        np.array([[np.complex128(1 + 5j), 2.0]], dtype=object)],
        ids=["complex", "string", "bool", "object-complex"])
    def test_points_that_a_cast_would_read_are_rejected(self, bad):
        # the session's number rule: at 6ebf15f each of these was cast and
        # scored as the point [[1.0, 2.0]] (the bool one as [[1.0, 0.0]])
        ls = plain_component([1.0, 2.0], 42.0, [2.0, 3.0])
        for points in (bad, bad[0]):
            with pytest.raises(ValueError, match=re.escape(
                    f"(an integer or float dtype), not {bad.dtype} of shape {points.shape}")):
                evaluate_raw(points, ls)

    def test_integer_and_float_points_score_their_float64_bytes(self):
        rng = np.random.default_rng(26)
        ls = init_landscape(ScenarioConfig(dimension=3, num_components=4), rng)
        ints = rng.integers(-100, 100, (9, 3))
        expect = evaluate_raw(ints.astype(float), ls)
        for points in (ints, ints.astype(np.int8), ints.astype(np.uint16) % 100,
                       ints.astype(np.float32), ints.tolist(), ints.astype(float).tolist()):
            reference = evaluate_raw(np.asarray(points).astype(float), ls)
            assert same_bits(evaluate_raw(points, ls), reference)
            assert [evaluate_raw(p, ls) for p in points] == reference.tolist()
        assert same_bits(evaluate_raw(ints, ls), expect)

    def test_dimension_mismatch(self):
        ls = plain_component([0.0, 0.0], 50.0, [1.0, 1.0])
        with pytest.raises(ValueError):
            evaluate_raw(np.zeros(3), ls)
        with pytest.raises(ValueError):
            evaluate_batch(np.zeros((4, 3)), ls)

    def test_radial_symmetry_equal_widths(self):
        ls = plain_component([3.0, -7.0], 55.0, [4.0, 4.0])
        rng = np.random.default_rng(23)
        for radius in (0.5, 2.0, 30.0):
            angles = rng.uniform(0, 2 * math.pi, 64)
            pts = ls.centers[0] + radius * np.column_stack([np.cos(angles), np.sin(angles)])
            vals = evaluate_batch(pts, ls)
            assert vals.max() - vals.min() <= 1e-9

    def test_rotated_symmetry_with_equal_eta(self):
        # all four frequencies equal: value at c + R^-1 u equals value at c - R^-1 u
        rng = np.random.default_rng(24)
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        center = np.array([1.0, -2.0])
        comp = plain_component(center, 60.0, [3.0, 8.0], rotation=rot, tau=0.4,
                               eta=np.full(4, 7.5))
        for _ in range(30):
            u = rng.uniform(-20, 20, 2)
            back = np.linalg.solve(rot, u)
            plus = evaluate_raw(center + back, comp)
            minus = evaluate_raw(center - back, comp)
            assert plus == pytest.approx(minus, rel=1e-12)


def strict_maxima(values):
    """Number of interior grid points above both neighbours."""
    mid = values[1:-1]
    return int(np.sum((mid > values[:-2]) & (mid > values[2:])))


class TestModality:
    """The paper's modality claim, read along one rotated axis of a
    one-component landscape: there ``y = t * e_j``, so the value is
    ``height - sqrt(w_j) * |T(t)|``. On the side ``y > 0`` the warp ``T`` is
    increasing wherever ``1 + tau * (a cos(a log y) + b cos(b log y)) > 0``
    with ``(a, b)`` that side's frequencies, so it is monotone there when
    ``|tau| (|a| + |b|) < 1``; likewise on ``y < 0``."""

    CENTER = np.array([12.0, -40.0, 75.0])
    WIDTHS = [2.0, 7.0, 11.0]
    HEIGHT = 50.0

    def component(self, tau, eta):
        rotation = random_component(np.random.default_rng(41), d=3).rotations[0]
        return plain_component(self.CENTER, self.HEIGHT, self.WIDTHS, rotation=rotation,
                               tau=tau, eta=eta)

    def along_axis(self, comp, j, t):
        """Values at ``center + t * R[j]``, whose rotated offset is ``t * e_j``."""
        return evaluate_raw(comp.centers[0] + t[:, None] * comp.rotations[0][j], comp)

    @staticmethod
    def criterion(tau, eta):
        """``|tau| (|a| + |b|)`` on the positive and on the negative side."""
        return abs(tau) * (abs(eta[0]) + abs(eta[1])), abs(tau) * (abs(eta[2]) + abs(eta[3]))

    @pytest.mark.parametrize("tau, eta", [
        (0.3, (1.5, -1.7, 2.0, 0.9)),
        (-0.05, (9.0, 10.0, -8.0, 11.5)),
        (0.9, (0.5, -0.6, 0.3, 0.7)),
    ])
    def test_one_maximum_when_the_warp_is_monotone(self, tau, eta):
        assert max(self.criterion(tau, eta)) < 1
        comp = self.component(tau, eta)
        side = np.unique(np.concatenate([np.geomspace(1e-4, 60, 20000),
                                         np.linspace(0.01, 60, 6000)]))
        t = np.concatenate([-side[::-1], [0.0], side])
        for j in range(3):
            values = self.along_axis(comp, j, t)
            assert strict_maxima(values) == 1
            assert values[len(side)] == self.HEIGHT == values.max()

    @pytest.mark.parametrize("tau, a", [(0.5, 3.0), (0.3, 5.0), (-0.4, 2.0)])
    def test_turning_points_crowd_the_center_when_it_is_not(self, tau, a):
        # b / a = sqrt(2) is irrational, so the two sines never fall into step
        eta = (a, a * math.sqrt(2), a, a * math.sqrt(2))
        assert min(self.criterion(tau, eta)) > 1
        comp = self.component(tau, eta)
        side = np.geomspace(1e-3, 1, 4001)
        t = np.concatenate([-side[::-1], [0.0], side])
        for j in range(3):
            values = self.along_axis(comp, j, t)
            assert values[len(side)] == self.HEIGHT == values.max()
            assert strict_maxima(values) > 1
            assert strict_maxima(values[len(side) + 1:]) >= 1
            assert strict_maxima(values[:len(side)]) >= 1

    def test_unwarped_level_sets_are_ellipsoids(self):
        # with tau = 0 the level set at depth c below the height meets the
        # rotated axis j at t = +-c / sqrt(w_j)
        comp = self.component(0.0, (7.0, -3.0, 11.0, 5.0))
        for depth in (0.5, 3.0, 40.0):
            for j, w in enumerate(self.WIDTHS):
                half_axis = depth / math.sqrt(w)
                values = self.along_axis(comp, j, np.array([-half_axis, half_axis]))
                np.testing.assert_allclose(self.HEIGHT - values, depth, rtol=1e-12)


class TestSeparabilityAndSymmetry:
    """The paper's separability and symmetry claims, on one component."""

    GRID = np.linspace(-100.0, 100.0, 401)

    def line_argmaxes(self, landscape, j, others):
        """For each row of ``others``, the grid index of the best ``x_j`` on
        the line through that row along axis ``j``."""
        argmaxes = set()
        for row in others:
            points = np.repeat(row[None], len(self.GRID), axis=0)
            points[:, j] = self.GRID
            argmaxes.add(int(np.argmax(evaluate_raw(points, landscape))))
        return argmaxes

    @pytest.mark.parametrize("seed", [3, 8])
    def test_unrotated_component_is_separable(self, seed):
        # the value is height - sqrt(sum_j w_j T(x_j - c_j)^2): along axis j
        # the best x_j minimizes |T(x_j - c_j)| whatever the other coordinates
        cfg = ScenarioConfig(dimension=3, num_components=1, rotation_enabled=False,
                             num_environments=4, seed=seed)
        rng = np.random.default_rng(seed)
        landscapes = [init_landscape(cfg, rng)]
        for _ in range(cfg.num_environments - 1):
            landscapes.append(advance_environment(landscapes[-1], cfg, rng))
        others = np.random.default_rng(seed + 100).uniform(-100.0, 100.0, (25, 3))
        for landscape in landscapes:
            for j in range(3):
                assert len(self.line_argmaxes(landscape, j, others)) == 1, (j, landscape.environment_index)

    @pytest.mark.parametrize("seed", [3, 8])
    def test_rotated_component_is_not_separable(self, seed):
        cfg = ScenarioConfig(dimension=3, num_components=1, seed=seed)
        landscape = init_landscape(cfg, np.random.default_rng(seed))
        others = np.random.default_rng(seed + 100).uniform(-100.0, 100.0, (25, 3))
        assert any(len(self.line_argmaxes(landscape, j, others)) > 1 for j in range(3))

    @pytest.mark.parametrize("eta, symmetric", [
        ((3.0, -4.5, 3.0, -4.5), True),
        ((3.0, -4.5, 8.0, 1.5), False),
        ((3.0, -4.5, -4.5, 3.0), True),
        ((3.0, -4.5, 3.0, 4.5), False),
    ])
    def test_unequal_eta_pairs_break_the_mirror_symmetry(self, eta, symmetric):
        # |T(-y)| = |T(y)| when the negative side's frequencies are the
        # positive side's; otherwise c + t e_j and c - t e_j score apart
        center = np.array([5.0, -20.0, 40.0])
        comp = plain_component(center, 50.0, [2.0, 7.0, 11.0], tau=0.4, eta=eta)
        t = np.geomspace(1e-2, 50.0, 500)
        for j in range(3):
            step = t[:, None] * np.eye(3)[j]
            plus = evaluate_raw(center + step, comp)
            minus = evaluate_raw(center - step, comp)
            if symmetric:
                np.testing.assert_allclose(plus, minus, rtol=1e-9)
            else:
                assert np.abs(plus - minus).max() > 1.0, j


class TestOptimum:
    def test_single_component(self):
        comp = plain_component([4.0, 5.0], 50.0, [1.0, 1.0])
        value, position = comp.optimum_value, comp.optimum_position
        assert value == 50.0
        np.testing.assert_array_equal(position, [4.0, 5.0])

    def test_argmax_of_heights(self):
        comps = [plain_component([float(i), 0.0], h, [1.0, 1.0])
                 for i, h in enumerate([30.0, 70.0, 55.0])]
        ls = stacked(*comps)
        value, position = ls.optimum_value, ls.optimum_position
        assert value == 70.0
        np.testing.assert_array_equal(position, [1.0, 0.0])

    def test_tie_breaks_to_lowest_index(self):
        comps = [plain_component([float(i), 0.0], 50.0, [1.0, 1.0]) for i in range(3)]
        position = stacked(*comps).optimum_position
        np.testing.assert_array_equal(position, [0.0, 0.0])

    def test_grid_never_beats_optimum(self):
        # coarse audit of the analytic optimum against exhaustive sampling;
        # the gap bound is half-cell offset times the worst cone slope
        # sqrt(max width * 2) inflated by the transform factor e^(2|tau|)
        rng = np.random.default_rng(31)
        cfg = ScenarioConfig(dimension=2, num_components=10)
        ls = init_landscape(cfg, rng)
        axis = np.linspace(-100, 100, 401)
        g1, g2 = np.meshgrid(axis, axis, indexing="ij")
        vals = evaluate_batch(np.column_stack([g1.ravel(), g2.ravel()]), ls)
        spacing = axis[1] - axis[0]
        bound = (spacing / 2) * math.sqrt(2) * math.sqrt(2 * 12.0) * math.exp(2.0)
        assert vals.max() <= ls.optimum_value
        assert ls.optimum_value - vals.max() <= bound


def violations(build, *args, **kwargs):
    """The violations that ``build(*args, **kwargs)`` names, read in order
    from the ``ValueError`` that an invalid config raises at construction
    ("invalid scenario config: a; b"); empty when it builds."""
    try:
        build(*args, **kwargs)
    except ValueError as exc:
        kind, _, named = str(exc).partition(": ")
        assert kind in ("invalid scenario config", "invalid solver config",
                        "invalid experiment spec"), exc
        return named.split("; ")
    return []


class TestScenarioConfig:
    def test_defaults_are_standard_settings(self):
        cfg = ScenarioConfig()
        assert cfg.dimension == 10
        assert cfg.num_components == 10
        assert cfg.shift_severity == 1.0
        assert cfg.height_severity == 7.0
        assert cfg.width_severity == 1.0
        assert cfg.angle_severity == pytest.approx(math.pi / 9)
        assert cfg.tau_severity == 0.2
        assert cfg.eta_severity == 2.0
        assert cfg.search_range == (-100.0, 100.0)
        assert cfg.height_range == (30.0, 70.0)
        assert cfg.width_range == (1.0, 12.0)
        assert cfg.angle_range == (-math.pi, math.pi)
        assert cfg.tau_range == (-1.0, 1.0)
        assert cfg.eta_range == (-20.0, 20.0)
        assert cfg.change_frequency == 5000
        assert cfg.num_environments == 100
        assert cfg.budget == 500_000

    def test_violations_are_named(self):
        bad = "; ".join(violations(ScenarioConfig, dimension=0, width_range=(0.0, 12.0),
                                   shift_severity=-1.0))
        assert "dimension" in bad
        assert "width range must be positive" in bad
        assert "shift_severity" in bad

    def test_non_finite_values_are_violations(self, tmp_path, capsys):
        # Python's json reads NaN and Infinity as floats
        path = tmp_path / "scenario.json"
        path.write_text('{"shift_severity": NaN, "tau_severity": Infinity, '
                        '"search_range": [-Infinity, 100], "height_range": [30, NaN]}')
        _, problems = validate_config(path)
        bad = "; ".join(problems)
        for name in ("shift_severity", "tau_severity", "search_range", "height_range"):
            assert f"{name} must be finite" in bad or f"{name} bounds must be finite" in bad
        assert main(["validate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "shift_severity must be finite" in err
        assert "height_range bounds must be finite" in err

    def test_overflowing_severities_and_range_widths_are_violations(self):
        # 64 standard deviations bound every draw a severity scales
        bad = "; ".join(violations(ScenarioConfig, height_severity=1e308))
        assert "height_severity is too large" in bad
        bad = "; ".join(violations(ScenarioConfig, search_range=(-1e308, 1e308),
                                   eta_range=(-1e308, 1e308)))
        assert "search_range width" in bad and "eta_range width" in bad
        assert not violations(ScenarioConfig, height_severity=1e306)
        # a finite search width that passes the width check: only the bound
        # on a component's value rejects it
        bad = violations(ScenarioConfig, height_severity=1e306, search_range=(-8e307, 8e307))
        assert len(bad) == 1 and "overflow a component's value" in bad[0]

    def test_a_subnormal_search_box_is_rejected(self):
        # mQSO's radii divide the box width by m ** (1 / d): a subnormal
        # width validated, and then underflowed them to 0
        tiny = sys.float_info.min
        for box in [(0.0, 5e-324), (0.0, np.nextafter(tiny, 0.0)), (-tiny / 4, tiny / 4)]:
            assert violations(ScenarioConfig, search_range=box) == [
                "search_range width (upper - lower) must be at least 2.2250738585072014e-308, "
                "the smallest normal float"], box
        # a box of the smallest normal width runs both solvers to the end,
        # even where m ** (1 / d) is largest
        for d, m in [(1, 1), (2, 5), (10, 10), (1, 1000)]:
            for box in [(0.0, tiny), (-tiny / 2, tiny / 2)]:
                scenario = ScenarioConfig(dimension=d, num_components=m, search_range=box,
                                          change_frequency=60, num_environments=2)
                for solver in ("mqso", "random"):
                    _, session = run_session(scenario, solver, seed=3)
                    indicators = session.indicators()
                    assert all(math.isfinite(v) and v >= 0 for v in indicators), (d, m, solver)

    @pytest.mark.parametrize("data", [
        {"tau_range": [-1e6, 1e6]},
        {"tau_range": [-400, 400]},
        {"width_range": [1, 1e306]},
    ], ids=["tau", "tau-400", "width"])
    def test_warp_ranges_that_overflow_are_violations(self, tmp_path, capsys, data):
        # three environments of d5/m5 random search (seed 1) gave an
        # infinite offline error for "tau" and "width", and about 2e10 for
        # "tau-400", whose bound overflows though that run's values did not
        data = dict(data, dimension=5, num_components=5)
        bad = violations(ScenarioConfig, **data)
        assert len(bad) == 1 and "overflow a component's value" in bad[0]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        assert main(["validate", "--config", str(path)]) == 1
        assert "overflow a component's value" in capsys.readouterr().err

    def test_warp_ranges_below_the_bound_keep_the_landscape_finite(self):
        # log of the bound: 2 log d + log(max width) + 2 log(search width)
        # + 4 max|tau|, here about 16.3 + 4 * 170 = 696.3 < log(max float),
        # which is about 709.8
        cfg = ScenarioConfig(dimension=5, num_components=5, tau_range=(-170.0, 170.0),
                             change_frequency=200, num_environments=3)
        with np.errstate(over="raise", invalid="raise"):
            record, session = run_session(cfg, "random", seed=1)
        assert np.isfinite(session.ledger.values).all()
        assert math.isfinite(record["offline_error"])

    def test_large_severity_keeps_the_landscape_finite(self):
        cfg = ScenarioConfig(dimension=2, num_components=3, height_severity=1e306,
                             num_environments=30)
        rng = np.random.default_rng(0)
        ls = init_landscape(cfg, rng)
        for _ in range(29):
            ls = advance_environment(ls, cfg, rng)
            for name in ("centers", "rotations", "widths", "heights", "angles", "tau", "eta"):
                assert np.isfinite(getattr(ls, name)).all()
            assert math.isfinite(ls.optimum_value)
        assert ls.environment_index == 29

    @pytest.mark.parametrize("data, names", [
        ({"change_frequency": 10**12, "num_environments": 1},
         "change_frequency * num_environments"),
        ({"dimension": 100_000, "num_components": 1000}, "num_components * dimension**2"),
    ], ids=["ledger", "rotations"])
    def test_configs_too_large_to_allocate_are_violations(self, tmp_path, capsys, data, names):
        bad = violations(ScenarioConfig, **data)
        assert len(bad) == 1 and bad[0].startswith(names)
        assert str(MAX_ARRAY_ELEMENTS) in bad[0]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        assert main(["validate", "--config", str(path)]) == 1
        assert f"violation: {names} is " in capsys.readouterr().err
        # at the cap itself the config is valid
        assert not violations(ScenarioConfig, change_frequency=MAX_ARRAY_ELEMENTS,
                              num_environments=1)

    def test_default_and_paper_scale_configs_are_valid(self):
        assert not violations(ScenarioConfig)
        # 100 environments of 10 000 evaluations, d=20, m=100
        assert not violations(ScenarioConfig, dimension=20, num_components=100,
                              change_frequency=10_000, num_environments=100)

    def test_validate_raises(self):
        # construction is the one check
        with pytest.raises(ValueError, match="invalid scenario config: change_frequency"):
            ScenarioConfig(change_frequency=0)

    @pytest.mark.parametrize("name, value, message", [
        ("search_range", (0, 10 ** 400), "search_range bounds must be finite"),
        ("tau_range", (-10 ** 400, 1), "tau_range bounds must be finite"),
        ("width_range", [1, 10 ** 400], "width_range bounds must be finite"),
        ("shift_severity", 10 ** 400, "shift_severity must be finite"),
        ("height_severity", -10 ** 400, "height_severity must be finite"),
    ], ids=["search_range", "tau_range", "width_range", "shift_severity", "height_severity"])
    def test_an_integer_beyond_the_float_range_is_not_finite(self, name, value, message):
        # named, not crashed on, and the parser names its JSON form in the
        # same words
        assert violations(ScenarioConfig, **{name: value}) == [message]
        data = dict(scenario_to_dict(ScenarioConfig()), **{name: value})
        assert scenario_from_dict(data)[1] == violations(ScenarioConfig, **data) == [message]

    @pytest.mark.parametrize("name, value, python", [
        ("dimension", np.int64(5), 5),
        ("seed", np.uint32(7), 7),
        ("change_frequency", np.int16(40), 40),
        ("shift_severity", np.float32(0.5), 0.5),
        ("height_severity", np.int64(3), 3.0),
        ("search_range", np.array([-5.0, 5.0]), (-5.0, 5.0)),
        ("width_range", np.array([1, 12]), (1.0, 12.0)),
        ("tau_range", (np.float32(-0.5), np.int8(1)), (-0.5, 1.0)),
        ("rotation_enabled", np.bool_(False), False),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_numpy_values_are_stored_as_python_values(self, name, value, python):
        # the config built from a numpy value is the one built from the
        # Python value: equal, of the same types, with the same JSON bytes
        assert not violations(ScenarioConfig, **{name: value})
        cfg, expect = ScenarioConfig(**{name: value}), ScenarioConfig(**{name: python})
        assert cfg == expect
        # a numpy scalar's repr names its type, in a pair too
        assert repr(getattr(cfg, name)) == repr(getattr(expect, name))
        assert json.dumps(scenario_to_dict(cfg)) == json.dumps(scenario_to_dict(expect))

    @pytest.mark.parametrize("name, value, what", [
        ("shift_severity", True, "a number"),
        ("shift_severity", "1", "a number"),
        ("tau_severity", None, "a number"),
        ("rotation_enabled", 1, "a boolean"),
        ("search_range", "ab", "a two-element numeric array"),
        ("tau_range", (-1.0, True), "a two-element numeric array"),
        ("width_range", (1.0, 2.0, 3.0), "a two-element numeric array"),
        ("width_range", 5.0, "a two-element numeric array"),
        ("dimension", np.bool_(True), "an integer >= 1"),
        ("seed", np.timedelta64(5), "an integer >= 0"),
        ("dimension", np.float64(5.0), "an integer >= 1"),
        ("shift_severity", np.bool_(True), "a number"),
        ("rotation_enabled", np.int64(1), "a boolean"),
        ("search_range", np.array([[-5.0, 5.0], [0.0, 1.0]]), "a two-element numeric array"),
        ("search_range", np.array([True, False]), "a two-element numeric array"),
        ("tau_range", np.array([-1.0, 0.0, 1.0]), "a two-element numeric array"),
    ])
    def test_a_field_of_the_wrong_type_is_named(self, name, value, what):
        # named by the schema's type rule, with the checks that need its
        # value skipped; the parser names its JSON form the same way
        assert violations(ScenarioConfig, **{name: value}) == [f"{name} must be {what}"]
        data = dict(scenario_to_dict(ScenarioConfig()), **{name: value})
        assert scenario_from_dict(data) == (None, [f"{name} must be {what}"])

    @pytest.mark.parametrize("value", [np.array([[0.0, 1.0], [2.0, 3.0]]),
                                       np.array([0.0, 1.0, 2.0]), np.array(5.0)])
    def test_a_rejected_array_is_named_as_its_list(self, value):
        # neither builds a config, so no array's == (which has no single
        # truth value) is ever asked of one
        message = "search_range must be a two-element numeric array"
        assert violations(ScenarioConfig, search_range=value) == [message]
        assert violations(ScenarioConfig, search_range=value.tolist()) == [message]

    @pytest.mark.parametrize("name, value", [
        ("rotation_enabled", 1), ("shift_severity", True), ("tau_range", (-1.0, True)),
        ("search_range", np.array(5.0))])
    def test_a_rejected_value_builds_no_config_to_compare(self, name, value):
        # Python's True == 1 == 1.0 made such a config equal to the default
        # one, and a 0-d array made == raise; now none exists to compare
        with pytest.raises(ValueError, match=f"invalid scenario config: {name} must be"):
            ScenarioConfig(**{name: value})
