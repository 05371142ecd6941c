"""Unit tests for the multiprocess back end's building blocks.

The determinism pillars get direct coverage here (the end-to-end
matrix lives in ``test_backend_conformance.py``):

* :func:`chunk_grid` — a fixed decomposition that depends on the index
  extent only, never the worker count;
* :func:`pairwise_tree` — a combine order that is a pure function of
  the partial count;
* :class:`RecordingHist3` + :func:`replay_deposits` — the ordered
  deposit replay whose per-bin float fold equals the serial fold;
* :class:`_Transport` — shared-memory capture shipping, ndarray
  write-back, and the ``__jacc_shareable__ = False`` drop protocol;
* back-end construction and the ordered-replay histogram path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.jacc import parallel_for
from repro.jacc.backend import BackendError
from repro.jacc.kernels import Captures, Kernel, make_captures
from repro.jacc.multiproc import (
    DEFAULT_CHUNKS,
    MultiprocessBackend,
    RecordingHist3,
    _Transport,
    chunk_grid,
    pairwise_tree,
    replay_deposits,
)
from repro.jacc.workers import GLOBAL_POOL

GRID = HKLGrid(basis=np.eye(3), minimum=(-1.0, -1.0, -1.0),
               maximum=(1.0, 1.0, 1.0), bins=(4, 4, 2))


@pytest.fixture(scope="module", autouse=True)
def _dispose_pool_after_module():
    yield
    GLOBAL_POOL.dispose()


# ---------------------------------------------------------------------------
# chunk grid
# ---------------------------------------------------------------------------

class TestChunkGrid:
    def test_empty(self):
        assert chunk_grid(0) == []
        assert chunk_grid(-3) == []

    def test_fewer_items_than_chunks(self):
        assert chunk_grid(3, 16) == [(0, 1), (1, 2), (2, 3)]

    def test_exact_partition(self):
        assert chunk_grid(32, 4) == [(0, 8), (8, 16), (16, 24), (24, 32)]

    def test_remainder_spreads_to_front(self):
        ranges = chunk_grid(10, 4)
        sizes = [b - a for a, b in ranges]
        assert sizes == [3, 3, 2, 2]

    @given(total=st.integers(1, 2000), n=st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_partition_properties(self, total, n):
        """Contiguous, exact, ordered; sizes differ by <= 1; the grid is
        a function of (total, n) only — the worker-count-invariance
        precondition."""
        ranges = chunk_grid(total, n)
        covered = [i for a, b in ranges for i in range(a, b)]
        assert covered == list(range(total))
        sizes = [b - a for a, b in ranges]
        assert max(sizes) - min(sizes) <= 1
        assert all(s >= 1 for s in sizes)
        assert ranges == chunk_grid(total, n)  # deterministic


# ---------------------------------------------------------------------------
# pairwise tree
# ---------------------------------------------------------------------------

class TestPairwiseTree:
    def test_empty_rejected(self):
        with pytest.raises(BackendError, match="no values"):
            pairwise_tree([], lambda a, b: a + b)

    def test_single_value_passthrough(self):
        assert pairwise_tree([7.0], lambda a, b: a + b) == 7.0

    def test_combine_order_is_fixed(self):
        """The tree shape is a pure function of len(values): record the
        combine sequence and pin it."""
        calls = []

        def combine(a, b):
            calls.append((a, b))
            return f"({a}+{b})"

        out = pairwise_tree(list("abcde"), combine)
        assert out == "(((a+b)+(c+d))+e)"
        assert calls == [("a", "b"), ("c", "d"), ("(a+b)", "(c+d)"),
                         ("((a+b)+(c+d))", "e")]

    @given(vals=st.lists(st.integers(-1000, 1000), min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_sum_matches_fold_for_exact_arithmetic(self, vals):
        assert pairwise_tree(vals, lambda a, b: a + b) == sum(vals)

    @given(vals=st.lists(st.floats(-1e6, 1e6, allow_nan=False),
                         min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_max_matches_serial_fold_bitwise(self, vals):
        assert pairwise_tree(vals, max) == max(vals)

    def test_float_sum_is_reproducible(self):
        rng = np.random.default_rng(5)
        vals = list(rng.standard_normal(37))
        first = pairwise_tree(vals, lambda a, b: a + b)
        again = pairwise_tree(vals, lambda a, b: a + b)
        assert first == again


# ---------------------------------------------------------------------------
# RecordingHist3 + ordered replay
# ---------------------------------------------------------------------------

class TestRecordingReplay:
    def _samples(self, seed, n=120):
        rng = np.random.default_rng(seed)
        coords = rng.uniform(-1.3, 1.3, size=(n, 3))
        w = rng.uniform(0.1, 2.0, size=n)
        return coords, w

    def test_push_matches_hist3_binning(self):
        """Same deposits accepted/rejected, same bins, same weights."""
        coords, w = self._samples(0)
        real = Hist3(GRID, track_errors=True)
        rec = RecordingHist3(GRID, True)
        for (c0, c1, c2), wi in zip(coords, w):
            a = real.push(c0, c1, c2, wi, wi * wi)
            b = rec.push(c0, c1, c2, wi, wi * wi)
            assert a == b
        replayed = Hist3(GRID, track_errors=True)
        replay_deposits(replayed, [rec.harvest()])
        assert np.array_equal(replayed.signal, real.signal)
        assert np.array_equal(replayed.error_sq, real.error_sq)

    def test_push_flat_matches_hist3(self):
        coords, w = self._samples(1)
        flat, inside = GRID.bin_index(coords)
        real = Hist3(GRID, track_errors=True)
        real.push_many(coords, w, w * w)
        rec = RecordingHist3(GRID, True)
        rec.push_flat(flat[inside], w[inside], (w * w)[inside])
        replayed = Hist3(GRID, track_errors=True)
        replay_deposits(replayed, [rec.harvest()])
        assert np.array_equal(replayed.signal, real.signal)
        assert np.array_equal(replayed.error_sq, real.error_sq)

    def test_chunked_replay_bit_identical_to_serial(self):
        """The core claim: cut the deposit stream anywhere, replay the
        pieces in ascending order -> the per-bin float fold is the
        serial fold, bit for bit."""
        coords, w = self._samples(2, n=200)
        serial = Hist3(GRID, track_errors=True)
        for (c0, c1, c2), wi in zip(coords, w):
            serial.push(c0, c1, c2, wi, wi * wi)
        for cut in (1, 3, 7, 50, 199):
            logs = []
            for a in range(0, 200, cut):
                rec = RecordingHist3(GRID, True)
                for (c0, c1, c2), wi in zip(coords[a:a + cut], w[a:a + cut]):
                    rec.push(c0, c1, c2, wi, wi * wi)
                logs.append(rec.harvest())
            replayed = Hist3(GRID, track_errors=True)
            replay_deposits(replayed, logs)
            assert np.array_equal(replayed.signal, serial.signal), cut
            assert np.array_equal(replayed.error_sq, serial.error_sq), cut

    def test_harvest_reset_segments_the_log(self):
        rec = RecordingHist3(GRID, False)
        rec.push(0.0, 0.0, 0.0, 1.0)
        idx1, w1, e1 = rec.harvest_reset()
        assert len(idx1) == 1 and e1 is None
        idx2, _, _ = rec.harvest_reset()
        assert len(idx2) == 0  # cleared at the boundary
        rec.push(0.5, 0.5, 0.5, 2.0)
        idx3, w3, _ = rec.harvest()
        assert len(idx3) == 1 and w3[0] == 2.0

    def test_mixed_deposits_keep_call_order(self):
        """Scalar pushes and array deposits interleave in one log, in
        call order: the replay equals the same calls on a Hist3."""
        coords, w = self._samples(3, n=60)
        real = Hist3(GRID, track_errors=True)
        rec = RecordingHist3(GRID, True)

        def push_array(target, a, b):
            flat, inside = GRID.bin_index(coords[a:b])
            target.push_flat(flat[inside], w[a:b][inside], w[a:b][inside] ** 2)

        for target in (real, rec):
            for (c0, c1, c2), wi in zip(coords[:10], w[:10]):
                target.push(c0, c1, c2, wi, wi * wi)
            push_array(target, 10, 30)
            target.push(*coords[30], w[30], w[30] ** 2)
            push_array(target, 31, 60)
        replayed = Hist3(GRID, track_errors=True)
        replay_deposits(replayed, [rec.harvest()])
        assert np.array_equal(replayed.signal, real.signal)
        assert np.array_equal(replayed.error_sq, real.error_sq)

    def test_out_of_grid_deposits_rejected(self):
        rec = RecordingHist3(GRID, False)
        assert rec.push(9.0, 0.0, 0.0, 1.0) is False
        idx, w, _ = rec.harvest()
        assert idx.size == 0

    def test_empty_log_replay_is_noop(self):
        hist = Hist3(GRID)
        rec = RecordingHist3(GRID, False)
        replay_deposits(hist, [rec.harvest()])
        assert hist.signal.sum() == 0.0


# ---------------------------------------------------------------------------
# capture transport
# ---------------------------------------------------------------------------

class _Unshareable:
    __jacc_shareable__ = False


class TestTransport:
    def test_array_round_trip_and_writeback(self):
        x = np.arange(6.0)
        out = np.zeros(6)
        t = _Transport(make_captures(x=x, out=out))
        try:
            assert t.payload["x"][0] == "shm"
            assert t.payload["out"][0] == "shm"
            # simulate a worker mutating the shm copy of `out`
            kind, name, shape, dtype = t.payload["out"]
            shm = next(b for b in t.blocks if b.name == name)
            view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
            view[...] = 42.0
            del view
            t.write_back()
            assert np.array_equal(out, np.full(6, 42.0))
        finally:
            t.close()
        assert t.blocks == []

    def test_histogram_becomes_spec_not_bytes(self):
        hist = Hist3(GRID, track_errors=True)
        t = _Transport(make_captures(hist=hist))
        try:
            kind, grid, track = t.payload["hist"]
            assert kind == "hist" and grid is GRID and track is True
            assert t.hists == {"hist": hist}
        finally:
            t.close()

    def test_unshareable_objects_dropped(self):
        """Caches (RLock-bearing) opt out via __jacc_shareable__; the
        transport ships None instead of failing to pickle."""
        t = _Transport(make_captures(cache=_Unshareable(), tag="ok"))
        try:
            assert t.payload["cache"] == ("drop",)
            assert t.payload["tag"] == ("obj", "ok")
        finally:
            t.close()

    def test_zero_size_and_object_arrays_pickled_not_shared(self):
        t = _Transport(make_captures(empty=np.zeros(0),
                                     objs=np.array([None, "x"], dtype=object)))
        try:
            assert t.payload["empty"][0] == "obj"
            assert t.payload["objs"][0] == "obj"
        finally:
            t.close()


# ---------------------------------------------------------------------------
# back-end construction / histogram replay
# ---------------------------------------------------------------------------

def _hist_element(ctx, i):
    w = ctx.w[i]
    ctx.hist.push(ctx.c[i, 0], ctx.c[i, 1], ctx.c[i, 2], w, w * w)


HIST_K = Kernel(name="mp_hist_modes", element=_hist_element)


class TestBackendConfig:
    def test_rejects_bad_chunk_count(self):
        with pytest.raises(BackendError, match="n_chunks"):
            MultiprocessBackend(n_chunks=0)

    def test_unpicklable_element_rejected_before_any_task(self, monkeypatch):
        """A closure body cannot reach the workers: the launch fails
        with an error naming the kernel, and no task is submitted."""
        def local_element(ctx, i):
            ctx.out[i] = 1.0

        def no_pool(n_workers):
            raise AssertionError("a task was submitted")

        monkeypatch.setattr(GLOBAL_POOL, "executor", no_pool)
        kernel = Kernel(name="closure_kernel", element=local_element)
        backend = MultiprocessBackend(n_workers=2)
        with pytest.raises(BackendError, match="closure_kernel"):
            backend.run_parallel_for(8, kernel,
                                     make_captures(out=np.zeros(8)))
        with pytest.raises(BackendError, match="closure_kernel"):
            backend.run_parallel_reduce(8, kernel,
                                        make_captures(out=np.zeros(8)))

    def test_default_chunk_grid_is_worker_independent(self):
        assert MultiprocessBackend(n_workers=1)._n_chunks == DEFAULT_CHUNKS
        assert MultiprocessBackend(n_workers=7)._n_chunks == DEFAULT_CHUNKS


class TestHistModes:
    def _run(self, backend):
        rng = np.random.default_rng(11)
        n = 150
        c = rng.uniform(-1.2, 1.2, size=(n, 3))
        w = rng.uniform(0.1, 2.0, size=n)
        hist = Hist3(GRID, track_errors=True)
        backend.parallel_for(n, HIST_K, make_captures(hist=hist, c=c, w=w))
        return hist

    def test_replay_mode_bit_identical_to_serial(self):
        from repro.jacc import get_backend

        serial = self._run(get_backend("serial"))
        for workers in (1, 2):
            mp = self._run(MultiprocessBackend(n_workers=workers))
            assert np.array_equal(mp.signal, serial.signal), workers
            assert np.array_equal(mp.error_sq, serial.error_sq), workers
        GLOBAL_POOL.dispose()
