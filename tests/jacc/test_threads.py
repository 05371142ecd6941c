"""Unit tests specific to the threads back end."""

import numpy as np
import pytest

from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.jacc.backend import BackendError
from repro.jacc.kernels import Kernel, make_captures
from repro.jacc.serial import SerialBackend
from repro.jacc.threads import ThreadsBackend


def _fill_kernel():
    return Kernel(
        name="test_fill",
        element=lambda ctx, i: ctx.out.__setitem__(i, i + 1),
    )


class TestChunking:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 17, 100])
    @pytest.mark.parametrize("workers", [1, 2, 4, 7])
    def test_every_index_covered_exactly_once(self, n, workers):
        be = ThreadsBackend(n_workers=workers)
        out = np.zeros(n)
        be.parallel_for(n, _fill_kernel(), make_captures(out=out))
        assert np.allclose(out, np.arange(1, n + 1))

    def test_chunks_partition(self):
        be = ThreadsBackend(n_workers=4)
        chunks = be._chunks(10)
        covered = [i for start, stop in chunks for i in range(start, stop)]
        assert covered == list(range(10))

    def test_empty_chunks(self):
        assert ThreadsBackend(n_workers=4)._chunks(0) == []


class TestReduction:
    @pytest.mark.parametrize("workers", [1, 3, 8])
    def test_partials_combine(self, workers):
        be = ThreadsBackend(n_workers=workers)
        k = Kernel(name="test_sum_i", element=lambda ctx, i: float(i))
        assert be.parallel_reduce(100, k, make_captures()) == pytest.approx(4950.0)

    def test_max_across_chunks(self):
        be = ThreadsBackend(n_workers=4)
        x = np.array([1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0])
        k = Kernel(name="test_max_chunks", element=lambda ctx, i: float(ctx.x[i]))
        assert be.parallel_reduce(8, k, make_captures(x=x), op="max") == 9.0

    def test_unknown_op(self):
        be = ThreadsBackend(n_workers=2)
        k = Kernel(name="test_op", element=lambda ctx, i: 0.0)
        with pytest.raises(BackendError):
            be.parallel_reduce(4, k, make_captures(), op="median")


def _two_hist_element(ctx, i):
    c0, c1, c2 = ctx.coords[i]
    w = ctx.w[i]
    ctx.hist.push(c0, c1, c2, w, w * w)
    ctx.twin.push(c1, c0, c2, 1.0 / w)
    return w


TWO_HISTS = Kernel(name="test_two_hists", element=_two_hist_element)


class TestOrderedDeposits:
    """More workers than cores, the GIL handed over every 50 us, float
    weights piling into four bins: each bin must still get its adds in
    the serial order, for ``parallel_for`` and ``parallel_reduce``."""

    @pytest.mark.parametrize("workers", [3, 8])
    @pytest.mark.parametrize("launch", ["for", "reduce"])
    def test_histograms_equal_serial_bits(self, workers, launch,
                                          fine_gil_switching):
        grid = HKLGrid(basis=np.eye(3), minimum=(0.0, 0.0, 0.0),
                       maximum=(1.0, 1.0, 1.0), bins=(2, 2, 1))
        rng = np.random.default_rng(workers)
        coords = rng.uniform(-0.1, 1.1, size=(4000, 3))  # some outside
        w = rng.uniform(0.1, 2.0, size=4000)

        def run(backend):
            ctx = make_captures(hist=Hist3(grid, track_errors=True),
                                twin=Hist3(grid), coords=coords, w=w)
            if launch == "for":
                backend.parallel_for(len(w), TWO_HISTS, ctx)
            else:
                assert backend.parallel_reduce(len(w), TWO_HISTS, ctx, op="max") == w.max()
            return ctx.hist, ctx.twin

        want = run(SerialBackend())
        got = run(ThreadsBackend(n_workers=workers))
        for a, b in zip(got, want):
            assert np.array_equal(a.signal.view(np.int64), b.signal.view(np.int64))
        assert np.array_equal(got[0].error_sq.view(np.int64),
                              want[0].error_sq.view(np.int64))
        assert got[1].error_sq is None


class TestErrorPropagation:
    def test_worker_exception_reraised(self):
        be = ThreadsBackend(n_workers=4)

        def boom(ctx, i):
            if i == 5:
                raise RuntimeError("worker exploded")

        k = Kernel(name="test_boom", element=boom)
        with pytest.raises(RuntimeError, match="worker exploded"):
            be.parallel_for(16, k, make_captures())


class TestWorkerCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        assert ThreadsBackend().n_workers == 3

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        assert ThreadsBackend(n_workers=2).n_workers == 2
