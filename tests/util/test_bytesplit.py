"""Two-way CRC32 and two-leaf SHA-256 over one helper thread.

The split is an implementation detail that must never show: every CRC
equals ``zlib.crc32`` and every reduction over runs of
``SPLIT_BYTES`` or more is bit-identical to the serial path, through a
busy helper, a forked child and two rank threads competing for it.
"""

import hashlib
import multiprocessing
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import RecoveryConfig
from repro.core.cross_section import compute_cross_section
from repro.core.geom_cache import DISABLED, GeomCache
from repro.core.md_event_workspace import load_md
from repro.core.sharding import ShardConfig
from repro.mpi import run_world
from repro.mpi.stealing import run_stealing_campaign
from repro.util import bytesplit
from repro.util.schedule import ScheduleController
from repro.util.trace import Tracer, use_tracer

SPLIT = bytesplit.SPLIT_BYTES


def _bytes(n, seed=0):
    return np.random.default_rng(seed).bytes(n)


@pytest.fixture
def helper(monkeypatch):
    """A fresh helper that splits on any host (even a 1-core one); it
    is shut down after the test."""
    monkeypatch.setattr(bytesplit, "_cores", lambda: 2)
    monkeypatch.setattr(bytesplit, "_pool", None)
    pool = bytesplit._helper()
    yield pool
    pool.shutdown(wait=True)


def _traced(fn, *args):
    tracer = Tracer(label="bytesplit")
    with use_tracer(tracer):
        out = fn(*args)
    return out, tracer.counters


class TestCrc32:
    @given(st.binary(max_size=4096))
    def test_equals_zlib(self, data):
        assert bytesplit.crc32(data) == zlib.crc32(data)

    @settings(max_examples=50)
    @given(st.binary(max_size=4096))
    def test_split_path_equals_zlib(self, data):
        """Every buffer split, down to one byte."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bytesplit, "SPLIT_BYTES", 1)
            assert bytesplit.crc32(data) == zlib.crc32(data)

    @given(st.binary(max_size=512), st.data())
    def test_combine_any_cut(self, data, draw):
        cut = draw.draw(st.integers(0, len(data)))
        a, b = data[:cut], data[cut:]
        assert bytesplit.crc32_combine(
            zlib.crc32(a), zlib.crc32(b), len(b)) == zlib.crc32(data)

    def test_combine_at_the_edges(self):
        data = _bytes(1000, seed=1)
        for cut in (0, 1, len(data) - 1, len(data)):
            a, b = data[:cut], data[cut:]
            assert bytesplit.crc32_combine(
                zlib.crc32(a), zlib.crc32(b), len(b)) == zlib.crc32(data)

    def test_combine_on_a_run_sized_buffer(self):
        data = _bytes(9_000_001, seed=2)
        cut = len(data) // 2
        assert bytesplit.crc32_combine(
            zlib.crc32(data[:cut]), zlib.crc32(data[cut:]),
            len(data) - cut) == zlib.crc32(data)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            bytesplit.crc32_combine(0, 0, -1)

    @pytest.mark.parametrize("n", [SPLIT - 1, SPLIT, SPLIT + 1, 9_000_001])
    def test_around_the_split_size(self, n, helper):
        data = _bytes(n, seed=n)
        assert bytesplit.crc32(data) == zlib.crc32(data)
        assert bytesplit.crc32(bytearray(data)) == zlib.crc32(data)

    def test_small_buffer_checked_as_given(self, monkeypatch, helper):
        """Below the split size zlib sees the caller's own object."""
        seen = []
        real = zlib.crc32
        monkeypatch.setattr(zlib, "crc32",
                            lambda d, *a: seen.append(d) or real(d, *a))
        data = _bytes(SPLIT - 1)
        assert bytesplit.crc32(data) == real(data)
        assert len(seen) == 1 and seen[0] is data


class TestHelper:
    def test_helper_hashes_the_first_half(self, helper):
        """The caller hashes the second half while the helper hashes
        the first; the trace counts the helper's bytes."""
        view = memoryview(_bytes(SPLIT + 3)).cast("B")
        cut = len(view) // 2
        helper_started = threading.Event()
        ran = {}

        def fn(part):
            me = threading.current_thread().name
            if me.startswith("bytesplit"):
                helper_started.set()
            else:
                assert helper_started.wait(10)
            ran[len(part)] = me
            return zlib.crc32(part)

        (head, tail), counters = _traced(bytesplit._halves, fn, view)
        assert (head, tail) == (zlib.crc32(view[:cut]), zlib.crc32(view[cut:]))
        assert ran[cut].startswith("bytesplit")
        assert not ran[len(view) - cut].startswith("bytesplit")
        assert counters == {"bytesplit.helper_bytes": cut}

    @pytest.mark.parametrize("which", ["crc32", "sha256"])
    def test_busy_helper_falls_back_inline(self, helper, which):
        """A helper busy with another caller's job: the cancel succeeds
        and the caller hashes both halves itself."""
        release, busy = threading.Event(), threading.Event()
        blocker = helper.submit(lambda: (busy.set(), release.wait(10)))
        assert busy.wait(10)
        data = _bytes(SPLIT + 5, seed=3)
        try:
            if which == "crc32":
                out, counters = _traced(bytesplit.crc32, data)
                assert out == zlib.crc32(data)
            else:
                out, counters = _traced(bytesplit.sha256_halves, data)
                cut = len(data) // 2
                assert out == (hashlib.sha256(data[:cut]).digest(),
                               hashlib.sha256(data[cut:]).digest())
        finally:
            release.set()
            blocker.result(10)
        assert counters["bytesplit.inline"] == 1
        assert counters["bytesplit.calls"] == 1
        assert "bytesplit.helper_bytes" not in counters

    def test_one_core_never_splits(self, monkeypatch):
        monkeypatch.setattr(bytesplit, "_cores", lambda: 1)
        monkeypatch.setattr(bytesplit, "_pool", None)
        data = _bytes(SPLIT + 7, seed=4)
        out, counters = _traced(bytesplit.crc32, data)
        assert out == zlib.crc32(data)
        assert bytesplit._pool is None
        assert counters == {"bytesplit.calls": 1}

    def test_racing_callers_share_one_helper(self, monkeypatch,
                                             fine_gil_switching):
        """Six threads (more than cores) start at once on a fresh module
        state: one helper is created, and every CRC and leaf pair is
        right whoever ran which half."""
        made, real = [], bytesplit.ThreadPoolExecutor

        def counting_pool(*args, **kwargs):
            made.append(real(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(bytesplit, "_cores", lambda: 2)
        monkeypatch.setattr(bytesplit, "_pool", None)
        monkeypatch.setattr(bytesplit, "ThreadPoolExecutor", counting_pool)
        blobs = [_bytes(SPLIT + 11 * i, seed=20 + i) for i in range(6)]
        start = threading.Barrier(len(blobs))
        wrong = []

        def work(data):
            start.wait(10)
            for _ in range(3):
                if bytesplit.crc32(data) != zlib.crc32(data):
                    wrong.append(len(data))
                cut = len(data) // 2
                if bytesplit.sha256_halves(data)[1] != hashlib.sha256(
                        data[cut:]).digest():
                    wrong.append(len(data))

        threads = [threading.Thread(target=work, args=(b,)) for b in blobs]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads)
        finally:
            for pool in made:
                pool.shutdown(wait=True)
        assert wrong == []
        assert len(made) == 1

    def test_sha256_halves_are_the_leaves(self, helper):
        for n in (0, 1, 7, SPLIT, SPLIT + 1):
            data = _bytes(n, seed=n)
            cut = n // 2
            assert bytesplit.sha256_halves(data) == (
                hashlib.sha256(data[:cut]).digest(),
                hashlib.sha256(data[cut:]).digest())


class TestByteJob:
    def test_results_whoever_runs_the_pieces(self, helper):
        data = _bytes(5000, seed=8)
        pieces = [(zlib.crc32, 0, 2000), (zlib.crc32, 2000, 5000),
                  (bytesplit.sha256, 10, 4000)]
        for start in (False, True):
            job = bytesplit.ByteJob(lambda: data, pieces)
            assert not start or job.start()
            buf, results = job.join()
            assert buf is data
            assert results == [zlib.crc32(data[:2000]),
                               zlib.crc32(data[2000:]),
                               hashlib.sha256(data[10:4000]).digest()]
            ran_inline = job.inline_pieces
            helper_pieces = len(pieces) + 1 - ran_inline
            assert 0 <= helper_pieces <= len(pieces) + 1
            assert start or (ran_inline == len(pieces) + 1
                             and job.helper_bytes == 0)

    def test_read_error_raised_at_join(self, helper):
        def fail():
            raise OSError("disk gone")

        job = bytesplit.ByteJob(fail, [(zlib.crc32, 0, 4)])
        job.start()
        with pytest.raises(OSError, match="disk gone"):
            job.join()

    def test_close_waits_for_the_running_piece(self, helper):
        """Closing mid-read returns only once the read is over, and no
        piece starts after it."""
        reading, release, done = (threading.Event(), threading.Event(),
                                  threading.Event())
        ran = []

        def read():
            reading.set()
            release.wait(10)
            done.set()
            return b"x" * 64

        job = bytesplit.ByteJob(read, [(ran.append, 0, 64)])
        assert job.start()
        assert reading.wait(10)
        closer = threading.Thread(target=job.close)
        closer.start()
        closer.join(0.05)
        assert closer.is_alive()
        release.set()
        closer.join(10)
        assert not closer.is_alive() and done.is_set()
        assert ran == []

    def test_racing_jobs_run_every_piece_once(self, helper,
                                              fine_gil_switching):
        """Six callers (more than cores) start and join jobs of many
        small pieces on the one helper: every piece runs exactly once,
        on one side or the other, and a closed job runs none twice."""
        data = _bytes(4096, seed=9)
        want = [zlib.crc32(data[256 * i:256 * (i + 1)]) for i in range(16)]
        wrong = []

        def work(seed):
            for k in range(40):
                counts = [0] * 16
                lock = threading.Lock()

                def counted(i):
                    def fn(view):
                        with lock:
                            counts[i] += 1
                        return zlib.crc32(view)
                    return fn

                job = bytesplit.ByteJob(lambda: data, [
                    (counted(i), 256 * i, 256 * (i + 1)) for i in range(16)])
                job.start()
                if (seed + k) % 5 == 0:
                    job.close()
                    if max(counts) > 1:
                        wrong.append(("closed", seed, k, counts))
                    continue
                _, results = job.join()
                if counts != [1] * 16 or results != want:
                    wrong.append((seed, k, counts))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []



# ---------------------------------------------------------------------------
# reductions over runs of SPLIT_BYTES or more
# ---------------------------------------------------------------------------

def _kw(exp):
    return dict(
        n_runs=len(exp.md_paths), grid=exp.grid, point_group=exp.point_group,
        flux=exp.flux, det_directions=exp.instrument.directions,
        solid_angles=exp.vanadium.detector_weights, backend="vectorized",
    )


def _loader(exp):
    return lambda i: load_md(exp.md_paths[i])


def _assert_identical(res, ref):
    assert np.array_equal(res.binmd.signal, ref.binmd.signal)
    assert np.array_equal(res.binmd.error_sq, ref.binmd.error_sq)
    assert np.array_equal(res.mdnorm.signal, ref.mdnorm.signal)


@pytest.fixture(scope="module")
def uncached(large_experiment):
    return compute_cross_section(_loader(large_experiment), cache=DISABLED,
                                 **_kw(large_experiment))


def test_reloaded_table_hits_the_warm_entry(large_experiment, uncached):
    """A second reduction re-reads every run from disk; every cache
    lookup hits and the result equals the uncached one bit for bit."""
    cache = GeomCache()
    cold = compute_cross_section(_loader(large_experiment), cache=cache,
                                 **_kw(large_experiment))
    misses, hits = cache.stats.misses, cache.stats.hits
    warm = compute_cross_section(_loader(large_experiment), cache=cache,
                                 **_kw(large_experiment))
    assert cache.stats.misses == misses
    assert cache.stats.hits > hits
    for res in (cold, warm):
        _assert_identical(res, uncached)


def _child_load(path, queue):
    dropped = bytesplit._pool is None
    cols = load_md(path).events.cols
    queue.put((dropped, np.array(cols)))


def test_forked_child_loads_with_its_own_helper(large_experiment, helper):
    """The parent's helper thread does not exist in a forked child: the
    child drops it, starts its own and loads the right table."""
    data = _bytes(SPLIT + 9)
    assert bytesplit.crc32(data) == zlib.crc32(data)
    assert bytesplit._pool is helper
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    proc = ctx.Process(target=_child_load,
                       args=(large_experiment.md_paths[0], queue))
    proc.start()
    try:
        dropped, cols = queue.get(timeout=60)
    finally:
        proc.join(10)
        if proc.is_alive():  # pragma: no cover - failure path
            proc.kill()
    assert dropped
    assert proc.exitcode == 0
    assert np.array_equal(cols, large_experiment.workspaces[0].events.cols)


def test_stealing_ranks_share_the_helper(large_experiment, uncached, helper):
    """Two rank threads load and key runs of 2 MiB or more at once and
    compete for the one helper; the result equals the static loop's."""
    cache = GeomCache()

    def body(comm):
        return run_stealing_campaign(
            _loader(large_experiment), comm=comm, cache=cache,
            recovery=RecoveryConfig(), shards=ShardConfig(n_shards=2),
            schedule=ScheduleController(seed=4, policy="random"),
            **_kw(large_experiment))

    tracer = Tracer(label="ranks")
    with use_tracer(tracer):
        results = run_world(2, body, barrier_timeout=60.0)
    roots = [r for r in results if r is not None and r.cross_section is not None]
    assert len(roots) == 1
    _assert_identical(roots[0], uncached)
    counters = tracer.counters
    split = (counters.get("bytesplit.helper_bytes", 0) > 0
             or counters.get("bytesplit.inline", 0) > 0)
    assert split
