"""Per-run checkpoint files: persistence, resume and integrity."""

import json
import multiprocessing
import os
import threading

import numpy as np
import pytest

from repro.core.checkpoint import (
    MANIFEST_NAME,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointManager,
    CheckpointMismatchError,
    RecoveryConfig,
    RunDelta,
    campaign_digest,
)
from repro.core.cross_section import _fold_runs, _RunBook
from repro.core.geom_cache import GeomCache
from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.nexus.h5lite import File
from repro.util import atomic_io
from repro.util import trace as trace_mod
from repro.util.faults import RetryPolicy


@pytest.fixture
def grid():
    return HKLGrid(basis=np.eye(3), minimum=(-1, -1, -1),
                   maximum=(1, 1, 1), bins=(3, 3, 2))


def _delta(grid, seed):
    rng = np.random.default_rng(seed)
    binmd = Hist3(grid, track_errors=True)
    mdnorm = Hist3(grid)
    binmd.signal[...] = rng.random(binmd.signal.shape)
    binmd.error_sq[...] = rng.random(binmd.signal.shape)
    mdnorm.signal[...] = rng.random(mdnorm.signal.shape)
    return binmd, mdnorm


def _save(ck, i, binmd, mdnorm, **kw):
    ck.save_run(i, RunDelta.from_hists(binmd, mdnorm), **kw)


def _dense(grid, delta):
    """A sparse delta scattered into dense arrays by the one fold."""
    binmd, mdnorm = _fold_runs(grid, [delta])
    return binmd.signal, binmd.error_sq, mdnorm.signal


class TestCampaignDigest:
    def test_order_insensitive(self):
        assert campaign_digest(a=1, b="x") == campaign_digest(b="x", a=1)

    def test_field_sensitive(self):
        assert campaign_digest(a=1) != campaign_digest(a=2)

    def test_numpy_values_ok(self):
        d = campaign_digest(arr=np.arange(3), n=np.int64(5), x=np.float64(0.5))
        assert isinstance(d, str) and len(d) == 24


class TestSaveLoadRoundTrip:
    def test_round_trip_bit_identical(self, tmp_path, grid):
        ck = CheckpointManager(tmp_path / "ck", config_digest="cfg")
        binmd, mdnorm = _delta(grid, 1)
        _save(ck, 4, binmd, mdnorm, attempts=2, rank=1)
        delta = ck.load_run(4, grid)
        assert delta.shape == grid.bins
        got_binmd, got_err, got_mdnorm = _dense(grid, delta)
        assert np.array_equal(got_binmd, binmd.signal)
        assert np.array_equal(got_err, binmd.error_sq)
        assert np.array_equal(got_mdnorm, mdnorm.signal)

    def test_file_header_records_run(self, tmp_path, grid):
        path = tmp_path / "ck"
        ck = CheckpointManager(path, config_digest="cfg")
        binmd, mdnorm = _delta(grid, 2)
        _save(ck, 0, binmd, mdnorm, attempts=3, rank=2)
        assert ck.has_run(0) and not ck.has_run(1)
        assert ck.completed_runs() == [0]
        assert sorted(os.listdir(path)) == ["run_0000.ckpt.h5"]
        # a fresh manager reads the record back from the file header
        rec = CheckpointManager(path, config_digest="cfg").run_record(0)
        assert rec == {"file": "run_0000.ckpt.h5", "run_index": 0,
                       "config_digest": "cfg", "attempts": 3, "rank": 2,
                       "shape": list(grid.bins)}

    def test_file_stores_only_touched_bins(self, tmp_path, grid):
        ck = CheckpointManager(tmp_path / "ck")
        binmd = Hist3(grid, track_errors=True)
        mdnorm = Hist3(grid)
        binmd.signal.flat[[2, 9]] = (1.5, -0.0)  # -0.0 is not a touch
        binmd.error_sq.flat[[2, 9]] = (2.25, 0.5)
        mdnorm.signal.flat[4] = 3.0
        _save(ck, 0, binmd, mdnorm)
        path = os.path.join(ck.directory, ck.run_record(0)["file"])
        with File(path, "r") as f:
            grp = f["checkpoint"]
            assert list(grp.attrs["shape"]) == list(grid.bins)
            assert grp.read("binmd_signal_idx").tolist() == [2]
            assert grp.read("binmd_error_sq_idx").tolist() == [2, 9]
            assert grp.read("mdnorm_signal_idx").tolist() == [4]
            assert grp.read("mdnorm_signal_val").tolist() == [3.0]
        assert np.array_equal(_dense(grid, ck.load_run(0, grid))[1],
                              binmd.error_sq)

    def test_no_error_sq_supported(self, tmp_path, grid):
        ck = CheckpointManager(tmp_path / "ck")
        binmd = Hist3(grid)  # no error tracking
        mdnorm = Hist3(grid)
        binmd.signal[...] = 1.0
        _save(ck, 0, binmd, mdnorm)
        assert "binmd_error_sq" not in ck.load_run(0, grid).arrays

    def test_quarantine_is_durable(self, tmp_path, grid):
        path = tmp_path / "ck"
        ck = CheckpointManager(path, config_digest="cfg")
        ck.quarantine_run(7, "injected kernel_error")
        assert json.loads((path / "run_0007.quarantined").read_text()) == {
            "config_digest": "cfg", "reason": "injected kernel_error"}
        again = CheckpointManager(path, config_digest="cfg")
        assert again.is_quarantined(7)
        assert again.quarantined_runs() == [7]

    def test_save_clears_prior_quarantine(self, tmp_path, grid):
        path = tmp_path / "ck"
        ck = CheckpointManager(path)
        ck.quarantine_run(1, "flaky")
        binmd, mdnorm = _delta(grid, 3)
        _save(ck, 1, binmd, mdnorm)
        assert not ck.is_quarantined(1)
        assert ck.has_run(1)
        assert sorted(os.listdir(path)) == ["run_0001.ckpt.h5"]


class TestResumeSemantics:
    def test_fresh_manager_sees_prior_progress(self, tmp_path, grid):
        path = tmp_path / "ck"
        ck = CheckpointManager(path, config_digest="cfg")
        for i in (2, 0):
            binmd, mdnorm = _delta(grid, i)
            _save(ck, i, binmd, mdnorm)
        again = CheckpointManager(path, config_digest="cfg")
        assert again.completed_runs() == [0, 2]  # ascending
        d0 = again.load_run(0, grid)
        assert np.array_equal(_dense(grid, d0)[0], _delta(grid, 0)[0].signal)

    def test_config_digest_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ck"
        ck = CheckpointManager(path, config_digest="campaign-A")
        ck.quarantine_run(0, "write a quarantine record")
        with pytest.raises(CheckpointMismatchError):
            CheckpointManager(path, config_digest="campaign-B")

    @pytest.mark.parametrize("text", [
        '{"schema": 2, "config_digest": "", "runs": {}, "quarantined": {}}',
        '{"schema": 1, "runs"',
    ], ids=["schema2", "torn"])
    def test_manifest_layout_refused(self, tmp_path, text):
        path = tmp_path / "ck"
        path.mkdir()
        (path / MANIFEST_NAME).write_text(text)
        with pytest.raises(CheckpointError,
                           match=r"manifest layout.*per-run file layout"):
            CheckpointManager(path)

    def test_campaign_complete_sentinel(self, tmp_path, grid):
        ck = CheckpointManager(tmp_path / "ck")
        assert not ck.campaign_complete
        ck.mark_campaign_complete("done\n")
        assert ck.campaign_complete
        assert atomic_io.is_complete(ck.directory)


class TestCorruptionDetection:
    def test_bit_flip_in_delta_detected(self, tmp_path, grid):
        ck = CheckpointManager(tmp_path / "ck")
        binmd, mdnorm = _delta(grid, 5)
        _save(ck, 0, binmd, mdnorm)
        victim = os.path.join(ck.directory, ck.run_record(0)["file"])
        raw = bytearray(open(victim, "rb").read())
        raw[len(raw) // 2] ^= 0xFF
        open(victim, "wb").write(bytes(raw))
        with pytest.raises(CheckpointCorruptError):
            ck.load_run(0, grid)

    def test_missing_delta_file_detected(self, tmp_path, grid):
        ck = CheckpointManager(tmp_path / "ck")
        binmd, mdnorm = _delta(grid, 6)
        _save(ck, 0, binmd, mdnorm)
        os.unlink(os.path.join(ck.directory, ck.run_record(0)["file"]))
        with pytest.raises(CheckpointCorruptError):
            ck.load_run(0, grid)

    def test_grid_shape_mismatch_detected(self, tmp_path, grid):
        ck = CheckpointManager(tmp_path / "ck")
        binmd, mdnorm = _delta(grid, 7)
        _save(ck, 0, binmd, mdnorm)
        other = HKLGrid(basis=np.eye(3), minimum=(-1, -1, -1),
                        maximum=(1, 1, 1), bins=(5, 5, 5))
        with pytest.raises(CheckpointMismatchError):
            ck.load_run(0, other)

    def test_unknown_run_rejected(self, tmp_path, grid):
        ck = CheckpointManager(tmp_path / "ck")
        with pytest.raises(CheckpointError):
            ck.load_run(3, grid)

    @staticmethod
    def _resume(path, i, grid):
        """Resume run ``i`` through a fresh manager: the delta folded,
        or None when the run is recomputed (counted corrupt)."""
        book = _RunBook(grid, RecoveryConfig(
            checkpoint=CheckpointManager(path, config_digest="cfg"),
            resume=True), GeomCache())
        tracer = trace_mod.Tracer()
        with trace_mod.use_tracer(tracer):
            resumed = book.resume(i, rank=0)
        assert resumed == (tracer.counters.get("checkpoint.corrupt", 0) == 0)
        return book.runs[i] if resumed else None

    # a flipped dtype string may name a deprecated numpy alias
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_every_header_bit_flip_is_caught(self, tmp_path, grid):
        """The h5lite CRCs cover only the payload.  Flip each bit of a
        delta file's JSON header in turn: the run is recomputed or the
        directory refused, and a delta that differs from the saved one
        is never folded.  A flip that h5lite reads past unchanged (an
        unused field such as the container version) folds the saved
        delta itself."""
        path = tmp_path / "ck"
        binmd, mdnorm = _delta(grid, 9)
        saved = RunDelta.from_hists(binmd, mdnorm)
        CheckpointManager(path, config_digest="cfg").save_run(
            0, saved, attempts=2, rank=1)
        victim = path / "run_0000.ckpt.h5"
        raw = victim.read_bytes()
        header_len = int.from_bytes(raw[-8:], "little")
        header_off = len(raw) - 8 - header_len
        outcomes = {"recomputed": 0, "refused": 0, "same": 0}
        for bit in range(8 * header_off, 8 * (header_off + header_len)):
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            victim.write_bytes(bytes(flipped))
            try:
                got = self._resume(path, 0, grid)
            except CheckpointError:
                outcomes["refused"] += 1
                continue
            if got is None:
                outcomes["recomputed"] += 1
                continue
            assert got.shape == saved.shape
            assert set(got.arrays) == set(saved.arrays)
            for name, (idx, val) in saved.arrays.items():
                assert got.arrays[name][0].dtype == idx.dtype
                assert np.array_equal(got.arrays[name][0], idx)
                assert got.arrays[name][1].dtype == val.dtype
                assert np.array_equal(got.arrays[name][1], val)
            outcomes["same"] += 1
        # the run record, the digest and the dataset names are all guarded
        assert outcomes["recomputed"] > 0.85 * 8 * header_len

    def test_delta_under_another_runs_name_recomputed(self, tmp_path, grid):
        path = tmp_path / "ck"
        ck = CheckpointManager(path, config_digest="cfg")
        for i in (0, 1):
            _save(ck, i, *_delta(grid, 20 + i))
        (path / "run_0001.ckpt.h5").write_bytes(
            (path / "run_0000.ckpt.h5").read_bytes())
        assert self._resume(path, 1, grid) is None
        assert self._resume(path, 0, grid) is not None


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context()


def _job_grid():
    return HKLGrid(basis=np.eye(3), minimum=(-1, -1, -1),
                   maximum=(1, 1, 1), bins=(3, 3, 2))


def _job_seed(job):
    # stable across processes (hash() is salted per interpreter)
    return 100 * (sum(map(ord, job)) % 97)


def _job_worker(root, job, digest, runs):
    """Process entry point: one job writing its own checkpoint dir."""
    grid = _job_grid()
    ck = CheckpointManager(os.path.join(root, job, "ckpt"),
                           config_digest=digest)
    for i in runs:
        binmd, mdnorm = _delta(grid, _job_seed(job) + i)
        _save(ck, i, binmd, mdnorm)
    ck.mark_campaign_complete(job + "\n")


def _complete_worker(directory, text):
    atomic_io.mark_complete(directory, text)


class TestConcurrentManagers:
    """Concurrent checkpoint use.

    The stealing executor drives one manager from several rank threads
    at once, and campaigns may keep their checkpoint directories side by
    side under one root.  These tests pin the invariants that relies
    on: index updates are serialised, sibling directories never
    cross-contaminate, and the COMPLETE sentinel appears atomically.
    """

    def test_threaded_saves_on_one_manager(self, tmp_path, grid):
        ck = CheckpointManager(tmp_path / "ck", config_digest="cfg")
        n = 8
        errors = []

        def save(i):
            try:
                binmd, mdnorm = _delta(grid, i)
                _save(ck, i, binmd, mdnorm)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=save, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        again = CheckpointManager(tmp_path / "ck", config_digest="cfg")
        assert again.completed_runs() == list(range(n))
        for i in range(n):
            delta = again.load_run(i, grid)  # digest-verified
            assert np.array_equal(_dense(grid, delta)[0],
                                  _delta(grid, i)[0].signal)

    def test_sibling_jobs_stay_isolated(self, tmp_path, grid):
        root = tmp_path / "store"
        jobs = {"job-a": "digest-a", "job-b": "digest-b"}
        managers = {
            name: CheckpointManager(root / name / "ckpt", config_digest=dig)
            for name, dig in jobs.items()
        }

        def drive(name, base):
            ck = managers[name]
            for i in range(4):
                binmd, mdnorm = _delta(grid, base + i)
                _save(ck, i, binmd, mdnorm)

        threads = [threading.Thread(target=drive, args=(n, b))
                   for n, b in (("job-a", 10), ("job-b", 50))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        for name, base in (("job-a", 10), ("job-b", 50)):
            again = CheckpointManager(root / name / "ckpt",
                                      config_digest=jobs[name])
            assert again.completed_runs() == [0, 1, 2, 3]
            d = again.load_run(2, grid)
            assert np.array_equal(_dense(grid, d)[0],
                                  _delta(grid, base + 2)[0].signal)
        # digest binding: reopening one job's dir as the other campaign fails
        with pytest.raises(CheckpointMismatchError):
            CheckpointManager(root / "job-a" / "ckpt",
                              config_digest="digest-b")

    def test_complete_marker_atomic_under_thread_race(self, tmp_path):
        path = tmp_path / "ck"
        ck = CheckpointManager(path, config_digest="cfg")
        observed = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                if ck.campaign_complete:
                    marker = path / "COMPLETE"
                    observed.append(marker.read_text())

        watcher = threading.Thread(target=reader)
        watcher.start()
        writers = [
            threading.Thread(target=ck.mark_campaign_complete,
                             args=(f"writer-{i}\n",))
            for i in range(6)
        ]
        for t in writers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        watcher.join()
        assert ck.campaign_complete
        # every observation is a whole message from exactly one writer
        valid = {f"writer-{i}\n" for i in range(6)}
        assert observed, "reader never saw the sentinel"
        assert set(observed) <= valid

    def test_process_jobs_share_store_root(self, tmp_path):
        ctx = _mp_context()
        root = str(tmp_path / "store")
        jobs = {"job-a": "digest-a", "job-b": "digest-b", "job-c": "digest-c"}
        procs = [
            ctx.Process(target=_job_worker,
                        args=(root, name, dig, list(range(3))))
            for name, dig in jobs.items()
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        grid = _job_grid()
        for name, dig in jobs.items():
            jobdir = os.path.join(root, name, "ckpt")
            ck = CheckpointManager(jobdir, config_digest=dig)
            assert ck.completed_runs() == [0, 1, 2]
            assert ck.campaign_complete
            for i in range(3):
                want = _delta(grid, _job_seed(name) + i)[0].signal
                got = _dense(grid, ck.load_run(i, grid))[0]
                assert np.array_equal(got, want)
            with pytest.raises(CheckpointMismatchError):
                CheckpointManager(jobdir, config_digest="somebody-else")

    def test_process_complete_marker_race(self, tmp_path):
        ctx = _mp_context()
        directory = str(tmp_path / "shared")
        os.makedirs(directory)
        procs = [
            ctx.Process(target=_complete_worker,
                        args=(directory, f"proc-{i}\n"))
            for i in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        assert atomic_io.is_complete(directory)
        text = (tmp_path / "shared" / "COMPLETE").read_text()
        assert text in {f"proc-{i}\n" for i in range(4)}


class TestRecoveryConfig:
    def test_defaults(self):
        cfg = RecoveryConfig()
        assert isinstance(cfg.retry, RetryPolicy)
        assert cfg.quarantine is True
        assert cfg.checkpoint is None
        assert cfg.resume is False

    @pytest.mark.parametrize("field", ["cancel", "retryable"])
    def test_retired_fields_are_refused(self, field):
        """A retry is bounded by its attempts alone: there is no
        campaign cancel token and no per-campaign retryable override."""
        with pytest.raises(TypeError, match=field):
            RecoveryConfig(**{field: None if field == "cancel" else ()})
