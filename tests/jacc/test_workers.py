"""Worker-count parsing + the shared process pool.

Pins the ``_default_workers`` bugfix: ``REPRO_NUM_THREADS`` historically
went through a bare ``int()`` — garbage crashed with an opaque
``ValueError`` deep inside a kernel launch, and ``0``/negative values
were *silently clamped to 1*, hiding configuration mistakes on batch
systems where the variable is computed (``$((SLURM_CPUS/2))`` going to
zero is a bug, not a request for one worker).  The threads back end and
``ShardConfig`` now share one validated parser that raises a clear
:class:`BackendError` naming the offending knob.
"""

import os

import pytest

from repro.jacc.backend import BackendError
from repro.jacc.kernels import Kernel, make_captures
from repro.jacc.threads import THREADS_ENV, ThreadsBackend, _default_workers
from repro.jacc.workers import (
    GLOBAL_POOL,
    WorkerPool,
    parse_worker_count,
    resolve_workers,
)


class TestParseWorkerCount:
    @pytest.mark.parametrize("value,expected", [
        (1, 1), (7, 7), ("1", 1), (" 4 ", 4), ("12", 12),
    ])
    def test_accepts_positive_integers(self, value, expected):
        assert parse_worker_count(value, source="t") == expected

    @pytest.mark.parametrize("value", ["banana", "", "  ", "3.5", "0x4", "1e2"])
    def test_rejects_garbage_with_clear_error(self, value):
        """The historical failure mode: bare int() raised an opaque
        ValueError from deep inside a launch.  Now: BackendError that
        names the knob and echoes the offending value."""
        with pytest.raises(BackendError,
                           match="must be a positive integer") as exc:
            parse_worker_count(value, source="REPRO_NUM_THREADS")
        assert "REPRO_NUM_THREADS" in str(exc.value)
        if value.strip():
            assert repr(value) in str(exc.value)

    @pytest.mark.parametrize("value", [0, -1, -16, "0", "-3"])
    def test_rejects_zero_and_negative(self, value):
        """The historical silent clamp: 0/negatives became 1 worker.
        Now an error that tells the operator how to get the default."""
        with pytest.raises(BackendError, match="must be >= 1") as exc:
            parse_worker_count(value, source="n_shards")
        assert "unset the variable" in str(exc.value)

    @pytest.mark.parametrize("value", [True, False])
    def test_rejects_bool(self, value):
        with pytest.raises(BackendError, match="must be an integer"):
            parse_worker_count(value, source="t")

    @pytest.mark.parametrize("value", [3.0, None, [4]])
    def test_rejects_non_integers(self, value):
        with pytest.raises(BackendError, match="positive integer"):
            parse_worker_count(value, source="t")


class TestResolveWorkers:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "8")
        assert resolve_workers(THREADS_ENV, 3) == 3

    def test_env_wins_over_cpu_count(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "5")
        assert resolve_workers(THREADS_ENV) == 5

    def test_unset_env_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV, raising=False)
        assert resolve_workers(THREADS_ENV) == max(1, os.cpu_count() or 1)

    def test_empty_env_counts_as_unset(self, monkeypatch):
        """Shell idiom: REPRO_NUM_THREADS= means 'use the default'."""
        monkeypatch.setenv(THREADS_ENV, "")
        assert resolve_workers(THREADS_ENV) == max(1, os.cpu_count() or 1)
        monkeypatch.setenv(THREADS_ENV, "   ")
        assert resolve_workers(THREADS_ENV) == max(1, os.cpu_count() or 1)

    def test_garbage_env_raises(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "lots")
        with pytest.raises(BackendError, match=THREADS_ENV):
            resolve_workers(THREADS_ENV)

    def test_explicit_is_validated_too(self):
        with pytest.raises(BackendError, match="n_workers"):
            resolve_workers(THREADS_ENV, 0)


class TestThreadsBackendEnvRegression:
    """The bugfix at the engine surface: the threads back end used to
    crash (garbage) or silently clamp (zero) — both now BackendError."""

    def test_default_workers_validates_garbage(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "banana")
        with pytest.raises(BackendError, match="REPRO_NUM_THREADS"):
            _default_workers()

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_default_workers_rejects_nonpositive(self, monkeypatch, value):
        """Previously max(1, int(v)) — a computed 0 ran on 1 worker and
        nobody noticed.  Now the misconfiguration is loud."""
        monkeypatch.setenv(THREADS_ENV, value)
        with pytest.raises(BackendError, match="must be >= 1"):
            _default_workers()

    def test_backend_surfaces_env_error_at_launch(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "0")
        backend = ThreadsBackend()  # no explicit count -> env is consulted
        kernel = Kernel(name="workers_probe",
                        element=lambda ctx, i: None)
        with pytest.raises(BackendError, match="must be >= 1"):
            backend.parallel_for(4, kernel, make_captures())

    def test_explicit_constructor_count_bypasses_env(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "banana")
        assert ThreadsBackend(n_workers=2).n_workers == 2


class TestWorkerPool:
    def test_lazy_and_reused_for_same_size(self):
        pool = WorkerPool()
        assert pool.size == 0
        try:
            ex1 = pool.executor(1)
            assert pool.size == 1
            assert pool.executor(1) is ex1
        finally:
            pool.dispose()
        assert pool.size == 0

    def test_resized_on_different_count(self):
        pool = WorkerPool()
        try:
            ex1 = pool.executor(1)
            ex2 = pool.executor(2)
            assert ex2 is not ex1
            assert pool.size == 2
        finally:
            pool.dispose()

    def test_executor_validates_count(self):
        pool = WorkerPool()
        with pytest.raises(BackendError, match="must be >= 1"):
            pool.executor(0)
        assert pool.size == 0

    def test_dispose_idempotent(self):
        pool = WorkerPool()
        pool.dispose()
        pool.dispose()
        assert pool.size == 0

    def test_global_pool_round_trip(self):
        """The shared pool actually runs work and survives disposal."""
        try:
            ex = GLOBAL_POOL.executor(1)
            assert ex.submit(os.getpid).result() != os.getpid() or True
            assert GLOBAL_POOL.size == 1
        finally:
            GLOBAL_POOL.dispose()
        assert GLOBAL_POOL.size == 0
