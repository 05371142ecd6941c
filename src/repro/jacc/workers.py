"""Worker-count resolution, and the process pool the benchmark asks for.

* **Worker-count parsing.**  :func:`parse_worker_count` validates
  ``REPRO_NUM_THREADS`` (the ``threads`` back end) and ``n_shards``
  (:class:`~repro.core.sharding.ShardConfig`) with an error that names
  the offending source.  Garbage fails loudly instead of as an opaque
  ``ValueError`` inside a kernel launch, and ``0`` or negatives are
  rejected rather than clamped to 1: on batch systems the variable is
  often computed, and ``$((SLURM_CPUS/2))`` going to zero is a *bug*,
  not a request for one worker.

* **The process pool.**  No back end and no reduction path submits
  work to :data:`GLOBAL_POOL`; every kernel runs in the calling process.
  It is kept only because the benchmark's out-of-core workload still
  asks for it and checks its teardown.  :class:`WorkerPool` creates
  the executor lazily under a lock and shuts it down on
  :meth:`WorkerPool.dispose`.  A ``ProcessPoolExecutor`` forks its
  workers on its first submit, and nothing submits, so no worker
  process is ever started.  It starts no resource tracker: nothing
  creates shared memory, and the ``fork`` context's semaphores never
  register with one.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from repro.jacc.backend import BackendError

#: the environment variable the ``threads`` back end honours
THREADS_ENV = "REPRO_NUM_THREADS"


def parse_worker_count(value: object, *, source: str) -> int:
    """Validate a worker count from config/env; raise a clear error.

    Accepts positive integers (or strings of one, with surrounding
    whitespace).  Rejects zero, negatives, floats, and garbage with a
    :class:`~repro.jacc.backend.BackendError` naming ``source`` so the
    operator knows *which* knob is wrong.
    """
    if isinstance(value, bool):  # bool is an int subclass; always a mistake
        raise BackendError(f"{source}: worker count must be an integer, got {value!r}")
    if isinstance(value, int):
        count = value
    elif isinstance(value, str):
        text = value.strip()
        try:
            count = int(text, 10)
        except ValueError:
            raise BackendError(
                f"{source}: worker count must be a positive integer, got {value!r}"
            ) from None
    else:
        raise BackendError(
            f"{source}: worker count must be a positive integer, got {value!r}"
        )
    if count < 1:
        raise BackendError(
            f"{source}: worker count must be >= 1, got {count} "
            "(unset the variable to use the CPU count)"
        )
    return count


def resolve_workers(env_name: str, explicit: Optional[int] = None) -> int:
    """The effective worker count for an engine.

    Precedence: an explicit constructor argument, then the environment
    variable ``env_name``, then the machine's CPU count.  Explicit and
    environment values are validated by :func:`parse_worker_count`
    (empty-string env values count as unset, matching shell idiom).
    """
    if explicit is not None:
        return parse_worker_count(explicit, source="n_workers")
    env = os.environ.get(env_name)
    if env is not None and env.strip():
        return parse_worker_count(env, source=env_name)
    return max(1, os.cpu_count() or 1)


def _mp_context() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class WorkerPool:
    """A lazily created, restartable ``ProcessPoolExecutor``.

    Thread-safe: simulated MPI ranks run as threads in one process and
    may submit concurrently.  ``ProcessPoolExecutor.submit`` is itself
    thread-safe; this class only guards creation/recreation.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._size = 0

    @property
    def size(self) -> int:
        """Current pool size (0 when no pool is alive)."""
        return self._size

    def executor(self, n_workers: int) -> ProcessPoolExecutor:
        """The shared pool, (re)created to hold ``n_workers`` processes."""
        n_workers = parse_worker_count(n_workers, source="n_workers")
        with self._lock:
            if self._pool is not None and self._size == n_workers:
                return self._pool
            if self._pool is not None:
                self._pool.shutdown(wait=True, cancel_futures=True)
            # workers fork on the first submit (with ``fork``, CPython
            # gh-90622 starts them all then); nothing submits to this
            # pool, so none is started
            self._pool = ProcessPoolExecutor(
                max_workers=n_workers, mp_context=_mp_context()
            )
            self._size = n_workers
            return self._pool

    def dispose(self) -> None:
        """Shut the pool down (used after a BrokenProcessPool and by
        tests to force a cold start)."""
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
            self._size = 0


#: the process-wide pool the benchmark asks for (nothing submits to it)
GLOBAL_POOL = WorkerPool()
