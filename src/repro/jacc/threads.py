"""Threads back end: the coarse-grained CPU engine.

The paper's C++ proxy parallelizes the (symmetry op x detector) loop
with OpenMP ``collapse(2)``; JACC.jl's Threads back end does the same
with Julia tasks.  Here the outer index-space dimension is chunked over
a worker pool (``REPRO_NUM_THREADS``, default the machine's CPU count).
Each worker runs a JIT-specialized *ranged* loop nest, so the per-index
body is identical to the serial back end and correctness is preserved
by construction; reductions combine per-worker partials, avoiding any
shared mutable accumulator.

On a single-core host the pool degenerates gracefully (the structure is
exercised, the speedup is not) — DESIGN.md section 2 documents this as
part of the hardware substitution.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Tuple

from repro.jacc.backend import Backend, BackendError, REDUCE_OPS, register_backend
from repro.jacc.jit import GLOBAL_JIT
from repro.jacc.kernels import Captures, Kernel, normalize_dims
from repro.jacc.workers import THREADS_ENV, resolve_workers


def _default_workers() -> int:
    """Worker count from ``REPRO_NUM_THREADS`` (validated) or CPU count.

    Garbage, ``0`` and negatives raise a clear
    :class:`~repro.jacc.backend.BackendError` that names the variable
    (see :func:`repro.jacc.workers.parse_worker_count`).
    """
    return resolve_workers(THREADS_ENV)


class ThreadsBackend(Backend):
    name = "threads"
    device_kind = "cpu"
    body = "element"

    def __init__(self, n_workers: Optional[int] = None) -> None:
        self._n_workers = n_workers
        self._pool: Optional[ThreadPoolExecutor] = None

    @property
    def n_workers(self) -> int:
        return self._n_workers if self._n_workers else _default_workers()

    def _executor(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.n_workers, thread_name_prefix="jacc"
            )
        return self._pool

    def _chunks(self, n: int) -> list[tuple[int, int]]:
        workers = self.n_workers
        if n <= 0:
            return []
        step = max(1, (n + workers - 1) // workers)
        return [(start, min(start + step, n)) for start in range(0, n, step)]

    def run_parallel_for(
        self, dims: int | Tuple[int, ...], kernel: Kernel, captures: Captures
    ) -> None:
        dims = normalize_dims(dims)
        chunks = self._chunks(dims[0])
        if not chunks:
            return
        loop = GLOBAL_JIT.loop_for(kernel.name, self.name, len(dims), ranged=True)
        if len(chunks) == 1:
            loop(kernel.element, captures, dims, 0, dims[0])
            return
        pool = self._executor()
        futures = [
            pool.submit(loop, kernel.element, captures, dims, start, stop)
            for start, stop in chunks
        ]
        for f in futures:
            f.result()  # re-raise worker exceptions

    def run_parallel_reduce(
        self,
        dims: int | Tuple[int, ...],
        kernel: Kernel,
        captures: Captures,
        op: str = "+",
    ) -> float:
        dims = normalize_dims(dims)
        try:
            combine, init = REDUCE_OPS[op]
        except KeyError:
            raise BackendError(f"unknown reduction op {op!r}") from None
        chunks = self._chunks(dims[0])
        if not chunks:
            return float(init)
        loop = GLOBAL_JIT.loop_reduce(kernel.name, self.name, len(dims), ranged=True)
        if len(chunks) == 1:
            return float(loop(kernel.element, captures, dims, combine, init, 0, dims[0]))
        pool = self._executor()
        futures = [
            pool.submit(loop, kernel.element, captures, dims, combine, init, start, stop)
            for start, stop in chunks
        ]
        acc = init
        for f in futures:
            acc = combine(acc, f.result())
        return float(acc)


THREADS = register_backend(ThreadsBackend())
