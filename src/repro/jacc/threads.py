"""Threads back end: the coarse-grained CPU engine.

The paper's C++ proxy parallelizes the (symmetry op x detector) loop
with OpenMP ``collapse(2)``; JACC.jl's Threads back end does the same
with Julia tasks.  Here the outer index-space dimension is chunked over
a worker pool (``REPRO_NUM_THREADS``, default the machine's CPU count).
Each worker runs a JIT-specialized *ranged* loop nest, so the per-index
body is identical to the serial back end's.

No worker adds into a shared accumulator.  Each chunk pushes into its
own ordered deposit log in place of every histogram capture (any
capture with a ``grid`` and a ``push_flat``): the flat bin, from the
scalar ``grid.flat_bin`` rule that ``Hist3.push`` uses, the weight and
the squared error.  Once every chunk has finished, the logs are applied
in chunk order with one ordered ``np.add.at`` per array
(``push_flat(..., scatter_impl="atomic")``).  Chunks are ascending
ranges of the outer index, so each bin receives its adds in the serial
back end's order and the histograms equal serial's bit for bit,
however the threads were scheduled.  The paper's MPI ranks get
reproducible sums the same way: private histograms, combined in a
fixed order.  Reductions combine the per-chunk partials in chunk order.

On a single-core host the pool degenerates gracefully (the structure is
exercised, the speedup is not) — DESIGN.md section 2 documents this as
part of the hardware substitution.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from itertools import chain
from typing import Any, Callable, Optional, Tuple

import numpy as np

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


class _DepositLog:
    """One chunk's pushes into one histogram, in element order."""

    __slots__ = ("grid", "flat", "weight", "err_sq")

    def __init__(self, grid: Any) -> None:
        self.grid = grid
        self.flat: list[int] = []
        self.weight: list[float] = []
        self.err_sq: list[float] = []

    def push(self, c0: float, c1: float, c2: float, weight: float,
             err_sq: float = 0.0) -> bool:
        """``Hist3.push``, logged instead of added."""
        flat = self.grid.flat_bin(c0, c1, c2)
        if flat < 0:
            return False
        self.flat.append(flat)
        self.weight.append(weight)
        self.err_sq.append(err_sq)
        return True


def _apply_in_order(hist: Any, logs: list[_DepositLog]) -> None:
    n = sum(len(log.flat) for log in logs)
    if n == 0:
        return

    def column(name: str, dtype: type) -> np.ndarray:
        values = chain.from_iterable(getattr(log, name) for log in logs)
        return np.fromiter(values, dtype=dtype, count=n)

    hist.push_flat(column("flat", np.intp), column("weight", np.float64),
                   column("err_sq", np.float64), scatter_impl="atomic")


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

    def _run_chunks(self, chunks: list[tuple[int, int]], loop: Callable,
                    kernel: Kernel, captures: Captures,
                    dims: Tuple[int, ...], *args: Any) -> list[Any]:
        """Run ``loop(element, ctx, dims, *args, start, stop)`` per chunk
        on the pool, each chunk pushing into private deposit logs, then
        apply the logs in chunk order.  Returns the chunk results in
        chunk order."""
        hists = {key: value for key, value in vars(captures).items()
                 if hasattr(value, "grid") and hasattr(value, "push_flat")}
        contexts = []
        for _ in chunks:
            ctx = Captures(**vars(captures)) if hists else captures
            for key, hist in hists.items():
                setattr(ctx, key, _DepositLog(hist.grid))
            contexts.append(ctx)
        pool = self._executor()
        futures = [
            pool.submit(loop, kernel.element, ctx, dims, *args, start, stop)
            for ctx, (start, stop) in zip(contexts, chunks)
        ]
        results = [f.result() for f in futures]  # re-raise worker exceptions
        for key, hist in hists.items():
            _apply_in_order(hist, [getattr(ctx, key) for ctx in contexts])
        return results

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
        self._run_chunks(chunks, loop, kernel, captures, dims)

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
        acc = init
        for partial in self._run_chunks(chunks, loop, kernel, captures, dims,
                                        combine, init):
            acc = combine(acc, partial)
        return float(acc)


THREADS = register_backend(ThreadsBackend())
