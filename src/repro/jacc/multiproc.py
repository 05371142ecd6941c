"""Multiprocess back end: intra-node scale-out past the GIL.

The paper's outermost parallel axis is MPI ranks over *runs*; inside a
rank the CPU engines are threads (GIL-serialized for Python bodies) or
the vectorized device proxy.  This back end adds the missing CPU
engine: the flattened index space is cut into a **fixed chunk grid**
and executed on a persistent ``ProcessPoolExecutor``
(:data:`repro.jacc.workers.GLOBAL_POOL`), with array captures shipped
through ``multiprocessing.shared_memory`` instead of pickles.

Determinism is the design driver, in three pieces:

* **Fixed decomposition.**  The chunk grid is a function of the index
  space extent only (:func:`chunk_grid`), never of the worker count —
  so *what* is computed per chunk is invariant to how many processes
  execute the chunks.

* **Ordered deposit replay (histograms).**  Scalar kernels accumulate
  through ``Hist3.push``, whose float adds are non-associative; naive
  per-worker partial histograms would drift in the last ulp and depend
  on the partition.  Instead workers substitute a
  :class:`RecordingHist3` that logs ``(flat_bin, weight, err_sq)``
  in execution order, and the parent replays the logs chunk-by-chunk
  in ascending chunk order with ``np.add.at`` (unbuffered,
  element-order-sequential).  Ascending flat chunks *are* the serial
  backend's row-major iteration order, so the per-bin fold is exactly
  the serial fold: **bit-identical to the serial oracle for any worker
  count**.

* **Deterministic pairwise tree reduction (scalars).**
  ``parallel_reduce`` computes one partial per fixed chunk and the
  parent combines them with :func:`pairwise_tree`: adjacent pairs are
  folded level by level, the odd tail carried, in a combine order
  fixed by the chunk grid ⇒ bit-identical results regardless of worker
  count.  ``max``/``min`` are exactly associative, so the tree equals
  the serial fold bit-for-bit; ``+`` is deterministic and
  worker-count-invariant (and exact for integer-valued floats).

Capture sanitization: kernel *element* bodies must be module-level
functions (picklable by reference); ndarray captures travel via shared
memory and are copied back after the launch (so disjoint-write kernels
behave exactly as on the threads back end); objects whose class sets
``__jacc_shareable__ = False`` (caches, cache entries) are dropped to
``None`` — element bodies never touch them; anything else is pickled.
With one worker the launch runs in-process over the same chunk grid,
so results are identical either way.
"""

from __future__ import annotations

import itertools
import os
import pickle
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.jacc.backend import Backend, BackendError, REDUCE_OPS, register_backend
from repro.jacc.jit import GLOBAL_JIT
from repro.jacc.kernels import Captures, Kernel, normalize_dims
from repro.jacc.workers import GLOBAL_POOL, PROCS_ENV, resolve_workers
from repro.util import trace as _trace

#: fixed number of chunks the flattened index space is cut into; a
#: function of nothing but this constant and the extent, so per-chunk
#: work (and therefore every reduction's combine tree) is invariant to
#: the worker count
DEFAULT_CHUNKS = 16


# ---------------------------------------------------------------------------
# deterministic building blocks (shared with the intra-run shard layer)
# ---------------------------------------------------------------------------

def chunk_grid(total: int, n_chunks: int = DEFAULT_CHUNKS) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` windows of the flattened index space.

    Depends only on ``total`` and ``n_chunks`` — never on the worker
    count — with any remainder spread over the leading chunks (the same
    convention as :func:`repro.mpi.decomposition.rank_range`).
    """
    if total <= 0:
        return []
    n = min(int(total), int(n_chunks))
    step, rem = divmod(int(total), n)
    out: List[Tuple[int, int]] = []
    start = 0
    for c in range(n):
        size = step + (1 if c < rem else 0)
        out.append((start, start + size))
        start += size
    return out


def pairwise_tree(values: Sequence[Any], combine: Callable[[Any, Any], Any]) -> Any:
    """Fold ``values`` with a fixed pairwise tree.

    Level by level, adjacent pairs are combined left to right and an
    odd tail is carried to the next level.  The combine order is a pure
    function of ``len(values)``, which is what makes tree-combined
    partials reproducible: as long as the *partials* are fixed (fixed
    chunk grid), the result is bit-identical no matter how many workers
    produced them or in what order they finished.
    """
    vals = list(values)
    if not vals:
        raise BackendError("pairwise_tree of no values")
    while len(vals) > 1:
        nxt = [combine(vals[i], vals[i + 1]) for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


# ---------------------------------------------------------------------------
# worker-side histogram stand-in
# ---------------------------------------------------------------------------

def _is_histogram(value: Any) -> bool:
    """Duck-typed Hist3 detection (kept structural so the jacc layer
    does not import :mod:`repro.core`)."""
    return (
        hasattr(value, "push")
        and hasattr(value, "grid")
        and hasattr(value, "flat_signal")
    )


class RecordingHist3:
    """Order-preserving deposit recorder standing in for ``Hist3``.

    Implements the accumulation surface kernel bodies use — ``push``
    (element bodies; the grid's scalar binning rule, as ``Hist3.push``)
    and ``push_flat`` (batch bodies, which bin once) — but instead of
    touching a signal array it records ``(flat_bin, weight, err_sq)`` in
    call order: batch deposits as whole arrays, scalar pushes as a run
    of Python values packed into one array at the next array deposit or
    harvest.  The parent replays the log with ``np.add.at``, which
    applies unbuffered element by element: the per-bin accumulation
    order, and therefore every floating-point rounding step, matches an
    in-place execution of the same index window exactly.
    """

    def __init__(self, grid: Any, track_errors: bool) -> None:
        self.grid = grid
        self.track_errors = bool(track_errors)
        self._parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._idx: List[int] = []
        self._w: List[float] = []
        self._e: List[float] = []

    def push(self, c0: float, c1: float, c2: float,
             weight: float, err_sq: float = 0.0) -> bool:
        flat = self.grid.flat_bin(c0, c1, c2)
        if flat < 0:
            return False
        self._idx.append(flat)
        self._w.append(float(weight))
        if self.track_errors:
            self._e.append(float(err_sq))
        return True

    def push_flat(self, flat: np.ndarray, weights: np.ndarray,
                  err_sq: Optional[np.ndarray] = None, *,
                  scatter_impl: str = "atomic") -> None:
        self._pack_scalars()
        # copies: the log outlives the caller's buffers
        flat = np.array(flat, dtype=np.int64).ravel()
        if flat.size == 0:
            return
        if not self.track_errors:
            err = np.empty(0)
        elif err_sq is None:
            err = np.zeros(flat.size)
        else:
            err = np.array(err_sq, dtype=np.float64).ravel()
        self._parts.append(
            (flat, np.array(weights, dtype=np.float64).ravel(), err))

    def _pack_scalars(self) -> None:
        if self._idx:
            self._parts.append((np.array(self._idx, dtype=np.int64),
                                np.array(self._w, dtype=np.float64),
                                np.array(self._e, dtype=np.float64)))
            self._idx, self._w, self._e = [], [], []

    def harvest(self) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """The deposit log as dense arrays (idx, weights, err_sq|None)."""
        self._pack_scalars()
        if len(self._parts) == 1:
            idx, w, e = self._parts[0]
        elif self._parts:
            idx, w, e = (np.concatenate(col) for col in zip(*self._parts))
        else:
            idx, w, e = (np.empty(0, dtype=np.int64), np.empty(0),
                         np.empty(0))
        return idx, w, (e if self.track_errors else None)

    def harvest_reset(self) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Harvest the log and clear it — the shard executor calls this
        at every outer-index boundary to get op-segmented logs whose
        interleaved replay reconstructs the in-place deposit order."""
        out = self.harvest()
        self._parts = []
        return out


def replay_deposits(
    hist: Any, logs: Sequence[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]
) -> None:
    """Apply deposit logs in the given order (``np.add.at`` semantics)."""
    flat_signal = hist.flat_signal
    flat_err = getattr(hist, "flat_error_sq", None)
    for idx, w, e in logs:
        if idx.size == 0:
            continue
        np.add.at(flat_signal, idx, w)
        if flat_err is not None and e is not None:
            np.add.at(flat_err, idx, e)


# ---------------------------------------------------------------------------
# capture transport (parent side)
# ---------------------------------------------------------------------------

def _shareable(value: Any) -> bool:
    return getattr(type(value), "__jacc_shareable__", True)


class _Transport:
    """One launch's shared-memory blocks + capture payload."""

    def __init__(self, captures: Captures) -> None:
        self.payload: Dict[str, Tuple[str, ...]] = {}
        self.blocks: List[shared_memory.SharedMemory] = []
        self.writebacks: List[Tuple[np.ndarray, shared_memory.SharedMemory,
                                    Tuple[int, ...], str]] = []
        self.hists: Dict[str, Any] = {}
        for attr, value in vars(captures).items():
            if _is_histogram(value):
                self.hists[attr] = value
                self.payload[attr] = (
                    "hist", value.grid,
                    getattr(value, "flat_error_sq", None) is not None,
                )
            elif isinstance(value, np.ndarray) and value.nbytes > 0 \
                    and not value.dtype.hasobject:
                shm = shared_memory.SharedMemory(create=True, size=value.nbytes)
                view = np.ndarray(value.shape, dtype=value.dtype, buffer=shm.buf)
                np.copyto(view, value)
                self.blocks.append(shm)
                self.payload[attr] = ("shm", shm.name, value.shape, value.dtype.str)
                if value.flags.writeable:
                    self.writebacks.append((value, shm, value.shape, value.dtype.str))
            elif not _shareable(value):
                self.payload[attr] = ("drop",)
            else:
                self.payload[attr] = ("obj", value)

    def write_back(self) -> None:
        for original, shm, shape, dtype in self.writebacks:
            original[...] = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)

    def close(self) -> None:
        for shm in self.blocks:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self.blocks.clear()


# ---------------------------------------------------------------------------
# cross-process trace context (schema v3)
# ---------------------------------------------------------------------------

#: per-worker-process task counter: one worker pid hosts many
#: short-lived tracers (one per chunk task), each restarting span_id at
#: 0 — the counter keeps their uid namespaces distinct
_WORKER_TASK_SEQ = itertools.count()


def _trace_ctx() -> Optional[Dict[str, Any]]:
    """The context a traced launch ships with every chunk task (None
    with tracing off — the untraced task payload is byte-identical to
    pre-v3)."""
    tracer = _trace.active_tracer()
    if not tracer.enabled:
        return None
    current = tracer.current_span()
    return {
        "campaign_id": tracer.campaign_id,
        "parent_uid": (current.uid if current is not None
                       else _trace.remote_parent()),
        "rank": _trace.current_rank(),
        "label": tracer.label,
        "profile": tracer.profile,
    }


def _worker_traced(task: Dict[str, Any], body: Callable[[], Any]) -> Any:
    """Run a chunk body under the task's trace context, if any.

    With context, the worker opens a ``chunk:<kernel>`` span under the
    dispatching span (via ``parent_uid`` — span ids never cross
    processes) in a fresh campaign tracer and returns an envelope the
    parent unwraps with :func:`_unwrap_traced`; without, the return
    value is the body's, untouched.
    """
    ctx = task.get("trace")
    if not ctx:
        return body()
    tracer = _trace.Tracer(
        label=ctx["label"], profile=ctx["profile"],
        campaign_id=ctx["campaign_id"],
        uid_ns=f"{os.getpid()}.{next(_WORKER_TASK_SEQ)}",
    )
    with _trace.rank_scope(ctx["rank"]), \
            _trace.parent_scope(ctx["parent_uid"]):
        with tracer.span(
            f"chunk:{task['kernel']}", kind="chunk",
            chunk=int(task.get("chunk", 0)),
            start=int(task["start"]), stop=int(task["stop"]),
            backend="multiprocess",
        ):
            payload = body()
    return {"__traced__": True, "payload": payload,
            "records": tracer.records,
            "epoch_unix": tracer.epoch_unix}


def _unwrap_traced(result: Any, tracer: "_trace.Tracer") -> Any:
    """Adopt a traced worker envelope into the parent tracer."""
    if isinstance(result, dict) and result.get("__traced__"):
        tracer.adopt_records(result["records"],
                             epoch_unix=result["epoch_unix"])
        return result["payload"]
    return result


# ---------------------------------------------------------------------------
# worker side (module-level: picklable under any start method)
# ---------------------------------------------------------------------------

def _open_captures(
    payload: Dict[str, Tuple[str, ...]],
) -> Tuple[Captures, List[shared_memory.SharedMemory], Dict[str, RecordingHist3]]:
    ctx = Captures()
    opened: List[shared_memory.SharedMemory] = []
    hists: Dict[str, RecordingHist3] = {}
    for attr, spec in payload.items():
        kind = spec[0]
        if kind == "hist":
            rec = RecordingHist3(spec[1], spec[2])
            hists[attr] = rec
            setattr(ctx, attr, rec)
        elif kind == "shm":
            shm = shared_memory.SharedMemory(name=spec[1])
            opened.append(shm)
            setattr(
                ctx, attr,
                np.ndarray(spec[2], dtype=np.dtype(spec[3]), buffer=shm.buf),
            )
        elif kind == "drop":
            setattr(ctx, attr, None)
        else:
            setattr(ctx, attr, spec[1])
    return ctx, opened, hists


def _close_worker_shm(opened: List[shared_memory.SharedMemory]) -> None:
    """Close worker-side attachments; by the time this runs every numpy
    view into the buffers must have been dropped (BufferError otherwise,
    in which case the segment stays mapped until the worker exits)."""
    for shm in opened:
        try:
            shm.close()
        except BufferError:  # pragma: no cover - defensive
            pass


def _run_for_chunk(task: Dict[str, Any]) -> Any:
    """Execute one flat chunk of a ``parallel_for`` in a worker process;
    return each histogram capture's deposit log (None without any)."""
    def body() -> Optional[Dict[str, Tuple]]:
        ctx, opened, hists = _open_captures(task["captures"])
        try:
            loop = GLOBAL_JIT.loop_for_flat(
                task["kernel"], "multiprocess", task["ndim"]
            )
            loop(task["element"], ctx, task["dims"], task["start"],
                 task["stop"])
            if not hists:
                return None
            return {attr: rec.harvest() for attr, rec in hists.items()}
        finally:
            # Drop every reference into the shared buffers (the Captures
            # holds the views) before closing the attachments.
            ctx = None  # noqa: F841
            _close_worker_shm(opened)

    return _worker_traced(task, body)


def _run_reduce_chunk(task: Dict[str, Any]) -> Any:
    """Execute one flat chunk of a ``parallel_reduce`` in a worker."""
    def body() -> float:
        combine, init = REDUCE_OPS[task["op"]]
        ctx, opened, _hists = _open_captures(task["captures"])
        try:
            loop = GLOBAL_JIT.loop_reduce_flat(
                task["kernel"], "multiprocess", task["ndim"]
            )
            return float(
                loop(task["element"], ctx, task["dims"], combine, init,
                     task["start"], task["stop"])
            )
        finally:
            ctx = None  # noqa: F841
            _close_worker_shm(opened)

    return _worker_traced(task, body)


# ---------------------------------------------------------------------------
# the back end
# ---------------------------------------------------------------------------

def _require_picklable(kernel: Kernel) -> None:
    """Refuse, before any task is submitted, an element body the workers
    could not receive: bodies travel to the pool by reference."""
    try:
        pickle.dumps(kernel.element)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise BackendError(
            f"kernel {kernel.name!r}: its element body cannot be pickled "
            f"for the multiprocess worker pool ({exc}); define it at "
            "module level"
        ) from exc


class MultiprocessBackend(Backend):
    name = "multiprocess"
    device_kind = "cpu"

    def __init__(
        self,
        n_workers: Optional[int] = None,
        *,
        n_chunks: int = DEFAULT_CHUNKS,
    ) -> None:
        self._explicit_workers = n_workers
        self._n_chunks = int(n_chunks)
        if self._n_chunks < 1:
            raise BackendError(f"n_chunks must be >= 1, got {n_chunks}")

    @property
    def n_workers(self) -> int:
        """Effective worker count (``REPRO_NUM_PROCS`` or CPU count)."""
        return resolve_workers(PROCS_ENV, self._explicit_workers)

    # -- parallel_for ----------------------------------------------------
    def run_parallel_for(
        self, dims: int | Tuple[int, ...], kernel: Kernel, captures: Captures
    ) -> None:
        dims = normalize_dims(dims)
        total = 1
        for d in dims:
            total *= d
        chunks = chunk_grid(total, self._n_chunks)
        if not chunks:
            return
        if self.n_workers == 1:
            # In-process degenerate pool: the same flat loop over the
            # full range — identical to replaying the chunk logs in
            # ascending order, so results match the multi-worker path.
            loop = GLOBAL_JIT.loop_for_flat(kernel.name, self.name, len(dims))
            loop(kernel.element, captures, dims, 0, total)
            return
        _require_picklable(kernel)
        transport = _Transport(captures)
        trace_ctx = _trace_ctx()
        tracer = _trace.active_tracer()
        try:
            tasks = [
                dict(
                    kernel=kernel.name,
                    element=kernel.element,
                    ndim=len(dims),
                    dims=dims,
                    start=start,
                    stop=stop,
                    chunk=c,
                    captures=transport.payload,
                    **({"trace": trace_ctx} if trace_ctx else {}),
                )
                for c, (start, stop) in enumerate(chunks)
            ]
            try:
                pool = GLOBAL_POOL.executor(self.n_workers)
                futures = [pool.submit(_run_for_chunk, t) for t in tasks]
                results = [_unwrap_traced(f.result(), tracer)
                           for f in futures]
            except BrokenProcessPool as exc:
                GLOBAL_POOL.dispose()
                raise BackendError(
                    "multiprocess worker pool broke mid-launch "
                    f"(kernel {kernel.name!r}); pool disposed, next launch "
                    "starts fresh"
                ) from exc
            if transport.hists:
                # ascending chunk order == serial row-major order: the
                # replayed per-bin fold is bit-identical to the oracle
                for attr, hist in transport.hists.items():
                    replay_deposits(
                        hist, [res[attr] for res in results if res is not None]
                    )
            transport.write_back()
        finally:
            transport.close()

    # -- parallel_reduce -------------------------------------------------
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
        total = 1
        for d in dims:
            total *= d
        chunks = chunk_grid(total, self._n_chunks)
        if not chunks:
            return float(init)
        if self.n_workers == 1:
            # Same fixed chunk grid + same tree as the multi-worker
            # path, evaluated in-process: worker-count invariance by
            # construction.
            loop = GLOBAL_JIT.loop_reduce_flat(kernel.name, self.name, len(dims))
            partials = [
                float(loop(kernel.element, captures, dims, combine, init,
                           start, stop))
                for start, stop in chunks
            ]
            return float(pairwise_tree(partials, combine))
        _require_picklable(kernel)
        transport = _Transport(captures)
        trace_ctx = _trace_ctx()
        tracer = _trace.active_tracer()
        try:
            tasks = [
                dict(
                    kernel=kernel.name,
                    element=kernel.element,
                    ndim=len(dims),
                    dims=dims,
                    start=start,
                    stop=stop,
                    chunk=c,
                    op=op,
                    captures=transport.payload,
                    **({"trace": trace_ctx} if trace_ctx else {}),
                )
                for c, (start, stop) in enumerate(chunks)
            ]
            try:
                pool = GLOBAL_POOL.executor(self.n_workers)
                futures = [pool.submit(_run_reduce_chunk, t) for t in tasks]
                partials = [float(_unwrap_traced(f.result(), tracer))
                            for f in futures]
            except BrokenProcessPool as exc:
                GLOBAL_POOL.dispose()
                raise BackendError(
                    "multiprocess worker pool broke mid-launch "
                    f"(kernel {kernel.name!r}); pool disposed, next launch "
                    "starts fresh"
                ) from exc
            return float(pairwise_tree(partials, combine))
        finally:
            transport.close()


MULTIPROC = register_backend(MultiprocessBackend())
