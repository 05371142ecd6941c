"""Intra-run shard executor: the second level of the hierarchy.

The paper's Algorithm 1 parallelizes *across* runs (one MPI rank per
block of files), which caps strong scaling at the run count — 36 for
Benzil, 22 for Bixbyite.  This module adds the level below: a rank that
owns a run fans its MDNorm out over **detector ranges** and its BinMD
out over **event ranges** (the contiguous shards planned by
:func:`repro.mpi.decomposition.shard_ranges`), executed on the node's
persistent process pool (:data:`repro.jacc.workers.GLOBAL_POOL`) with
array captures in ``multiprocessing.shared_memory``.

One kernel body on every path (DESIGN.md §6f).  A shard runs the
kernel's **batch** body — the same ``_mdnorm_batch`` /
``_bin_events_batch`` the ``vectorized`` back end launches in memory —
one symmetry op at a time over its own contiguous inner range, against
a :class:`~repro.jacc.multiproc.RecordingHist3` that records each
deposit array instead of adding it.  Float addition is
non-associative, so per-shard partial histograms would drift in the
last ulp and depend on the shard count; shards therefore return one
deposit log *per op*, and the parent replays the logs with
``np.add.at`` (unbuffered, element-order-sequential) interleaved as

    for op in ops: for shard in ascending order: replay(log[shard][op])

Both batch bodies deposit op-major and, within an op, in ascending
inner index, with every lane computed independently of the others, so
this replay is exactly the in-memory ``vectorized`` deposit order: the
sharded, out-of-core and stolen results are **bit-identical to the
in-memory ``vectorized`` result for every shard count and every worker
count**, including the in-process ``workers=1`` degenerate pool (which
runs the same record/replay path).  The in-memory
:func:`~repro.core.binmd.bin_events` / :func:`~repro.core.mdnorm.mdnorm`
entry points stay: they own the geometry-cache warm paths.

Fault model: a shard that dies with the pool (worker killed, e.g. OOM)
surfaces as :class:`ShardExecutionError` — an ``OSError`` subclass, so
the PR 3 run-level retry/quarantine protocol treats it as transient,
rebuilds the pool, and re-executes the *run*; checkpoints stay per-run
(a run's delta is only saved after all its shards replayed), so
kill-one-shard + resume is bit-identical to an uninterrupted campaign.
Each shard dispatch passes a :func:`repro.util.faults.fault_point`
(sites ``shard.mdnorm`` / ``shard.binmd``) and reports completion
through ``on_shard`` so the PR 4 monitor can heartbeat per shard.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.binmd import DEFAULT_TILE, _bin_events_batch
from repro.core.geom_cache import GeomCache
from repro.core.hist3 import Hist3
from repro.core.mdnorm import _mdnorm_batch, _mdnorm_captures
from repro.jacc.kernels import Captures
from repro.jacc.multiproc import (
    RecordingHist3,
    _close_worker_shm,
    _open_captures,
    _Transport,
    replay_deposits,
)
from repro.jacc.workers import GLOBAL_POOL, PROCS_ENV, parse_worker_count, resolve_workers
from repro.mpi.decomposition import (
    lazy_table_ranges,
    range_stored_nbytes,
    shard_ranges,
)
from repro.nexus.corrections import FluxSpectrum
from repro.nexus.events import EventTable
from repro.nexus.tiles import LazyEventTable, read_window
from repro.util import cancel as _cancel
from repro.util import faults as _faults
from repro.util import trace as _trace
from repro.util.validation import require

#: one deposit log: (flat_idx, weights, err_sq|None)
Log = Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]


class ShardExecutionError(OSError):
    """A shard task died with its worker (pool broke mid-run).

    Subclasses ``OSError`` deliberately: the PR 3 recovery taxonomy
    (:func:`repro.util.faults.default_retryable`) treats OS-level
    resource failures as transient, so a broken pool triggers the
    run-level retry — the pool is disposed first, so the retry gets a
    fresh one.
    """


@dataclass(frozen=True)
class ShardConfig:
    """How to fan one run out across local shards.

    Parameters
    ----------
    n_shards:
        Number of contiguous shards to cut the inner axis into
        (detectors for MDNorm, events for BinMD).  ``1`` still runs
        the shard machinery (record + replay) — results are identical
        for every value, only the fan-out width changes.
    workers:
        Process-pool size; ``None`` resolves ``REPRO_NUM_PROCS`` /
        the CPU count (validated by the shared parser).  ``1`` executes
        the shards in-process through the same record/replay path.
    """

    n_shards: int
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        parse_worker_count(self.n_shards, source="n_shards")
        if self.workers is not None:
            parse_worker_count(self.workers, source="shard workers")

    @property
    def effective_workers(self) -> int:
        return resolve_workers(PROCS_ENV, self.workers)

    @classmethod
    def from_options(
        cls, shards: Optional[int], workers: Optional[int] = None
    ) -> Optional["ShardConfig"]:
        """CLI adapter: ``--shards N [--shard-workers W]``; None when
        sharding was not requested."""
        if shards is None:
            return None
        return cls(n_shards=int(shards), workers=workers)


# ---------------------------------------------------------------------------
# the shard body: a stage's batch body, one op at a time, recorded
# ---------------------------------------------------------------------------

#: per stage: its batch body, then the captures cut along the inner
#: (shard) axis and those cut along the op axis, each -> its axis
_STAGES: Dict[str, Tuple[Callable[..., None], Dict[str, int], Dict[str, int]]] = {
    "binmd": (_bin_events_batch, {"events": 0}, {"transforms": 0}),
    "mdnorm": (
        _mdnorm_batch,
        {"solid_angles": 0, "directions": 1, "k_lo": 1, "k_hi": 1},
        {"directions": 0, "k_lo": 0, "k_hi": 0},
    ),
}


def _cut(captures: Captures, fields: Dict[str, int], lo: int, hi: int) -> Captures:
    """``captures`` with each named array cut to ``[lo, hi)`` along its
    axis (views, no copies)."""
    cut = {
        name: getattr(captures, name)[(slice(None),) * axis + (slice(lo, hi),)]
        for name, axis in fields.items()
    }
    return Captures(**{**vars(captures), **cut})


def _record_range(op_name: str, captures: Captures) -> List[Log]:
    """Run ``op_name``'s batch body one op at a time over ``captures``
    (already cut to one inner range; ``captures.hist`` a recorder) and
    return one deposit log per op."""
    batch, inner, outer = _STAGES[op_name]
    name, axis = next(iter(inner.items()))
    n_inner = int(getattr(captures, name).shape[axis])
    n_outer = int(getattr(captures, next(iter(outer))).shape[0])
    logs: List[Log] = []
    for n in range(n_outer):
        if n_inner:
            batch(_cut(captures, outer, n, n + 1), (1, n_inner))
        logs.append(captures.hist.harvest_reset())
    return logs


def _shard_worker(task: Dict[str, Any]) -> List[Log]:
    """Record one range in a pool worker."""
    ctx, opened, _hists = _open_captures(task["captures"])
    try:
        ref = task["window_ref"]
        if ref is not None:
            # shard-parallel I/O: each worker decodes only its own
            # chunks, straight from the file — the table never exists
            # in any process
            ctx.events = read_window(*ref)
        return _record_range(task["op"], ctx)
    finally:
        ctx = None  # noqa: F841 - drop shm views before closing buffers
        _close_worker_shm(opened)


# ---------------------------------------------------------------------------
# shard contexts: one run-stage's captures + planned ranges, executed
# range by range by any executor (the static fan-out below, the
# stealing executor in repro.mpi.stealing)
# ---------------------------------------------------------------------------

@dataclass
class ShardContext:
    """Everything needed to execute any planned range of one run-stage.

    ``captures.hist`` is the *target* histogram: executing a range never
    touches it (ranges record deposit logs), only
    :func:`replay_shard_logs` folds the logs into it — in planned-index
    order, which is what makes results independent of which rank
    executed which range, in what order.  The captures are safe to
    share across rank threads: every execution records into a fresh
    recorder, and a lazy table's tile cache is locked.
    """

    op_name: str
    captures: Captures
    n_outer: int
    #: planned contiguous ranges of the inner axis (index = planned id)
    ranges: List[Tuple[int, int]]
    lazy_events: Optional[LazyEventTable] = None

    @property
    def n_ranges(self) -> int:
        return len(self.ranges)

    @property
    def n_inner(self) -> int:
        return self.ranges[-1][1] if self.ranges else 0

    @property
    def track_errors(self) -> bool:
        return getattr(self.captures.hist, "flat_error_sq", None) is not None


def mdnorm_ranges(
    n_det: int, n_ops: int, n_shards: int
) -> Tuple[List[Tuple[int, int]], List[float]]:
    """MDNorm's detector-range plan and per-range lanes."""
    ranges = shard_ranges(n_det, n_shards)
    return ranges, [float(n_ops * (b - a)) for a, b in ranges]


def binmd_ranges(
    events: EventTable | LazyEventTable | np.ndarray, n_ops: int, n_shards: int
) -> Tuple[List[Tuple[int, int]], List[float]]:
    """BinMD's event-range plan and per-range weights.

    Lazy tables plan chunk-aligned, budget-capped ranges weighted by
    stored chunk bytes (:func:`repro.mpi.decomposition.lazy_table_ranges`);
    in-memory tables cut by count and weigh lanes.
    """
    if isinstance(events, LazyEventTable):
        ranges = lazy_table_ranges(events, n_shards)
        return ranges, range_stored_nbytes(events, ranges)
    data = events.data if isinstance(events, EventTable) else np.asarray(events)
    ranges = shard_ranges(int(data.shape[0]), n_shards)
    return ranges, [float(n_ops * (b - a)) for a, b in ranges]


def mdnorm_shard_context(
    hist: Hist3,
    transforms: np.ndarray,
    det_directions: np.ndarray,
    solid_angles: np.ndarray,
    flux: FluxSpectrum,
    momentum_band: tuple[float, float],
    *,
    n_shards: int,
    charge: float = 1.0,
    backend: Optional[str] = None,
    sort_impl: str = "library",
    cache: Optional[GeomCache] = None,
    cache_tag: Optional[str] = None,
    op_span: Any = None,
) -> ShardContext:
    """Plan one run's MDNorm as detector-range shard tasks.

    The geometry stage runs here, parent-side and cache-aware, so warm
    reruns skip it exactly as the in-memory path does (ranges never
    touch the cache).
    """
    transforms = np.asarray(transforms, dtype=np.float64)
    det_directions = np.asarray(det_directions, dtype=np.float64)
    captures = _mdnorm_captures(
        hist, transforms, det_directions,
        np.asarray(solid_angles, dtype=np.float64), flux, momentum_band,
        charge=charge, backend=backend, cache=cache, cache_tag=cache_tag,
        deposit_plan=False, sort_impl=sort_impl, op_span=op_span,
    )
    n_ops = int(transforms.shape[0])
    ranges, _ = mdnorm_ranges(int(det_directions.shape[0]), n_ops, n_shards)
    return ShardContext("mdnorm", captures, n_ops, ranges)


def binmd_shard_context(
    hist: Hist3,
    events: EventTable | LazyEventTable | np.ndarray,
    transforms: np.ndarray,
    *,
    n_shards: int,
) -> ShardContext:
    """Plan one run's BinMD as event-range shard tasks (see
    :func:`binmd_ranges`).  A lazy table's captures carry no events:
    each range reads its own bounded window."""
    transforms = np.asarray(transforms, dtype=np.float64)
    require(transforms.ndim == 3 and transforms.shape[1:] == (3, 3),
            "transforms must be (n_ops, 3, 3)")
    n_ops = int(transforms.shape[0])
    ranges, _ = binmd_ranges(events, n_ops, n_shards)
    captures = Captures(hist=hist, transforms=transforms, tile=DEFAULT_TILE,
                        scatter_impl="atomic")
    if isinstance(events, LazyEventTable):
        return ShardContext("binmd", captures, n_ops, ranges,
                            lazy_events=events)
    captures.events = (events.data if isinstance(events, EventTable)
                       else np.asarray(events))
    return ShardContext("binmd", captures, n_ops, ranges)


def execute_shard_range(
    ctx: ShardContext,
    index: int,
    *,
    workers: int = 1,
    run: Optional[int] = None,
) -> List[Log]:
    """Execute one planned range of a context; return its deposit logs.

    The one shard-execution function of every executor.  No replay
    happens here — callers collect logs (possibly from ranges executed
    by different ranks, out of order) and fold them with
    :func:`replay_shard_logs` once every planned range has reported.
    ``workers > 1`` ships the range to the node-local process pool —
    only the captures cut to the range travel, and a lazy range decodes
    its own chunks straight from the file
    (:func:`repro.nexus.tiles.read_window`); ``workers == 1`` runs
    in-process, a lazy range reading through the run's budgeted tile
    cache.
    """
    a, b = ctx.ranges[index]
    _, inner, _ = _STAGES[ctx.op_name]
    lazy = ctx.lazy_events
    if workers == 1:
        if lazy is None:
            captures = _cut(ctx.captures, inner, a, b)
        else:
            captures = Captures(**{**vars(ctx.captures),
                                   "events": lazy.window(a, b)})
        captures.hist = RecordingHist3(ctx.captures.hist.grid, ctx.track_errors)
        return _record_range(ctx.op_name, captures)
    if lazy is None:
        captures, window_ref = _cut(ctx.captures, inner, a, b), None
    else:
        captures = ctx.captures
        window_ref = (lazy.path, lazy.dataset_path, a, b)
    transport = _Transport(captures)
    try:
        task = dict(op=ctx.op_name, captures=transport.payload,
                    window_ref=window_ref)
        try:
            pool = GLOBAL_POOL.executor(workers)
            return pool.submit(_shard_worker, task).result()
        except BrokenProcessPool as exc:
            GLOBAL_POOL.dispose()
            raise ShardExecutionError(
                f"shard pool broke during {ctx.op_name} "
                f"(run={run}, range={index}); pool disposed"
            ) from exc
    finally:
        transport.close()


def replay_shard_logs(
    ctx: ShardContext, per_range: Sequence[List[Log]]
) -> None:
    """Fold per-range deposit logs into ``ctx.captures.hist`` in the
    in-memory order (op-major, planned ranges ascending), so the result
    is bit-identical to an in-memory ``vectorized`` execution of the
    whole run-stage regardless of who executed what."""
    require(len(per_range) == ctx.n_ranges,
            f"{ctx.op_name}: {len(per_range)} log sets for "
            f"{ctx.n_ranges} planned ranges")
    for n in range(ctx.n_outer):
        replay_deposits(ctx.captures.hist, [logs[n] for logs in per_range])


def _run_shards(
    ctx: ShardContext,
    shards: ShardConfig,
    *,
    run: Optional[int] = None,
    on_shard: Optional[Callable[[int, int], None]] = None,
) -> None:
    """The static executor: every planned range of ``ctx`` through
    :func:`execute_shard_range`, then the ordered replay into
    ``ctx.captures.hist``.  With a pool, one dispatch thread per worker
    keeps ``workers`` ranges in flight; logs are collected in planned
    order either way."""
    op_name, n_ranges = ctx.op_name, ctx.n_ranges
    workers = shards.effective_workers
    tracer = _trace.active_tracer()
    fault_site = f"shard.{op_name}"
    cancel = _cancel.current_cancel()

    def execute(s: int) -> List[Log]:
        return execute_shard_range(ctx, s, workers=workers, run=run)

    with tracer.span(
        f"{op_name}.shards",
        kind="shard_fanout",
        op=op_name,
        n_shards=int(n_ranges),
        workers=int(workers),
        n_outer=int(ctx.n_outer),
        n_inner=int(ctx.n_inner),
        **({"run": int(run)} if run is not None else {}),
    ):
        dispatch = None
        if workers > 1 and n_ranges:
            GLOBAL_POOL.executor(workers)  # fork before any thread starts
            dispatch = ThreadPoolExecutor(min(workers, n_ranges))
            pending = dispatch.map(execute, range(n_ranges))
        else:
            pending = map(execute, range(n_ranges))
        per_range: List[List[Log]] = []
        try:
            for s, (a, b) in enumerate(ctx.ranges):
                if cancel is not None:
                    # between shards: deposits so far are discarded and
                    # the whole run recomputes on resume (bit-identical)
                    cancel.check(f"{op_name} shard fan-out")
                with tracer.span(
                    f"shard:{op_name}", kind="shard", shard=int(s),
                    lanes=int(ctx.n_outer * (b - a)),
                ):
                    _faults.fault_point(fault_site, shard=s, run=run)
                    per_range.append(next(pending))
                if on_shard is not None:
                    on_shard(s, n_ranges)
        finally:
            if dispatch is not None:
                dispatch.shutdown(cancel_futures=True)
        replay_shard_logs(ctx, per_range)
        tracer.count(f"{op_name}.shard_tasks", n_ranges)


# ---------------------------------------------------------------------------
# sharded MDNorm / BinMD entry points
# ---------------------------------------------------------------------------

def sharded_mdnorm(
    hist: Hist3,
    transforms: np.ndarray,
    det_directions: np.ndarray,
    solid_angles: np.ndarray,
    flux: FluxSpectrum,
    momentum_band: tuple[float, float],
    *,
    shards: ShardConfig,
    charge: float = 1.0,
    backend: Optional[str] = None,
    sort_impl: str = "library",
    cache: Optional[GeomCache] = None,
    cache_tag: Optional[str] = None,
    run: Optional[int] = None,
    on_shard: Optional[Callable[[int, int], None]] = None,
) -> Hist3:
    """MDNorm for one run, fanned out over detector shards.

    Same contract as :func:`repro.core.mdnorm.mdnorm` (accumulates into
    ``hist`` in place) executed as ``shards.n_shards`` detector-range
    tasks that run the batch body; the result is bit-identical to
    ``mdnorm(..., backend="vectorized")`` for every shard/worker count
    (see the module docstring).  ``backend`` runs only the geometry
    pre-pass, whose integer max is backend-independent.
    """
    transforms = np.asarray(transforms, dtype=np.float64)
    n_det = int(np.shape(det_directions)[0])
    tracer = _trace.active_tracer()
    with tracer.span(
        "mdnorm",
        kind="op",
        backend="sharded",
        n_ops=int(transforms.shape[0]),
        n_det=n_det,
        n_shards=int(shards.n_shards),
    ) as op_span:
        ctx = mdnorm_shard_context(
            hist, transforms, det_directions, solid_angles, flux,
            momentum_band, n_shards=shards.n_shards, charge=charge,
            backend=backend, sort_impl=sort_impl, cache=cache,
            cache_tag=cache_tag, op_span=op_span,
        )
        _run_shards(ctx, shards, run=run, on_shard=on_shard)
        tracer.count("mdnorm.trajectories", int(transforms.shape[0]) * n_det)
    return hist


def sharded_binmd(
    hist: Hist3,
    events: EventTable | LazyEventTable | np.ndarray,
    transforms: np.ndarray,
    *,
    shards: ShardConfig,
    run: Optional[int] = None,
    on_shard: Optional[Callable[[int, int], None]] = None,
) -> Hist3:
    """BinMD for one run, fanned out over event shards.

    Same contract as :func:`repro.core.binmd.bin_events`; contiguous
    event ranges are balanced by construction (events are the unit of
    work), and the op-segmented replay makes the result bit-identical
    to ``bin_events(..., backend="vectorized")`` for every shard/worker
    count.

    With a :class:`~repro.nexus.tiles.LazyEventTable` the run executes
    **out-of-core**: shard boundaries are fed from the file's chunk
    metadata (snapped to chunk boundaries, balanced by stored chunk
    bytes, capped so no window decodes more rows than the table's
    memory budget), and each shard materializes only its own window —
    via the run's tile cache in-process, or by decoding its own chunks
    from the file in pool workers.  The batch body bins a window exactly
    as it bins the same rows of the full table, so the replayed
    histogram stays bit-identical to the in-memory path for every chunk
    size, codec, budget, shard count and worker count.
    """
    ctx = binmd_shard_context(hist, events, transforms,
                              n_shards=shards.n_shards)
    n_ops, n_events = ctx.n_outer, ctx.n_inner
    tracer = _trace.active_tracer()
    with tracer.span(
        "binmd",
        kind="op",
        backend="sharded",
        n_ops=n_ops,
        n_events=int(n_events),
        n_shards=int(ctx.n_ranges),
        out_of_core=ctx.lazy_events is not None,
    ) as op_span:
        if tracer.profile:
            from repro.util.perf import binmd_work

            op_span.set(perf=binmd_work(
                n_ops, int(n_events),
                track_errors=hist.flat_error_sq is not None,
                cache_hit=False,
            ))
        _run_shards(ctx, shards, run=run, on_shard=on_shard)
        tracer.count("binmd.events", n_ops * int(n_events))
    return hist
