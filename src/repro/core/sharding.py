"""Intra-run shard executor: the second level of the hierarchy.

The paper's Algorithm 1 parallelizes *across* runs (one MPI rank per
block of files).  This module adds the level below: a rank that owns a
run cuts its MDNorm and its BinMD into contiguous **ranges** (planned
by :mod:`repro.mpi.decomposition`) and executes every range in the
calling thread.  Ranges are the unit of out-of-core reads (each decodes
its own chunk-aligned window once, straight from the chunk reader, so
no chunk is decoded twice) and of work stealing (each is one stealable
task); the only parallel level stays the paper's own, ranks
over runs.

One kernel body, one launch per range (DESIGN.md §6f).  A range runs
the kernel's **batch** body — the same ``_mdnorm_batch`` /
``_bin_events_batch`` the ``vectorized`` back end launches in memory —
once, against a :class:`RecordingHist3` that records each deposit
array instead of adding it.  Float addition is
non-associative, so per-range partial histograms would drift in the
last ulp and depend on the shard count; ranges return deposit logs
instead, and :func:`replay_shard_logs` applies them with ``np.add.at``
(unbuffered, element-order-sequential) in the in-memory deposit order:

* **MDNorm** — the paper's 2-D (op × detector) index space, flattened
  op-major; a range is a contiguous block of those rows and its one
  launch deposits them in row order, so the logs concatenated in
  planned order *are* the in-memory deposit order::

      for range in ascending planned order: replay(log[range])

* **BinMD** — a range is a (chunk-aligned) event window; its one launch
  bins the window under every op, op-major, and the pairs are cut into
  one log per op, replayed interleaved::

      for op in ops: for range in ascending planned order: replay(log[range][op])

Within an op both batch bodies deposit in ascending inner index with
every lane computed independently of the others, so the sharded,
out-of-core and stolen results are **bit-identical to the in-memory
``vectorized`` result for every shard count**, whichever rank executed
which range, in whatever order.  The in-memory
:func:`~repro.core.binmd.bin_events` / :func:`~repro.core.mdnorm.mdnorm`
entry points stay: they own the geometry-cache warm paths.

Fault model: checkpoints stay per-run (a run's delta is only saved
after all its ranges replayed), so a run killed mid-fan-out recomputes
whole on retry or resume, bit-identically.  Each range passes a
:func:`repro.util.faults.fault_point` (sites ``shard.mdnorm`` /
``shard.binmd``) inside its ``shard:<op>`` trace span.

``read_window`` is imported here without being called: the benchmark's
``nexus.read_window`` layer patches ``repro.core.sharding.read_window``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.binmd import DEFAULT_TILE, _bin_events_batch, binmd_columns
from repro.core.geom_cache import GeomCache
from repro.core.hist3 import Hist3
from repro.core.mdnorm import _mdnorm_batch, _mdnorm_captures
from repro.jacc.kernels import Captures
from repro.jacc.workers import parse_worker_count
from repro.mpi.decomposition import (
    lazy_table_ranges,
    range_stored_nbytes,
    shard_ranges,
)
from repro.nexus.corrections import FluxSpectrum
from repro.nexus.events import EventTable
from repro.nexus.tiles import LazyEventTable, read_window  # noqa: F401
from repro.util import faults as _faults
from repro.util import trace as _trace
from repro.util.validation import require

#: one deposit log: (flat_idx, weights, err_sq|None)
Log = Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]


class RecordingHist3:
    """Order-preserving deposit recorder standing in for ``Hist3``.

    A shard range's batch body deposits through ``push_flat`` as it
    would into a ``Hist3``; the recorder keeps each
    ``(flat_bin, weight, err_sq)`` array in call order instead of
    adding it.  :func:`replay_deposits` later applies the log with
    ``np.add.at``, which is unbuffered and element-order-sequential:
    the per-bin accumulation order, and therefore every floating-point
    rounding step, matches an in-place execution of the same range.
    """

    def __init__(self, grid: Any, track_errors: bool) -> None:
        self.grid = grid
        self.track_errors = bool(track_errors)
        self._parts: List[Log] = []

    def push_flat(self, flat: np.ndarray, weights: np.ndarray,
                  err_sq: Optional[np.ndarray] = None, *,
                  scatter_impl: str = "atomic") -> None:
        # copies: the log outlives the caller's buffers
        flat = np.array(flat, dtype=np.int64).ravel()
        if flat.size == 0:
            return
        if not self.track_errors:
            err = None
        elif err_sq is None:
            err = np.zeros(flat.size)
        else:
            err = np.array(err_sq, dtype=np.float64).ravel()
        self._parts.append(
            (flat, np.array(weights, dtype=np.float64).ravel(), err))

    def harvest(self) -> Log:
        """The deposit log as dense arrays (idx, weights, err_sq|None)."""
        if len(self._parts) == 1:
            return self._parts[0]
        if not self._parts:
            return (np.empty(0, dtype=np.int64), np.empty(0),
                    np.empty(0) if self.track_errors else None)
        idx, w, e = zip(*self._parts)
        return (np.concatenate(idx), np.concatenate(w),
                np.concatenate(e) if self.track_errors else None)


def replay_deposits(hist: Any, logs: Sequence[Log]) -> None:
    """Apply deposit logs in the given order (``np.add.at`` semantics)."""
    flat_signal = hist.flat_signal
    flat_err = getattr(hist, "flat_error_sq", None)
    for idx, w, e in logs:
        if idx.size == 0:
            continue
        np.add.at(flat_signal, idx, w)
        if flat_err is not None and e is not None:
            np.add.at(flat_err, idx, e)


@dataclass(frozen=True)
class ShardConfig:
    """How to cut one run into in-process shard ranges.

    Parameters
    ----------
    n_shards:
        Number of contiguous shards to cut the inner axis into
        (op-major (op, detector) rows for MDNorm, events for BinMD;
        out of core, BinMD's chunk-aligned windows may be cut finer to
        fit the memory budget).  ``1`` still runs
        the shard machinery (record + replay) — results are identical
        for every value, only the range granularity changes.
    """

    n_shards: int

    def __post_init__(self) -> None:
        parse_worker_count(self.n_shards, source="n_shards")

    @classmethod
    def from_options(cls, shards: Optional[int]) -> Optional["ShardConfig"]:
        """CLI adapter: ``--shards N``; None when sharding was not
        requested."""
        if shards is None:
            return None
        return cls(n_shards=int(shards))


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
    recorder, and a lazy table reads one window at a time.
    """

    op_name: str
    captures: Captures
    #: deposit logs per range: BinMD's ops (a range is an event window
    #: binned under every op), 1 for MDNorm (a range is a block of
    #: op-major rows)
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
    """MDNorm's plan: ranges of the ``n_ops * n_det`` op-major
    (op, detector) rows, and their lanes."""
    ranges = shard_ranges(n_ops * n_det, n_shards)
    return ranges, [float(b - a) for a, b in ranges]


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
    n = events.n_events if isinstance(events, EventTable) else len(np.asarray(events))
    ranges = shard_ranges(int(n), n_shards)
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
    """Plan one run's MDNorm as ranges of op-major (op, detector) rows.

    The geometry stage runs here, parent-side and cache-aware, so warm
    reruns skip it exactly as the in-memory path does (ranges never
    touch the cache).  Ranges cut the full op-major row space; a range
    launches over the live rows inside it
    (:meth:`~repro.core.intersections.LiveTrajectories.window`).
    """
    transforms = np.asarray(transforms, dtype=np.float64)
    det_directions = np.asarray(det_directions, dtype=np.float64)
    solid_angles = np.asarray(solid_angles, dtype=np.float64)
    captures = _mdnorm_captures(
        hist, transforms, det_directions, solid_angles, flux, momentum_band,
        charge=charge, backend=backend, cache=cache, cache_tag=cache_tag,
        deposit_plan=False, sort_impl=sort_impl, op_span=op_span,
    )
    ranges, _ = mdnorm_ranges(int(det_directions.shape[0]),
                              int(transforms.shape[0]), n_shards)
    return ShardContext("mdnorm", captures, 1, ranges)


def binmd_shard_context(
    hist: Hist3,
    events: EventTable | LazyEventTable | np.ndarray,
    transforms: np.ndarray,
    *,
    n_shards: int,
) -> ShardContext:
    """Plan one run's BinMD as event-range shard tasks (see
    :func:`binmd_ranges`).  A lazy table's captures carry no columns:
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
    captures.columns = binmd_columns(events)
    return ShardContext("binmd", captures, n_ops, ranges)


def _mdnorm_range(ctx: ShardContext, a: int, b: int) -> List[Log]:
    """One MDNorm batch launch over the live rows among the op-major
    rows ``[a, b)``: one log, in row order."""
    c = ctx.captures
    rec = RecordingHist3(c.grid, ctx.track_errors)
    traj = c.traj.window(a, b)
    _mdnorm_batch(Captures(**{**vars(c), "hist": rec, "traj": traj}),
                  (traj.n_rows,))
    return [rec.harvest()]


def _binmd_range(ctx: ShardContext, a: int, b: int) -> List[Log]:
    """One BinMD batch launch over the events ``[a, b)`` under every
    op, its op-major pairs cut into one log per op."""
    c = ctx.captures
    columns = (ctx.lazy_events.binmd_window(a, b) if ctx.lazy_events is not None
               else tuple(col[a:b] for col in c.columns))
    launch = Captures(**{**vars(c), "columns": columns,
                         "hist": RecordingHist3(c.hist.grid, ctx.track_errors)})
    _bin_events_batch(launch, (ctx.n_outer, b - a))
    flat, w, e = launch.hist.harvest()
    op_ptr = launch.in_grid[2]
    return [(flat[p:q], w[p:q], None if e is None else e[p:q])
            for p, q in zip(op_ptr[:-1], op_ptr[1:])]


_RANGE_BODIES: Dict[str, Callable[[ShardContext, int, int], List[Log]]] = {
    "mdnorm": _mdnorm_range,
    "binmd": _binmd_range,
}


def execute_shard_range(ctx: ShardContext, index: int) -> List[Log]:
    """Execute one planned range of a context in the calling thread;
    return its ``ctx.n_outer`` deposit logs.

    The one shard-execution function of every executor.  No replay
    happens here — callers collect logs (possibly from ranges executed
    by different ranks, out of order) and fold them with
    :func:`replay_shard_logs` once every planned range has reported.
    A lazy range decodes its own window's chunks from the run file;
    no other range decodes them.
    """
    a, b = ctx.ranges[index]
    return _RANGE_BODIES[ctx.op_name](ctx, a, b)


def replay_shard_logs(
    ctx: ShardContext, per_range: Sequence[List[Log]]
) -> None:
    """Fold per-range deposit logs into ``ctx.captures.hist`` in the
    in-memory order (log-major, planned ranges ascending: op-major for
    BinMD, plain range order for MDNorm's one log per range), so the
    result is bit-identical to an in-memory ``vectorized`` execution of
    the whole run-stage regardless of who executed what."""
    require(len(per_range) == ctx.n_ranges,
            f"{ctx.op_name}: {len(per_range)} log sets for "
            f"{ctx.n_ranges} planned ranges")
    for n in range(ctx.n_outer):
        replay_deposits(ctx.captures.hist, [logs[n] for logs in per_range])


def _run_shards(
    ctx: ShardContext,
    *,
    run: Optional[int] = None,
) -> int:
    """The static executor: every planned range of ``ctx`` through
    :func:`execute_shard_range` in planned order, then the ordered
    replay into ``ctx.captures.hist``.  Returns the number of
    deposits replayed.  A fault at a shard discards the logs recorded
    so far; the run-level retry recomputes the whole run, so the
    replay only ever sees a complete set (bit-identical)."""
    op_name, n_ranges = ctx.op_name, ctx.n_ranges
    tracer = _trace.active_tracer()
    fault_site = f"shard.{op_name}"
    with tracer.span(
        f"{op_name}.shards",
        kind="shard_fanout",
        op=op_name,
        n_shards=int(n_ranges),
        n_outer=int(ctx.n_outer),
        n_inner=int(ctx.n_inner),
        **({"run": int(run)} if run is not None else {}),
    ):
        per_range: List[List[Log]] = []
        for s, (a, b) in enumerate(ctx.ranges):
            with tracer.span(
                f"shard:{op_name}", kind="shard", shard=int(s),
                lanes=int(ctx.n_outer * (b - a)),
            ):
                _faults.fault_point(fault_site, shard=s, run=run)
                per_range.append(execute_shard_range(ctx, s))
        replay_shard_logs(ctx, per_range)
        tracer.count(f"{op_name}.shard_tasks", n_ranges)
    return sum(int(log[0].size) for logs in per_range for log in logs)


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
) -> Hist3:
    """MDNorm for one run, cut into ranges of op-major rows.

    Same contract as :func:`repro.core.mdnorm.mdnorm` (accumulates into
    ``hist`` in place) executed as ``shards.n_shards`` contiguous
    ranges of the flattened (op, detector) rows, each one launch of
    the batch body; the result is bit-identical to
    ``mdnorm(..., backend="vectorized")`` for every shard count (see
    the module docstring).  ``backend`` runs only the geometry
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
        _run_shards(ctx, run=run)
        tracer.count("mdnorm.trajectories", int(transforms.shape[0]) * n_det)
    return hist


def sharded_binmd(
    hist: Hist3,
    events: EventTable | LazyEventTable | np.ndarray,
    transforms: np.ndarray,
    *,
    shards: ShardConfig,
    run: Optional[int] = None,
) -> Hist3:
    """BinMD for one run, cut into event shards.

    Same contract as :func:`repro.core.binmd.bin_events`; contiguous
    event ranges are balanced by construction (events are the unit of
    work), each is one launch of the batch body under every op, and
    the op-interleaved replay makes the result bit-identical to
    ``bin_events(..., backend="vectorized")`` for every shard count.

    With a :class:`~repro.nexus.tiles.LazyEventTable` the run executes
    **out-of-core**: shard boundaries are fed from the file's chunk
    metadata (snapped to chunk boundaries, balanced by stored chunk
    bytes, capped so no window decodes more rows than the table's
    memory budget), and each shard decodes only BinMD's five columns
    of its own window, once, straight from the chunk reader.  The
    batch body bins a window exactly
    as it bins the same rows of the full table, so the replayed
    histogram stays bit-identical to the in-memory path for every chunk
    size, codec, budget and shard count.
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
        if tracer.enabled:
            from repro.util.perf import binmd_work

            op_span.set(perf=binmd_work(
                n_ops, int(n_events),
                track_errors=hist.flat_error_sq is not None,
                cache_hit=False,
            ))
        deposits = _run_shards(ctx, run=run)
        op_span.set(inside_lanes=deposits)
        tracer.count("binmd.events", n_ops * int(n_events))
    return hist
