"""BinMD: histogram events onto the grid under every symmetry operation.

The paper's Listing 2 (C++) / Listing 3 (Julia): a 2-D index space of
``(symmetry op, event)``; each lane applies the op's transform to the
event's Q_sample coordinates and atomically pushes the event weight
into the 3-D histogram.

Both kernel forms are provided through one :class:`~repro.jacc.Kernel`:

* ``element`` — the per-(op, event) body run by the CPU back ends,
  a line-for-line analogue of Listing 3's lambda;
* ``batch`` — the device realization: the run is read as column
  windows (the whole table in memory, ``--shards`` ranges, or
  budget-capped windows out of core), several windows are each cut to
  their slab candidates, and the transform under every op rejects
  lanes axis by axis, thinnest grid axis first (computed once per
  distinct transform row), one tile of lanes at a time; then one
  scatter-add deposits every in-grid lane of the launch.

Mantid's production BinMD walks an adaptive MDBox hierarchy; the paper
deliberately captures "the simple computational complexities" with a
single-box algorithm, and so do we (the hierarchy lives in
:mod:`repro.baseline.mdbox` as the baseline's cost model).  The batch
body exploits the same sparsity the hierarchy does: on the paper's
one-bin-thick grids about 1 % of lanes land inside, and only
those are fully transformed, deposited and cached.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core import geom_cache as _gc
from repro.core.geom_cache import BinMDEntry, GeomCache
from repro.core.hist3 import Hist3
from repro.jacc import parallel_for, resolve_backend
from repro.jacc.kernels import Captures, Kernel
from repro.mpi.decomposition import lazy_table_ranges, shard_ranges
from repro.nexus.events import (
    BINMD_COLUMNS,
    COL_QX,
    COL_QZ,
    WEIGHT_COLUMNS,
    EventTable,
)
from repro.nexus.tiles import LazyEventTable
from repro.util import trace as _trace
from repro.util.validation import require

#: events per window of an in-memory run; bounds the per-window
#: thin-axis product scratch
DEFAULT_TILE = 1 << 18


def _bin_events_element(ctx: Captures, n: int, i: int) -> None:
    """Listing 3's body: transform one event by one op, atomic push."""
    op = ctx.transforms[n]
    signal, error_sq, qxs, qys, qzs = ctx.columns
    qx = qxs[i]
    qy = qys[i]
    qz = qzs[i]
    c0 = op[0, 0] * qx + op[0, 1] * qy + op[0, 2] * qz
    c1 = op[1, 0] * qx + op[1, 1] * qy + op[1, 2] * qz
    c2 = op[2, 0] * qx + op[2, 1] * qy + op[2, 2] * qz
    ctx.hist.push(c0, c1, c2, signal[i], error_sq[i])


_INT32_MAX = int(np.iinfo(np.int32).max)


def _index_dtype(n_bins: int, n_events: int) -> type:
    """int32 when every flat bin and event index fits, int64 otherwise."""
    return np.int32 if max(n_bins, n_events) <= _INT32_MAX else np.int64


def _event_count(events: EventTable | LazyEventTable | np.ndarray) -> int:
    if isinstance(events, (EventTable, LazyEventTable)):
        return events.n_events
    return int(np.asarray(events).shape[0])


def binmd_reads(backend: Optional[str],
                entry: Optional[BinMDEntry]) -> tuple[int, ...]:
    """The columns (``COL_*`` indices) a BinMD launch on ``backend``
    reads given its cache lookup's ``entry``: signal and error_sq alone
    (:data:`WEIGHT_COLUMNS`) when the batch body deposits the entry's
    cached pairs, else :data:`BINMD_COLUMNS` (the element body bins Q
    on every launch).  The per-run step loads what this names and
    :func:`bin_events` reads what it names, so the two cannot differ."""
    if entry is not None and resolve_backend(backend).body == "batch":
        return WEIGHT_COLUMNS
    return BINMD_COLUMNS


def binmd_columns(events: EventTable | np.ndarray,
                  reads: tuple[int, ...] = BINMD_COLUMNS,
                  ) -> tuple[Optional[np.ndarray], ...]:
    """The columns the bodies read (:data:`BINMD_COLUMNS`: signal,
    error_sq, Qx, Qy, Qz) of a table or an ``(n, 8)`` event array, as
    views.  A slot whose column is not in ``reads`` (see
    :func:`binmd_reads`) is None, so a table that holds only signal
    and error_sq will do for a launch on cached pairs."""
    if isinstance(events, EventTable):
        column = events.column
    else:
        data = np.asarray(events)

        def column(c: int) -> np.ndarray:
            return data[:, c]
    return tuple(column(c) if c in reads else None for c in BINMD_COLUMNS)


def binmd_cache_key(grid, transforms: np.ndarray,
                    events: EventTable | np.ndarray) -> tuple:
    """The geometry-cache key of one BinMD launch.

    A table whose load knew its Q digest (``q_digest``, stored by
    SaveMD) is not hashed; otherwise the Q rows are hashed in place
    when they are contiguous (a column-major :class:`EventTable`) and
    copied once otherwise, so a table has one key whatever its layout."""
    if isinstance(events, EventTable):
        q = events.q_digest if events.q_digest is not None else events.q_rows
    else:
        q = np.asarray(events)[:, COL_QX : COL_QZ + 1].T
    return GeomCache.binmd_key(grid, np.asarray(transforms, dtype=np.float64), q)


class ColumnWindows(NamedTuple):
    """A run as ascending, contiguous event windows: ``ranges`` holds
    ``(start, stop)`` per window, from 0 to the run's event count, and
    ``read(start, stop)`` returns BinMD's columns of one window (the
    :func:`binmd_columns` slots, Q unit-stride or not)."""

    ranges: Sequence[Tuple[int, int]]
    read: Callable[[int, int], Tuple[Optional[np.ndarray], ...]]


def column_windows(events: EventTable | LazyEventTable | np.ndarray,
                   ranges: Sequence[Tuple[int, int]],
                   reads: tuple[int, ...] = BINMD_COLUMNS) -> ColumnWindows:
    """``ranges`` of a table as :class:`ColumnWindows`: views of an
    in-memory table's columns (``reads`` as in :func:`binmd_columns`),
    or a lazy table's :meth:`~repro.nexus.tiles.LazyEventTable.binmd_window`
    reads, each decoding only the chunks of its own window."""
    if isinstance(events, LazyEventTable):
        return ColumnWindows(list(ranges), events.binmd_window)
    columns = binmd_columns(events, reads)

    def read(a: int, b: int) -> Tuple[Optional[np.ndarray], ...]:
        return tuple(None if c is None else c[a:b] for c in columns)
    return ColumnWindows(list(ranges), read)


def run_windows(events: EventTable | LazyEventTable | np.ndarray,
                n_windows: int = 1) -> List[Tuple[int, int]]:
    """The event windows a launch reads a run in: a lazy table's
    chunk-aligned, budget-capped windows for ``n_windows`` shards
    (:func:`~repro.mpi.decomposition.lazy_table_ranges`); in memory,
    ``n_windows`` equal event ranges (one window, the whole run, when
    ``n_windows`` is 1)."""
    if isinstance(events, LazyEventTable):
        return lazy_table_ranges(events, n_windows)
    return shard_ranges(_event_count(events), n_windows)


def _tiles(n: int, tile: int) -> List[slice]:
    """``[0, n)`` cut into slices of at most ``tile`` lanes: the unit
    of one slab test or one :meth:`HKLGrid.bin_transformed` call,
    which bounds their per-row product scratch."""
    return [slice(a, a + tile) for a in range(0, n, tile)]


def _unit_stride(q: List[np.ndarray], n_ops: int) -> List[np.ndarray]:
    """Strided Q columns (a row-major table) cost a full row read each;
    copy them once when several ops read them."""
    if n_ops > 1 and q[0].strides[0] != q[0].itemsize:
        return [np.ascontiguousarray(col) for col in q]
    return q


def _slab_candidates(grid, transforms: np.ndarray, windows: ColumnWindows,
                     tile: int, track_errors: bool) -> tuple:
    """The slab candidates of a run read as several windows, as
    ``(event, signal, error_sq, q)``.

    The windows are read one at a time and each keeps only its slab
    candidates (:meth:`HKLGrid.slab_candidates`, tested ``tile`` lanes
    at a time), a superset of every op's inside lanes; the candidates
    of all windows are concatenated in ascending event order, ``event``
    holding each one's event index.  Binning them gives every op the
    same pairs as binning the whole run (``error_sq`` is None unless
    ``track_errors``)."""
    n_ops = len(transforms)
    events, kept = [], []
    for a, b in windows.ranges:
        signal, error_sq, *q = windows.read(a, b)
        keep = [t.start + grid.slab_candidates(
                    transforms, *_unit_stride([c[t] for c in q], n_ops))
                for t in _tiles(b - a, tile)]
        keep = np.concatenate(keep) if keep else np.empty(0, np.intp)
        events.append(keep + a)
        kept.append((signal[keep], error_sq[keep] if track_errors else None,
                     *(c[keep] for c in q)))
    event = np.concatenate(events)
    signal, error_sq, *q = (None if parts[0] is None else np.concatenate(parts)
                            for parts in zip(*kept))
    _trace.active_tracer().count("binmd.slab_candidates", int(event.size))
    return event, signal, error_sq, q


def _bin_tiles(grid, transforms: np.ndarray, q: List[np.ndarray],
               tile: int) -> tuple:
    """The ``(flat, lane, op_ptr)`` pairs of the lanes ``q`` inside the
    grid, op-major and ascending within an op, binned ``tile`` lanes
    per :meth:`HKLGrid.bin_transformed` call (``op_ptr``: the
    ``n_ops + 1`` offsets of each op's pairs)."""
    flats = [[] for _ in transforms]
    lanes = [[] for _ in transforms]
    for t in _tiles(q[0].shape[0], tile):
        pairs = grid.bin_transformed(
            transforms, *_unit_stride([c[t] for c in q], len(transforms)))
        for n, (flat, lane) in enumerate(pairs):
            flats[n].append(flat)
            lanes[n].append(lane + t.start)
    op_ptr = np.cumsum([0] + [sum(p.size for p in parts) for parts in flats])
    flat, lane = sum(flats, []), sum(lanes, [])
    if not flat:
        return np.empty(0, np.int64), np.empty(0, np.intp), op_ptr
    return np.concatenate(flat), np.concatenate(lane), op_ptr


def _in_grid_pairs(
    grid, transforms: np.ndarray, windows: ColumnWindows, tile: int,
    track_errors: bool,
) -> tuple:
    """The ``(flat, event)`` pairs of every in-grid (op, event) lane,
    op-major and in ascending event order within an op: the deposit
    order of the element body.  Returns ``(flat, event, op_ptr,
    weights, err_sq)``: ``op_ptr`` holds the ``n_ops + 1`` offsets of
    each op's pairs, ``weights`` and ``err_sq`` each pair's signal and
    error_sq (``err_sq`` None unless ``track_errors``).

    One window is binned tile by tile; several are first cut to their
    slab candidates (:func:`_slab_candidates`), which are then binned
    tile by tile.  Every lane is binned by the same element-wise
    expressions either way, so the pairs do not depend on the windows
    or the tile."""
    dtype = _index_dtype(grid.n_bins_total, windows.ranges[-1][1])
    if len(windows.ranges) == 1:
        (start, stop), = windows.ranges
        signal, error_sq, *q = windows.read(start, stop)
        event = None
    else:
        event, signal, error_sq, q = _slab_candidates(
            grid, transforms, windows, tile, track_errors)
    flat, lanes, op_ptr = _bin_tiles(grid, transforms, q, tile)
    event = lanes + start if event is None else event[lanes]
    return (flat.astype(dtype, copy=False), event.astype(dtype, copy=False),
            op_ptr, signal[lanes], error_sq[lanes] if track_errors else None)


def _bin_events_batch(ctx: Captures, dims: tuple[int, int]) -> None:
    """Device realization: bin the in-grid lanes, deposit them at once.

    Cold, the run is read as ``ctx.windows``
    (:class:`ColumnWindows`: an in-memory table whole or in
    ``--shards`` ranges, or an out-of-core table's budget-capped
    windows) and binned under every op, ``ctx.tile`` lanes per
    :meth:`HKLGrid.bin_transformed` call, which computes the thinnest
    axis once per distinct transform row and H and K only for the
    lanes inside the grid on it (several windows are first cut to their
    slab candidates, see :func:`_slab_candidates`).  With a warm entry
    the cached pairs are used instead, with ``ctx.columns``' signal and
    error_sq.  Either way the launch makes one :meth:`Hist3.push_flat`
    call over the op-major ``(flat, event)`` pairs with freshly
    gathered weights, so cold, warm, windowed and uncached deposits are
    bit-identical by construction.  The pairs are left on
    ``ctx.in_grid`` as ``(flat, event, op_ptr)`` for the caller to
    cache, count and cut by op (``op_ptr`` is None on a warm launch).
    """
    hist: Hist3 = ctx.hist
    # a Hist3 without an error array drops err_sq; skip gathering it then
    # (the shard recorder has no `error_sq` and decides for itself)
    track_errors = getattr(hist, "error_sq", True) is not None
    entry: Optional[BinMDEntry] = getattr(ctx, "binmd_entry", None)
    if entry is not None:
        signal, error_sq = ctx.columns[:2]
        flat, event, op_ptr = entry.flat, entry.event, None
        weights = signal[event]
        err_sq = error_sq[event] if track_errors else None
    else:
        flat, event, op_ptr, weights, err_sq = _in_grid_pairs(
            hist.grid, ctx.transforms, ctx.windows, ctx.tile, track_errors)
    ctx.in_grid = (flat, event, op_ptr)
    hist.push_flat(flat, weights, err_sq, scatter_impl=ctx.scatter_impl)


BIN_EVENTS_KERNEL = Kernel(
    name="bin_events",
    element=_bin_events_element,
    batch=_bin_events_batch,
)


def bin_events(
    hist: Hist3,
    events: EventTable | LazyEventTable | np.ndarray,
    transforms: np.ndarray,
    *,
    backend: Optional[str] = None,
    tile: int = DEFAULT_TILE,
    scatter_impl: str = "atomic",
    cache: Optional[GeomCache] = None,
    cache_tag: Optional[str] = None,
    lookup: Optional[tuple] = None,
    windows: Optional[ColumnWindows] = None,
) -> Hist3:
    """Accumulate ``events`` into ``hist`` under every transform.

    Parameters
    ----------
    hist:
        Target histogram (accumulated in place, also returned).
    events:
        The 8-column MDEvent table, in memory or out of core (a
        :class:`~repro.nexus.tiles.LazyEventTable`, which is read in
        its budget-capped windows by the batch body on the
        ``vectorized`` back end whatever ``backend`` names, since the
        element body reads whole columns, and is never cached: its key
        would hash every Q row).
    transforms:
        ``(n_ops, 3, 3)`` Q_sample -> grid-coordinate matrices (one per
        symmetry operation; see ``HKLGrid.transforms_for``).
    backend:
        jacc back end name; None = process default.
    tile:
        Lanes per slab test and per :meth:`HKLGrid.bin_transformed`
        call of the batch body; bounds their per-row product scratch.
    scatter_impl:
        "atomic" (per-lane atomicAdd analogue) or "buffered"
        (bincount-based) — see :meth:`Hist3.push_many`.
    cache:
        Geometry cache holding/receiving the ``(flat bin, event)`` pairs
        of the in-grid lanes (:class:`~repro.core.geom_cache.BinMDEntry`,
        keyed by grid, transforms and Q alone; weights are gathered
        fresh on every launch).  None uses the process default; pass
        :data:`~repro.core.geom_cache.DISABLED` to opt out.  Only the
        batch body fills it.  The warm path makes the cold launch's one
        deposit call on the cached pairs, so cached and uncached
        histograms are bit-identical.
    cache_tag:
        Optional lifecycle tag recorded on inserted entries (see
        :meth:`GeomCache.invalidate`).
    lookup:
        ``(key, entry)`` of this launch's cache lookup when the caller
        made it already (the per-run step does, before the load reads
        the columns, so a warm table need hold only signal and
        error_sq); the launch then looks nothing up, and inserts under
        ``key`` when ``entry`` is None.
    windows:
        The event windows a cold batch launch reads the run in (see
        :func:`run_windows`, :func:`column_windows`); None reads a lazy
        table in its budget-capped windows and an in-memory one whole.
        Any windows give the same histogram.
    """
    n_events = _event_count(events)
    transforms = np.asarray(transforms, dtype=np.float64)
    require(transforms.ndim == 3 and transforms.shape[1:] == (3, 3),
            "transforms must be (n_ops, 3, 3)")
    require(tile > 0, "tile must be positive")

    lazy = isinstance(events, LazyEventTable)
    if lazy:
        backend, cache, lookup = "vectorized", _gc.DISABLED, None
    cache = _gc.resolve(cache)
    tracer = _trace.active_tracer()
    engine = resolve_backend(backend)
    with tracer.span(
        "binmd",
        kind="op",
        backend=engine.name,
        n_ops=int(transforms.shape[0]),
        n_events=n_events,
    ) as op_span:
        entry: Optional[BinMDEntry] = None
        key = None
        if lookup is not None:
            key, entry = lookup
        elif cache.enabled:
            key = binmd_cache_key(hist.grid, transforms, events)
            entry = cache.get(key)
        op_span.set(cache_hit=entry is not None)
        if tracer.enabled:
            from repro.util.perf import binmd_work

            warm = {} if entry is None else dict(
                cache_hit=True, stored_pairs=entry.n_pairs,
                index_itemsize=entry.itemsize)
            op_span.set(perf=binmd_work(
                int(transforms.shape[0]), n_events,
                track_errors=hist.flat_error_sq is not None, **warm,
            ))

        reads = binmd_reads(backend, entry)
        if windows is None and entry is None and engine.body == "batch":
            windows = column_windows(events, run_windows(events), reads)
        captures = Captures(
            hist=hist,
            columns=None if lazy else binmd_columns(events, reads),
            windows=windows,
            transforms=transforms,
            tile=int(tile),
            scatter_impl=scatter_impl,
            binmd_entry=entry,
        )
        parallel_for(
            (transforms.shape[0], n_events),
            BIN_EVENTS_KERNEL,
            captures,
            backend=backend,
        )
        in_grid = getattr(captures, "in_grid", None)
        if in_grid is not None:
            # only the batch body reports its pairs
            op_span.set(inside_lanes=int(in_grid[0].size))
            if windows is not None:
                op_span.set(n_windows=len(windows.ranges))
            if entry is None and key is not None:
                cache.put(BinMDEntry(key=key, tag=cache_tag,
                                     flat=_gc.freeze(in_grid[0]),
                                     event=_gc.freeze(in_grid[1])))
        tracer.count("binmd.events", int(transforms.shape[0]) * n_events)
    return hist
