"""BinMD: histogram events onto the grid under every symmetry operation.

The paper's Listing 2 (C++) / Listing 3 (Julia): a 2-D index space of
``(symmetry op, event)``; each lane applies the op's transform to the
event's Q_sample coordinates and atomically pushes the event weight
into the 3-D histogram.

Both kernel forms are provided through one :class:`~repro.jacc.Kernel`:

* ``element`` — the per-(op, event) body run by the CPU back ends,
  a line-for-line analogue of Listing 3's lambda;
* ``batch`` — the device realization: per tile, a transform under
  every op that rejects lanes axis by axis, thinnest grid axis first
  (computed once per distinct transform row), then one scatter-add of
  every in-grid lane of the launch.

Mantid's production BinMD walks an adaptive MDBox hierarchy; the paper
deliberately captures "the simple computational complexities" with a
single-box algorithm, and so do we (the hierarchy lives in
:mod:`repro.baseline.mdbox` as the baseline's cost model).  The batch
body exploits the same sparsity the hierarchy does: on the paper's
one-bin-thick grids about 1 % of lanes land inside, and only
those are fully transformed, deposited and cached.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core import geom_cache as _gc
from repro.core.geom_cache import BinMDEntry, GeomCache
from repro.core.hist3 import Hist3
from repro.jacc import parallel_for, resolve_backend
from repro.jacc.kernels import Captures, Kernel
from repro.nexus.events import (
    BINMD_COLUMNS,
    COL_QX,
    COL_QZ,
    WEIGHT_COLUMNS,
    EventTable,
)
from repro.util import trace as _trace
from repro.util.validation import require

#: events per device tile; bounds the (tile, 3) coordinate scratch
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


def _event_count(events: EventTable | np.ndarray) -> int:
    if isinstance(events, EventTable):
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


def _in_grid_pairs(
    grid, transforms: np.ndarray, qx: np.ndarray, qy: np.ndarray,
    qz: np.ndarray, tile: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(flat, event)`` pairs of every in-grid (op, event) lane,
    op-major and in ascending event order within an op: the deposit
    order of the element body.  The third array holds the ``n_ops + 1``
    offsets of each op's pairs."""
    n_events = qx.shape[0]
    dtype = _index_dtype(grid.n_bins_total, n_events)
    flats = [[] for _ in transforms]
    lanes = [[] for _ in transforms]
    for start in range(0, n_events, tile):
        q = [col[start : start + tile] for col in (qx, qy, qz)]
        if len(transforms) > 1 and q[0].strides[0] != q[0].itemsize:
            # strided columns (a row-major table) cost a full row read
            # each; copy them once when several ops read them
            q = [np.ascontiguousarray(col) for col in q]
        for n, (flat, lane) in enumerate(
                grid.bin_transformed(transforms, *q)):
            flats[n].append(flat)
            lanes[n].append(lane + start)
    op_ptr = np.cumsum([0] + [sum(p.size for p in parts) for parts in flats])
    flat = sum(flats, [])
    if not flat:
        return np.empty(0, dtype), np.empty(0, dtype), op_ptr
    return (np.concatenate(flat).astype(dtype, copy=False),
            np.concatenate(sum(lanes, [])).astype(dtype, copy=False), op_ptr)


def _bin_events_batch(ctx: Captures, dims: tuple[int, int]) -> None:
    """Device realization: bin the in-grid lanes, deposit them at once.

    Reads ``ctx.columns`` alone — BinMD's five columns, views of an
    in-memory table or an out-of-core window's decoded streams.  Cold,
    each tile is binned under every op by one
    :meth:`HKLGrid.bin_transformed` call, which computes the thinnest
    axis once per distinct transform row and H and K only for the
    lanes inside the grid on it.  With a warm entry the cached pairs
    are used instead.  Either way the launch makes one
    :meth:`Hist3.push_flat` call over the op-major ``(flat, event)``
    pairs with freshly gathered weights, so cold, warm and uncached
    deposits are bit-identical by construction.  The pairs are left on
    ``ctx.in_grid`` as ``(flat, event, op_ptr)`` for the caller to
    cache, count and cut by op (``op_ptr`` is None on a warm launch).
    """
    signal, error_sq, qx, qy, qz = ctx.columns
    hist: Hist3 = ctx.hist
    entry: Optional[BinMDEntry] = getattr(ctx, "binmd_entry", None)
    if entry is not None:
        flat, event, op_ptr = entry.flat, entry.event, None
    else:
        flat, event, op_ptr = _in_grid_pairs(hist.grid, ctx.transforms,
                                             qx, qy, qz, ctx.tile)
    ctx.in_grid = (flat, event, op_ptr)
    # a Hist3 without an error array drops err_sq; skip gathering it then
    # (the shard recorder has no `error_sq` and decides for itself)
    track_errors = getattr(hist, "error_sq", True) is not None
    hist.push_flat(
        flat, signal[event], error_sq[event] if track_errors else None,
        scatter_impl=ctx.scatter_impl,
    )


BIN_EVENTS_KERNEL = Kernel(
    name="bin_events",
    element=_bin_events_element,
    batch=_bin_events_batch,
)


def bin_events(
    hist: Hist3,
    events: EventTable | np.ndarray,
    transforms: np.ndarray,
    *,
    backend: Optional[str] = None,
    tile: int = DEFAULT_TILE,
    scatter_impl: str = "atomic",
    cache: Optional[GeomCache] = None,
    cache_tag: Optional[str] = None,
    lookup: Optional[tuple] = None,
) -> Hist3:
    """Accumulate ``events`` into ``hist`` under every transform.

    Parameters
    ----------
    hist:
        Target histogram (accumulated in place, also returned).
    events:
        The 8-column MDEvent table.
    transforms:
        ``(n_ops, 3, 3)`` Q_sample -> grid-coordinate matrices (one per
        symmetry operation; see ``HKLGrid.transforms_for``).
    backend:
        jacc back end name; None = process default.
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
    """
    n_events = _event_count(events)
    transforms = np.asarray(transforms, dtype=np.float64)
    require(transforms.ndim == 3 and transforms.shape[1:] == (3, 3),
            "transforms must be (n_ops, 3, 3)")
    require(tile > 0, "tile must be positive")

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

        captures = Captures(
            hist=hist,
            columns=binmd_columns(events, binmd_reads(backend, entry)),
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
            if entry is None and key is not None:
                cache.put(BinMDEntry(key=key, tag=cache_tag,
                                     flat=_gc.freeze(in_grid[0]),
                                     event=_gc.freeze(in_grid[1])))
        tracer.count("binmd.events", int(transforms.shape[0]) * n_events)
    return hist
