"""BinMD: histogram events onto the grid under every symmetry operation.

The paper's Listing 2 (C++) / Listing 3 (Julia): a 2-D index space of
``(symmetry op, event)``; each lane applies the op's transform to the
event's Q_sample coordinates and atomically pushes the event weight
into the 3-D histogram.

Both kernel forms are provided through one :class:`~repro.jacc.Kernel`:

* ``element`` — the per-(op, event) body run by the CPU back ends,
  a line-for-line analogue of Listing 3's lambda;
* ``batch`` — the device realization: per op, one fused
  transform + scatter-add over all events (tiled to bound memory).

Mantid's production BinMD walks an adaptive MDBox hierarchy; the paper
deliberately captures "the simple computational complexities" with a
single-box algorithm, and so do we (the hierarchy lives in
:mod:`repro.baseline.mdbox` as the baseline's cost model).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core import geom_cache as _gc
from repro.core.geom_cache import BinMDEntry, GeomCache
from repro.core.hist3 import Hist3
from repro.jacc import parallel_for
from repro.jacc.kernels import Captures, Kernel
from repro.nexus.events import COL_ERROR_SQ, COL_QX, COL_QY, COL_QZ, COL_SIGNAL, EventTable
from repro.util import trace as _trace
from repro.util.validation import require

#: events per device tile; bounds the (tile, 3) coordinate scratch
DEFAULT_TILE = 1 << 18


def _bin_events_element(ctx: Captures, n: int, i: int) -> None:
    """Listing 3's body: transform one event by one op, atomic push."""
    op = ctx.transforms[n]
    ev = ctx.events
    qx = ev[i, COL_QX]
    qy = ev[i, COL_QY]
    qz = ev[i, COL_QZ]
    c0 = op[0, 0] * qx + op[0, 1] * qy + op[0, 2] * qz
    c1 = op[1, 0] * qx + op[1, 1] * qy + op[1, 2] * qz
    c2 = op[2, 0] * qx + op[2, 1] * qy + op[2, 2] * qz
    ctx.hist.push(c0, c1, c2, ev[i, COL_SIGNAL], ev[i, COL_ERROR_SQ])


def _bin_events_batch(ctx: Captures, dims: tuple[int, int]) -> None:
    """Device realization: per op, fused transform + scatter over events.

    Cold, each (op, tile) is binned once with :meth:`HKLGrid.bin_index`
    (recorded into the :class:`BinMDEntry` being collected, if any) and
    its inside lanes are scatter-added in event order with
    :meth:`Hist3.push_flat`.  With a warm entry the transform and bin
    search are skipped: the cached flat indices / inside masks are
    sliced per tile and fed to the same ``push_flat`` calls, so cold,
    warm and uncached scatter sequences are bit-identical by
    construction.
    """
    n_ops, n_events = dims
    ev = ctx.events
    q = ev[:, COL_QX : COL_QZ + 1]
    weights = ev[:, COL_SIGNAL]
    tile = ctx.tile
    hist: Hist3 = ctx.hist
    # a Hist3 without an error array drops err_sq; skip masking it then
    # (the shard recorder has no `error_sq` and decides for itself)
    err_sq = (ev[:, COL_ERROR_SQ]
              if getattr(hist, "error_sq", True) is not None else None)
    entry: Optional[BinMDEntry] = getattr(ctx, "binmd_entry", None)
    collect: Optional[BinMDEntry] = getattr(ctx, "binmd_collect", None)

    for n in range(n_ops):
        op_t = ctx.transforms[n].T
        for start in range(0, n_events, tile):
            stop = min(start + tile, n_events)
            if entry is not None:
                flat = entry.flat_idx[n, start:stop]
                inside = entry.inside[n, start:stop]
            else:
                flat, inside = hist.grid.bin_index(q[start:stop] @ op_t)
                if collect is not None:
                    collect.flat_idx[n, start:stop] = flat
                    collect.inside[n, start:stop] = inside
            hist.push_flat(
                flat[inside], weights[start:stop][inside],
                None if err_sq is None else err_sq[start:stop][inside],
                scatter_impl=ctx.scatter_impl,
            )
    if collect is not None:
        collect.flat_idx = _gc.freeze(collect.flat_idx)
        collect.inside = _gc.freeze(collect.inside)
        ctx.binmd_cache.put(collect)


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
        Geometry cache holding/receiving the per-(op, event) flat bin
        indices (:class:`~repro.core.geom_cache.BinMDEntry`).  None uses
        the process default; pass
        :data:`~repro.core.geom_cache.DISABLED` to opt out.  The warm
        path replays the exact cold scatter sequence, so cached and
        uncached histograms are bit-identical.
    cache_tag:
        Optional lifecycle tag recorded on inserted entries (see
        :meth:`GeomCache.invalidate`).
    """
    data = events.data if isinstance(events, EventTable) else np.asarray(events)
    transforms = np.asarray(transforms, dtype=np.float64)
    require(transforms.ndim == 3 and transforms.shape[1:] == (3, 3),
            "transforms must be (n_ops, 3, 3)")
    require(tile > 0, "tile must be positive")

    cache = _gc.resolve(cache)
    tracer = _trace.active_tracer()
    with tracer.span(
        "binmd",
        kind="op",
        backend=backend or "default",
        n_ops=int(transforms.shape[0]),
        n_events=int(data.shape[0]),
    ) as op_span:
        entry: Optional[BinMDEntry] = None
        collect: Optional[BinMDEntry] = None
        if cache.enabled:
            n_ops, n_events = transforms.shape[0], data.shape[0]
            key = GeomCache.binmd_key(hist.grid, transforms, data)
            entry = cache.get(key)
            if entry is None and cache.accepts(n_ops * n_events * 9):
                # int64 flat index + bool inside mask per (op, event) lane
                collect = BinMDEntry(
                    key=key,
                    tag=cache_tag,
                    flat_idx=np.empty((n_ops, n_events), dtype=np.int64),
                    inside=np.empty((n_ops, n_events), dtype=bool),
                )
        op_span.set(cache_hit=entry is not None)
        if tracer.profile:
            from repro.util.perf import binmd_work

            op_span.set(perf=binmd_work(
                int(transforms.shape[0]), int(data.shape[0]),
                track_errors=hist.flat_error_sq is not None,
                cache_hit=entry is not None,
            ))

        captures = Captures(
            hist=hist,
            events=data,
            transforms=transforms,
            tile=int(tile),
            scatter_impl=scatter_impl,
            binmd_entry=entry,
            binmd_collect=collect,
            binmd_cache=cache,
        )
        parallel_for(
            (transforms.shape[0], data.shape[0]),
            BIN_EVENTS_KERNEL,
            captures,
            backend=backend,
        )
        tracer.count("binmd.events",
                      int(transforms.shape[0]) * int(data.shape[0]))
    return hist
