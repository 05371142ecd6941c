"""MDNorm: trajectory normalization over (symmetry op x detector).

The paper's Listing 1: a 2-D index space of ``(symmetry op, detector)``.
Each lane

1. forms its trajectory direction ``D = T_op (z_hat - d_hat)``,
2. clips the momentum window to the grid box,
3. collects every grid-plane crossing in that window
   ("calculate intersections ~(600x600x1)"),
4. **sorts** them (the paper's in-kernel comb sort, or a library row
   sort on the batch path — the same ascending values either way),
5. **linearly interpolates** the cumulative incident flux over each
   sub-segment, and
6. **appends** ``solid_angle x flux`` into the normalization histogram.

Steps 1-3 search only the trajectories that enter the grid box: the
geometry stage (:func:`~repro.core.intersections.live_trajectories`)
finds them on the grid's thin axis first and computes each one's
per-axis crossing range once.  The kernels launch over those live rows.

The pre-pass :func:`max_intersections` bounds step 3's output so the
device buffer can be pre-allocated.  JACC's device ``parallel_reduce``
supports only ``+`` (the limitation the paper documents), so on the
device back end the MAX is computed with the same workaround MiniVATES
uses: a counting kernel, a device->host copy, and a host-side max; the
CPU back ends use the elegant ``parallel_reduce(op="max")`` directly.
"""

from __future__ import annotations

import threading
from typing import Any, Optional

import numpy as np

from repro.core import geom_cache as _gc
from repro.core.combsort import comb_sort
from repro.core.geom_cache import DepositPlan, GeomCache, GeomEntry
from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.core.intersections import (
    LiveTrajectories,
    count_crossings_scalar,
    fill_crossings_scalar,
    live_trajectories,
    sorted_crossings_batch,
)
from repro.jacc import parallel_for, resolve_backend
from repro.jacc.kernels import Captures, Kernel
from repro.nexus.corrections import FluxSpectrum
from repro.util import trace as _trace
from repro.util.validation import require

#: trajectories per device tile in the main MDNorm kernel
DEFAULT_TILE_ROWS = 8192


class _Scratch:
    """Per-thread preallocated intersection buffers (no allocation in
    the kernel body, as in MiniVATES).

    Cross-call reuse safety: a ``_Scratch`` must never be stored in the
    geometry cache or any other structure that outlives one ``mdnorm``
    call — its buffers are *uninitialized working memory*, not results.
    ``mdnorm`` constructs a fresh instance per call, and ``get``
    re-allocates whenever a thread's existing buffer is narrower than
    the requested width, so even an (incorrectly) retained instance can
    never hand a kernel a buffer too small for the current grid — the
    latent overflow this guarded against is exercised by
    ``tests/core/test_geom_cache.py::TestScratchSafety``.
    """

    def __init__(self, width: int) -> None:
        self.width = int(width)
        self._local = threading.local()

    def get(self) -> np.ndarray:
        buf = getattr(self._local, "buf", None)
        if buf is None or buf.size < self.width:
            buf = np.empty(self.width, dtype=np.float64)
            self._local.buf = buf
        return buf


# ---------------------------------------------------------------------------
# pre-pass: maximum intersections per trajectory
# ---------------------------------------------------------------------------

def _count_element(ctx: Captures, i: int) -> float:
    traj = ctx.traj
    return float(count_crossings_scalar(traj.directions[:, i], ctx.grid,
                                        traj.k_lo[i], traj.k_hi[i]))


def _count_batch(ctx: Captures, dims: tuple[int]) -> np.ndarray:
    return ctx.traj.crossings().astype(np.float64)


COUNT_KERNEL = Kernel(name="mdnorm_count", element=_count_element, batch=_count_batch)


def _count_store_batch(ctx: Captures, dims: tuple[int]) -> None:
    ctx.counts[...] = ctx.traj.crossings()


COUNT_STORE_KERNEL = Kernel(
    name="mdnorm_count_store",
    element=lambda ctx, i: None,  # device-only helper
    batch=_count_store_batch,
)


def max_intersections(
    grid: HKLGrid,
    transforms: np.ndarray,
    det_directions: np.ndarray,
    momentum_band: tuple[float, float],
    *,
    backend: Optional[str] = None,
    use_extended_reduce: bool = False,
    trajectories: Optional[LiveTrajectories] = None,
) -> int:
    """Upper bound on per-trajectory intersections (+2 endpoints).

    The launch covers the live trajectories only (a dead one has no
    crossings).  On CPU back ends this is one
    ``parallel_reduce(op="max")``.  The device back end cannot reduce
    with MAX (JACC limitation), so there it launches a counting
    ``parallel_for`` into a device array, copies it to the host, and
    maxes there — the documented MiniVATES workaround, with the
    device->host transfer really happening (and counted by the back
    end's transfer statistics).  The batch bodies sum each row's
    per-axis crossing counts; the element body searches its lane.

    ``use_extended_reduce=True`` opts into
    :func:`repro.jacc.reduction.device_reduce` — the custom-operator
    device reduction the paper lists as hoped-for future work — which
    removes the per-lane device->host copy entirely.

    ``trajectories`` may be supplied when the caller (or the geometry
    cache) has already computed them; it must be exactly
    ``live_trajectories(transforms, det_directions, grid, *momentum_band)``.
    """
    be = resolve_backend(backend)
    if trajectories is None:
        trajectories = live_trajectories(transforms, det_directions, grid,
                                         *momentum_band)
    dims = (trajectories.n_rows,)
    captures = Captures(traj=trajectories, grid=grid)
    tracer = _trace.active_tracer()
    with tracer.span("mdnorm.prepass", kind="phase", backend=be.name) as sp:
        if tracer.enabled:
            from repro.util.perf import prepass_work

            sp.set(perf=prepass_work(dims[0]))
        if be.device_kind == "device" and use_extended_reduce:
            from repro.jacc.reduction import device_reduce

            value = device_reduce(dims, COUNT_KERNEL, captures, op="max",
                                  backend=be.name)
        elif be.device_kind == "device":
            captures.counts = be.to_device(np.zeros(dims[0], dtype=np.int64))
            be.parallel_for(dims, COUNT_STORE_KERNEL, captures)
            counts_host = be.to_host(captures.counts)  # the workaround's D2H copy
            value = counts_host.max(initial=0)
        else:
            value = be.parallel_reduce(dims, COUNT_KERNEL, captures, op="max")
        # no live row: the reduction's identity (-inf) means no crossing
        max_count = int(max(value, 0))
        sp.set(max_intersections=max_count + 2)
    tracer.count("mdnorm.prepass_trajectories", dims[0])
    return max_count + 2


# ---------------------------------------------------------------------------
# main MDNorm kernel
# ---------------------------------------------------------------------------

def _mdnorm_element(ctx: Captures, i: int) -> None:
    """Listing 1's per-(op, detector) body, for live row ``i``."""
    traj = ctx.traj
    direction = traj.directions[:, i]
    buf = ctx.scratch.get()
    count = ctx.fill(buf, direction, ctx.grid, traj.k_lo[i], traj.k_hi[i])
    comb_sort(buf, count)
    weight_det = ctx.solid_angles[traj.rows[i] % traj.n_det] * ctx.charge
    if weight_det == 0.0:
        return
    flux_k, flux_cum = ctx.flux_k, ctx.flux_cum
    d0, d1, d2 = float(direction[0]), float(direction[1]), float(direction[2])
    # np.interp, as the batch body uses: bit-identical fluxes per segment
    phi_lo = float(np.interp(buf[0], flux_k, flux_cum))
    for j in range(count - 1):
        a = buf[j]
        b = buf[j + 1]
        phi_hi = float(np.interp(b, flux_k, flux_cum))
        if b > a:
            mid = 0.5 * (a + b)
            w = (phi_hi - phi_lo) * weight_det
            if w != 0.0:
                ctx.hist.push(mid * d0, mid * d1, mid * d2, w)
        phi_lo = phi_hi


def _mdnorm_batch(ctx: Captures, dims: tuple[int]) -> None:
    """Device realization over the live rows: stream-compacted rows, a
    row sort of the padded crossing buffer (filled from the rows'
    per-axis crossing ranges, with no search), then interpolation,
    binning and atomic scatter-add over the non-empty segments only.

    After the sort only segments with ``seg_hi > seg_lo`` can deposit,
    so one flat scan gathers them row-major into 1-D arrays before any
    further work.  Each breakpoint's flux is interpolated once, as in
    the element body, so every value equals the one the padded form
    would compute, in the same deposit order.  The trace counts the
    live rows and these real segments.

    When the geometry cache holds a :class:`DepositPlan` for this
    configuration the fill/sort/interpolate/bin-search pipeline is
    skipped entirely: the warm path multiplies the cached per-segment
    fluxes by ``solid_angle x charge`` and scatter-adds, one call per
    cold-path tile, so its scatter sequence equals the cold path's bit
    for bit under either ``scatter_impl``.
    """
    traj: LiveTrajectories = ctx.traj
    grid: HKLGrid = ctx.grid
    hist = ctx.hist
    tile = ctx.tile_rows
    width = ctx.width

    entry: Optional[GeomEntry] = getattr(ctx, "geom_entry", None)
    use_plan: bool = getattr(ctx, "use_plan", False)
    plan = entry.deposit if (entry is not None and use_plan) else None
    if plan is not None and plan.width != width:
        plan = None  # caller forced a different buffer width

    if plan is not None:
        # ---- warm path: cached segment fluxes + bin indices ----------
        # per-trajectory weight: solid angle of the detector (tiled over ops)
        det_w = np.broadcast_to(ctx.solid_angles, (traj.n_ops, traj.n_det)
                                ).reshape(-1) * ctx.charge
        row_ptr = plan.row_ptr
        weights = plan.seg_flux * np.repeat(det_w[plan.live], np.diff(row_ptr))
        bounds = [*row_ptr[:-1:tile].tolist(), int(row_ptr[-1])]
        for a, b in zip(bounds[:-1], bounds[1:]):
            w = weights[a:b]
            deposit = w != 0.0
            hist.push_flat(plan.flat_idx[a:b][deposit], w[deposit],
                           scatter_impl=ctx.scatter_impl)
        return

    # stream compaction: trajectories that never enter the grid box
    # were never made rows; those of zero weight do no work either
    det_w = ctx.solid_angles[traj.rows % traj.n_det] * ctx.charge
    live = det_w != 0.0
    if not live.all():
        traj = traj[live]
        det_w = det_w[live]
    n_rows = traj.n_rows
    if n_rows == 0:
        return

    # collect the deposit plan alongside the cold pass (admitted to the
    # cache below by its compacted size)
    collect = [] if (use_plan and entry is not None) else None
    n_segments = 0

    for start in range(0, n_rows, tile):
        stop = min(start + tile, n_rows)
        part = traj if stop - start == n_rows else traj[start:stop]
        cells = sorted_crossings_batch(part, grid, width,
                                       sort_impl=ctx.sort_impl).reshape(-1)
        # real segments in one flat scan; none starts at a row's end
        real = cells[1:] > cells[:-1]
        real[width - 1::width] = False
        at = np.flatnonzero(real)
        n_segments += at.size
        lo = cells.take(at)
        hi = cells[1:].take(at)
        row = at
        row //= width
        # one interpolation per breakpoint, the element body's carry: a
        # real segment starts at the value the row's previous one ends
        # at (zero-length segments between them have equal ends)
        phi_hi = np.interp(hi, ctx.flux_k, ctx.flux_cum)
        seg_flux = np.empty_like(phi_hi)
        np.subtract(phi_hi[1:], phi_hi[:-1], out=seg_flux[1:])
        starts = np.ones(row.size, dtype=bool)  # a row's first segment
        np.not_equal(row[1:], row[:-1], out=starts[1:])
        first = starts.nonzero()[0]
        seg_flux[first] = phi_hi[first] - np.interp(lo[first], ctx.flux_k,
                                                    ctx.flux_cum)
        # large temporaries are reused in place (each fresh one costs page
        # faults): lo becomes the midpoint, hi the weight
        mid = lo
        mid += hi
        mid *= 0.5
        columns = [part.directions[axis].take(row) for axis in range(3)]
        for column in columns:
            column *= mid
        flat_idx, inside = grid.bin_columns(*columns)
        weights = det_w[start:stop].take(row, out=hi)
        weights *= seg_flux
        deposit = inside & (weights != 0.0)
        if collect is not None:
            kept_row, kept_flux, kept_idx = _where(inside, row, seg_flux, flat_idx)
            collect.append((np.bincount(kept_row, minlength=stop - start),
                            kept_flux, kept_idx))
        hist.push_flat(*_where(deposit, flat_idx, weights),
                       scatter_impl=ctx.scatter_impl)

    tracer = _trace.active_tracer()
    tracer.count("mdnorm.live_rows", n_rows)
    tracer.count("mdnorm.segments", n_segments)

    if collect is not None:
        counts, fluxes, flats = zip(*collect)
        row_ptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.concatenate(counts), out=row_ptr[1:])
        mask = np.zeros(traj.n_ops * traj.n_det, dtype=bool)
        mask[traj.rows] = True
        built = DepositPlan(width=width, live=mask, row_ptr=row_ptr,
                            seg_flux=np.concatenate(fluxes),
                            flat_idx=np.concatenate(flats))
        if ctx.geom_cache.accepts(built.nbytes):
            for name in ("live", "row_ptr", "seg_flux", "flat_idx"):
                getattr(built, name).flags.writeable = False
            entry.deposit = built
            ctx.geom_cache.note_update(entry)


def _where(mask: np.ndarray, *arrays: np.ndarray) -> tuple:
    """The entries of ``arrays`` where ``mask`` holds: the arrays
    themselves when it holds everywhere, which it mostly does."""
    if mask.all():
        return arrays
    return tuple(a[mask] for a in arrays)


MDNORM_KERNEL = Kernel(name="mdnorm", element=_mdnorm_element, batch=_mdnorm_batch)


def _mdnorm_captures(
    hist: Hist3,
    transforms: np.ndarray,
    det_directions: np.ndarray,
    solid_angles: np.ndarray,
    flux: FluxSpectrum,
    momentum_band: tuple[float, float],
    *,
    charge: float,
    backend: Optional[str],
    cache: Optional[GeomCache],
    cache_tag: Optional[str],
    width: Optional[int] = None,
    deposit_plan: bool = True,
    sort_impl: str = "library",
    scatter_impl: str = "atomic",
    tile_rows: int = DEFAULT_TILE_ROWS,
    op_span: Any = None,
) -> Captures:
    """MDNorm's geometry stage (cache-aware), packed into the captures
    both kernel bodies read.

    Shared by :func:`mdnorm` and the shard planner
    (:func:`repro.core.sharding.mdnorm_shard_context`), so warm reruns
    skip the geometry work identically on every executor.  The pre-pass
    width is an integer max (exactly associative), so the captures — and
    everything deposited through them — are bitwise independent of the
    ``backend`` that computed it.  ``deposit_plan=False`` keeps the
    cached :class:`DepositPlan` out of the captures (shards run the body
    over sub-ranges, which a whole-run plan does not describe).
    """
    require(transforms.ndim == 3 and transforms.shape[1:] == (3, 3),
            "transforms must be (n_ops, 3, 3)")
    require(det_directions.ndim == 2 and det_directions.shape[1] == 3,
            "det_directions must be (n_det, 3)")
    require(solid_angles.shape == (det_directions.shape[0],),
            "solid_angles length mismatch")
    require(sort_impl in ("comb", "library"), "sort_impl must be comb|library")

    grid = hist.grid
    cache = _gc.resolve(cache)
    entry: Optional[GeomEntry] = None
    key = None
    if cache.enabled:
        key = GeomCache.geometry_key(
            grid, transforms, det_directions, momentum_band, solid_angles, flux
        )
        entry = cache.get(key)
    if op_span is not None:
        op_span.set(cache_hit=entry is not None)

    if entry is not None:
        traj = entry.trajectories
        raw_width = entry.width
    else:
        traj = live_trajectories(transforms, det_directions, grid,
                                 *momentum_band)
        raw_width = None

    explicit_width = width is not None
    if width is None:
        if raw_width is None:
            raw_width = max_intersections(
                grid, transforms, det_directions, momentum_band,
                backend=backend, trajectories=traj,
            )
        width = raw_width
    width = min(width, grid.max_plane_crossings)

    if cache.enabled:
        if entry is None:
            entry = GeomEntry(key=key, tag=cache_tag,
                              trajectories=traj.map(_gc.freeze),
                              width=raw_width)
            cache.put(entry)
            traj = entry.trajectories
        elif entry.width is None and raw_width is not None:
            entry.width = raw_width
            cache.note_update(entry)

    flux_k, flux_cum = cache.flux_table(flux)

    # The deposit plan is only built/used for the canonical (pre-pass)
    # width, and never when charge is 0 (the stream-compaction mask
    # would degenerate and no longer be charge-independent).
    use_plan = deposit_plan and cache.enabled and entry is not None \
        and not explicit_width and charge != 0.0
    warm_plan = bool(use_plan and entry.deposit is not None)
    if op_span is not None:
        op_span.set(width=int(width), warm_plan=warm_plan)
        if _trace.active_tracer().enabled:
            from repro.util.perf import mdnorm_work

            # charged for the live rows, the only ones the launch works on
            op_span.set(perf=mdnorm_work(
                traj.n_rows, 1, int(width), warm_plan=warm_plan,
                stored_segments=entry.deposit.seg_flux.size if warm_plan else None,
            ))
    return Captures(
        hist=hist,
        grid=grid,
        traj=traj,
        solid_angles=solid_angles,
        charge=float(charge),
        flux_k=flux_k,
        flux_cum=flux_cum,
        scratch=_Scratch(width),
        fill=fill_crossings_scalar,
        width=int(width),
        tile_rows=int(tile_rows),
        sort_impl=sort_impl,
        scatter_impl=scatter_impl,
        geom_entry=entry,
        geom_cache=cache,
        use_plan=use_plan,
    )


def mdnorm(
    hist: Hist3,
    transforms: np.ndarray,
    det_directions: np.ndarray,
    solid_angles: np.ndarray,
    flux: FluxSpectrum,
    momentum_band: tuple[float, float],
    *,
    charge: float = 1.0,
    backend: Optional[str] = None,
    sort_impl: str = "library",
    scatter_impl: str = "atomic",
    tile_rows: int = DEFAULT_TILE_ROWS,
    width: Optional[int] = None,
    cache: Optional[GeomCache] = None,
    cache_tag: Optional[str] = None,
) -> Hist3:
    """Accumulate the normalization for one run into ``hist``.

    Parameters
    ----------
    hist:
        Normalization histogram (accumulated in place, also returned).
    transforms:
        ``(n_ops, 3, 3)`` Q_lab -> grid matrices *including* the run's
        goniometer (``HKLGrid.transforms_for(..., goniometer=R)``).
    det_directions:
        ``(n_det, 3)`` unit vectors sample -> pixel.
    solid_angles:
        ``(n_det,)`` per-detector solid angle x efficiency (the
        vanadium weights).
    flux:
        Incident flux spectrum; its cumulative integral is linearly
        interpolated over each trajectory segment.
    momentum_band:
        Accepted ``(k_min, k_max)`` of the run.
    charge:
        The run's proton charge (scales the flux).
    sort_impl:
        "library" (a C row sort, the default) or "comb" (the paper's
        in-kernel sort); both give the same ascending values, so the
        histogram is bit-identical either way — batch bodies only.
    scatter_impl:
        "atomic" or "buffered" histogram accumulation (device back end
        only; see :meth:`Hist3.push_many`).
    width:
        Padded intersection-buffer width; None runs the pre-pass.
    cache:
        Geometry cache; None uses the process default
        (:func:`repro.core.geom_cache.default_cache`), pass
        :data:`repro.core.geom_cache.DISABLED` to opt out.  Cached and
        uncached calls are bit-identical on every back end.
    cache_tag:
        Optional lifecycle tag recorded on new cache entries (e.g.
        ``"run:42"``) for targeted invalidation.
    """
    transforms = np.asarray(transforms, dtype=np.float64)
    det_directions = np.asarray(det_directions, dtype=np.float64)
    solid_angles = np.asarray(solid_angles, dtype=np.float64)
    tracer = _trace.active_tracer()
    with tracer.span(
        "mdnorm",
        kind="op",
        backend=resolve_backend(backend).name,
        n_ops=int(transforms.shape[0]),
        n_det=int(det_directions.shape[0]),
        sort_impl=sort_impl,
    ) as op_span:
        captures = _mdnorm_captures(
            hist, transforms, det_directions, solid_angles, flux,
            momentum_band, charge=charge, backend=backend, cache=cache,
            cache_tag=cache_tag, width=width, sort_impl=sort_impl,
            scatter_impl=scatter_impl, tile_rows=tile_rows, op_span=op_span,
        )
        parallel_for((captures.traj.n_rows,), MDNORM_KERNEL, captures,
                     backend=backend)
        tracer.count("mdnorm.trajectories",
                      int(transforms.shape[0]) * int(det_directions.shape[0]))
    return hist
