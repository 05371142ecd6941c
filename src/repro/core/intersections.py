"""Trajectory / grid-plane intersection geometry.

For one detector pixel and one symmetry operation, the elastic
trajectory through reciprocal space is the straight line

    c(k) = k * D,    D = T_op (z_hat - d_hat),    k in [k_min, k_max],

in grid coordinates (``T_op`` from
:meth:`repro.core.grid.HKLGrid.transforms_for`).  MDNorm needs, per
trajectory: the sub-interval of ``k`` inside the grid box, and every
crossing of a grid plane inside that interval — the "calculate
intersections" loops of the paper's Listing 1.

Everything here exists in two forms:

* scalar helpers consumed by the element kernels (one trajectory at a
  time, writing into a caller-preallocated buffer — no allocation in
  the kernel, like MiniVATES);
* batch helpers consumed by the device kernel (all ``n_ops x n_det``
  trajectories at once), including the **pre-pass** that bounds the
  intersection count so the padded buffer can be pre-allocated — the
  extra kernel the paper describes MiniVATES adding because JACC's
  ``parallel_reduce`` lacks a MAX operator.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.combsort import comb_sort_rows
from repro.core.grid import HKLGrid
from repro.util import trace as _trace

#: trajectory directions with |D_i| below this are treated as parallel
#: to the dimension's planes
PARALLEL_EPS = 1.0e-12


def trajectory_directions(
    transforms: np.ndarray, det_directions: np.ndarray
) -> np.ndarray:
    """Grid-space direction of every (op, detector) trajectory.

    Parameters
    ----------
    transforms:
        ``(n_ops, 3, 3)`` Q_lab -> grid-coordinate matrices.
    det_directions:
        ``(n_det, 3)`` unit vectors sample -> pixel.

    Returns
    -------
    ``(n_ops, n_det, 3)``: ``D = T_op (z_hat - d_hat)``, component
    ``i`` computed as ``(T[i, 0] * q0 + T[i, 1] * q1) + T[i, 2] * q2``
    with ``q = z_hat - d_hat``: three ufunc products over one row per
    (op, axis), whose rounding does not depend on a BLAS (unlike
    ``np.matmul``) and is several times cheaper than ``np.einsum``.
    """
    t = np.asarray(transforms, dtype=np.float64)
    # q = z_hat - d_hat, one contiguous row per axis
    q = np.negative(np.asarray(det_directions, dtype=np.float64).T, order="C")
    q[2] += 1.0
    rows = t.reshape(-1, 3)
    d = rows[:, 0:1] * q[0]
    d += rows[:, 1:2] * q[1]
    d += rows[:, 2:3] * q[2]
    return np.ascontiguousarray(d.reshape(t.shape[0], 3, -1).transpose(0, 2, 1))


def k_window(
    directions: np.ndarray, grid: HKLGrid, k_min: float, k_max: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-trajectory momentum interval inside the grid box.

    ``directions`` is ``(..., 3)``; returns ``(k_lo, k_hi)`` with
    ``k_lo >= k_hi`` marking trajectories that never enter the box.
    """
    d = np.asarray(directions, dtype=np.float64)
    lo = np.full(d.shape[:-1], float(k_min))
    hi = np.full(d.shape[:-1], float(k_max))
    for axis in range(3):
        di = d[..., axis]
        box_lo, box_hi = grid.minimum[axis], grid.maximum[axis]
        para = ~(np.abs(di) > PARALLEL_EPS)  # NaN counts as parallel
        # division is monotone: the smaller quotient is box_lo / di for
        # di > 0 and box_hi / di for di < 0
        with np.errstate(divide="ignore", invalid="ignore"):
            p = box_lo / di
            q = box_hi / di
        a = np.minimum(p, q)
        b = np.maximum(p, q)
        # equal quotients are zeros, maybe of opposite signs (infinite
        # di, or a box plane at 0): pick those by the sign of di
        tie = p == q
        if tie.any():
            neg = di[tie] < 0.0
            a[tie] = np.where(neg, q[tie], p[tie])
            b[tie] = np.where(neg, p[tie], q[tie])
        np.maximum(lo, np.where(para, -np.inf, a), out=lo)
        np.minimum(hi, np.where(para, np.inf, b), out=hi)
        # parallel trajectories: inside iff the box straddles 0 in this dim
        if not box_lo <= 0.0 <= box_hi:
            hi = np.where(para, lo - 1.0, hi)  # mark empty
    return lo, hi


# ---------------------------------------------------------------------------
# scalar (element-kernel) helpers
# ---------------------------------------------------------------------------

def count_crossings_scalar(
    direction: np.ndarray, grid: HKLGrid, k_lo: float, k_hi: float
) -> int:
    """Number of grid-plane crossings strictly inside (k_lo, k_hi)."""
    if not k_hi > k_lo:
        return 0
    total = 0
    for axis in range(3):
        di = float(direction[axis])
        if abs(di) <= PARALLEL_EPS:
            continue
        edges = grid.edges[axis]
        a = k_lo * di
        b = k_hi * di
        if a > b:
            a, b = b, a
        s = int(np.searchsorted(edges, a, side="right"))
        t = int(np.searchsorted(edges, b, side="left"))
        if t > s:
            total += t - s
    return total


def fill_crossings_scalar(
    buffer: np.ndarray,
    direction: np.ndarray,
    grid: HKLGrid,
    k_lo: float,
    k_hi: float,
) -> int:
    """Write [k_lo, crossings..., k_hi] into ``buffer``; return count.

    The buffer is caller-preallocated (no allocation in the kernel);
    entries are *unsorted* — the kernel comb-sorts them in place.
    """
    if not k_hi > k_lo:
        return 0
    n = 0
    buffer[n] = k_lo
    n += 1
    for axis in range(3):
        di = float(direction[axis])
        if abs(di) <= PARALLEL_EPS:
            continue
        edges = grid.edges[axis]
        a = k_lo * di
        b = k_hi * di
        if a > b:
            a, b = b, a
        s = int(np.searchsorted(edges, a, side="right"))
        t = int(np.searchsorted(edges, b, side="left"))
        for e in range(s, t):
            buffer[n] = edges[e] / di
            n += 1
    buffer[n] = k_hi
    n += 1
    return n


# ---------------------------------------------------------------------------
# batch (device-kernel) helpers
# ---------------------------------------------------------------------------

def count_crossings_batch(
    directions: np.ndarray, grid: HKLGrid, k_lo: np.ndarray, k_hi: np.ndarray
) -> np.ndarray:
    """Per-trajectory crossing counts — the MiniVATES pre-pass kernel.

    Vectorized over flattened trajectories; never materializes the
    crossings themselves, so it is cheap enough to run once per file
    before allocating the padded intersection buffer.  Only live
    trajectories (``k_hi > k_lo``) are searched; the others count 0.
    """
    d = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
    lo = np.asarray(k_lo, dtype=np.float64).reshape(-1)
    hi = np.asarray(k_hi, dtype=np.float64).reshape(-1)
    counts = np.zeros(d.shape[0], dtype=np.int64)
    live = (hi > lo).nonzero()[0]
    d, lo, hi = d[live], lo[live], hi[live]
    live_counts = np.zeros(live.size, dtype=np.int64)
    for axis in range(3):
        di = d[:, axis]
        edges = grid.edges[axis]
        nonpar = np.abs(di) > PARALLEL_EPS
        a = np.minimum(lo * di, hi * di)
        b = np.maximum(lo * di, hi * di)
        s = np.searchsorted(edges, a, side="right")
        t = np.searchsorted(edges, b, side="left")
        live_counts += np.where(nonpar, np.maximum(t - s, 0), 0)
    counts[live] = live_counts
    return counts


def fill_crossings_batch(
    directions: np.ndarray,
    grid: HKLGrid,
    k_lo: np.ndarray,
    k_hi: np.ndarray,
    width: int,
) -> np.ndarray:
    """Padded per-trajectory crossing buffer, ready for the in-kernel sort.

    Returns ``(n_rows, width)`` where row r holds ``k_lo[r]`` in column
    0, its crossings (unsorted) next, and ``k_hi[r]`` everywhere after —
    trailing duplicates form zero-length segments that deposit nothing.
    Rows with an empty window are entirely ``k_lo`` (also harmless).
    ``width`` must be at least ``max crossings + 2`` (use the pre-pass).
    """
    d = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
    lo = np.asarray(k_lo, dtype=np.float64).reshape(-1)
    hi = np.asarray(k_hi, dtype=np.float64).reshape(-1)
    n_rows = d.shape[0]
    valid = hi > lo
    safe_hi = np.where(valid, hi, lo)

    padded = np.broadcast_to(safe_hi[:, None], (n_rows, width)).copy()
    padded[:, 0] = lo
    cursor = np.ones(n_rows, dtype=np.int64)

    flat = padded.reshape(-1)
    for axis in range(3):
        di = d[:, axis]
        edges = grid.edges[axis]
        nonpar = np.abs(di) > PARALLEL_EPS
        a = np.minimum(lo * di, hi * di)
        b = np.maximum(lo * di, hi * di)
        s = np.searchsorted(edges, a, side="right")
        t = np.searchsorted(edges, b, side="left")
        cnt = np.where(valid & nonpar, np.maximum(t - s, 0), 0)
        total = int(cnt.sum())
        if total == 0:
            continue
        if int((cursor + cnt).max()) >= width:
            raise ValueError(
                f"intersection buffer width {width} too small "
                f"(needed {int((cursor + cnt).max()) + 1}); run the pre-pass"
            )
        rows_rep = np.repeat(np.arange(n_rows), cnt)
        starts = np.concatenate([[0], np.cumsum(cnt)[:-1]])
        within = np.arange(total) - np.repeat(starts, cnt)
        edge_idx = np.repeat(s, cnt) + within
        vals = edges[edge_idx] / di[rows_rep]
        pos = rows_rep * width + np.repeat(cursor, cnt) + within
        flat[pos] = vals
        cursor += cnt

    return padded


def _fill_sorted(directions, grid, k_lo, k_hi, width, sort_impl):
    padded = fill_crossings_batch(directions, grid, k_lo, k_hi, width)
    if sort_impl == "comb":
        comb_sort_rows(padded)
    else:
        padded.sort(axis=1)
    return padded


def sorted_crossings_batch(
    directions: np.ndarray,
    grid: HKLGrid,
    k_lo: np.ndarray,
    k_hi: np.ndarray,
    width: int,
    *,
    sort_impl: str = "library",
) -> np.ndarray:
    """Fill + row-sort in one step: the packed per-trajectory buffer.

    ``sort_impl`` is "library" (NumPy's C row sort) or "comb" (the
    paper's in-kernel comb sort, one lane-parallel pass per gap).  The
    row values are a multiset without NaNs, so both give the same
    ascending rows; ``-0.0`` and ``0.0`` may swap places, which no
    consumer can see (interpolation, midpoints and ``>`` treat them
    alike).

    Rows are fully independent (fill and sort never look across rows),
    so sorting the whole live set at once or a tile of it yields
    bit-identical values.
    """
    tracer = _trace.active_tracer()
    if not tracer.enabled:
        return _fill_sorted(directions, grid, k_lo, k_hi, width, sort_impl)

    n_rows = int(np.asarray(directions).reshape(-1, 3).shape[0])
    attrs = {"kind": "phase", "rows": n_rows, "width": int(width),
             "sort_impl": sort_impl}
    if tracer.profile:
        from repro.util.perf import intersections_work

        attrs["perf"] = intersections_work(n_rows, int(width))
    with tracer.span("intersections.fill_sort", **attrs):
        return _fill_sorted(directions, grid, k_lo, k_hi, width, sort_impl)
