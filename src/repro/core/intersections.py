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
* batch helpers consumed by the device kernel (all live trajectories
  at once).

MDNorm's geometry stage is :func:`live_trajectories`: it finds the
trajectories that enter the grid box on the grid's thin axis first,
computes the full direction and window of those alone, and searches
each live row's crossings once per axis.  The per-axis crossing ranges
it returns feed both the **pre-pass** that bounds the intersection
count so the padded buffer can be pre-allocated (the extra kernel the
paper describes MiniVATES adding because JACC's ``parallel_reduce``
lacks a MAX operator) and the batch fill, which therefore never
searches again.  :func:`trajectory_directions` and :func:`k_window`
are the full-array forms, kept for the proxies and the Mantid baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Tuple

import numpy as np

from repro.core.combsort import comb_sort_rows
from repro.core.grid import HKLGrid, signed_row_products
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
    The box quotients of all three axes are formed at once; the window
    is then clipped axis by axis, in axis order.
    """
    d = np.asarray(directions, dtype=np.float64)
    # division is monotone: the smaller quotient is box_lo / d for d > 0
    # and box_hi / d for d < 0
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.divide(grid.minimum, d)
        q = np.divide(grid.maximum, d)
    a = np.minimum(p, q)
    b = np.maximum(p, q)
    # equal quotients are zeros, maybe of opposite signs (infinite d, or
    # a box plane at 0): pick those by the sign of d
    tie = p == q
    if tie.any():
        neg = d[tie] < 0.0
        a[tie] = np.where(neg, q[tie], p[tie])
        b[tie] = np.where(neg, p[tie], q[tie])
    nonpar = np.abs(d) > PARALLEL_EPS  # NaN counts as parallel
    lo = np.full(d.shape[:-1], float(k_min))
    hi = np.full(d.shape[:-1], float(k_max))
    for axis in range(3):
        # a parallel axis leaves the window as it is
        np.maximum(lo, a[..., axis], out=lo, where=nonpar[..., axis])
        np.minimum(hi, b[..., axis], out=hi, where=nonpar[..., axis])
        # parallel trajectories: inside iff the box straddles 0 in this dim
        if not grid.minimum[axis] <= 0.0 <= grid.maximum[axis]:
            np.subtract(lo, 1.0, out=hi, where=~nonpar[..., axis])  # mark empty
    return lo, hi


# ---------------------------------------------------------------------------
# MDNorm's geometry stage: the live trajectories, compacted
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LiveTrajectories:
    """The (op, detector) trajectories of one run that enter the grid
    box, compacted in op-major order, with their crossing ranges.

    Row ``r`` of the ``n_ops x n_det`` trajectory space is
    ``op * n_det + det``.  Per live row this holds exactly what
    :func:`trajectory_directions` and :func:`k_window` give for that
    row, and per axis the range of grid edges its trajectory crosses
    inside ``(k_lo, k_hi)``: ``count`` edges from index ``first``
    (``count`` is 0 on an axis the trajectory is parallel to).
    """

    n_ops: int
    n_det: int
    #: ``(n,)`` ascending row indices ``op * n_det + det``
    rows: np.ndarray
    #: ``(3, n)`` grid-space directions, one contiguous row per axis
    directions: np.ndarray
    #: ``(n,)`` momentum window inside the box (``k_lo < k_hi``)
    k_lo: np.ndarray
    k_hi: np.ndarray
    #: ``(3, n)`` first crossed edge and crossing count per axis
    first: np.ndarray
    count: np.ndarray

    @property
    def n_rows(self) -> int:
        return int(self.rows.size)

    @cached_property
    def nbytes(self) -> int:
        return sum(int(getattr(self, f.name).nbytes) for f in _ROW_FIELDS)

    def crossings(self) -> np.ndarray:
        """Plane crossings per live row (the pre-pass's per-lane count)."""
        return self.count.sum(axis=0)

    def map(self, fn: Callable[[np.ndarray], np.ndarray]) -> "LiveTrajectories":
        """The same rows with ``fn`` applied to every per-row array."""
        return LiveTrajectories(self.n_ops, self.n_det,
                                *(fn(getattr(self, f.name)) for f in _ROW_FIELDS))

    def __getitem__(self, sel) -> "LiveTrajectories":
        """The live rows selected by ``sel`` (a slice or a mask), in order."""
        return self.map(lambda a: a[..., sel])

    def window(self, a: int, b: int) -> "LiveTrajectories":
        """The live rows among trajectory rows ``[a, b)``."""
        p, q = np.searchsorted(self.rows, (a, b))
        return self[int(p):int(q)]


_ROW_FIELDS = tuple(f for f in fields(LiveTrajectories)
                    if f.name not in ("n_ops", "n_det"))


def crossing_ranges(
    directions: np.ndarray, grid: HKLGrid, k_lo: np.ndarray, k_hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-axis crossing ranges ``(first, count)`` of live rows.

    ``directions`` is ``(3, n)``; the rows must have ``k_lo < k_hi``.
    On each axis the crossed edges are those strictly inside the
    trajectory's span ``[min(k_lo*D, k_hi*D), max(...)]``: from
    ``searchsorted(edges, low, "right")`` up to (not including)
    ``searchsorted(edges, high, "left")``; a parallel axis (``|D| <=
    PARALLEL_EPS`` or NaN) has none.  Both outputs are ``(3, n)`` int64.
    """
    a = directions * k_lo
    b = directions * k_hi
    low = np.minimum(a, b)
    high = np.maximum(a, b)
    first = np.empty(low.shape, dtype=np.int64)
    count = np.empty(low.shape, dtype=np.int64)
    for axis, edges in enumerate(grid.edges):
        first[axis] = edges.searchsorted(low[axis], side="right")
        count[axis] = edges.searchsorted(high[axis], side="left")
    count -= first
    np.maximum(count, 0, out=count)
    count *= np.abs(directions) > PARALLEL_EPS
    return first, count


def live_trajectories(
    transforms: np.ndarray,
    det_directions: np.ndarray,
    grid: HKLGrid,
    k_min: float,
    k_max: float,
) -> LiveTrajectories:
    """MDNorm's geometry stage: the trajectories that enter the box.

    1. The thin-axis component of every trajectory (the grid's
       :attr:`~repro.core.grid.HKLGrid.thin_axis`) is computed once per
       distinct row of the ops' thin-axis rows
       (:func:`~repro.core.grid.signed_row_products`, the rule BinMD
       shares), and the thin-axis window and the detectors it leaves
       live once per distinct *signed* row.  :func:`k_window` clips
       with every axis, so its window lies inside the thin-axis one:
       a trajectory dead on the thin axis is dead.  A parallel thin
       component (``±0``, tiny or NaN) stays a candidate exactly when
       the box straddles 0 on that axis.
    2. The candidates, gathered op-major, get their directions and
       windows from the full-array formulas — the three-term products
       of :func:`trajectory_directions` and :func:`k_window` itself —
       so each value carries the same bits as there.  The tracer
       counter ``mdnorm.direction_rows`` counts them.
    3. The live candidates get their per-axis :func:`crossing_ranges`.
    """
    t = np.asarray(transforms, dtype=np.float64)
    q = np.negative(np.asarray(det_directions, dtype=np.float64).T, order="C")
    q[2] += 1.0
    n_ops, n_det = t.shape[0], q.shape[1]
    thin = grid.thin_axis
    box_lo, box_hi = grid.minimum[thin], grid.maximum[thin]
    straddles = box_lo <= 0.0 <= box_hi

    index, _, products = signed_row_products(t[:, thin], *q)
    # one row per distinct signed row: its thin-axis window and live set
    di = np.stack(list(products))
    with np.errstate(divide="ignore", invalid="ignore"):
        p = box_lo / di
        r = box_hi / di
    lo = np.minimum(p, r)
    np.maximum(lo, k_min, out=lo)
    hi = np.maximum(p, r)
    np.minimum(hi, k_max, out=hi)
    live = hi > lo
    nonpar = np.abs(di) > PARALLEL_EPS
    if straddles:
        live |= ~nonpar
    else:
        live &= nonpar
    # every op's live detectors, op-major
    op, det = live[index].nonzero()
    _trace.active_tracer().count("mdnorm.direction_rows", int(det.size))

    # D[i] = (T[i, 0] * q0 + T[i, 1] * q1) + T[i, 2] * q2 per candidate
    g = np.take(t.transpose(1, 2, 0), op, axis=2)
    qc = np.take(q, det, axis=1)
    directions = g[:, 0] * qc[0]
    directions += g[:, 1] * qc[1]
    directions += g[:, 2] * qc[2]
    k_lo, k_hi = k_window(directions.T, grid, k_min, k_max)
    rows = op * n_det + det
    live = k_hi > k_lo
    if not live.all():
        rows, k_lo, k_hi = rows[live], k_lo[live], k_hi[live]
        directions = np.compress(live, directions, axis=1)
    first, count = crossing_ranges(directions, grid, k_lo, k_hi)
    return LiveTrajectories(n_ops=int(n_ops), n_det=int(n_det), rows=rows,
                            directions=directions, k_lo=k_lo, k_hi=k_hi,
                            first=first, count=count)


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

def fill_crossings_batch(
    traj: LiveTrajectories, grid: HKLGrid, width: int
) -> np.ndarray:
    """Padded per-trajectory crossing buffer, ready for the in-kernel sort.

    Returns ``(traj.n_rows, width)`` where row r holds ``k_lo[r]`` in
    column 0, its crossings (unsorted: axis 0's, then axis 1's, then
    axis 2's, each ascending in edge index) next, and ``k_hi[r]``
    everywhere after — trailing duplicates form zero-length segments
    that deposit nothing.  The crossed edges come from the rows'
    per-axis ranges, so nothing is searched here.  ``width`` must be at
    least ``max crossings + 2`` (use the pre-pass).
    """
    n_rows = traj.n_rows
    count = traj.count
    per_row = count.sum(axis=0)
    needed = int(per_row.max(initial=0)) + 2
    if needed > width:
        raise ValueError(
            f"intersection buffer width {width} too small "
            f"(needed {needed}); run the pre-pass"
        )
    padded = np.empty((n_rows, width))
    padded[:] = traj.k_hi[:, None]
    padded[:, 0] = traj.k_lo
    total = int(per_row.sum())
    if total:
        # one group per (axis, row) with crossings, axis-major: its
        # crossings go to the row's columns after the k_lo and the
        # earlier axes' crossings, its edges run up from the row's first
        edges, offsets = grid.edge_table
        col = np.cumsum(count, axis=0)
        col -= count
        col += np.arange(1, n_rows * width, width)
        group = count.reshape(-1).nonzero()[0]
        cnt = count.reshape(-1)[group]
        edge_idx = _runs((traj.first + offsets[:, None]).reshape(-1)[group], cnt)
        pos = _runs(col.reshape(-1)[group], cnt)
        vals = edges.take(edge_idx)
        vals /= np.repeat(traj.directions.reshape(-1)[group], cnt)
        padded.reshape(-1)[pos] = vals
    return padded


def _runs(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``concatenate([arange(f, f + c) for f, c in zip(first, count)])``
    for positive counts: steps of 1, with each run's first value set
    by its jump from the previous run's last one, summed up."""
    out = np.ones(int(count.sum()), dtype=np.int64)
    jump = first.copy()
    jump[1:] -= first[:-1] + count[:-1] - 1
    starts = np.cumsum(count)
    starts -= count
    out[starts] = jump
    return np.cumsum(out, out=out)


def _fill_sorted(traj, grid, width, sort_impl):
    padded = fill_crossings_batch(traj, grid, width)
    if sort_impl == "comb":
        comb_sort_rows(padded)
    else:
        padded.sort(axis=1)
    return padded


def sorted_crossings_batch(
    traj: LiveTrajectories,
    grid: HKLGrid,
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
        return _fill_sorted(traj, grid, width, sort_impl)

    from repro.util.perf import intersections_work

    with tracer.span("intersections.fill_sort", kind="phase",
                     rows=traj.n_rows, width=int(width), sort_impl=sort_impl,
                     perf=intersections_work(traj.n_rows, int(width))):
        return _fill_sorted(traj, grid, width, sort_impl)
