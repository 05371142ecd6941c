"""The output histogram grid in projected (H, K, L) coordinates.

Mantid's MDNorm bins along three user-chosen reciprocal-space basis
vectors.  The paper's use cases (Table II):

* Benzil / CORELLI: basis ``[H,H,0], [H,-H,0], [0,0,L]`` on a
  603 x 603 x 1 grid;
* Bixbyite / TOPAZ: basis ``[H,0,0], [0,K,0], [0,0,L]`` on a
  601 x 601 x 1 grid.

A grid is defined by its basis matrix ``W`` (columns = basis vectors in
HKL space), per-dimension ranges and bin counts.  Grid coordinates of a
reciprocal point are ``c = W^-1 hkl``; combined with the UB and
goniometer transforms this gives one 3x3 matrix per (run, symmetry op)
that kernels apply to every event / trajectory — the ``transforms``
array of the paper's Listings 1-3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.crystal.symmetry import PointGroup
from repro.crystal.ub import UBMatrix, TWO_PI
from repro.util import trace as _trace
from repro.util.validation import ValidationError, as_matrix3, require


def signed_row_products(
    rows: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray
) -> Tuple[List[int], int, Iterator[np.ndarray]]:
    """The products ``(r0 * x + r1 * y) + r2 * z`` of the distinct
    signed rows among ``rows`` (``(n, 3)``), each computed once.

    Returns ``(index, passes, products)``: ``index[i]`` numbers the
    distinct signed row of ``rows[i]`` (in order of first occurrence),
    ``products`` yields one product per distinct signed row in that
    order, and ``passes`` is how many of them are computed.  Rows are
    compared by bytes.  A row that is the byte-exact negation of an
    earlier one takes ``np.negative`` of that row's product instead:
    under round-to-nearest, multiplication and addition are
    sign-symmetric, so the negation differs from the directly computed
    product only in the sign of an exact zero (DESIGN.md, "Bit-identity
    by construction").  Callers must treat ``±0`` alike.
    """
    numbers: Dict[bytes, int] = {}
    plan: List[Tuple[np.ndarray, Optional[int]]] = []  # (row, negates)
    index = []
    for row in rows:
        key = row.tobytes()
        k = numbers.get(key)
        if k is None:
            k = numbers[key] = len(plan)
            plan.append((row, numbers.get(np.negative(row).tobytes())))
        index.append(k)

    def products() -> Iterator[np.ndarray]:
        computed: Dict[int, np.ndarray] = {}
        for k, (row, negates) in enumerate(plan):
            if negates is None:
                c = row[0] * x
                c += row[1] * y
                c += row[2] * z
                computed[k] = c
            else:
                # a negated row never negates one negated itself
                c = np.negative(computed[negates])
            yield c

    passes = sum(negates is None for _, negates in plan)
    return index, passes, products()


@dataclass(frozen=True)
class HKLGrid:
    """A regular 3-D binning grid over projected HKL coordinates."""

    #: basis vectors in HKL space, as columns of a 3x3 matrix
    basis: np.ndarray
    #: inclusive lower corner in grid coordinates
    minimum: Tuple[float, float, float]
    #: inclusive upper corner in grid coordinates
    maximum: Tuple[float, float, float]
    #: bins per dimension (the paper's hBins/kBins/lBins)
    bins: Tuple[int, int, int]
    #: axis labels for reports
    names: Tuple[str, str, str] = ("[H,0,0]", "[0,K,0]", "[0,0,L]")

    def __post_init__(self) -> None:
        basis = as_matrix3(self.basis, "basis")
        if abs(np.linalg.det(basis)) < 1e-12:
            raise ValidationError("grid basis vectors are linearly dependent")
        object.__setattr__(self, "basis", basis)
        mn = tuple(float(x) for x in self.minimum)
        mx = tuple(float(x) for x in self.maximum)
        nb = tuple(int(x) for x in self.bins)
        require(len(mn) == 3 and len(mx) == 3 and len(nb) == 3, "grid is 3-D")
        for lo, hi, n in zip(mn, mx, nb):
            require(hi > lo, f"grid range [{lo}, {hi}] is empty")
            require(n >= 1, f"bin count {n} must be >= 1")
        object.__setattr__(self, "minimum", mn)
        object.__setattr__(self, "maximum", mx)
        object.__setattr__(self, "bins", nb)

    # -- geometry --------------------------------------------------------
    @cached_property
    def widths(self) -> np.ndarray:
        """Bin width per dimension."""
        return (np.array(self.maximum) - np.array(self.minimum)) / np.array(self.bins)

    @cached_property
    def edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bin edge positions per dimension (len = bins + 1)."""
        return tuple(
            np.linspace(self.minimum[i], self.maximum[i], self.bins[i] + 1)
            for i in range(3)
        )

    @cached_property
    def n_bins_total(self) -> int:
        b = self.bins
        return b[0] * b[1] * b[2]

    @cached_property
    def max_plane_crossings(self) -> int:
        """Upper bound on trajectory/plane intersections: the paper's
        ``hBins + kBins + lBins + 2`` (every interior+boundary plane of
        each dimension, plus the two segment endpoints)."""
        return self.bins[0] + self.bins[1] + self.bins[2] + 3 + 2

    @cached_property
    def projection(self) -> np.ndarray:
        """``W^-1``: maps HKL to grid coordinates."""
        return np.linalg.inv(self.basis)

    # -- transforms --------------------------------------------------------
    def transforms_for(
        self,
        ub: UBMatrix | np.ndarray,
        point_group: Optional[PointGroup] = None,
        goniometer: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-symmetry-op matrices mapping Q (sample or lab) to grid coords.

        Returns ``(n_ops, 3, 3)`` with
        ``T_op = W^-1 . S . (2 pi UB)^-1 [. R^-1]``; pass ``goniometer``
        to consume lab-frame Q, omit it for Q_sample (the MDEvent table).
        """
        ub_matrix = ub.matrix if isinstance(ub, UBMatrix) else as_matrix3(ub, "ub")
        inv_ub = np.linalg.inv(TWO_PI * ub_matrix)
        if goniometer is not None:
            inv_ub = inv_ub @ as_matrix3(goniometer, "goniometer").T
        if point_group is None:
            ops = np.eye(3)[None, :, :]
        else:
            ops = point_group.operations.astype(np.float64)
        return np.ascontiguousarray(
            np.einsum("ij,ojk,kl->oil", self.projection, ops, inv_ub)
        )

    @cached_property
    def _scalar_binning(self) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        """``(minimum, widths)`` as Python floats for :meth:`flat_bin`."""
        return self.minimum, tuple(float(w) for w in self.widths)

    def flat_bin(self, c0: float, c1: float, c2: float) -> int:
        """Flat bin index of one grid-coordinate point, -1 if outside.

        The scalar form of :meth:`bin_index`, with the same rule:
        ``floor((c - minimum) / width)`` per axis, upper boundary
        exclusive.  ``math.floor`` of the rounded quotient is exactly
        ``np.floor`` of it, so scalar and batch bodies agree bin for bin,
        including on points at bin edges (Python's ``//`` floors the
        exact quotient instead and disagrees there).  ``0 <= q < n``
        holds exactly when ``0 <= floor(q) < n``, and fails for NaN and
        infinities, which are therefore outside.
        """
        mn, w = self._scalar_binning
        nb = self.bins
        q0 = (c0 - mn[0]) / w[0]
        q1 = (c1 - mn[1]) / w[1]
        q2 = (c2 - mn[2]) / w[2]
        if not (0.0 <= q0 < nb[0] and 0.0 <= q1 < nb[1] and 0.0 <= q2 < nb[2]):
            return -1
        return (math.floor(q0) * nb[1] + math.floor(q1)) * nb[2] + math.floor(q2)

    def bin_index(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat bin indices of grid-coordinate points (any leading shape).

        Returns ``(flat_index, inside_mask)``; indices of outside points
        are clipped into range and must be masked by the caller.  The
        rule is :meth:`bin_columns`' on copies of the three axis columns.
        """
        c = np.asarray(coords, dtype=np.float64)
        return self.bin_columns(*(np.array(c[..., axis]) for axis in range(3)))

    def bin_columns(self, *columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`bin_index` of points given as their three float64 axis
        columns of one shape, which it overwrites.

        The rule is :meth:`flat_bin`'s, one axis at a time: floor of
        the rounded quotient, upper boundary exclusive (a point exactly
        at ``maximum`` is outside), non-finite points outside.  For an
        integer ``n``, ``0 <= q < n`` holds exactly when it holds for
        ``floor(q)``, and on ``[0, n)`` the integer cast (which
        truncates) is the floor, so the quotient is never floored
        explicitly; an axis of one bin contributes its test alone.
        """
        mn, w = self._scalar_binning
        flat = inside = None
        # huge, infinite and NaN quotients overflow or cast to garbage:
        # `ok` masks them out and the clamp keeps their index in range
        with np.errstate(over="ignore", invalid="ignore"):
            for axis, (q, n) in enumerate(zip(columns, self.bins)):
                q -= mn[axis]
                q /= w[axis]
                ok = q >= 0.0
                ok &= q < n
                if inside is None:
                    inside = ok
                else:
                    inside &= ok
                if n == 1:
                    continue  # the index along this axis is 0
                idx = q.astype(np.int64)
                np.maximum(idx, 0, out=idx)
                np.minimum(idx, n - 1, out=idx)
                if flat is None:
                    flat = idx
                else:
                    flat *= n
                    flat += idx
        if flat is None:  # one bin on every axis
            flat = np.zeros(inside.shape, dtype=np.int64)
        return flat, inside

    @cached_property
    def thin_axis(self) -> int:
        """The axis with the fewest bins (the first on ties): the one
        BinMD and MDNorm test first, so most lanes stop there."""
        return min(range(3), key=lambda axis: self.bins[axis])

    @cached_property
    def edge_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every axis's :attr:`edges` in one array, and the offset of
        each axis's first edge in it."""
        sizes = [edges.size for edges in self.edges]
        return np.concatenate(self.edges), np.cumsum([0, *sizes[:2]])

    @cached_property
    def _rejection_plan(self) -> Tuple[int, list, np.ndarray, np.ndarray, np.ndarray]:
        """The thinnest axis, then the other two with their minima,
        widths and bin counts as ``(2, 1)`` columns for
        :meth:`bin_transformed`."""
        first = self.thin_axis
        rest = [axis for axis in range(3) if axis != first]
        mn, w = self._scalar_binning
        rows = [(mn[a], w[a], self.bins[a]) for a in rest]
        return (first, rest,
                *(np.array(column)[:, None] for column in zip(*rows)))

    def _slab_test(self, c: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The thinnest-axis quotients of the products ``c`` and the
        mask of the lanes inside the grid on that axis.  ``c`` is left
        as it is: :func:`signed_row_products` may negate it later."""
        mn, w = self._scalar_binning
        first = self.thin_axis
        q = c - mn[first]
        q /= w[first]
        ok = q >= 0.0
        ok &= q < self.bins[first]
        return q, ok

    def slab_candidates(
        self, ops: np.ndarray, qx: np.ndarray, qy: np.ndarray, qz: np.ndarray
    ) -> np.ndarray:
        """The ascending lanes inside the grid on the thinnest axis
        under at least one ``op``: the lanes :meth:`bin_transformed`
        transforms further, for every op at once.

        The test is :meth:`bin_transformed`'s own, one product per
        distinct signed row (:func:`signed_row_products`), OR-ed over
        the rows, so binning only these lanes gives every op the same
        inside lanes and bins as binning all of them.  Each product
        pass is counted in ``binmd.slab_products``."""
        _, passes, products = signed_row_products(
            ops[:, self.thin_axis], qx, qy, qz)
        inside = np.zeros(qx.shape, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for c in products:
                inside |= self._slab_test(c)[1]
        _trace.active_tracer().count("binmd.slab_products", passes)
        return inside.nonzero()[0]

    def bin_transformed(
        self, ops: np.ndarray, qx: np.ndarray, qy: np.ndarray, qz: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Flat bins of the points ``op @ q`` that land inside the grid,
        for every ``op`` of the ``(n_ops, 3, 3)`` stack ``ops``.

        Returns one ``(flat, lanes)`` per op, in op order: ``lanes``
        are the ascending indices (into ``qx``/``qy``/``qz``) of the
        inside points and ``flat`` their flat bin indices.  Grid
        coordinates are computed with the element body's three-term
        products ``op[a, 0] * qx + op[a, 1] * qy + op[a, 2] * qz``:
        first on the thinnest axis for every lane, then on the other
        two axes for the lanes inside on the first only, so a
        one-bin-thick slab computes H and K for the few lanes in the
        slab alone.  The rule per axis is :meth:`flat_bin`'s (floor of
        the rounded quotient, upper edge exclusive, non-finite outside),
        so this and the element body agree bin for bin.

        Symmetry ops share thinnest-axis rows: the product runs once
        per distinct row (:func:`signed_row_products`).  The slab test
        and the gather of the slab's Q run once per distinct signed
        row.  Each product pass is counted in the tracer counter
        ``binmd.slab_products``.
        """
        first, rest, rest_mn, rest_w, rest_n = self._rejection_plan
        nb = self.bins
        index, passes, products = signed_row_products(ops[:, first], qx, qy, qz)
        slabs = []  # per distinct signed row: (first-axis bins, lanes, x, y, z)
        out = []
        # inf - inf and 0 * inf give NaN, which the comparisons reject
        with np.errstate(over="ignore", invalid="ignore"):
            for c in products:
                q, ok = self._slab_test(c)
                lanes = ok.nonzero()[0]
                # in range and non-negative, so truncation is the floor
                slabs.append((q[lanes].astype(np.int64), lanes,
                              qx[lanes], qy[lanes], qz[lanes]))
            for op, k in zip(ops, index):
                idx_first, lanes, x, y, z = slabs[k]
                o = op[rest]
                qr = o[:, 0:1] * x
                qr += o[:, 1:2] * y
                qr += o[:, 2:3] * z
                qr -= rest_mn
                qr /= rest_w
                ok = qr >= 0.0
                ok &= qr < rest_n
                keep = (ok[0] & ok[1]).nonzero()[0]
                idx = {first: idx_first[keep]}
                for r, axis in enumerate(rest):
                    idx[axis] = qr[r, keep].astype(np.int64)
                out.append(((idx[0] * nb[1] + idx[1]) * nb[2] + idx[2],
                            lanes[keep]))
        _trace.active_tracer().count("binmd.slab_products", passes)
        return out

    # -- constructors for the paper's cases ---------------------------------
    @classmethod
    def benzil_grid(
        cls,
        bins: Sequence[int] = (603, 603, 1),
        extent: float = 6.0,
        l_half_width: float = 0.5,
    ) -> "HKLGrid":
        """The Benzil/CORELLI grid: [H,H,0] x [H,-H,0] x [0,0,L].

        ``l_half_width`` is the integration half-thickness of the L
        slice (lBins = 1, as in the paper's 2-D slicing).  The paper's
        production slices are thinner; the default here is thick enough
        for laptop-scale synthetic statistics (DESIGN.md section 6).
        """
        basis = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 1.0]]).T
        return cls(
            basis=basis,
            minimum=(-extent, -extent, -l_half_width),
            maximum=(extent, extent, l_half_width),
            bins=tuple(bins),
            names=("[H,H,0]", "[H,-H,0]", "[0,0,L]"),
        )

    @classmethod
    def bixbyite_grid(
        cls,
        bins: Sequence[int] = (601, 601, 1),
        extent: float = 8.0,
        l_half_width: float = 0.5,
    ) -> "HKLGrid":
        """The Bixbyite/TOPAZ grid: [H,0,0] x [0,K,0] x [0,0,L]."""
        return cls(
            basis=np.eye(3),
            minimum=(-extent, -extent, -l_half_width),
            maximum=(extent, extent, l_half_width),
            bins=tuple(bins),
            names=("[H,0,0]", "[0,K,0]", "[0,0,L]"),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"HKLGrid({self.names[0]} x {self.names[1]} x {self.names[2]}, "
            f"bins={self.bins})"
        )
