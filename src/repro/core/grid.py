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
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.crystal.symmetry import PointGroup
from repro.crystal.ub import UBMatrix, TWO_PI
from repro.util import trace as _trace
from repro.util.validation import ValidationError, as_matrix3, require


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
        at ``maximum`` is outside), non-finite points outside.
        """
        mn, w = self._scalar_binning
        flat = inside = None
        # huge, infinite and NaN quotients overflow or cast to garbage:
        # `ok` masks them out and the clamp keeps their index in range
        with np.errstate(over="ignore", invalid="ignore"):
            for axis, (q, n) in enumerate(zip(columns, self.bins)):
                q -= mn[axis]
                q /= w[axis]
                np.floor(q, out=q)
                ok = q >= 0.0
                ok &= q < n
                idx = q.astype(np.int64)
                np.maximum(idx, 0, out=idx)
                np.minimum(idx, n - 1, out=idx)
                if flat is None:
                    flat, inside = idx, ok
                else:
                    flat *= n
                    flat += idx
                    inside &= ok
        return flat, inside

    @cached_property
    def _rejection_plan(self) -> Tuple[int, list, np.ndarray, np.ndarray, np.ndarray]:
        """The thinnest axis (fewest bins, first on ties), then the other
        two with their minima, widths and bin counts as ``(2, 1)``
        columns for :meth:`bin_transformed`."""
        first, *rest = sorted(range(3), key=lambda axis: self.bins[axis])
        mn, w = self._scalar_binning
        rows = [(mn[a], w[a], self.bins[a]) for a in rest]
        return (first, rest,
                *(np.array(column)[:, None] for column in zip(*rows)))

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
        per distinct row (compared by bytes), and an op whose row is
        the byte-exact negation of an earlier row negates that product,
        which rounding's sign symmetry makes the same up to the sign of
        an exact zero (DESIGN.md, "Bit-identity by construction").  The
        slab test and the gather of the slab's Q run once per distinct
        signed row.  Each product pass is counted in the tracer counter
        ``binmd.slab_products``.
        """
        mn, w = self._scalar_binning
        first, rest, rest_mn, rest_w, rest_n = self._rejection_plan
        nb = self.bins
        products = {}  # row bytes -> thinnest-axis product of that row
        slabs = {}  # row bytes -> (first-axis bins, lanes, x, y, z)
        out = []
        # inf - inf and 0 * inf give NaN, which the comparisons reject
        with np.errstate(over="ignore", invalid="ignore"):
            for op in ops:
                row = op[first]
                key = row.tobytes()
                slab = slabs.get(key)
                if slab is None:
                    c = products.get(np.negative(row).tobytes())
                    if c is None:
                        c = row[0] * qx
                        c += row[1] * qy
                        c += row[2] * qz
                        products[key] = c
                        q = c - mn[first]
                    else:
                        q = np.negative(c)
                        q -= mn[first]
                    q /= w[first]
                    ok = q >= 0.0
                    ok &= q < nb[first]
                    lanes = ok.nonzero()[0]
                    # in range and non-negative, so truncation is the floor
                    slab = (q[lanes].astype(np.int64), lanes,
                            qx[lanes], qy[lanes], qz[lanes])
                    slabs[key] = slab
                idx_first, lanes, x, y, z = slab
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
        _trace.active_tracer().count("binmd.slab_products", len(products))
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
