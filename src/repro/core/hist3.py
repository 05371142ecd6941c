"""Hist3: the thread-safe 3-D histogram (MDHistoWorkspace analogue).

MiniVATES.jl "uses its own implementation of a 3D histogram based on
Mantid's MDHistoWorkspace.  The bin values are thread-safe and
incremented with atomic operations."  This is that object: a signal
array (plus an optional squared-error companion) over an
:class:`~repro.core.grid.HKLGrid`, exposing

* :meth:`push` / :meth:`push_many` — atomic accumulation (scalar and
  scatter forms, see :mod:`repro.jacc.atomic`);
* arithmetic used by Algorithm 1 (``+=`` across runs, guarded division
  for the final cross-section);
* 2-D slicing used to render the paper's Fig. 4 panels.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.grid import HKLGrid
from repro.jacc.atomic import atomic_add, atomic_add_scalar
from repro.util.validation import ValidationError, require


class Hist3:
    """A 3-D histogram with atomic accumulation over an HKL grid."""

    __slots__ = ("grid", "signal", "error_sq")

    def __init__(
        self,
        grid: HKLGrid,
        *,
        track_errors: bool = False,
        signal: Optional[np.ndarray] = None,
        error_sq: Optional[np.ndarray] = None,
    ) -> None:
        self.grid = grid
        shape = tuple(grid.bins)
        if signal is None:
            self.signal = np.zeros(shape, dtype=np.float64)
        else:
            signal = np.ascontiguousarray(signal, dtype=np.float64)
            require(signal.shape == shape, f"signal shape {signal.shape} != {shape}")
            self.signal = signal
        if error_sq is not None:
            error_sq = np.ascontiguousarray(error_sq, dtype=np.float64)
            require(error_sq.shape == shape, "error_sq shape mismatch")
            self.error_sq = error_sq
        elif track_errors:
            self.error_sq = np.zeros(shape, dtype=np.float64)
        else:
            self.error_sq = None

    # -- accumulation ------------------------------------------------------
    @property
    def flat_signal(self) -> np.ndarray:
        """The signal as a flat C-ordered view (kernel target)."""
        return self.signal.reshape(-1)

    @property
    def flat_error_sq(self) -> Optional[np.ndarray]:
        return None if self.error_sq is None else self.error_sq.reshape(-1)

    def push(self, c0: float, c1: float, c2: float, weight: float, err_sq: float = 0.0) -> bool:
        """Atomically add one weighted point at grid coordinates.

        Returns False (and adds nothing) if the point lies outside the
        grid — the scalar-kernel form of MiniVATES' ``atomic_push!``.
        """
        flat = self.grid.flat_bin(c0, c1, c2)
        if flat < 0:
            return False
        atomic_add_scalar(self.flat_signal, flat, weight)
        if self.error_sq is not None:
            atomic_add_scalar(self.flat_error_sq, flat, err_sq)
        return True

    def push_many(
        self,
        coords: np.ndarray,
        weights: np.ndarray,
        err_sq: Optional[np.ndarray] = None,
        *,
        scatter_impl: str = "atomic",
    ) -> int:
        """Atomic scatter-add of many points; returns how many landed
        inside the grid (the batch-kernel form).

        ``scatter_impl`` selects the accumulation mechanism, both exact
        under duplicate indices:

        * ``"atomic"`` — element-wise unbuffered adds (``np.add.at``),
          the direct analogue of per-lane ``atomicAdd`` (slow when many
          lanes collide — the MI100-like behaviour the paper observed);
        * ``"buffered"`` — a ``bincount`` pass that resolves collisions
          in hardware-speed buffers before one dense add (the efficient
          atomics of the A100-like device).
        """
        flat, inside = self.grid.bin_index(coords)
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != inside.shape:
            weights = np.broadcast_to(weights, inside.shape)
        if self.error_sq is not None and err_sq is not None:
            err_sq = np.broadcast_to(
                np.asarray(err_sq, dtype=np.float64), inside.shape
            )[inside]
        self.push_flat(flat[inside], weights[inside], err_sq,
                       scatter_impl=scatter_impl)
        return int(inside.sum())

    def push_flat(
        self,
        flat: np.ndarray,
        weights: np.ndarray,
        err_sq: Optional[np.ndarray] = None,
        *,
        scatter_impl: str = "atomic",
    ) -> None:
        """Scatter-add weights at already-computed flat bin indices, in
        order (the deposit step of :meth:`push_many`, and of batch
        bodies that bin once and deposit many times)."""
        self._scatter(self.flat_signal, flat, weights, scatter_impl)
        if self.error_sq is not None and err_sq is not None:
            self._scatter(self.flat_error_sq, flat, err_sq, scatter_impl)

    @staticmethod
    def _scatter(target: np.ndarray, idx: np.ndarray, vals: np.ndarray, impl: str) -> None:
        if impl == "atomic":
            atomic_add(target, idx, vals)
        elif impl == "buffered":
            target += np.bincount(idx.ravel(), weights=vals.ravel(), minlength=target.size)
        else:
            raise ValidationError(f"unknown scatter_impl {impl!r}")

    # -- algebra -------------------------------------------------------------
    def add(self, other: "Hist3") -> "Hist3":
        """In-place accumulation of another histogram on the same grid."""
        if other.grid.bins != self.grid.bins:
            raise ValidationError("histogram grids differ")
        self.signal += other.signal
        if self.error_sq is not None and other.error_sq is not None:
            self.error_sq += other.error_sq
        return self

    def divide(self, denominator: "Hist3", *, fill: float = np.nan) -> "Hist3":
        """Element-wise ratio, ``fill`` where the denominator is 0.

        This is Algorithm 1's final step: cross-section =
        BinMD histogram / MDNorm histogram.  When both operands track
        squared errors, the standard relative-variance propagation
        ``var(a/b) = (a/b)^2 (var_a/a^2 + var_b/b^2)`` is applied (with
        zero-signal bins contributing only the defined terms).
        """
        if denominator.grid.bins != self.grid.bins:
            raise ValidationError("histogram grids differ")
        ok = denominator.signal != 0
        out = np.full_like(self.signal, fill)
        np.divide(self.signal, denominator.signal, out=out, where=ok)

        err_out = None
        if self.error_sq is not None and denominator.error_sq is not None:
            err_out = np.zeros_like(self.signal)
            with np.errstate(divide="ignore", invalid="ignore"):
                rel_num = np.where(
                    self.signal != 0, self.error_sq / self.signal**2, 0.0
                )
                rel_den = np.where(
                    ok, denominator.error_sq / denominator.signal**2, 0.0
                )
                ratio_sq = np.where(ok, out, 0.0) ** 2
            err_out = np.where(ok, ratio_sq * (rel_num + rel_den), 0.0)
        return Hist3(self.grid, signal=out, error_sq=err_out)

    def copy(self) -> "Hist3":
        return Hist3(
            self.grid,
            signal=self.signal.copy(),
            error_sq=None if self.error_sq is None else self.error_sq.copy(),
        )

    def reset(self) -> None:
        self.signal.fill(0.0)
        if self.error_sq is not None:
            self.error_sq.fill(0.0)

    # -- inspection -------------------------------------------------------------
    def total(self) -> float:
        """Sum of all bins, ignoring NaN fill values from division."""
        return float(np.nansum(self.signal))

    def nonzero_fraction(self) -> float:
        """Fraction of bins with any signal — the coverage statistic the
        Fig. 4 symmetry panels are about."""
        return float(np.count_nonzero(self.signal) / self.signal.size)

    def slice2d(self, axis: int = 2, index: int = 0) -> np.ndarray:
        """A 2-D slice for plotting (Fig. 4 uses the L = 0 plane)."""
        require(0 <= axis < 3, "axis must be 0, 1 or 2")
        return np.take(self.signal, index, axis=axis)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Hist3(bins={self.grid.bins}, total={self.total():.6g}, "
            f"coverage={self.nonzero_fraction():.1%})"
        )
