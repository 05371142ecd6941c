"""Correctness of every measured reduction.

The reference is computed once per benchmark run, outside all timing:
an in-memory, static-executor, ``vectorized`` reduction of the same
inputs with a fresh geometry cache.  A measured reduction passes when
its ``binmd.signal``, ``binmd.error_sq`` (when the path returns one) and
``mdnorm.signal`` are within ``max|x - ref| <= 1e-12 * max|ref|`` of the
reference.  The bound is a tolerance, not bit equality, because the
element-path routes (shards, out-of-core, stealing) bin with Python
``//`` where ``vectorized`` uses ``np.floor``; the exact count of MDNorm
bins that differ is reported separately.

The reference's own BinMD is checked against :func:`numpy_binmd`, an
oracle written here from the paper's definition (transform, ``floor(x /
w)``, ``np.add.at``).  The oracle also supplies the squared-error
reference, which the static in-memory loop does not return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

REL_TOL = 1e-12


class OracleMismatch(RuntimeError):
    """The reference reduction disagrees with the NumPy oracle.

    Carries the unvalidated reference, so the run can still report its
    timings (marked incorrect)."""

    def __init__(self, message: str, reference: "Reference") -> None:
        super().__init__(message)
        self.reference = reference


@dataclass
class Reference:
    binmd_signal: np.ndarray
    binmd_error_sq: np.ndarray
    mdnorm_signal: np.ndarray


@dataclass
class Check:
    ok: bool
    #: MDNorm bins that are not bit-equal to the reference
    mdnorm_bins_differ: int
    reason: str = ""


def close(x: Optional[np.ndarray], ref: np.ndarray) -> bool:
    """``max|x - ref| <= REL_TOL * max|ref|`` (False on shape or NaN)."""
    if x is None or x.shape != ref.shape:
        return False
    peak = float(np.max(np.abs(ref))) if ref.size else 0.0
    return bool(np.max(np.abs(x - ref), initial=0.0) <= REL_TOL * peak)


def numpy_binmd(md_paths, grid, point_group):
    """BinMD of every run, straight from its definition in NumPy.

    Runs are folded in ascending order and symmetry operations in
    point-group order, the same order as the reduction loop.
    """
    from repro.core.md_event_workspace import load_md
    from repro.nexus.events import COL_ERROR_SQ, COL_QX, COL_QZ, COL_SIGNAL

    nb = np.array(grid.bins)
    mn = np.array(grid.minimum)
    w = grid.widths
    signal = np.zeros(grid.n_bins_total)
    error_sq = np.zeros(grid.n_bins_total)
    for path in md_paths:
        ws = load_md(path)
        ev = ws.events.data
        q = ev[:, COL_QX:COL_QZ + 1]
        for op in grid.transforms_for(ws.ub_matrix, point_group):
            idx = np.floor((q @ op.T - mn) / w).astype(np.int64)
            inside = np.all((idx >= 0) & (idx < nb), axis=1)
            idx = idx[inside]
            flat = (idx[:, 0] * nb[1] + idx[:, 1]) * nb[2] + idx[:, 2]
            np.add.at(signal, flat, ev[inside, COL_SIGNAL])
            np.add.at(error_sq, flat, ev[inside, COL_ERROR_SQ])
    shape = tuple(grid.bins)
    return signal.reshape(shape), error_sq.reshape(shape)


def make_reference(result, md_paths, grid, point_group) -> Reference:
    """Validate a reference reduction against the oracle and keep it."""
    signal, error_sq = numpy_binmd(md_paths, grid, point_group)
    reference = Reference(
        binmd_signal=result.binmd.signal.copy(),
        binmd_error_sq=error_sq,
        mdnorm_signal=result.mdnorm.signal.copy(),
    )
    if not close(result.binmd.signal, signal):
        raise OracleMismatch("reference BinMD disagrees with the NumPy oracle",
                             reference)
    return reference


def compare(result, ref: Reference) -> Check:
    """Check one reduction's histograms against the reference."""
    if result is None or result.binmd is None or result.mdnorm is None:
        return Check(False, -1, "no result on the root rank")
    differ = -1
    if result.mdnorm.signal.shape == ref.mdnorm_signal.shape:
        differ = int(np.count_nonzero(result.mdnorm.signal != ref.mdnorm_signal))
    if not close(result.binmd.signal, ref.binmd_signal):
        return Check(False, differ, "binmd.signal")
    if result.binmd.error_sq is not None and not close(
        result.binmd.error_sq, ref.binmd_error_sq
    ):
        return Check(False, differ, "binmd.error_sq")
    if not close(result.mdnorm.signal, ref.mdnorm_signal):
        return Check(False, differ, "mdnorm.signal")
    return Check(True, differ)
