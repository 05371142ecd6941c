"""The C++ proxy (``extract_mdnorm``): optimized CPU kernels.

The paper's C++ proxy extracts MDNorm/BinMD from Mantid and applies the
algorithmic improvements described in Section III.B, all of which are
reproduced here with the CPU-appropriate primitives of this stack:

* *"improving the complexity of linear searches with a more adaptable
  region-of-interest strategy"* — crossings per dimension are located
  with two binary searches over the edge array (the ROI), not by
  scanning every edge like the baseline;
* *"instead of sorting an array of structs, we sort an array of indices
  using primitive types"* — each trajectory's crossings live in one
  primitive float64 array sorted directly; BinMD histograms through
  primitive flat-index arrays and ``bincount``;
* *OpenMP ``collapse(2)``* — the (symmetry op x detector) rows are
  chunked over a thread pool;
* *MPI over files* — the workflow accepts a communicator exactly like
  the core driver.

The kernels are standalone functions (this proxy is a separate codebase
from both Mantid and MiniVATES, as in the paper) that plug into the
shared Algorithm-1 loop via ``compute_cross_section``'s ``*_impl``
hooks.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.checkpoint import RecoveryConfig
from repro.core.cross_section import CrossSectionResult, compute_cross_section
from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.core.intersections import PARALLEL_EPS, k_window, trajectory_directions
from repro.core.md_event_workspace import MDEventWorkspace, load_md, transpose_events
from repro.crystal.symmetry import PointGroup
from repro.instruments.detector import DetectorArray
from repro.mpi import Comm
from repro.nexus.corrections import FluxSpectrum, read_flux_file, read_vanadium_file
from repro.nexus.events import COL_ERROR_SQ, COL_QX, COL_QZ, COL_SIGNAL, EventTable
from repro.util import trace as _trace
from repro.util.timers import StageTimings
from repro.util.validation import ValidationError, require


def cpp_bin_md(
    hist: Hist3, events: EventTable | np.ndarray, transforms: np.ndarray
) -> Hist3:
    """BinMD via primitive flat-index arrays and ``bincount``.

    Per symmetry op: one fused transform over all events, flat bin
    indices as a primitive int64 array, and a single ``bincount``
    accumulation — the index-array strategy of the C++ proxy.
    """
    transforms = np.asarray(transforms, dtype=np.float64)
    require(transforms.ndim == 3 and transforms.shape[1:] == (3, 3),
            "transforms must be (n_ops, 3, 3)")
    data = events.data if isinstance(events, EventTable) else np.asarray(events)
    tracer = _trace.active_tracer()
    with tracer.span(
        "cpp.binmd",
        kind="op",
        backend="cpp",
        n_ops=int(transforms.shape[0]),
        n_events=int(data.shape[0]),
    ) as op_span:
        if tracer.profile:
            from repro.util.perf import binmd_work

            op_span.set(perf=binmd_work(
                int(transforms.shape[0]), int(data.shape[0]),
                track_errors=hist.flat_error_sq is not None,
            ))
        q = data[:, COL_QX : COL_QZ + 1]
        weights = data[:, COL_SIGNAL]
        err_sq = data[:, COL_ERROR_SQ]
        grid = hist.grid
        n_total = grid.n_bins_total
        flat_signal = hist.flat_signal
        flat_err = hist.flat_error_sq
        for op in transforms:
            coords = q @ op.T
            idx, inside = grid.bin_index(coords)
            idx = idx[inside]
            flat_signal += np.bincount(idx, weights=weights[inside], minlength=n_total)
            if flat_err is not None:
                flat_err += np.bincount(idx, weights=err_sq[inside], minlength=n_total)
        tracer.count("cpp.binmd.events",
                     int(transforms.shape[0]) * int(data.shape[0]))
    return hist


def _mdnorm_rows(
    rows: range,
    directions: np.ndarray,
    k_lo: np.ndarray,
    k_hi: np.ndarray,
    det_weight: np.ndarray,
    grid: HKLGrid,
    flux_k: np.ndarray,
    flux_cum: np.ndarray,
    target: np.ndarray,
) -> None:
    """MDNorm over a chunk of (op x detector) rows (one worker's share)."""
    edges = grid.edges
    mn = np.array(grid.minimum)
    w = grid.widths
    nb = grid.bins
    stride0 = nb[1] * nb[2]
    stride1 = nb[2]
    for r in rows:
        lo = k_lo[r]
        hi = k_hi[r]
        if not hi > lo:
            continue
        wd = det_weight[r]
        if wd == 0.0:
            continue
        d = directions[r]
        # region-of-interest: two binary searches per dimension
        pieces = [np.array([lo, hi])]
        for axis in range(3):
            di = d[axis]
            if abs(di) <= PARALLEL_EPS:
                continue
            a, b = lo * di, hi * di
            if a > b:
                a, b = b, a
            s = np.searchsorted(edges[axis], a, side="right")
            t = np.searchsorted(edges[axis], b, side="left")
            if t > s:
                pieces.append(edges[axis][s:t] / di)
        ks = np.concatenate(pieces)
        ks.sort()  # primitive array sort, no structs
        phi = np.interp(ks, flux_k, flux_cum)
        seg = phi[1:] - phi[:-1]
        mid = 0.5 * (ks[1:] + ks[:-1])
        live = (ks[1:] > ks[:-1]) & (seg != 0.0)
        if not live.any():
            continue
        mid = mid[live]
        c = mid[:, None] * d[None, :]
        idx = np.floor((c - mn) / w).astype(np.int64)
        inside = np.all((idx >= 0) & (idx < np.array(nb)), axis=1)
        flat = idx[:, 0] * stride0 + idx[:, 1] * stride1 + idx[:, 2]
        np.add.at(target, flat[inside], seg[live][inside] * wd)


def cpp_md_norm(
    hist: Hist3,
    transforms: np.ndarray,
    det_directions: np.ndarray,
    solid_angles: np.ndarray,
    flux: FluxSpectrum,
    momentum_band: tuple[float, float],
    *,
    charge: float = 1.0,
    n_threads: Optional[int] = None,
) -> Hist3:
    """MDNorm with ROI searches and primitive sorts, threaded over rows.

    Each worker owns a private accumulation array (no shared-write
    contention); partials are summed at the end — the standard OpenMP
    reduction pattern for histograms.
    """
    transforms = np.asarray(transforms, dtype=np.float64)
    det_directions = np.asarray(det_directions, dtype=np.float64)
    solid_angles = np.asarray(solid_angles, dtype=np.float64)
    tracer = _trace.active_tracer()
    with tracer.span(
        "cpp.mdnorm",
        kind="op",
        backend="cpp",
        n_ops=int(transforms.shape[0]),
        n_det=int(det_directions.shape[0]),
    ) as op_span:
        grid = hist.grid
        directions = trajectory_directions(transforms, det_directions).reshape(-1, 3)
        k_lo, k_hi = k_window(directions, grid, *momentum_band)
        if tracer.profile:
            # exact crossing counts of the live rows via the vectorized
            # pre-pass's ranges (the same search MiniVATES runs; cheap
            # next to the per-row ROI loop below)
            from repro.core.intersections import crossing_ranges
            from repro.util.perf import mdnorm_work_from_crossings

            live = k_hi > k_lo
            _, count = crossing_ranges(directions[live].T, grid,
                                       k_lo[live], k_hi[live])
            crossings = int(count.sum())
            op_span.set(perf=mdnorm_work_from_crossings(
                directions.shape[0], crossings
            ))
        n_ops = transforms.shape[0]
        det_weight = np.tile(solid_angles * charge, n_ops)

        if n_threads is None:
            env = os.environ.get("REPRO_NUM_THREADS")
            n_threads = max(1, int(env)) if env else max(1, os.cpu_count() or 1)
        n_rows = directions.shape[0]
        flux_k, flux_cum = flux.momentum, flux._cumulative
        tracer.count("cpp.mdnorm.trajectories", int(n_rows))

        if n_threads == 1 or n_rows < 2 * n_threads:
            op_span.set(n_threads=1)
            _mdnorm_rows(
                range(n_rows), directions, k_lo, k_hi, det_weight, grid,
                flux_k, flux_cum, hist.flat_signal,
            )
            return hist

        op_span.set(n_threads=int(n_threads))
        step = (n_rows + n_threads - 1) // n_threads
        chunks = [range(s, min(s + step, n_rows)) for s in range(0, n_rows, step)]
        partials = [np.zeros(grid.n_bins_total) for _ in chunks]
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            futures = [
                pool.submit(
                    _mdnorm_rows, rows, directions, k_lo, k_hi, det_weight, grid,
                    flux_k, flux_cum, partial,
                )
                for rows, partial in zip(chunks, partials)
            ]
            for f in futures:
                f.result()
        acc = hist.flat_signal
        for partial in partials:
            acc += partial
    return hist


@dataclass
class CppProxyConfig:
    """Inputs of the C++ proxy run (same files as the other drivers)."""

    md_paths: Sequence[str]
    flux_path: str
    vanadium_path: str
    instrument: DetectorArray
    grid: HKLGrid
    point_group: PointGroup
    n_threads: Optional[int] = None
    #: failure policy (retry/quarantine/checkpoint/resume); None =
    #: fail-fast
    recovery: Optional[RecoveryConfig] = None

    def __post_init__(self) -> None:
        require(len(self.md_paths) >= 1, "need at least one run file")


class CppProxyWorkflow:
    """Algorithm 1 with the C++ proxy's kernels (CPU only, MPI capable)."""

    def __init__(self, config: CppProxyConfig) -> None:
        self.config = config
        self.flux = read_flux_file(config.flux_path)
        vanadium = read_vanadium_file(config.vanadium_path)
        if vanadium.n_detectors != config.instrument.n_pixels:
            raise ValidationError("vanadium / instrument pixel count mismatch")
        self.solid_angles = vanadium.detector_weights

    def run(
        self,
        comm: Optional[Comm] = None,
        *,
        timings: Optional[StageTimings] = None,
    ) -> CrossSectionResult:
        cfg = self.config
        paths = list(cfg.md_paths)

        def mdnorm_impl(hist, transforms, det_directions, solid_angles, flux,
                        band, charge=1.0):
            return cpp_md_norm(
                hist, transforms, det_directions, solid_angles, flux, band,
                charge=charge, n_threads=cfg.n_threads,
            )

        def load_run(i: int) -> MDEventWorkspace:
            ws = load_md(paths[i])
            # UpdateEvents ends with the paper's row-major transpose
            ws.events = transpose_events(ws.events)
            return ws

        with _trace.active_tracer().span(
            "workflow",
            kind="workflow",
            implementation="cpp_proxy",
            n_runs=len(paths),
            backend="cpp-proxy",
        ):
            result = compute_cross_section(
                load_run=load_run,
                n_runs=len(paths),
                grid=cfg.grid,
                point_group=cfg.point_group,
                flux=self.flux,
                det_directions=cfg.instrument.directions,
                solid_angles=self.solid_angles,
                comm=comm,
                timings=timings or StageTimings(label="cpp-proxy"),
                binmd_impl=cpp_bin_md,
                mdnorm_impl=mdnorm_impl,
                recovery=cfg.recovery,
            )
        result.backend = "cpp-proxy"
        return result
