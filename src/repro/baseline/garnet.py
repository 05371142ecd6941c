"""Garnet: the production multiprocess reduction driver.

Garnet is the Python front end that drives Mantid for single-crystal
diffraction; it parallelizes over experiment runs with worker
*processes* (no threads, no GPUs, no multi-node).  This driver
reproduces that orchestration: each worker loads one raw NeXus run,
converts it to MDEvents, executes the baseline MDNorm + BinMD, and
ships its private histograms back to the parent, which sums them and
divides.  The per-task pickling of geometry and histograms is part of
the production cost profile and is deliberately kept.

With ``n_workers=1`` everything runs in-process (deterministic and
debuggable — and what the tests use); benchmarks may raise it.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.baseline.mantid_binmd import mantid_bin_md
from repro.baseline.mantid_mdnorm import mantid_md_norm
from repro.core.cross_section import CrossSectionResult
from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.core.md_event_workspace import convert_to_md
from repro.crystal.symmetry import point_group
from repro.instruments.detector import DetectorArray
from repro.nexus.corrections import FluxSpectrum
from repro.nexus.schema import read_event_nexus
from repro.util import trace as _trace
from repro.util.timers import StageTimings
from repro.util.validation import ValidationError, require


@dataclass
class GarnetConfig:
    """The production workflow's inputs: raw NeXus runs + corrections."""

    nexus_paths: Sequence[str]
    instrument: DetectorArray
    grid: HKLGrid
    point_group_symbol: str
    flux: FluxSpectrum
    #: per-detector solid angle x efficiency (vanadium weights)
    solid_angles: np.ndarray
    n_workers: int = 1

    def __post_init__(self) -> None:
        require(len(self.nexus_paths) >= 1, "need at least one run file")
        require(self.n_workers >= 1, "n_workers must be >= 1")
        point_group(self.point_group_symbol)  # validate eagerly


def _reduce_one_run(
    args: Tuple[str, GarnetConfig]
) -> Tuple[np.ndarray, np.ndarray, Dict[str, float]]:
    """Worker task: one run -> (binmd signal, mdnorm signal, stage seconds)."""
    path, cfg = args
    pg = point_group(cfg.point_group_symbol)
    stage: Dict[str, float] = {}

    t0 = time.perf_counter()
    run = read_event_nexus(path)
    ws = convert_to_md(run, cfg.instrument)
    stage["UpdateEvents"] = time.perf_counter() - t0
    if ws.ub_matrix is None:
        raise ValidationError(f"{path!r} carries no UB matrix")

    event_transforms = cfg.grid.transforms_for(ws.ub_matrix, pg)
    traj_transforms = cfg.grid.transforms_for(
        ws.ub_matrix, pg, goniometer=ws.goniometer
    )

    mdnorm_hist = Hist3(cfg.grid)
    t0 = time.perf_counter()
    mantid_md_norm(
        mdnorm_hist,
        traj_transforms,
        cfg.instrument.directions,
        cfg.solid_angles,
        cfg.flux,
        ws.momentum_band,
        charge=ws.proton_charge,
    )
    stage["MDNorm"] = time.perf_counter() - t0

    binmd_hist = Hist3(cfg.grid)
    t0 = time.perf_counter()
    mantid_bin_md(binmd_hist, ws.events, event_transforms)
    stage["BinMD"] = time.perf_counter() - t0
    return binmd_hist.signal, mdnorm_hist.signal, stage


class GarnetWorkflow:
    """The multiprocess production reduction."""

    def __init__(self, config: GarnetConfig) -> None:
        self.config = config

    def run(self, *, timings: Optional[StageTimings] = None) -> CrossSectionResult:
        cfg = self.config
        timings = timings or StageTimings(label="garnet-baseline")
        tasks = [(path, cfg) for path in cfg.nexus_paths]

        with _trace.active_tracer().span(
            "workflow",
            kind="workflow",
            implementation="garnet",
            n_runs=len(tasks),
            backend="garnet-multiprocess",
            n_workers=int(cfg.n_workers),
        ):
            total_t0 = time.perf_counter()
            if cfg.n_workers == 1:
                outputs = [_reduce_one_run(task) for task in tasks]
            else:
                with multiprocessing.Pool(processes=cfg.n_workers) as pool:
                    outputs = pool.map(_reduce_one_run, tasks)

            binmd_total = Hist3(cfg.grid)
            mdnorm_total = Hist3(cfg.grid)
            for binmd_signal, mdnorm_signal, stage in outputs:
                binmd_total.signal += binmd_signal
                mdnorm_total.signal += mdnorm_signal
                for name, seconds in stage.items():
                    t = timings.timer(name)
                    t.elapsed += seconds
                    t.ncalls += 1
                    timings.first_call.setdefault(name, seconds)

            cross = binmd_total.divide(mdnorm_total)
            total = timings.timer("Total")
            total.elapsed += time.perf_counter() - total_t0
            total.ncalls += 1
        return CrossSectionResult(
            cross_section=cross,
            binmd=binmd_total,
            mdnorm=mdnorm_total,
            timings=timings,
            n_runs=len(tasks),
            backend="garnet-multiprocess",
        )
