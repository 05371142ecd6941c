"""File-driven end-to-end reduction (the proxies' outer shell).

A :class:`ReductionWorkflow` is configured with the on-disk inputs the
paper's artifact description lists — one SaveMD file per run, plus the
FluxFile and VanadiumFile — together with the instrument geometry, the
output grid and the sample's point group.  ``run()`` executes
Algorithm 1 and returns the :class:`CrossSectionResult` with the
per-stage timings the benchmark harness turns into table rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.checkpoint import RecoveryConfig
from repro.core.cross_section import (
    CrossSectionResult,
    check_executor,
    compute_cross_section,
)
from repro.core.geom_cache import GeomCache
from repro.core.grid import HKLGrid
# load_md is re-exported: the benchmark's layer table wraps it by this name
from repro.core.md_event_workspace import begin_md, load_md  # noqa: F401
from repro.core.sharding import ShardConfig
from repro.crystal.symmetry import PointGroup
from repro.instruments.detector import DetectorArray
from repro.jacc.workers import parse_worker_count
from repro.mpi import Comm
from repro.nexus.corrections import read_flux_file, read_vanadium_file
from repro.util import trace as _trace
from repro.util.timers import StageTimings
from repro.util.validation import ValidationError, require


@dataclass
class WorkflowConfig:
    """Everything a reduction needs, as file paths + geometry."""

    #: one SaveMD file per experiment run
    md_paths: Sequence[str]
    #: the incident-spectrum file (see ``write_flux_file``)
    flux_path: str
    #: the vanadium calibration file (see ``write_vanadium_file``)
    vanadium_path: str
    instrument: DetectorArray
    grid: HKLGrid
    point_group: PointGroup
    #: jacc back end name; None = process default
    backend: Optional[str] = None
    #: crossing sort: "library" (C row sort) or "comb" (the paper's
    #: in-kernel sort); bit-identical histograms either way
    sort_impl: str = "library"
    #: geometry cache shared across runs/panels/re-reductions; None =
    #: the process default, ``repro.core.geom_cache.DISABLED`` opts out
    geom_cache: Optional[GeomCache] = None
    #: failure policy (retry/quarantine/checkpoint/resume); None =
    #: fail-fast
    recovery: Optional[RecoveryConfig] = None
    #: intra-run shard count (ranges of op-major (op, detector) rows
    #: for MDNorm, event ranges for BinMD); None = single-level
    #: Algorithm 1
    shards: Optional[int] = None
    #: validated (a positive worker count, or None) but selects
    #: nothing: every shard range runs in process.  Kept only because
    #: the benchmark's workload table still passes it
    shard_workers: Optional[int] = None
    #: optional per-run event weights (run manifest) for weight-balanced
    #: rank blocks — the outer level of the 2-D decomposition
    run_weights: Optional[Sequence[float]] = None
    #: out-of-core byte budget for the decoded chunks of one BinMD window
    #: (``--memory-budget``).  Requires chunked (``save_md(chunk_events=
    #: ...)``) run files; None = load each run's table into memory
    memory_budget: Optional[int] = None
    #: campaign executor (``--executor``): None/"static" is the fixed
    #: rank-block plan, "stealing" the elastic work-stealing executor
    executor: Optional[str] = None

    def __post_init__(self) -> None:
        require(len(self.md_paths) >= 1, "need at least one run file")
        # fail fast on bad shard/worker counts at configuration time
        self.shard_config()
        if self.shard_workers is not None:
            parse_worker_count(self.shard_workers, source="shard workers")
        # ... and on unknown executor names
        check_executor(self.executor)

    def shard_config(self) -> Optional[ShardConfig]:
        """The validated :class:`ShardConfig`, or None when unsharded."""
        return ShardConfig.from_options(self.shards)


class ReductionWorkflow:
    """Algorithm 1 over on-disk run files."""

    def __init__(self, config: WorkflowConfig) -> None:
        self.config = config
        self.flux = read_flux_file(config.flux_path)
        vanadium = read_vanadium_file(config.vanadium_path)
        if vanadium.n_detectors != config.instrument.n_pixels:
            raise ValidationError(
                f"vanadium has {vanadium.n_detectors} detectors but "
                f"{config.instrument.name} has {config.instrument.n_pixels} pixels"
            )
        self.solid_angles = vanadium.detector_weights

    def run(
        self,
        comm: Optional[Comm] = None,
        *,
        timings: Optional[StageTimings] = None,
    ) -> CrossSectionResult:
        cfg = self.config
        paths = list(cfg.md_paths)
        with _trace.active_tracer().span(
            "workflow",
            kind="workflow",
            implementation="core",
            n_runs=len(paths),
            backend=cfg.backend or "default",
        ):
            return compute_cross_section(
                # a begun load: the payload is read while MDNorm runs
                load_run=lambda i: begin_md(
                    paths[i], memory_budget=cfg.memory_budget
                ),
                n_runs=len(paths),
                grid=cfg.grid,
                point_group=cfg.point_group,
                flux=self.flux,
                det_directions=cfg.instrument.directions,
                solid_angles=self.solid_angles,
                comm=comm,
                backend=cfg.backend,
                sort_impl=cfg.sort_impl,
                timings=timings,
                cache=cfg.geom_cache,
                recovery=cfg.recovery,
                shards=cfg.shard_config(),
                run_weights=cfg.run_weights,
                executor=cfg.executor,
            )
