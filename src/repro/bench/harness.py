"""Drivers measuring each implementation on a workload.

Each ``run_*`` function executes one implementation on (a subset of)
the workload's run files and returns a :class:`MeasuredRun` holding the
paper-style stage rows:

* ``per_file(stage)`` — mean seconds per run file (what Tables III-VI
  report for the stage rows);
* ``first_file(stage)`` — the JIT-inclusive first call;
* ``warm(stage)`` — the mean over non-first calls ("no JIT");
* ``total_extrapolated`` — the whole-workflow wall clock, scaled from
  ``files_measured`` to the workload's full file count when an
  implementation is too slow to run on all files (documented in the
  row).

Device profiles bundle the device-behaviour knobs:
:data:`MI100_PROFILE` (per-lane atomics, in-kernel comb sort) and
:data:`A100_PROFILE` (buffered atomics, library sort) — the honest
stand-ins for the paper's two GPUs (DESIGN.md section 2).
"""

from __future__ import annotations

from contextlib import nullcontext as _nullcontext
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.baseline.garnet import GarnetConfig, GarnetWorkflow
from repro.bench.workloads import WorkloadData
from repro.core.cross_section import CrossSectionResult
from repro.core.geom_cache import DEFAULT_BYTE_BUDGET, GeomCache
from repro.core.checkpoint import RecoveryConfig
from repro.core.workflow import ReductionWorkflow, WorkflowConfig
from repro.nexus.corrections import read_flux_file, read_vanadium_file
from repro.proxy.cpp_proxy import CppProxyConfig, CppProxyWorkflow
from repro.proxy.minivates import MiniVatesConfig, MiniVatesWorkflow
from repro.util import trace as _trace
from repro.util.timers import StageTimings
from repro.util.validation import require

STAGES = ("UpdateEvents", "MDNorm", "BinMD", "MDNorm + BinMD")


@dataclass(frozen=True)
class DeviceProfile:
    """Device-behaviour configuration for the MiniVATES proxy."""

    name: str
    sort_impl: str
    scatter_impl: str


#: AMD MI100-like: per-lane atomic updates, in-kernel comb sort
MI100_PROFILE = DeviceProfile(name="MI100-class", sort_impl="comb", scatter_impl="atomic")
#: NVIDIA A100-like: efficient (buffered) atomics, library sort
A100_PROFILE = DeviceProfile(name="A100-class", sort_impl="library", scatter_impl="buffered")


@dataclass
class MeasuredRun:
    """One implementation's measured timings on a workload."""

    label: str
    workload_key: str
    files_measured: int
    files_full: int
    timings: StageTimings
    result: CrossSectionResult
    extras: Dict[str, float] = field(default_factory=dict)

    def per_file(self, stage: str) -> float:
        t = self.timings.seconds(stage)
        return t / self.files_measured if self.files_measured else 0.0

    def first_file(self, stage: str) -> float:
        if stage == "MDNorm + BinMD":
            return self.first_file("MDNorm") + self.first_file("BinMD")
        return self.timings.first_call.get(stage, 0.0)

    def warm(self, stage: str) -> float:
        return self.timings.mean_warm_seconds(stage)

    @property
    def total_measured(self) -> float:
        return self.timings.seconds("Total")

    @property
    def total_extrapolated(self) -> float:
        """Whole-workflow estimate at the full file count."""
        if self.files_measured >= self.files_full:
            return self.total_measured
        per_file = self.total_measured / max(self.files_measured, 1)
        return per_file * self.files_full

    @property
    def extrapolated(self) -> bool:
        return self.files_measured < self.files_full

    def stage_summary(self) -> Dict[str, float]:
        return {stage: self.per_file(stage) for stage in STAGES}


def _subset(data: WorkloadData, files: Optional[int]) -> tuple[list, list, int]:
    n = len(data.md_paths) if files is None else min(files, len(data.md_paths))
    require(n >= 1, "need at least one file to measure")
    return data.nexus_paths[:n], data.md_paths[:n], n


def _maybe_trace(tracer: Optional[_trace.Tracer]):
    """``use_tracer(tracer)`` when given one, otherwise a no-op context."""
    return _trace.use_tracer(tracer) if tracer is not None else _nullcontext()


def run_garnet(
    data: WorkloadData,
    *,
    files: Optional[int] = None,
    n_workers: int = 1,
    tracer: Optional[_trace.Tracer] = None,
) -> MeasuredRun:
    """Measure the Garnet/Mantid production baseline."""
    nexus_paths, _, n = _subset(data, files)
    flux = read_flux_file(data.flux_path)
    vanadium = read_vanadium_file(data.vanadium_path)
    cfg = GarnetConfig(
        nexus_paths=nexus_paths,
        instrument=data.instrument,
        grid=data.grid,
        point_group_symbol=data.structure.point_group_symbol,
        flux=flux,
        solid_angles=vanadium.detector_weights,
        n_workers=n_workers,
    )
    with _maybe_trace(tracer):
        result = GarnetWorkflow(cfg).run()
    return MeasuredRun(
        label=f"Garnet/Mantid baseline (x{n_workers} proc)",
        workload_key=data.spec.key,
        files_measured=n,
        files_full=data.spec.n_files,
        timings=result.timings,
        result=result,
    )


def run_cpp_proxy(
    data: WorkloadData,
    *,
    files: Optional[int] = None,
    n_threads: Optional[int] = None,
    tracer: Optional[_trace.Tracer] = None,
    recovery: Optional["RecoveryConfig"] = None,
) -> MeasuredRun:
    """Measure the C++ proxy (optimized CPU kernels, threaded)."""
    _, md_paths, n = _subset(data, files)
    cfg = CppProxyConfig(
        md_paths=md_paths,
        flux_path=data.flux_path,
        vanadium_path=data.vanadium_path,
        instrument=data.instrument,
        grid=data.grid,
        point_group=data.point_group,
        n_threads=n_threads,
        recovery=recovery,
    )
    with _maybe_trace(tracer):
        result = CppProxyWorkflow(cfg).run()
    return MeasuredRun(
        label="C++ proxy (CPU)",
        workload_key=data.spec.key,
        files_measured=n,
        files_full=data.spec.n_files,
        timings=result.timings,
        result=result,
    )


def run_minivates(
    data: WorkloadData,
    *,
    files: Optional[int] = None,
    profile: DeviceProfile = A100_PROFILE,
    cold_start: bool = True,
    tracer: Optional[_trace.Tracer] = None,
    recovery: Optional["RecoveryConfig"] = None,
) -> MeasuredRun:
    """Measure the MiniVATES proxy under a device profile."""
    _, md_paths, n = _subset(data, files)
    cfg = MiniVatesConfig(
        md_paths=md_paths,
        flux_path=data.flux_path,
        vanadium_path=data.vanadium_path,
        instrument=data.instrument,
        grid=data.grid,
        point_group=data.point_group,
        sort_impl=profile.sort_impl,
        scatter_impl=profile.scatter_impl,
        cold_start=cold_start,
        recovery=recovery,
    )
    with _maybe_trace(tracer):
        result = MiniVatesWorkflow(cfg).run()
    return MeasuredRun(
        label=f"MiniVATES ({profile.name})",
        workload_key=data.spec.key,
        files_measured=n,
        files_full=data.spec.n_files,
        timings=result.timings,
        result=result,
        extras=dict(result.extras or {}),
    )


def run_minivates_jit_split(
    data: WorkloadData,
    *,
    profile: DeviceProfile = A100_PROFILE,
    file_index: int = 0,
) -> tuple[MeasuredRun, MeasuredRun]:
    """The JIT vs no-JIT measurement of Tables III-VI, done honestly.

    Within a multi-file workflow the first file differs from later ones
    in *workload* (each run has its own goniometer setting and live
    trajectory count), which confounds first-call JIT accounting.  This
    measures the same single file twice — once with a cold kernel cache
    ("JIT") and once warm ("no JIT") — so the only difference is the
    specialization cost, exactly what the paper's columns isolate.
    """
    require(0 <= file_index < len(data.md_paths), "file_index out of range")

    def one(cold: bool) -> MeasuredRun:
        cfg = MiniVatesConfig(
            md_paths=[data.md_paths[file_index]],
            flux_path=data.flux_path,
            vanadium_path=data.vanadium_path,
            instrument=data.instrument,
            grid=data.grid,
            point_group=data.point_group,
            sort_impl=profile.sort_impl,
            scatter_impl=profile.scatter_impl,
            cold_start=cold,
        )
        result = MiniVatesWorkflow(cfg).run()
        return MeasuredRun(
            label=f"MiniVATES ({profile.name}, {'JIT' if cold else 'no JIT'})",
            workload_key=data.spec.key,
            files_measured=1,
            files_full=data.spec.n_files,
            timings=result.timings,
            result=result,
            extras=dict(result.extras or {}),
        )

    cold_run = one(True)
    warm_run = one(False)
    return cold_run, warm_run


@dataclass
class ColdWarmSplit:
    """Cold-vs-warm geometry-cache measurement of one panel.

    ``cold`` is the first reduction (cache empty — every stage computes
    from scratch and populates the cache); ``warm`` is the identical
    reduction re-run against the now-populated cache, the repeated-panel
    pattern of a Garnet-style symmetry sweep.  The histograms are
    bit-identical by construction; only the time differs.
    """

    cold: MeasuredRun
    warm: MeasuredRun
    #: geometry-cache counters accumulated over both passes
    cache_stats: Dict[str, float] = field(default_factory=dict)

    def speedup(self, stage: str = "MDNorm") -> float:
        """cold/warm wall-clock ratio for a stage (inf if warm ~ 0)."""
        c = self.cold.timings.seconds(stage)
        w = self.warm.timings.seconds(stage)
        return c / w if w > 0.0 else float("inf")

    def stage_table(self) -> Dict[str, Dict[str, float]]:
        """Per-stage cold / warm seconds + speedup (report rows)."""
        table: Dict[str, Dict[str, float]] = {}
        for stage in STAGES[:3] + ("Total",):
            c = self.cold.timings.seconds(stage)
            w = self.warm.timings.seconds(stage)
            table[stage] = {
                "cold_s": c,
                "warm_s": w,
                "speedup": (c / w) if w > 0.0 else float("inf"),
            }
        return table


def run_repeated_panel(
    data: WorkloadData,
    *,
    files: Optional[int] = None,
    backend: str = "vectorized",
    cache: Optional[GeomCache] = None,
    byte_budget: int = DEFAULT_BYTE_BUDGET,
    tracer: Optional[_trace.Tracer] = None,
) -> ColdWarmSplit:
    """Reduce the same panel twice against one geometry cache.

    This is the benchmark behind the "hot path measurably faster"
    acceptance: the first pass pays the full intersection / pre-pass /
    flux-table cost and fills the cache; the second pass replays the
    cached deposit plans.  A private cache is created unless one is
    passed in, so the measurement never depends on process state.
    """
    _, md_paths, n = _subset(data, files)
    cache = cache if cache is not None else GeomCache(byte_budget=byte_budget)
    cfg = WorkflowConfig(
        md_paths=md_paths,
        flux_path=data.flux_path,
        vanadium_path=data.vanadium_path,
        instrument=data.instrument,
        grid=data.grid,
        point_group=data.point_group,
        backend=backend,
        geom_cache=cache,
    )
    workflow = ReductionWorkflow(cfg)

    def one(label: str) -> MeasuredRun:
        timings = StageTimings(label=label)
        with _maybe_trace(tracer):
            result = workflow.run(timings=timings)
        return MeasuredRun(
            label=f"core[{backend}] ({label} cache)",
            workload_key=data.spec.key,
            files_measured=n,
            files_full=data.spec.n_files,
            timings=timings,
            result=result,
            extras=dict(result.extras or {}),
        )

    cold = one("cold")
    warm = one("warm")
    return ColdWarmSplit(cold=cold, warm=warm, cache_stats=cache.stats.snapshot())


@dataclass
class ShardedPanel:
    """One-shard-vs-sharded measurement of the same panel.

    ``baseline`` runs the single-level Algorithm 1 loop; ``sharded``
    cuts each run into ``n_shards`` in-process intra-run shards.  The
    histograms are bit-identical by construction (shards replay the
    in-memory batch deposit order); only the time differs.
    """

    baseline: MeasuredRun
    sharded: MeasuredRun
    n_shards: int


def run_sharded_panel(
    data: WorkloadData,
    *,
    files: Optional[int] = None,
    baseline_backend: str = "vectorized",
    n_shards: int = 4,
    tracer: Optional[_trace.Tracer] = None,
) -> ShardedPanel:
    """Measure the intra-run shard ranges against the 1-shard loop.

    Both passes use fresh private geometry caches so neither side gets
    a warm-path advantage; the sharded pass runs the batch bodies over
    in-process shard ranges, the baseline the single-level loop on
    ``baseline_backend`` (default ``vectorized``, the process default
    and the back end whose results shards reproduce bit for bit).
    """
    require(n_shards >= 1, "n_shards must be >= 1")
    _, md_paths, n = _subset(data, files)

    def one(label: str, *, backend: Optional[str],
            shards: Optional[int]) -> MeasuredRun:
        cfg = WorkflowConfig(
            md_paths=md_paths,
            flux_path=data.flux_path,
            vanadium_path=data.vanadium_path,
            instrument=data.instrument,
            grid=data.grid,
            point_group=data.point_group,
            backend=backend,
            geom_cache=GeomCache(),
            shards=shards,
        )
        timings = StageTimings(label=label)
        with _maybe_trace(tracer):
            result = ReductionWorkflow(cfg).run(timings=timings)
        return MeasuredRun(
            label=label,
            workload_key=data.spec.key,
            files_measured=n,
            files_full=data.spec.n_files,
            timings=timings,
            result=result,
            extras=dict(result.extras or {}),
        )

    baseline = one(f"core[{baseline_backend}] 1-shard",
                   backend=baseline_backend, shards=None)
    sharded = one(f"core[sharded x{n_shards}]",
                  backend=None, shards=n_shards)
    return ShardedPanel(baseline=baseline, sharded=sharded, n_shards=n_shards)


def assert_results_match(a: MeasuredRun, b: MeasuredRun, *, rtol: float = 1e-7) -> None:
    """Same files -> identical histograms, regardless of implementation."""
    require(a.files_measured == b.files_measured,
            "cannot compare runs over different file subsets")
    ra, rb = a.result, b.result
    if not np.allclose(ra.binmd.signal, rb.binmd.signal, rtol=rtol, atol=1e-12):
        raise AssertionError(f"BinMD histograms differ: {a.label} vs {b.label}")
    if not np.allclose(ra.mdnorm.signal, rb.mdnorm.signal, rtol=rtol, atol=1e-12):
        raise AssertionError(f"MDNorm histograms differ: {a.label} vs {b.label}")
