"""The four workloads and the closed-loop runner that reduces them.

Each workload fixes the inputs (sample, scale, run files, storage
layout) and the execution path (executor, shards, pool, cache policy)
of one Algorithm-1 reduction through
:class:`repro.core.workflow.ReductionWorkflow`.  README.md says why each
one was chosen and which layers it stresses or bypasses.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

BACKEND = "vectorized"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sample: str                     # "benzil" (CORELLI) | "bixbyite" (TOPAZ)
    scale: float
    files: int
    #: store runs as zlib chunks of this many events (h5lite v2)
    chunk_events: Optional[int] = None
    #: out-of-core decoded-tile budget per run, bytes
    memory_budget: Optional[int] = None
    shards: Optional[int] = None
    shard_workers: Optional[int] = None
    executor: Optional[str] = None
    #: simulated MPI ranks (threads of this process)
    ranks: int = 1
    #: one GeomCache shared by every reduction, filled during set-up
    shared_cache: bool = False
    #: recovery with a CheckpointManager in a fresh directory per reduction
    checkpoint: bool = False

    def spec(self, seed: int, scale: Optional[float] = None):
        """The repo's workload spec, re-seeded by the benchmark."""
        from repro.bench.workloads import benzil_corelli, bixbyite_topaz

        make = benzil_corelli if self.sample == "benzil" else bixbyite_topaz
        spec = make(scale=self.scale if scale is None else scale,
                    n_files=self.files, chunk_events=self.chunk_events)
        return dataclasses.replace(spec, seed=int(seed))

    @property
    def pool_workers(self) -> int:
        return (self.shard_workers or 1) if self.shards else 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="benzil_cold",
            why="in-memory vectorized baseline with a fresh geometry cache "
                "per reduction: every cache access misses and BinMD "
                "dominates Total",
            sample="benzil", scale=0.002, files=4,
        ),
        Workload(
            name="bixbyite_warm",
            why="24 ops over a cache filled in set-up: every lookup hits, "
                "so key hashing and MDNorm weigh most",
            sample="bixbyite", scale=0.001, files=2, shared_cache=True,
        ),
        Workload(
            name="benzil_ooc_shards",
            why="zlib-chunked runs under a 256 KiB tile budget, 2 shards on "
                "2 pool workers: chunk decode, fan-out and replay",
            sample="benzil", scale=0.002, files=4, chunk_events=2000,
            memory_budget=256 * 1024, shards=2, shard_workers=2,
        ),
        Workload(
            name="benzil_stealing_ckpt",
            why="work-stealing executor on 2 simulated ranks with per-run "
                "checkpoints: steal queue, checkpoint save and fold",
            sample="benzil", scale=0.001, files=4, shards=2, shard_workers=1,
            executor="stealing", ranks=2, checkpoint=True,
        ),
    )
}


@dataclass
class Reduction:
    """One timed reduction and what it ran against."""

    result: Any
    timings: Any
    start: float
    stop: float
    cache: Any

    @property
    def total_s(self) -> float:
        return self.stop - self.start


class Runner:
    """Sets up one workload's workflow and reduces it back to back."""

    def __init__(self, workload: Workload, data: Any, workdir: Path) -> None:
        self.workload = workload
        self.data = data
        self.workdir = Path(workdir)
        self.shared_cache = None
        self.workflow = None
        self._count = 0

    def base_config(self, **overrides: Any):
        from repro.core.workflow import WorkflowConfig

        w, d = self.workload, self.data
        fields = dict(
            md_paths=d.md_paths, flux_path=d.flux_path,
            vanadium_path=d.vanadium_path, instrument=d.instrument,
            grid=d.grid, point_group=d.point_group, backend=BACKEND,
            memory_budget=w.memory_budget, shards=w.shards,
            shard_workers=w.shard_workers, executor=w.executor,
        )
        fields.update(overrides)
        return WorkflowConfig(**fields)

    def setup(self) -> None:
        """Start the pool, build the workflow (flux and vanadium reads) and
        run one untimed reduction, which fills the shared cache."""
        from repro.core.geom_cache import GeomCache
        from repro.core.workflow import ReductionWorkflow
        from repro.jacc.workers import GLOBAL_POOL

        if self.workload.pool_workers > 1:
            GLOBAL_POOL.dispose()
            GLOBAL_POOL.executor(self.workload.pool_workers)
        self.shared_cache = GeomCache() if self.workload.shared_cache else None
        self.workflow = ReductionWorkflow(self.base_config())
        self.reduce()

    def reduce(self) -> Reduction:
        """One closed-loop reduction; only the reduction itself is timed."""
        from repro.core.checkpoint import CheckpointManager, RecoveryConfig
        from repro.core.geom_cache import GeomCache
        from repro.mpi.runner import run_world
        from repro.util.timers import StageTimings

        self._count += 1
        # an empty GeomCache is falsy (it has a __len__)
        cache = GeomCache() if self.shared_cache is None else self.shared_cache
        ckpt_dir = None
        recovery = None
        if self.workload.checkpoint:
            ckpt_dir = self.workdir / f"ckpt-{self._count}"
            recovery = RecoveryConfig(checkpoint=CheckpointManager(ckpt_dir))
        self.workflow.config = self.base_config(geom_cache=cache,
                                                recovery=recovery)
        # one accumulator for every rank: stage rows sum the ranks' time
        timings = StageTimings(label=self.workload.name)
        workflow = self.workflow
        # start every reduction from a collected heap, so a collection
        # owed by earlier garbage does not land in this one's timing
        gc.collect()
        try:
            start = time.perf_counter()
            if self.workload.ranks > 1:
                result = run_world(
                    self.workload.ranks,
                    lambda comm: workflow.run(comm, timings=timings),
                )[0]
            else:
                result = workflow.run(timings=timings)
            stop = time.perf_counter()
        finally:
            if ckpt_dir is not None:
                shutil.rmtree(ckpt_dir, ignore_errors=True)
        return Reduction(result, timings, start, stop, cache)

    def reference_result(self):
        """In-memory, static, vectorized reduction with a fresh cache."""
        from repro.core.geom_cache import GeomCache
        from repro.core.workflow import ReductionWorkflow

        config = self.base_config(
            memory_budget=None, shards=None, shard_workers=None,
            executor=None, geom_cache=GeomCache(),
        )
        return ReductionWorkflow(config).run()

    def close(self) -> None:
        from repro.jacc.workers import GLOBAL_POOL

        GLOBAL_POOL.dispose()


def synthesize(workload: Workload, seed: int, data_dir: Path,
               scale: Optional[float] = None):
    """Write the workload's inputs for ``seed`` under ``data_dir``."""
    from repro.bench.workloads import build_workload

    os.environ["REPRO_BENCH_DATA"] = str(data_dir)
    return build_workload(workload.spec(seed, scale))


def describe(workload: Workload, data: Any) -> dict:
    """The input record printed with every result."""
    spec = data.spec
    return {
        "workload": workload.name,
        "seed": spec.seed,
        "scale": spec.scale,
        "files": spec.n_files,
        "events": spec.n_events_per_file * spec.n_files,
        "detectors": data.instrument.n_pixels,
        "ops": spec.n_symmetry_ops,
        "grid_bins": list(spec.grid_bins),
        "chunk_events": spec.chunk_events,
        "memory_budget": workload.memory_budget,
        "bytes_on_disk": data.total_bytes,
        "executor": workload.executor or "static",
        "shards": workload.shards,
        "pool_workers": workload.pool_workers,
        "ranks": workload.ranks,
        "backend": BACKEND,
    }


def lanes(data: Any) -> float:
    """Symmetry ops x events one reduction bins."""
    spec = data.spec
    return float(spec.n_symmetry_ops) * float(spec.n_events_per_file * spec.n_files)
