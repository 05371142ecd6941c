"""Benchmark workloads: the paper's two use cases, scaled.

Each :class:`WorkloadSpec` carries the paper's *full* parameters
(Table II) and the scale factors applied for this host (DESIGN.md
section 6).  ``build()`` synthesizes the dataset — raw NeXus files, the
SaveMD files the proxies consume, the flux and vanadium files — into a
cache directory keyed by the parameters, so repeated benchmark sessions
pay synthesis once.

Environment knobs:

* ``REPRO_SCALE`` — event/detector scale relative to the paper
  (default 0.002 = 1/500);
* ``REPRO_FILES`` — cap on the number of run files (default: the
  paper's count);
* ``REPRO_BENCH_DATA`` — cache directory (default
  ``<repo>/.bench_cache`` or the system temp dir).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from repro.bench.paper import TABLE2, UseCaseCharacteristics
from repro.core.grid import HKLGrid
from repro.core.md_event_workspace import convert_to_md, save_md
from repro.crystal.goniometer import Goniometer
from repro.crystal.structures import CrystalStructure, benzil, bixbyite
from repro.crystal.symmetry import PointGroup, point_group
from repro.crystal.ub import UBMatrix
from repro.instruments.corelli import make_corelli
from repro.instruments.detector import DetectorArray
from repro.instruments.idf import write_instrument
from repro.instruments.synth import make_flux, make_vanadium, synthesize_run
from repro.instruments.topaz import make_topaz
from repro.nexus.corrections import write_flux_file, write_vanadium_file
from repro.nexus.schema import write_event_nexus
from repro.util import atomic_io
from repro.util.rng import RunStreams
from repro.util.validation import require

DEFAULT_SCALE = 0.002


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    return float(raw) if raw else default


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    return int(raw) if raw else default


@dataclass(frozen=True)
class WorkloadSpec:
    """One use case: paper parameters + this host's scaled parameters."""

    key: str
    sample: str
    instrument: str
    paper: UseCaseCharacteristics
    #: applied event/detector scale
    scale: float
    #: runs actually synthesized (<= paper.files)
    n_files: int
    n_events_total: int
    n_detectors: int
    grid_bins: Tuple[int, int, int]
    seed: int
    #: store run files as independently compressed chunks of this many
    #: events (h5lite format v2, zlib codec) instead of one contiguous
    #: blob; enables out-of-core reduction (``--memory-budget``)
    chunk_events: Optional[int] = None

    @property
    def n_events_per_file(self) -> int:
        return max(100, self.n_events_total // self.n_files)

    @property
    def n_symmetry_ops(self) -> int:
        return self.paper.symmetry_ops

    def describe(self) -> str:
        p = self.paper
        return (
            f"workload {self.key}: paper({p.files} files, {p.events:.2e} events, "
            f"{p.detectors:.2e} detectors, bins {p.bins}) -> "
            f"scaled x{self.scale:g} ({self.n_files} files, "
            f"{self.n_events_total:.2e} events, {self.n_detectors} detectors, "
            f"bins {self.grid_bins})"
        )


def benzil_corelli(
    scale: Optional[float] = None,
    n_files: Optional[int] = None,
    grid_bins: Optional[Tuple[int, int, int]] = None,
    chunk_events: Optional[int] = None,
) -> WorkloadSpec:
    """Benzil on CORELLI (Table II column 1)."""
    paper = TABLE2["benzil_corelli"]
    scale = scale if scale is not None else _env_float("REPRO_SCALE", DEFAULT_SCALE)
    n_files = n_files if n_files is not None else min(
        paper.files, _env_int("REPRO_FILES", paper.files)
    )
    return WorkloadSpec(
        key="benzil_corelli",
        sample="benzil",
        instrument="CORELLI",
        paper=paper,
        scale=scale,
        n_files=n_files,
        n_events_total=max(2000, int(paper.events * scale)),
        n_detectors=max(200, int(paper.detectors * scale)),
        grid_bins=grid_bins or (151, 151, 1),
        seed=601_000,
        chunk_events=chunk_events,
    )


def bixbyite_topaz(
    scale: Optional[float] = None,
    n_files: Optional[int] = None,
    grid_bins: Optional[Tuple[int, int, int]] = None,
    chunk_events: Optional[int] = None,
) -> WorkloadSpec:
    """Bixbyite on TOPAZ (Table II column 2)."""
    paper = TABLE2["bixbyite_topaz"]
    scale = scale if scale is not None else _env_float("REPRO_SCALE", DEFAULT_SCALE)
    n_files = n_files if n_files is not None else min(
        paper.files, _env_int("REPRO_FILES", paper.files)
    )
    return WorkloadSpec(
        key="bixbyite_topaz",
        sample="bixbyite",
        instrument="TOPAZ",
        paper=paper,
        scale=scale,
        n_files=n_files,
        # TOPAZ detector count is scaled harder: MDNorm rows are
        # ops x detectors and bixbyite has 4x the ops
        n_events_total=max(2000, int(paper.events * scale)),
        n_detectors=max(200, int(paper.detectors * scale * 0.5)),
        grid_bins=grid_bins or (151, 151, 1),
        seed=311_000,
        chunk_events=chunk_events,
    )


@dataclass
class WorkloadData:
    """A synthesized on-disk dataset for one workload."""

    spec: WorkloadSpec
    directory: Path
    nexus_paths: List[str]
    md_paths: List[str]
    flux_path: str
    vanadium_path: str
    instrument_path: str
    instrument: DetectorArray
    structure: CrystalStructure
    grid: HKLGrid
    point_group: PointGroup
    ub: UBMatrix

    @property
    def total_bytes(self) -> int:
        return sum(os.path.getsize(p) for p in self.md_paths)


def _cache_root() -> Path:
    env = os.environ.get("REPRO_BENCH_DATA")
    if env:
        return Path(env)
    repo_root = Path(__file__).resolve().parents[3]
    candidate = repo_root / ".bench_cache"
    try:
        candidate.mkdir(parents=True, exist_ok=True)
        return candidate
    except OSError:  # pragma: no cover - read-only checkouts
        return Path(tempfile.gettempdir()) / "repro_bench_cache"


def _spec_digest(spec: WorkloadSpec) -> str:
    fields = {
        "key": spec.key,
        "scale": spec.scale,
        "files": spec.n_files,
        "events": spec.n_events_total,
        "detectors": spec.n_detectors,
        "bins": spec.grid_bins,
        "seed": spec.seed,
        "format": 2,  # 2: pulse_times in event files + instrument IDF
    }
    # only chunked specs key on the layout, so the digests (and cached
    # fixture directories) of existing contiguous workloads are unchanged;
    # "md_layout" keeps a cache of row-major chunked files from being
    # read as the one-stream-per-column layout
    if spec.chunk_events is not None:
        fields["chunk_events"] = int(spec.chunk_events)
        fields["md_layout"] = "columns"
    payload = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _make_instrument(spec: WorkloadSpec) -> DetectorArray:
    if spec.instrument == "CORELLI":
        return make_corelli(n_pixels=spec.n_detectors)
    return make_topaz(n_pixels=spec.n_detectors)


def _make_structure(spec: WorkloadSpec) -> CrystalStructure:
    return benzil() if spec.sample == "benzil" else bixbyite()


def _make_grid(spec: WorkloadSpec) -> HKLGrid:
    if spec.key == "benzil_corelli":
        return HKLGrid.benzil_grid(bins=spec.grid_bins)
    return HKLGrid.bixbyite_grid(bins=spec.grid_bins)


def _goniometers(spec: WorkloadSpec) -> List[np.ndarray]:
    """One orientation per run: CORELLI sweeps omega uniformly; TOPAZ
    uses a low-discrepancy set of (omega, chi, phi) settings."""
    if spec.instrument == "CORELLI":
        omegas = np.linspace(0.0, 180.0, spec.n_files, endpoint=False)
        return [Goniometer(om).rotation for om in omegas]
    rng = np.random.default_rng(spec.seed + 17)
    settings = rng.uniform([0.0, -45.0, 0.0], [360.0, 45.0, 360.0], size=(spec.n_files, 3))
    return [Goniometer(*s).rotation for s in settings]


def build_workload(spec: WorkloadSpec) -> WorkloadData:
    """Synthesize (or reuse from cache) the dataset for ``spec``."""
    structure = _make_structure(spec)
    instrument = _make_instrument(spec)
    grid = _make_grid(spec)
    pg = point_group(structure.point_group_symbol)
    require(pg.order == spec.paper.symmetry_ops,
            f"{spec.key}: point group order {pg.order} != paper "
            f"{spec.paper.symmetry_ops}")
    ub = UBMatrix.from_u_vectors(structure.cell, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])

    directory = _cache_root() / f"{spec.key}-{_spec_digest(spec)}"
    nexus_paths = [str(directory / f"run_{i:04d}.nxs.h5") for i in range(spec.n_files)]
    md_paths = [str(directory / f"run_{i:04d}.md.h5") for i in range(spec.n_files)]
    flux_path = str(directory / "flux.h5")
    vanadium_path = str(directory / "vanadium.h5")
    instrument_path = str(directory / "instrument.h5")

    # Crash-safe fixture publication: every member file is written to a
    # temporary sibling and atomically renamed into place, and the
    # directory is only trusted once its COMPLETE sentinel (written
    # strictly last) exists.  A synthesis killed at any instant leaves a
    # directory without the sentinel, which the next call rebuilds.
    if not atomic_io.is_complete(directory):
        directory.mkdir(parents=True, exist_ok=True)
        streams = RunStreams(spec.seed)
        goniometers = _goniometers(spec)
        per_file = spec.n_events_per_file

        def publish(path: str, writer, *payload) -> None:
            with atomic_io.atomic_path(path) as tmp:
                writer(tmp, *payload)

        def write_nexus(tmp, run):
            write_event_nexus(tmp, run, chunk_events=spec.chunk_events)

        def write_md(tmp, ws):
            save_md(tmp, ws, chunk_events=spec.chunk_events)

        for i in range(spec.n_files):
            run = synthesize_run(
                instrument=instrument,
                structure=structure,
                ub=ub,
                goniometer=goniometers[i],
                n_events=per_file,
                rng=streams.for_run(i),
                run_number=i,
            )
            publish(nexus_paths[i], write_nexus, run)
            ws = convert_to_md(run, instrument, run_index=i)
            publish(md_paths[i], write_md, ws)
        publish(flux_path, write_flux_file, make_flux(instrument))
        publish(vanadium_path, write_vanadium_file, make_vanadium(instrument))
        publish(instrument_path, write_instrument, instrument)
        atomic_io.mark_complete(directory, spec.describe() + "\n")

    return WorkloadData(
        spec=spec,
        directory=directory,
        nexus_paths=nexus_paths,
        md_paths=md_paths,
        flux_path=flux_path,
        vanadium_path=vanadium_path,
        instrument_path=instrument_path,
        instrument=instrument,
        structure=structure,
        grid=grid,
        point_group=pg,
        ub=ub,
    )
