"""Shared fixtures: one tiny synthesized experiment reused suite-wide.

Synthesis is the expensive part of every integration test, so the
standard dataset (a small CORELLI/Benzil ensemble plus its on-disk
NeXus / SaveMD / flux / vanadium files) is built once per session.
Tests must never mutate fixture state; anything that needs to write
gets its own tmp_path copies.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List

import numpy as np
import pytest

from repro.core.grid import HKLGrid
from repro.core.md_event_workspace import MDEventWorkspace, convert_to_md, save_md
from repro.crystal.goniometer import Goniometer
from repro.crystal.structures import benzil
from repro.crystal.symmetry import point_group
from repro.crystal.ub import UBMatrix
from repro.instruments.corelli import make_corelli
from repro.instruments.synth import make_flux, make_vanadium, synthesize_run
from repro.nexus.corrections import write_flux_file, write_vanadium_file
from repro.nexus.events import COL_Q, EventTable, RunData
from repro.nexus.schema import write_event_nexus


@dataclass
class TinyExperiment:
    """A complete small experiment: 3 runs on a 500-pixel CORELLI."""

    instrument: object
    structure: object
    ub: UBMatrix
    grid: HKLGrid
    point_group: object
    runs: List[RunData]
    workspaces: List[MDEventWorkspace]
    nexus_paths: List[str]
    md_paths: List[str]
    flux_path: str
    vanadium_path: str
    flux: object
    vanadium: object


@pytest.fixture(scope="session")
def tiny_experiment(tmp_path_factory: pytest.TempPathFactory) -> TinyExperiment:
    base = tmp_path_factory.mktemp("tiny_experiment")
    structure = benzil()
    instrument = make_corelli(n_pixels=500)
    ub = UBMatrix.from_u_vectors(structure.cell, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    grid = HKLGrid.benzil_grid(bins=(41, 41, 1))
    pg = point_group("321")
    flux = make_flux(instrument)
    vanadium = make_vanadium(instrument)

    runs, workspaces, nexus_paths, md_paths = [], [], [], []
    for i, omega in enumerate((0.0, 40.0, 80.0)):
        run = synthesize_run(
            instrument=instrument,
            structure=structure,
            ub=ub,
            goniometer=Goniometer(omega).rotation,
            n_events=1200,
            rng=np.random.default_rng(9000 + i),
            run_number=i,
        )
        ws = convert_to_md(run, instrument, run_index=i)
        npath = str(base / f"run_{i}.nxs.h5")
        mpath = str(base / f"run_{i}.md.h5")
        write_event_nexus(npath, run)
        save_md(mpath, ws)
        runs.append(run)
        workspaces.append(ws)
        nexus_paths.append(npath)
        md_paths.append(mpath)

    flux_path = str(base / "flux.h5")
    vanadium_path = str(base / "vanadium.h5")
    write_flux_file(flux_path, flux)
    write_vanadium_file(vanadium_path, vanadium)

    return TinyExperiment(
        instrument=instrument,
        structure=structure,
        ub=ub,
        grid=grid,
        point_group=pg,
        runs=runs,
        workspaces=workspaces,
        nexus_paths=nexus_paths,
        md_paths=md_paths,
        flux_path=flux_path,
        vanadium_path=vanadium_path,
        flux=flux,
        vanadium=vanadium,
    )


#: copies of a tiny run in one :func:`large_experiment` run: about
#: 90,000 events, so its (8, n) payload (5.8 MB) and its (3, n) Q block
#: (2.2 MB) both reach ``repro.util.bytesplit.SPLIT_BYTES`` (2 MiB)
LARGE_RUN_COPIES = 75


@pytest.fixture(scope="session")
def large_experiment(tiny_experiment: TinyExperiment,
                     tmp_path_factory: pytest.TempPathFactory) -> TinyExperiment:
    """The tiny experiment's first two runs, each tiled to
    ``LARGE_RUN_COPIES`` copies (copy ``k``'s Q scaled by ``1 + 1e-9 k``,
    so no two copies share bytes), saved as contiguous SaveMD files.
    Only ``md_paths`` and ``workspaces`` describe the tiled runs."""
    from repro.util.bytesplit import SPLIT_BYTES

    base = tmp_path_factory.mktemp("large_experiment")
    workspaces, md_paths = [], []
    for i, ws in enumerate(tiny_experiment.workspaces[:2]):
        cols = np.tile(ws.events.cols, LARGE_RUN_COPIES)
        cols[COL_Q] *= 1.0 + 1e-9 * np.repeat(
            np.arange(LARGE_RUN_COPIES), ws.n_events)
        big = dataclasses.replace(ws, events=EventTable.from_cols(cols))
        assert big.events.q_sample.nbytes >= SPLIT_BYTES
        path = str(base / f"run_{i}.md.h5")
        save_md(path, big)
        workspaces.append(big)
        md_paths.append(path)
    return dataclasses.replace(
        tiny_experiment, runs=tiny_experiment.runs[:2],
        nexus_paths=tiny_experiment.nexus_paths[:2],
        workspaces=workspaces, md_paths=md_paths,
    )


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def fine_gil_switching():
    """Hand the GIL between simulated rank threads every 50 us.

    The stealing tests' campaigns are a dozen sub-millisecond tasks:
    under the default 5 ms interval the first rank to run can drain them
    all before a peer is scheduled at all, and a fault aimed at one
    rank's task then never fires.
    """
    prev = sys.getswitchinterval()
    sys.setswitchinterval(5e-5)
    yield
    sys.setswitchinterval(prev)


@pytest.fixture
def forbid_pool(monkeypatch):
    """``forbid_pool()`` makes the node-local process pool raise on use.

    Shard ranges run in the calling thread whatever the worker knob
    says; a path that still reached for the pool fails loudly instead
    of quietly matching the in-process result.
    """
    from repro.jacc.workers import GLOBAL_POOL

    def refuse(*_args, **_kwargs):
        raise AssertionError("a shard range reached for the process pool")

    def forbid() -> None:
        monkeypatch.setattr(GLOBAL_POOL, "executor", refuse)

    return forbid


@pytest.fixture
def bytesplit_helper(monkeypatch):
    """A fresh ``bytesplit`` helper on any host (even a 1-core one), so
    payload jobs really run on it; shut down after the test."""
    from repro.util import bytesplit

    monkeypatch.setattr(bytesplit, "_cores", lambda: 2)
    monkeypatch.setattr(bytesplit, "_pool", None)
    pool = bytesplit._helper()
    yield pool
    pool.shutdown(wait=True)


def _full_array_geometry(transforms, det_directions, grid, k_min, k_max):
    """MDNorm's geometry over every (op, detector) trajectory: the
    full-array chain ``trajectory_directions`` -> ``k_window`` -> a
    per-axis crossing search over the rows with ``k_hi > k_lo`` (the
    pre-pass's own search, written out here).  Returns the live rows'
    ``rows``, ``directions`` (``(3, n)``), ``k_lo``, ``k_hi``, ``first``
    and ``count`` (``(3, n)``), and the pre-pass ``width``."""
    from repro.core.intersections import (
        PARALLEL_EPS,
        k_window,
        trajectory_directions,
    )

    with np.errstate(invalid="ignore", over="ignore"):
        d = trajectory_directions(transforms, det_directions).reshape(-1, 3)
    lo, hi = k_window(d, grid, k_min, k_max)
    rows = np.flatnonzero(hi > lo)
    d, lo, hi = d[rows], lo[rows], hi[rows]
    first = np.zeros((3, rows.size), dtype=np.int64)
    count = np.zeros((3, rows.size), dtype=np.int64)
    for axis in range(3):
        di = d[:, axis]
        edges = grid.edges[axis]
        a = np.minimum(lo * di, hi * di)
        b = np.maximum(lo * di, hi * di)
        first[axis] = np.searchsorted(edges, a, side="right")
        t = np.searchsorted(edges, b, side="left")
        count[axis] = np.where(np.abs(di) > PARALLEL_EPS,
                               np.maximum(t - first[axis], 0), 0)
    return dict(rows=rows, directions=np.ascontiguousarray(d.T), k_lo=lo,
                k_hi=hi, first=first, count=count,
                width=int(count.sum(axis=0).max(initial=0)) + 2)


@pytest.fixture
def full_array_geometry():
    """The oracle of ``live_trajectories``: see :func:`_full_array_geometry`."""
    return _full_array_geometry
