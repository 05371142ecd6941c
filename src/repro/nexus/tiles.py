"""Bounded-memory tile manager over chunked h5lite datasets.

The paper's flagship workload (Bixbyite: 280M events, 206 GB on disk)
cannot be reduced by a loop that materializes each run's full 8-column
event table — ROADMAP item 1 calls this the "whole event table in RAM"
ceiling.  This module is the out-of-core layer that removes it:

* :class:`TileManager` — an LRU cache of *decoded chunks* of one
  chunked dataset, bounded by a configurable **byte budget**.  The
  budget bounds decoded-chunk residency (the cache never holds more
  than ``budget_bytes`` of decoded rows, except when a single chunk is
  itself larger — the irreducible floor); hit/miss/eviction counters
  and a peak-residency gauge make the bound *measurable*, which is what
  the out-of-core conformance suite and the CI smoke assert.
* :class:`LazyEventTable` — the facade the reduction loop sees instead
  of an in-memory :class:`~repro.nexus.events.EventTable`.  It exposes
  the same ``n_events`` surface, chunk metadata for the shard planner
  (shard boundaries snap to chunk boundaries, so each chunk is decoded
  by exactly one shard), and ``window(a, b)`` — a bounded event window
  served through the tile manager.  It is picklable (it carries only
  the file path + dataset name; handles reopen lazily), so a process
  that receives one reads its own windows straight from the file.

Budget semantics (DESIGN.md section 6g): ``memory_budget`` bounds the
*decoded-chunk cache*.  A window assembled from several chunks is a
transient copy of at most the same budget (the planner caps window rows
at ``budget // row_nbytes``), so the instantaneous working set is at
most twice the budget; the steady-state residency the gauge tracks is
the cache alone.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.nexus.events import N_EVENT_COLUMNS, EventTable
from repro.nexus.h5lite import Dataset, File, H5LiteError
from repro.util import trace as _trace
from repro.util.validation import ReproError, require

#: dataset path where v2 SaveMD files store the row-major event table
EVENT_TABLE_PATH = "MDEventWorkspace/event_table"


class TileError(ReproError):
    """Tile-manager misuse (bad budget, non-chunked dataset, ...)."""


@dataclass
class TileStats:
    """Observability counters of one :class:`TileManager`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: decoded bytes currently held by the cache
    resident_bytes: int = 0
    #: high-water mark of ``resident_bytes`` — the number the
    #: out-of-core acceptance bound is asserted against
    peak_resident_bytes: int = 0
    #: total decoded bytes produced (cold decodes only)
    decoded_bytes: int = 0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "resident_bytes": self.resident_bytes,
            "peak_resident_bytes": self.peak_resident_bytes,
            "decoded_bytes": self.decoded_bytes,
        }


class TileManager:
    """LRU decoded-chunk cache under a byte budget.

    ``budget_bytes=None`` means unbounded (useful for tests that want
    the lazy read path without eviction).  A single chunk larger than
    the budget is still admitted — one decoded chunk is the irreducible
    working set of any chunk-aligned reader — after evicting everything
    else; ``peak_resident_bytes`` then records the overshoot honestly.
    """

    def __init__(self, dataset: Dataset, budget_bytes: Optional[int] = None) -> None:
        if not dataset.is_chunked:
            raise TileError(
                f"dataset {dataset.name!r} is not chunked; the tile manager "
                "requires a format-v2 chunked dataset"
            )
        if budget_bytes is not None and int(budget_bytes) < 1:
            raise TileError(f"budget_bytes must be >= 1, got {budget_bytes}")
        self._ds = dataset
        self.budget_bytes = None if budget_bytes is None else int(budget_bytes)
        self._cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self.stats = TileStats()

    @property
    def dataset(self) -> Dataset:
        return self._ds

    def chunk(self, ci: int) -> np.ndarray:
        """The decoded chunk ``ci`` (cached; LRU-evicts to the budget)."""
        cached = self._cache.get(ci)
        if cached is not None:
            self._cache.move_to_end(ci)
            self.stats.hits += 1
            return cached
        self.stats.misses += 1
        arr = self._ds.read_chunk(ci)
        arr.setflags(write=False)
        self.stats.decoded_bytes += arr.nbytes
        if self.budget_bytes is not None:
            while self._cache and (
                self.stats.resident_bytes + arr.nbytes > self.budget_bytes
            ):
                _, evicted = self._cache.popitem(last=False)
                self.stats.resident_bytes -= evicted.nbytes
                self.stats.evictions += 1
        self._cache[ci] = arr
        self.stats.resident_bytes += arr.nbytes
        if self.stats.resident_bytes > self.stats.peak_resident_bytes:
            self.stats.peak_resident_bytes = self.stats.resident_bytes
            _trace.active_tracer().gauge(
                "tiles.peak_resident_bytes", float(self.stats.peak_resident_bytes)
            )
        return arr

    def window(self, start: int, stop: int) -> np.ndarray:
        """Rows ``[start, stop)`` assembled from the overlapping chunks.

        Single-chunk windows come back as zero-copy views of the cached
        chunk; multi-chunk windows are a transient concatenated copy.
        """
        n = self._ds.shape[0]
        start = max(0, min(int(start), n))
        stop = max(start, min(int(stop), n))
        bounds = self._ds.chunk_bounds()
        parts: List[np.ndarray] = []
        for ci, (c0, c1) in enumerate(zip(bounds[:-1], bounds[1:])):
            if c1 <= start or c0 >= stop:
                continue
            arr = self.chunk(ci)
            parts.append(arr[max(start - c0, 0): min(stop, c1) - c0])
        if not parts:
            return np.empty((0,) + self._ds.shape[1:], dtype=self._ds.dtype)
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts, axis=0)

    def clear(self) -> None:
        self._cache.clear()
        self.stats.resident_bytes = 0


def read_window(
    path: str, dataset: str, start: int, stop: int
) -> np.ndarray:
    """One-shot window read: open, decode overlapping chunks, close.

    Nothing in the reduction calls this (shard ranges read through the
    run's :class:`TileManager`); it stays importable from
    :mod:`repro.core.sharding` for the benchmark's ``nexus.read_window``
    layer.
    """
    with File(path, "r") as f:
        return np.array(f.require_dataset(dataset).read_rows(start, stop))


class LazyEventTable:
    """An out-of-core stand-in for :class:`~repro.nexus.events.EventTable`.

    Backed by a chunked ``(n, 8)`` float64 dataset in an h5lite v2
    file.  Never holds the full table: consumers ask for bounded
    windows (served through the tile manager) or chunk metadata (fed to
    the shard planner so shard boundaries land on chunk boundaries).

    Picklable: only ``(path, dataset, memory_budget)`` travel; the file
    handle and cache reopen lazily in the receiving process.
    """

    def __init__(
        self,
        path: "str | os.PathLike",
        dataset: str = EVENT_TABLE_PATH,
        *,
        memory_budget: Optional[int] = None,
    ) -> None:
        self.path = os.fspath(path)
        self.dataset_path = dataset
        self.memory_budget = None if memory_budget is None else int(memory_budget)
        self._file: Optional[File] = None
        self._tiles: Optional[TileManager] = None
        self._shape: Optional[Tuple[int, ...]] = None
        self._lock = threading.Lock()
        self._validate()

    # -- lazy plumbing -------------------------------------------------
    def _validate(self) -> None:
        ds = self._dataset()
        if ds.ndim != 2 or ds.shape[1] != N_EVENT_COLUMNS:
            raise TileError(
                f"{self.path!r}:{self.dataset_path} must be "
                f"(n, {N_EVENT_COLUMNS}), got {ds.shape}"
            )

    def _dataset(self) -> Dataset:
        if self._file is None:
            try:
                self._file = File(self.path, "r")
            except FileNotFoundError:
                raise
            ds = self._file.require_dataset(self.dataset_path)
            if not ds.is_chunked:
                self._file.close()
                self._file = None
                raise TileError(
                    f"{self.path!r}:{self.dataset_path} is not chunked; "
                    "out-of-core reads need a v2 chunked event table"
                )
            self._shape = ds.shape
        return self._file.require_dataset(self.dataset_path)

    @property
    def tiles(self) -> TileManager:
        if self._tiles is None:
            self._tiles = TileManager(self._dataset(), self.memory_budget)
        return self._tiles

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        self._tiles = None

    def __getstate__(self) -> dict:
        return {
            "path": self.path,
            "dataset_path": self.dataset_path,
            "memory_budget": self.memory_budget,
        }

    def __setstate__(self, state: dict) -> None:
        self.path = state["path"]
        self.dataset_path = state["dataset_path"]
        self.memory_budget = state["memory_budget"]
        self._file = None
        self._tiles = None
        self._shape = None
        self._lock = threading.Lock()

    # -- EventTable-compatible surface ---------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        if self._shape is None:
            self._dataset()
        assert self._shape is not None
        return self._shape

    @property
    def n_events(self) -> int:
        return int(self.shape[0])

    @property
    def row_nbytes(self) -> int:
        return self._dataset().row_nbytes

    def __len__(self) -> int:
        return self.n_events

    # -- chunk metadata for the planner --------------------------------
    def chunk_bounds(self) -> List[int]:
        """Row boundaries ``[0, r1, ..., n]`` of the stored chunks."""
        return self._dataset().chunk_bounds()

    def chunk_ranges(self) -> List[Tuple[int, int]]:
        return self._dataset().chunk_ranges()

    def chunk_stored_nbytes(self) -> List[int]:
        """On-disk bytes per chunk — the planner's I/O balance weights."""
        return self._dataset().chunk_stored_nbytes()

    # -- data access ---------------------------------------------------
    def window(self, start: int, stop: int) -> np.ndarray:
        """Rows ``[start, stop)`` through the budgeted tile cache (one
        reader at a time: rank threads of the stealing executor share a
        run's table)."""
        with self._lock:
            return self.tiles.window(start, stop)

    def materialize(self) -> EventTable:
        """The full in-memory table (defeats the point; for small runs
        and differential tests only)."""
        return EventTable(np.array(self._dataset().read()))

    def __array__(self, dtype=None) -> np.ndarray:
        data = self._dataset().read()
        return data if dtype is None else data.astype(dtype)

    @property
    def tile_stats(self) -> TileStats:
        return self.tiles.stats

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        budget = (
            f", budget={self.memory_budget}" if self.memory_budget else ""
        )
        return f"LazyEventTable({self.path!r}, n_events={self.n_events}{budget})"


def open_event_table(
    path: "str | os.PathLike",
    *,
    memory_budget: Optional[int] = None,
    dataset: str = EVENT_TABLE_PATH,
) -> LazyEventTable:
    """Open a v2 SaveMD file's event table out-of-core."""
    require(memory_budget is None or memory_budget >= 1,
            "memory_budget must be >= 1 byte")
    try:
        return LazyEventTable(path, dataset, memory_budget=memory_budget)
    except H5LiteError:
        raise
