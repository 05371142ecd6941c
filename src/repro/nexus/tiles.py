"""Bounded-memory tile manager over chunked h5lite datasets.

The paper's flagship workload (Bixbyite: 280M events, 206 GB on disk)
cannot be reduced by a loop that materializes each run's full 8-column
event table — ROADMAP item 1 calls this the "whole event table in RAM"
ceiling.  This module is the out-of-core layer that removes it:

* :class:`TileManager` — an LRU cache of *decoded chunk streams* of one
  chunked table, bounded by a configurable **byte budget**.  A stream
  is one independently encoded, CRC-checked chunk of one dataset.  The
  budget bounds decoded-stream residency (the cache never holds more
  than ``budget_bytes`` of decoded data, except when a single stream is
  itself larger — the irreducible floor); hit/miss/eviction counters
  and a peak-residency gauge make the bound *measurable*, which is what
  the out-of-core conformance suite and the CI smoke assert.
* :class:`LazyEventTable` — the facade the reduction loop sees instead
  of an in-memory :class:`~repro.nexus.events.EventTable`.  It exposes
  the same ``n_events`` surface, chunk metadata for the shard planner
  (shard boundaries snap to chunk boundaries, so each chunk is decoded
  by exactly one shard), and ``binmd_window(a, b)`` — BinMD's five
  columns of a bounded event window, served through the tile manager.
  It is picklable (it carries only the file path, the table's path and
  the budget; handles reopen lazily).

Chunked SaveMD files store the table by column (DESIGN.md section 6g)::

    MDEventWorkspace/event_columns/signal    [chunk 0][chunk 1] ... [chunk k]
    MDEventWorkspace/event_columns/error_sq  [chunk 0][chunk 1] ... [chunk k]
    ...                                       (run_index, detector_id,
    MDEventWorkspace/event_columns/qz        [chunk 0][chunk 1] ... goniometer_index, qx, qy)

one 1-D chunked dataset per column, all cut at the same rows, so one
chunk of the table is eight streams and a window decodes only the
columns it is asked for.  Row-major v2 files (``event_table``, one
``(rows, 8)`` stream per chunk) still load, eagerly and lazily; their
one stream per chunk holds every column.

Budget semantics: ``memory_budget`` bounds the *decoded-stream cache*.
The planner caps a window at ``budget // row_nbytes`` rows, where
:attr:`LazyEventTable.row_nbytes` counts the decoded bytes one row of
a BinMD window puts in the cache (five float64 columns, 40 B, in the
column layout; the whole 64 B row in a row-major file).  A window
assembled from several chunks is a transient copy of at most the same
budget, so the instantaneous working set is at most twice the budget;
the steady-state residency the gauge tracks is the cache alone.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nexus.events import (
    BINMD_COLUMNS,
    COLUMN_NAMES,
    N_EVENT_COLUMNS,
    EventTable,
)
from repro.nexus.h5lite import Dataset, File, Group
from repro.util import trace as _trace
from repro.util.validation import ReproError, require

#: group where chunked SaveMD files store one dataset per column
EVENT_COLUMNS_PATH = "MDEventWorkspace/event_columns"
#: dataset where row-major v2 SaveMD files store the event table
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
    """LRU decoded-stream cache under a byte budget.

    ``streams`` are chunked datasets cut at the same rows (the columns
    of one table, or a row-major table's one dataset); a cache entry is
    one decoded chunk of one of them.  ``budget_bytes=None`` means
    unbounded (useful for tests that want the lazy read path without
    eviction).  A single stream larger than the budget is still
    admitted — one decoded stream is the irreducible working set of any
    chunk-aligned reader — after evicting everything else;
    ``peak_resident_bytes`` then records the overshoot honestly.
    """

    def __init__(
        self,
        streams: Sequence[Dataset],
        budget_bytes: Optional[int] = None,
    ) -> None:
        datasets = list(streams)
        require(len(datasets) > 0, "a tile manager needs at least one dataset")
        for ds in datasets:
            if not ds.is_chunked:
                raise TileError(
                    f"dataset {ds.name!r} is not chunked; the tile manager "
                    "requires a format-v2 chunked dataset"
                )
        bounds = datasets[0].chunk_bounds()
        for ds in datasets[1:]:
            if ds.chunk_bounds() != bounds:
                raise TileError(
                    f"dataset {ds.name!r} is not cut at the same rows as "
                    f"{datasets[0].name!r}"
                )
        if budget_bytes is not None and int(budget_bytes) < 1:
            raise TileError(f"budget_bytes must be >= 1, got {budget_bytes}")
        self._streams = datasets
        self._bounds = bounds
        self.budget_bytes = None if budget_bytes is None else int(budget_bytes)
        self._cache: "OrderedDict[Tuple[int, int], np.ndarray]" = OrderedDict()
        self.stats = TileStats()

    def chunk(self, ci: int, stream: int = 0) -> np.ndarray:
        """Chunk ``ci`` of dataset ``stream``, decoded (cached;
        LRU-evicts to the budget)."""
        key = (stream, ci)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.stats.hits += 1
            return cached
        self.stats.misses += 1
        arr = self._streams[stream].read_chunk(ci)
        arr.setflags(write=False)
        self.stats.decoded_bytes += arr.nbytes
        if self.budget_bytes is not None:
            while self._cache and (
                self.stats.resident_bytes + arr.nbytes > self.budget_bytes
            ):
                _, evicted = self._cache.popitem(last=False)
                self.stats.resident_bytes -= evicted.nbytes
                self.stats.evictions += 1
        self._cache[key] = arr
        self.stats.resident_bytes += arr.nbytes
        if self.stats.resident_bytes > self.stats.peak_resident_bytes:
            self.stats.peak_resident_bytes = self.stats.resident_bytes
            _trace.active_tracer().gauge(
                "tiles.peak_resident_bytes", float(self.stats.peak_resident_bytes)
            )
        return arr

    def window(
        self, start: int, stop: int, streams: Optional[Sequence[int]] = None
    ) -> List[np.ndarray]:
        """Rows ``[start, stop)`` of each dataset in ``streams`` (by
        index; default all), assembled from the overlapping chunks.

        Single-chunk windows come back as zero-copy views of the cached
        chunks; multi-chunk windows are transient concatenated copies.
        """
        first = self._streams[0]
        n = first.shape[0]
        start = max(0, min(int(start), n))
        stop = max(start, min(int(stop), n))
        bounds = self._bounds
        chunks = [
            (ci, c0, c1)
            for ci, (c0, c1) in enumerate(zip(bounds[:-1], bounds[1:]))
            if c1 > start and c0 < stop
        ]
        out: List[np.ndarray] = []
        for s in range(len(self._streams)) if streams is None else streams:
            parts = [self.chunk(ci, s)[max(start - c0, 0): min(stop, c1) - c0]
                     for ci, c0, c1 in chunks]
            if not parts:
                ds = self._streams[s]
                out.append(np.empty((0,) + ds.shape[1:], dtype=ds.dtype))
            else:
                out.append(parts[0] if len(parts) == 1
                           else np.concatenate(parts, axis=0))
        return out

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

    Backed by a chunked table in an h5lite v2 file: the per-column
    datasets under ``event_columns`` or, in older files, a row-major
    ``(n, 8)`` ``event_table`` dataset (``dataset`` names either; None
    picks whichever the file has).  Never holds the full table:
    consumers ask for bounded windows (served through the tile manager)
    or chunk metadata (fed to the shard planner so shard boundaries
    land on chunk boundaries).

    Picklable: only ``(path, dataset, memory_budget)`` travel; the file
    handle and cache reopen lazily in the receiving process.
    """

    def __init__(
        self,
        path: "str | os.PathLike",
        dataset: Optional[str] = None,
        *,
        memory_budget: Optional[int] = None,
    ) -> None:
        self.__setstate__({"path": os.fspath(path), "dataset_path": dataset,
                           "memory_budget": memory_budget})
        self._open()

    @classmethod
    def adopt(
        cls, f: File, *, memory_budget: Optional[int] = None
    ) -> "LazyEventTable":
        """The table of the open file ``f``, read through ``f`` (which
        the table now owns) instead of opening the file again."""
        table = cls.__new__(cls)
        table.__setstate__({"path": f.path, "dataset_path": None,
                            "memory_budget": memory_budget})
        table._open(f)
        return table

    # -- lazy plumbing -------------------------------------------------
    def _open(self, f: Optional[File] = None) -> List[Dataset]:
        """The table's datasets: eight columns, or one row-major block."""
        if self._streams is None:
            f = File(self.path, "r") if f is None else f
            try:
                self._streams = self._table_streams(f)
            except BaseException:
                f.close()
                raise
            self._file = f
        return self._streams

    def _table_streams(self, f: File) -> List[Dataset]:
        where = self.dataset_path or (
            EVENT_COLUMNS_PATH if EVENT_COLUMNS_PATH in f else EVENT_TABLE_PATH)
        node = f[where]
        if isinstance(node, Group):
            streams = [node.require_dataset(name) for name in COLUMN_NAMES]
            want = streams[0].shape[:1]
        else:
            streams = [node]
            want = node.shape[:1] + (N_EVENT_COLUMNS,)
        for ds in streams:
            if ds.shape != want:
                raise TileError(
                    f"{self.path!r}:{ds.name} must be {want}, got {ds.shape}")
            if not ds.is_chunked:
                raise TileError(
                    f"{self.path!r}:{ds.name} is not chunked; out-of-core "
                    "reads need a v2 chunked event table"
                )
        return streams

    @property
    def columnar(self) -> bool:
        """One dataset per column (else one row-major block)."""
        return len(self._open()) == N_EVENT_COLUMNS

    @property
    def tiles(self) -> TileManager:
        if self._tiles is None:
            self._tiles = TileManager(self._open(), self.memory_budget)
        return self._tiles

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        self._streams = None
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
        self.memory_budget = (None if state["memory_budget"] is None
                              else int(state["memory_budget"]))
        self._file: Optional[File] = None
        self._streams: Optional[List[Dataset]] = None
        self._tiles: Optional[TileManager] = None
        self._lock = threading.Lock()

    # -- EventTable-compatible surface ---------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return (int(self._open()[0].shape[0]), N_EVENT_COLUMNS)

    @property
    def n_events(self) -> int:
        return self.shape[0]

    @property
    def row_nbytes(self) -> int:
        """Decoded bytes one row of :meth:`binmd_window` puts in the
        tile cache — what the planner divides the budget by."""
        streams = self._open()
        if self.columnar:
            return len(BINMD_COLUMNS) * streams[0].dtype.itemsize
        return streams[0].row_nbytes

    def __len__(self) -> int:
        return self.n_events

    # -- chunk metadata for the planner --------------------------------
    def chunk_bounds(self) -> List[int]:
        """Row boundaries ``[0, r1, ..., n]`` of the stored chunks."""
        return self._open()[0].chunk_bounds()

    def chunk_ranges(self) -> List[Tuple[int, int]]:
        return self._open()[0].chunk_ranges()

    def chunk_stored_nbytes(self) -> List[int]:
        """On-disk bytes per chunk that a BinMD window reads — the
        planner's I/O balance weights.  In the column layout only the
        five BinMD streams count; a row-major chunk is read whole."""
        streams = self._open()
        if self.columnar:
            streams = [streams[c] for c in BINMD_COLUMNS]
        per_stream = [ds.chunk_stored_nbytes() for ds in streams]
        return [sum(sizes) for sizes in zip(*per_stream)]

    # -- data access ---------------------------------------------------
    def binmd_window(self, start: int, stop: int) -> Tuple[np.ndarray, ...]:
        """BinMD's columns (:data:`~repro.nexus.events.BINMD_COLUMNS`)
        of rows ``[start, stop)``, unit-stride, through the budgeted
        tile cache.  In the column layout only those five columns are
        decoded; a row-major file decodes whole rows and the five are
        copied out.  One reader at a time: rank threads of the stealing
        executor share a run's table."""
        with self._lock:
            if self.columnar:
                return tuple(self.tiles.window(start, stop, BINMD_COLUMNS))
            (rows,) = self.tiles.window(start, stop)
        return tuple(np.ascontiguousarray(rows[:, c]) for c in BINMD_COLUMNS)

    def materialize(self) -> EventTable:
        """The full in-memory table (defeats the point; for small runs
        and differential tests only)."""
        streams = self._open()
        if self.columnar:
            return EventTable.from_cols(np.stack([ds.read() for ds in streams]))
        return EventTable(streams[0].read())

    def __array__(self, dtype=None) -> np.ndarray:
        data = self.materialize().data
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
    dataset: Optional[str] = None,
) -> LazyEventTable:
    """Open a v2 SaveMD file's event table out-of-core."""
    require(memory_budget is None or memory_budget >= 1,
            "memory_budget must be >= 1 byte")
    return LazyEventTable(path, dataset, memory_budget=memory_budget)
