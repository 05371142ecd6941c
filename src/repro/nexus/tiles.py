"""Bounded event windows straight from chunked h5lite datasets.

The paper's flagship workload (Bixbyite: 280M events, 206 GB on disk)
cannot be reduced by a loop that materializes each run's full 8-column
event table.  This module is the out-of-core layer that removes that
ceiling:

* :class:`TileManager` — the window reader over the streams of one
  chunked table.  A stream is one independently encoded, CRC-checked
  chunk of one dataset; a window decodes exactly the streams it
  overlaps (:meth:`~repro.nexus.h5lite.Dataset.read_rows`) and keeps
  none of them.  Decode counters and a peak-window gauge make the
  memory bound *measurable*, which is what the out-of-core conformance
  suite and the CI smoke assert.
* :class:`LazyEventTable` — the facade the reduction loop sees instead
  of an in-memory :class:`~repro.nexus.events.EventTable`.  It exposes
  the same ``n_events`` surface, chunk metadata for the shard planner
  (shard boundaries snap to chunk boundaries, so each chunk is decoded
  by exactly one shard), and ``binmd_window(a, b)`` — BinMD's five
  columns of a bounded event window.

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

Budget semantics: ``memory_budget`` bounds the decoded bytes of one
window.  The planner caps a window at ``budget // row_nbytes`` rows,
where :attr:`LazyEventTable.row_nbytes` counts the decoded bytes one
row of a BinMD window holds (five float64 columns, 40 B, in the column
layout; the whole 64 B row in a row-major file).  Windows are cut on
chunk boundaries, so the floor is one chunk: a budget below one
chunk's streams still reads one chunk per window.
"""

from __future__ import annotations

import dataclasses
import os
import threading
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
    """Tile-manager misuse (non-chunked dataset, mismatched chunks, ...)."""


@dataclasses.dataclass
class TileStats:
    """Observability counters of one :class:`TileManager`."""

    #: always 0: no decoded stream is kept, so none is ever served twice
    hits: int = 0
    #: chunk streams decoded
    misses: int = 0
    #: the most decoded bytes one window held — the number the
    #: out-of-core acceptance bound is asserted against
    peak_resident_bytes: int = 0
    #: total decoded bytes of the streams read
    decoded_bytes: int = 0

    def snapshot(self) -> dict:
        return dataclasses.asdict(self)


class TileManager:
    """Window reader over chunked datasets cut at the same rows (the
    columns of one table, or a row-major table's one dataset).  It
    keeps no decoded chunks: every window decodes the streams it
    overlaps."""

    def __init__(self, streams: Sequence[Dataset]) -> None:
        datasets = list(streams)
        require(len(datasets) > 0, "a tile manager needs at least one dataset")
        for ds in datasets:
            if not ds.is_chunked:
                raise TileError(
                    f"dataset {ds.name!r} is not chunked; out-of-core reads "
                    "need a format-v2 chunked dataset"
                )
        bounds = datasets[0].chunk_bounds()
        for ds in datasets[1:]:
            if ds.chunk_bounds() != bounds:
                raise TileError(
                    f"dataset {ds.name!r} is not cut at the same rows as "
                    f"{datasets[0].name!r}"
                )
        self._streams = datasets
        self._bounds = bounds
        self.stats = TileStats()

    def window(
        self, start: int, stop: int, streams: Optional[Sequence[int]] = None
    ) -> List[np.ndarray]:
        """Rows ``[start, stop)`` of each dataset in ``streams`` (by
        index; default all), decoded from exactly the overlapping
        chunks.  A window inside one chunk is a read-only view of the
        decoded chunk; one spanning chunks is a concatenated copy."""
        picked = (self._streams if streams is None
                  else [self._streams[s] for s in streams])
        out = [ds.read_rows(start, stop) for ds in picked]
        bounds = self._bounds
        lo, hi = max(int(start), 0), min(int(stop), bounds[-1])
        spans = [c1 - c0 for c0, c1 in zip(bounds[:-1], bounds[1:])
                 if lo < hi and c1 > lo and c0 < hi]
        nbytes = sum(spans) * sum(ds.row_nbytes for ds in picked)
        self.stats.misses += len(spans) * len(picked)
        self.stats.decoded_bytes += nbytes
        if nbytes > self.stats.peak_resident_bytes:
            self.stats.peak_resident_bytes = nbytes
            _trace.active_tracer().gauge("tiles.peak_resident_bytes", float(nbytes))
        return out


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
    picks whichever the file has).  ``source`` is the file's path, or
    an open :class:`~repro.nexus.h5lite.File` the table then owns.
    Never holds the full table: consumers ask for bounded windows or
    chunk metadata (fed to the shard planner so shard boundaries land
    on chunk boundaries).
    """

    def __init__(
        self,
        source: "str | os.PathLike | File",
        dataset: Optional[str] = None,
        *,
        memory_budget: Optional[int] = None,
    ) -> None:
        require(memory_budget is None or memory_budget >= 1,
                "memory_budget must be >= 1 byte")
        f = source if isinstance(source, File) else File(source, "r")
        self.path = f.path
        self.memory_budget = None if memory_budget is None else int(memory_budget)
        try:
            self._streams = self._table_streams(f, dataset)
            self.tiles = TileManager(self._streams)
        except BaseException:
            f.close()
            raise
        self._file = f
        self._lock = threading.Lock()

    def _table_streams(self, f: File, dataset: Optional[str]) -> List[Dataset]:
        """The table's datasets: eight columns, or one row-major block."""
        where = dataset or (
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
        return streams

    @property
    def columnar(self) -> bool:
        """One dataset per column (else one row-major block)."""
        return len(self._streams) == N_EVENT_COLUMNS

    def close(self) -> None:
        self._file.close()

    # -- EventTable-compatible surface ---------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return (int(self._streams[0].shape[0]), N_EVENT_COLUMNS)

    @property
    def n_events(self) -> int:
        return self.shape[0]

    @property
    def row_nbytes(self) -> int:
        """Decoded bytes one row of :meth:`binmd_window` holds — what
        the planner divides the budget by."""
        if self.columnar:
            return len(BINMD_COLUMNS) * self._streams[0].dtype.itemsize
        return self._streams[0].row_nbytes

    def __len__(self) -> int:
        return self.n_events

    # -- chunk metadata for the planner --------------------------------
    def chunk_bounds(self) -> List[int]:
        """Row boundaries ``[0, r1, ..., n]`` of the stored chunks."""
        return self._streams[0].chunk_bounds()

    def chunk_ranges(self) -> List[Tuple[int, int]]:
        return self._streams[0].chunk_ranges()

    def chunk_stored_nbytes(self) -> List[int]:
        """On-disk bytes per chunk that a BinMD window reads — the
        planner's I/O balance weights.  In the column layout only the
        five BinMD streams count; a row-major chunk is read whole."""
        streams = self._streams
        if self.columnar:
            streams = [streams[c] for c in BINMD_COLUMNS]
        per_stream = [ds.chunk_stored_nbytes() for ds in streams]
        return [sum(sizes) for sizes in zip(*per_stream)]

    # -- data access ---------------------------------------------------
    def binmd_window(self, start: int, stop: int) -> Tuple[np.ndarray, ...]:
        """BinMD's columns (:data:`~repro.nexus.events.BINMD_COLUMNS`)
        of rows ``[start, stop)``, unit-stride.  In the column layout
        only those five columns are decoded; a row-major file decodes
        whole rows and the five are copied out.  One reader at a time:
        rank threads of the stealing executor share a run's table (and
        its file handle)."""
        with self._lock:
            if self.columnar:
                return tuple(self.tiles.window(start, stop, BINMD_COLUMNS))
            (rows,) = self.tiles.window(start, stop)
        return tuple(np.ascontiguousarray(rows[:, c]) for c in BINMD_COLUMNS)

    def materialize(self) -> EventTable:
        """The full in-memory table (defeats the point; for small runs
        and differential tests only)."""
        if self.columnar:
            return EventTable.from_cols(np.stack([ds.read() for ds in self._streams]))
        return EventTable(self._streams[0].read())

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
