"""MDEvent storage and the ``UpdateEvents`` stage.

Mirrors the paper's data flow: the production workflow saves each run's
``MDEventWorkspace`` (the 8-column event table) plus auxiliary metadata
into HDF5 files that the proxies then load.  ``UpdateEvents`` — the
stage timed in Tables III-VI — is that load: reading "an HDF5 array
with 8 columns and a row for each neutron event" and transposing it
"from row-major to column-major".  SaveMD stores the table one stream
per column, the kernel layout of :class:`~repro.nexus.events.EventTable`,
so a load reads the columns as stored, and a reduction reads only the
columns it consumes.  The proxies that reproduce Tables III-VI pay the
paper's transpose explicitly with :func:`transpose_events`.

:func:`convert_to_md` is the upstream conversion (Mantid's
ConvertToMD): raw (pixel, TOF) events -> Q_sample through the
instrument geometry and the run's goniometer.
"""

from __future__ import annotations

import functools
import os
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.geom_cache import digest_array, digest_leaves
from repro.instruments.conversion import q_lab_from_events
from repro.instruments.detector import DetectorArray
from repro.nexus.events import (
    BINMD_COLUMNS,
    COL_DETECTOR_ID,
    COL_ERROR_SQ,
    COL_GONIOMETER_INDEX,
    COL_Q,
    COL_RUN_INDEX,
    COL_SIGNAL,
    COLUMN_NAMES,
    EventTable,
    N_EVENT_COLUMNS,
    Q_COLUMNS,
    RunData,
)
from repro.nexus.h5lite import CorruptFileError, File, Group, PayloadRead
from repro.nexus.tiles import LazyEventTable
from repro.util import faults as _faults
from repro.util import trace as _trace
from repro.util.validation import ValidationError, as_matrix3, require


@dataclass
class MDEventWorkspace:
    """One run's MDEvents plus the metadata the reduction needs.

    ``events`` is either an in-memory :class:`EventTable` or — for
    out-of-core runs loaded with ``load_md(memory_budget=...)`` — a
    :class:`repro.nexus.tiles.LazyEventTable` exposing the same
    ``n_events`` surface plus bounded ``binmd_window(a, b)`` reads.  The
    proxies replace it with the row-major ``(n, 8)`` array of
    :func:`transpose_events`.  It is None in a :class:`PendingMD`'s
    workspace until the load is joined.
    """

    events: "EventTable"
    run_number: int
    goniometer: np.ndarray
    proton_charge: float
    #: accepted momentum range (k_min, k_max) in 1/Angstrom
    momentum_band: tuple[float, float]
    ub_matrix: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.goniometer = as_matrix3(self.goniometer, "goniometer")
        lo, hi = self.momentum_band
        require(0 < lo < hi, "momentum_band must satisfy 0 < min < max")
        require(self.proton_charge > 0, "proton_charge must be positive")
        if self.ub_matrix is not None:
            self.ub_matrix = as_matrix3(self.ub_matrix, "ub_matrix")

    @property
    def n_events(self) -> int:
        return self.events.n_events

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MDEventWorkspace(run={self.run_number}, events={self.n_events})"


def convert_to_md(
    run: RunData,
    instrument: DetectorArray,
    *,
    run_index: int = 0,
) -> MDEventWorkspace:
    """Raw run -> MDEventWorkspace (Mantid's ConvertToMD).

    Computes each event's ``Q_lab`` from its pixel direction and time of
    flight, rotates into the sample frame with the run's goniometer
    (``Q_sample = R^T Q_lab``), and packs the 8-column table.
    """
    ids = run.detector_ids.astype(np.int64)
    if ids.size and (ids.max() >= instrument.n_pixels):
        raise ValidationError(
            f"run {run.run_number} references pixel {ids.max()} but "
            f"{instrument.name} has only {instrument.n_pixels}"
        )
    directions = instrument.directions[ids]
    flight = instrument.flight_paths[ids]
    q_lab = q_lab_from_events(run.tof, directions, flight)
    q_sample = q_lab @ run.goniometer  # == (R^T q_lab^T)^T

    cols = np.empty((N_EVENT_COLUMNS, ids.shape[0]), dtype=np.float64)
    cols[COL_SIGNAL] = run.weights
    cols[COL_ERROR_SQ] = run.weights  # Poisson: var == counts
    cols[COL_RUN_INDEX] = run_index
    cols[COL_DETECTOR_ID] = ids
    cols[COL_GONIOMETER_INDEX] = run_index
    cols[COL_Q] = q_sample.T

    lam_lo, lam_hi = run.wavelength_band
    band = (2.0 * np.pi / lam_hi, 2.0 * np.pi / lam_lo)
    return MDEventWorkspace(
        events=EventTable.from_cols(cols),
        run_number=run.run_number,
        goniometer=run.goniometer,
        proton_charge=run.proton_charge,
        momentum_band=band,
        ub_matrix=run.ub_matrix,
    )


#: the order SaveMD writes the columns in: BinMD's five first, signal
#: and error_sq leading, so the streams a load reads together are one
#: byte range of the file
WRITE_ORDER = BINMD_COLUMNS + (COL_RUN_INDEX, COL_DETECTOR_ID,
                               COL_GONIOMETER_INDEX)
#: the attribute of the ``event_columns`` group holding the Q digest
Q_DIGEST_ATTR = "q_digest"
ALL_COLUMNS = tuple(range(N_EVENT_COLUMNS))
_FLOAT64 = np.dtype(np.float64)


#: the dataset holding a run's metadata: one float64 record of the run
#: number, the proton charge, the momentum band's two ends, the
#: goniometer's nine entries and, when the run has one, the UB
#: matrix's nine (row-major)
RUN_INFO = "run_info"


def _run_info(ws: MDEventWorkspace) -> np.ndarray:
    run_number = float(ws.run_number)
    require(int(run_number) == ws.run_number,
            f"run number {ws.run_number} is not exact in float64")
    parts = [[run_number, ws.proton_charge, *ws.momentum_band],
             np.ravel(ws.goniometer)]
    if ws.ub_matrix is not None:
        parts.append(np.ravel(ws.ub_matrix))
    return np.concatenate(parts).astype(np.float64)


def _read_run_info(grp: Group) -> dict:
    """The run's metadata as :class:`MDEventWorkspace` fields: one read
    of the record, or of the five datasets files written before it
    held."""
    if RUN_INFO in grp:
        info = grp.read(RUN_INFO)
        return dict(run_number=int(info[0]), proton_charge=float(info[1]),
                    momentum_band=(float(info[2]), float(info[3])),
                    goniometer=info[4:13].reshape(3, 3),
                    ub_matrix=info[13:22].reshape(3, 3) if len(info) > 13 else None)
    band = grp.read("momentum_band")
    return dict(run_number=int(grp.read("run_number")[()]),
                proton_charge=float(grp.read("proton_charge")[()]),
                momentum_band=(float(band[0]), float(band[1])),
                goniometer=grp.read("goniometer"),
                ub_matrix=grp.read("ub_matrix") if "ub_matrix" in grp else None)


def save_md(
    path: Union[str, os.PathLike],
    ws: MDEventWorkspace,
    *,
    chunk_events: Optional[int] = None,
    codec: Optional[str] = None,
) -> None:
    """SaveMD: persist the workspace for the proxies to load.

    One layout: every column is its own 1-D chunked dataset under
    ``event_columns`` (named by
    :data:`~repro.nexus.events.COLUMN_NAMES`), cut into chunks of
    ``chunk_events`` events (one chunk per column without it) that are
    encoded and CRC-checked one stream per column per chunk.  The
    columns are written in :data:`WRITE_ORDER`, so the streams BinMD
    reads (and, first of all, signal and error_sq) are one byte range.
    The group's ``q_digest`` attribute holds
    :func:`~repro.core.geom_cache.digest_array` of the table's ``(3,
    n)`` Q rows, hashed here once: a load keys BinMD's cache from it
    without reading Q, so a saved table and the same table in memory
    share one cache key.  ``codec`` (one of
    :data:`repro.nexus.h5lite.CHUNK_CODECS`) is requested per column,
    not guaranteed: a column it cannot halve, such as the Q columns
    under ``zlib``, is stored raw.  None requests ``zlib`` for a
    chunked file and stores a one-chunk file raw.  Chunks are what let
    :func:`load_md` hand the reduction a bounded-memory
    :class:`~repro.nexus.tiles.LazyEventTable` instead of
    materializing the run (the paper's raw datasets are 8.5-206 GB).
    The run's metadata is one small :data:`RUN_INFO` record, so a load
    reads it with one read.
    """
    events = (ws.events if isinstance(ws.events, EventTable)
              else EventTable(np.asarray(ws.events, dtype=np.float64)))
    rows = int(chunk_events) if chunk_events is not None else max(events.n_events, 1)
    if codec is None:
        codec = "none" if chunk_events is None else "zlib"
    with File(path, "w") as f:
        grp = f.create_group("MDEventWorkspace")
        grp.attrs["NX_class"] = "NXentry"
        columns = grp.create_group("event_columns")
        columns.attrs[Q_DIGEST_ATTR] = digest_array(events.q_rows)
        for c in WRITE_ORDER:
            columns.create_dataset(COLUMN_NAMES[c], data=events.column(c),
                                   chunk_rows=rows, codec=codec)
        grp.create_dataset(RUN_INFO, data=_run_info(ws))


def load_md(
    path: Union[str, os.PathLike],
    *,
    memory_budget: Optional[int] = None,
) -> MDEventWorkspace:
    """LoadMD / UpdateEvents: read the 8-column table.

    Reads and checks all eight column streams (every CRC32) and returns
    them as eight read-only columns (views of the checked read buffer
    for a raw one-chunk file; not copied), whose Q rows are hashed if a
    BinMD key is ever built from them; this is :func:`begin_md` joined
    at once.  With
    ``memory_budget`` (bytes) the returned workspace carries a
    :class:`~repro.nexus.tiles.LazyEventTable` instead — metadata is
    read now, each shard window decodes its own chunks straight from
    the file (no more decoded bytes than the budget, one chunk at the
    least), and the table is **never** materialized.  Files written
    before the one layout (see :func:`begin_md`) are read whole.  The
    paper's load-time transpose is not paid here; the proxies pay it
    with :func:`transpose_events`.
    """
    return begin_md(path, memory_budget=memory_budget).join()


def begin_md(
    path: Union[str, os.PathLike],
    *,
    memory_budget: Optional[int] = None,
) -> "PendingMD":
    """The first half of :func:`load_md`, on the caller.

    Fires ``nexus.read_events``, reads the header and the metadata (UB,
    goniometer, band, charge: the one ``run_info`` record) into
    ``pending.ws`` and takes the stored Q digest into
    ``pending.q_digest``; ``ws.events`` is None until
    :meth:`PendingMD.join`, and no column is read yet.  With
    ``memory_budget`` a chunked table is a lazy one, complete already.
    Files without a stored digest fall back to one eager read of the
    whole table, here: v1 ``(8, n)`` ``event_data`` payloads, row-major
    ``event_table`` files and column files written before the digest
    was stored.  Their Q rows are hashed when BinMD builds its key.
    """
    _faults.fault_point("nexus.read_events", path=os.fspath(path))
    f = File(path, "r")
    try:
        grp = f["MDEventWorkspace"]
        columns = grp["event_columns"] if "event_columns" in grp else None
        q_digest = None
        if memory_budget is not None and (columns is not None
                                          or "event_table" in grp):
            events: "EventTable | LazyEventTable | None" = LazyEventTable(
                f, memory_budget=memory_budget)
        elif columns is not None and Q_DIGEST_ATTR in columns.attrs:
            events = None
            q_digest = str(columns.attrs[Q_DIGEST_ATTR])
        else:
            events = _read_whole(f, grp)
        ws = MDEventWorkspace(events=events, **_read_run_info(grp))
    except BaseException:
        f.close()
        raise
    return PendingMD(f, ws, columns if q_digest is not None else None, q_digest)


def _read_whole(f: File, grp: Group) -> EventTable:
    """The fallback for files without a stored Q digest: every column,
    read and checked now."""
    if "event_columns" in grp or "event_table" in grp:
        events = LazyEventTable(f).materialize()
    else:
        ds = grp.require_dataset("event_data")
        if len(ds.shape) != 2 or ds.shape[0] != N_EVENT_COLUMNS:
            raise ValidationError(
                f"{f.path!r}: event_data must be "
                f"({N_EVENT_COLUMNS}, n), got {ds.shape}"
            )
        events = EventTable.from_cols(ds.read())
    _trace.active_tracer().count("nexus.q_bytes_read", events.q_rows.nbytes)
    return events


class PendingMD:
    """A :func:`begin_md` whose event columns are still to be read.

    ``ws`` carries the run's metadata now and ``q_digest`` the stored
    digest of the Q rows, from which BinMD's cache key is built before
    any column is read.  :meth:`start` queues the read of the columns
    asked for (each stream's CRC32 and, when the load is keyed and
    reads Q, the digest of the Q rows) on the ``bytesplit`` helper;
    :meth:`join` takes what the helper has not started, checks every
    stream's CRC32 and a keyed load's Q digest against ``q_digest`` on
    the caller, and returns the workspace, whose table holds exactly
    the columns read (a column not read raises
    :class:`~repro.nexus.events.UnreadColumnError`).  Joining an
    unstarted load reads its ``columns`` on the caller.  A load that
    was complete at :func:`begin_md` (lazy, or an old file read whole)
    has ``q_digest`` None and starts nothing.  Either :meth:`join` or
    :meth:`close` releases the run file; a load dropped without either
    warns (``ResourceWarning``).
    """

    def __init__(self, f: File, ws: MDEventWorkspace,
                 columns: Optional[Group], q_digest: Optional[str]) -> None:
        self.ws = ws
        self.q_digest = q_digest
        self._group = columns
        self._read: Optional[PayloadRead] = None
        self._columns: Tuple[int, ...] = ()
        self._q: List[int] = []  # positions of the Q columns in _columns
        self._file = f if columns is not None else None
        if columns is None and not isinstance(ws.events, LazyEventTable):
            f.close()  # a lazy table owns f

    def _begin(self, columns: Sequence[int], keyed: bool) -> PayloadRead:
        cols = tuple(columns)
        q = [k for k, c in enumerate(cols) if c in Q_COLUMNS]
        require(len(q) in (0, len(Q_COLUMNS)),
                "a load reads all three Q columns or none")
        assert self._group is not None
        datasets = [self._group.require_dataset(COLUMN_NAMES[c]) for c in cols]
        if keyed and q:
            shape = (len(Q_COLUMNS), len(datasets[0]))
            read = PayloadRead(datasets, hashed=q, digest=functools.partial(
                digest_leaves, _FLOAT64, shape))
        else:
            read = PayloadRead(datasets)
        self._read, self._columns, self._q = read, cols, q
        return read

    def start(self, columns: Sequence[int], *, keyed: bool = False) -> None:
        """Queue reading ``columns`` (``COL_*`` indices) on the helper;
        a no-op for a complete load or without a helper.  ``keyed``:
        BinMD's cache key is built from ``q_digest``, so Q rows read
        are hashed and checked against it."""
        if self._group is None or self._read is not None:
            return
        if self._begin(columns, keyed).start():
            _trace.active_tracer().count("nexus.payload_deferred")

    def join(self, columns: Sequence[int] = ALL_COLUMNS) -> MDEventWorkspace:
        """The workspace with its table; ``columns`` is what an
        unstarted (never keyed) load reads.  Raises the read's
        :class:`~repro.nexus.h5lite.CorruptFileError` here, on the
        caller, and one when keyed Q rows do not match ``q_digest``.
        The table carries ``q_digest`` unless it holds Q rows that were
        not checked against it."""
        if self._group is None:
            return self.ws
        path = self._file.path
        try:
            read = self._read or self._begin(columns, False)
            arrays = read.join()
        finally:
            self.close()
        if self._q:
            _trace.active_tracer().count(
                "nexus.q_bytes_read", sum(arrays[k].nbytes for k in self._q))
        if read.digest is not None and read.digest != self.q_digest:
            raise CorruptFileError(
                f"{path!r}: the Q rows do not match their stored digest")
        table = EventTable.from_read_columns(dict(zip(self._columns, arrays)))
        # Q read unhashed: a key built later hashes the rows themselves
        table.q_digest = None if self._q and read.digest is None else self.q_digest
        self.ws.events = table
        return self.ws

    def close(self) -> None:
        """Abandon the read and close the run file.  Idempotent."""
        if self._read is not None:
            self._read.close()
        self._group = None
        if self._file is not None:
            self._file.close()
            self._file = None

    def __del__(self) -> None:
        if getattr(self, "_file", None) is not None:
            warnings.warn(f"run file {self._file.path!r} was begun but "
                          "never joined or closed", ResourceWarning,
                          source=self)
            self.close()


#: events per block :func:`transpose_events` gathers the columns into
_TRANSPOSE_ROWS = 8192


def transpose_events(events: EventTable) -> np.ndarray:
    """The paper's ``UpdateEvents`` transpose, paid explicitly.

    Returns the event-major ``(n, 8)`` table as a C-contiguous copy,
    built straight from the run's columns: a cache-sized block of
    events at a time, gathered as ``(8, rows)`` and transposed into
    place, so the table is copied once however the load holds its
    columns.  The Table III-VI proxies call this inside their timed
    ``UpdateEvents`` and run their kernels on the copy, so their load
    still costs what the paper's does although :func:`load_md` itself
    does not transpose.
    """
    n = events.n_events
    columns = [events.column(c) for c in range(N_EVENT_COLUMNS)]
    out = np.empty((n, N_EVENT_COLUMNS), dtype=np.float64)
    block = np.empty((N_EVENT_COLUMNS, min(n, _TRANSPOSE_ROWS)), dtype=np.float64)
    for a in range(0, n, _TRANSPOSE_ROWS):
        b = min(a + _TRANSPOSE_ROWS, n)
        part = block[:, :b - a]
        for c, column in enumerate(columns):
            part[c] = column[a:b]
        out[a:b] = part.T
    return out
