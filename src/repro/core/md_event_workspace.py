"""MDEvent storage and the ``UpdateEvents`` stage.

Mirrors the paper's data flow: the production workflow saves each run's
``MDEventWorkspace`` (the 8-column event table) plus auxiliary metadata
into HDF5 files that the proxies then load.  ``UpdateEvents`` — the
stage timed in Tables III-VI — is that load: reading "an HDF5 array
with 8 columns and a row for each neutron event" and transposing it
"from row-major to column-major".  Legacy files store the table
column-major, which is the kernel layout of
:class:`~repro.nexus.events.EventTable`, so :func:`load_md` adopts the
payload as read.  The proxies that reproduce Tables III-VI pay the
paper's transpose explicitly with :func:`transpose_events`.

:func:`convert_to_md` is the upstream conversion (Mantid's
ConvertToMD): raw (pixel, TOF) events -> Q_sample through the
instrument geometry and the run's goniometer.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.instruments.conversion import q_lab_from_events
from repro.instruments.detector import DetectorArray
from repro.nexus.events import (
    COL_DETECTOR_ID,
    COL_ERROR_SQ,
    COL_GONIOMETER_INDEX,
    COL_Q,
    COL_RUN_INDEX,
    COL_SIGNAL,
    COLUMN_NAMES,
    EventTable,
    N_EVENT_COLUMNS,
    RunData,
)
from repro.nexus.h5lite import File, PayloadRead
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


def save_md(
    path: Union[str, os.PathLike],
    ws: MDEventWorkspace,
    *,
    compression: Optional[str] = None,
    chunk_events: Optional[int] = None,
    codec: str = "zlib",
) -> None:
    """SaveMD: persist the workspace for the proxies to load.

    Two layouts:

    * legacy (default): the event table is stored column-major
      (``8 x n``), the table's own ``cols`` block written as is;
      ``compression="zlib"`` deflates the whole payload in one blob.
    * chunked (``chunk_events=N``): every column is its own 1-D dataset
      under ``event_columns`` (named by
      :data:`~repro.nexus.events.COLUMN_NAMES`), cut into chunks of
      ``N`` events that are encoded (``codec`` is one of
      :data:`repro.nexus.h5lite.CHUNK_CODECS`) and CRC-checked one
      stream per column per chunk.  This is what lets :func:`load_md`
      hand the reduction a bounded-memory
      :class:`~repro.nexus.tiles.LazyEventTable` that decodes only the
      five columns BinMD reads, instead of materializing the run (the
      paper's raw datasets are 8.5-206 GB).
    """
    if chunk_events is not None and compression is not None:
        raise ValidationError(
            "chunk_events and whole-payload compression are exclusive"
        )
    with File(path, "w") as f:
        grp = f.create_group("MDEventWorkspace")
        grp.attrs["NX_class"] = "NXentry"
        if chunk_events is not None:
            cols = (
                ws.events.cols
                if isinstance(ws.events, EventTable)
                else np.asarray(ws.events, dtype=np.float64).T
            )
            for name, col in zip(COLUMN_NAMES, cols):
                grp.create_dataset(
                    f"event_columns/{name}",
                    data=col,
                    chunk_rows=int(chunk_events),
                    codec=codec,
                )
        else:
            grp.create_dataset(
                "event_data",
                data=ws.events.cols,
                compression=compression,
            )
        grp.create_dataset("run_number", data=np.array(ws.run_number, dtype=np.int64))
        grp.create_dataset("goniometer", data=ws.goniometer)
        grp.create_dataset(
            "proton_charge", data=np.array(ws.proton_charge, dtype=np.float64)
        )
        grp.create_dataset(
            "momentum_band", data=np.asarray(ws.momentum_band, dtype=np.float64)
        )
        if ws.ub_matrix is not None:
            grp.create_dataset("ub_matrix", data=ws.ub_matrix)


def load_md(
    path: Union[str, os.PathLike],
    *,
    memory_budget: Optional[int] = None,
) -> MDEventWorkspace:
    """LoadMD / UpdateEvents: read the 8-column table.

    Legacy files store the table column-major (``8 x n``): the payload
    is read whole, its CRC32 and shape are checked, and the checked
    array becomes the table's ``cols`` without a copy (it is
    read-only).  Chunked files (``save_md(chunk_events=...)``) store
    one dataset per column, and row-major v2 files one ``(n, 8)``
    dataset; either way every decoded chunk stream is CRC-checked.
    With ``memory_budget`` (bytes) the returned workspace carries a
    :class:`~repro.nexus.tiles.LazyEventTable` — metadata is read now,
    event chunks are decoded on demand under the budget's LRU tile
    cache and the table is **never** materialized; without a budget
    the chunked table is materialized eagerly into columns.  The
    paper's load-time transpose is not paid here; the proxies pay it
    with :func:`transpose_events`.  This is :func:`begin_md` joined at
    once.
    """
    return begin_md(path, memory_budget=memory_budget).join()


def begin_md(
    path: Union[str, os.PathLike],
    *,
    memory_budget: Optional[int] = None,
) -> "PendingMD":
    """The first half of :func:`load_md`, on the caller.

    Fires ``nexus.read_events`` and the payload's ``h5lite.read`` fault
    points in :func:`load_md`'s order, checks the payload's shape in the
    header, and reads the header and the metadata (UB, goniometer, band, charge) into ``pending.ws``, whose
    ``events`` is None until :meth:`PendingMD.join`.  A chunked table
    (lazy or materialized) is complete already; a legacy payload is
    not read yet.
    """
    _faults.fault_point("nexus.read_events", path=os.fspath(path))
    f = File(path, "r")
    try:
        grp = f["MDEventWorkspace"]
        payload = None
        if "event_columns" in grp or "event_table" in grp:
            events: "EventTable | LazyEventTable | None" = LazyEventTable.adopt(
                f, memory_budget=memory_budget)
            if memory_budget is None:
                events = events.materialize()
        else:
            events = None
            payload = grp.require_dataset("event_data").begin_read()
            shape = payload.shape
            if len(shape) != 2 or shape[0] != N_EVENT_COLUMNS:
                raise ValidationError(
                    f"{f.path!r}: event_data must be "
                    f"({N_EVENT_COLUMNS}, n), got {shape}"
                )
        band = grp.read("momentum_band")
        ub = grp.read("ub_matrix") if "ub_matrix" in grp else None
        ws = MDEventWorkspace(
            events=events,
            run_number=int(grp.read("run_number")[()]),
            goniometer=grp.read("goniometer"),
            proton_charge=float(grp.read("proton_charge")[()]),
            momentum_band=(float(band[0]), float(band[1])),
            ub_matrix=ub,
        )
    except BaseException:
        f.close()
        raise
    return PendingMD(f, ws, payload)


class PendingMD:
    """A :func:`begin_md` whose event payload is still to be read.

    ``ws`` carries the run's metadata now.  :meth:`start` queues the
    payload's read and CRC32 (and, with ``key_leaves``, the two SHA-256
    leaves of the Q rows the BinMD cache key is made of) on the
    ``bytesplit`` helper; :meth:`join` takes what the helper has not
    started, checks length and CRC32 on the caller (:func:`begin_md`
    checked the shape in the header) and returns the complete
    workspace.  Joining an unstarted load reads on the
    caller, as :func:`load_md` does.  Either :meth:`join` or
    :meth:`close` releases the run file; a load dropped without either
    warns (``ResourceWarning``).
    """

    def __init__(self, f: File, ws: MDEventWorkspace,
                 payload: Optional[PayloadRead]) -> None:
        self.ws = ws
        self._payload = payload
        self._file = f if payload is not None else None
        if payload is None and not isinstance(ws.events, LazyEventTable):
            f.close()  # a lazy table owns f

    def start(self, *, key_leaves: bool) -> None:
        """Queue the payload job on the helper (no-op without a payload
        or a helper); ``key_leaves`` also hashes the Q rows' leaves."""
        payload = self._payload
        if payload is None:
            return
        leaf_range = None
        if key_leaves and not payload.compressed:
            row = payload.nbytes // N_EVENT_COLUMNS
            leaf_range = (COL_Q.start * row, COL_Q.stop * row)
        if payload.start(leaf_range):
            _trace.active_tracer().count("nexus.payload_deferred")

    def join(self) -> MDEventWorkspace:
        """The complete workspace; raises the payload's
        :class:`~repro.nexus.h5lite.CorruptFileError` here, on the
        caller."""
        payload = self._payload
        if payload is None:
            return self.ws
        try:
            raw = payload.join()
        finally:
            self.close()
        events = EventTable.from_cols(raw)
        events.q_leaves = payload.leaves
        self.ws.events = events
        return self.ws

    def close(self) -> None:
        """Abandon the payload and close the run file.  Idempotent."""
        if self._payload is not None:
            self._payload.close()
            self._payload = None
        if self._file is not None:
            self._file.close()
            self._file = None

    def __del__(self) -> None:
        if getattr(self, "_file", None) is not None:
            warnings.warn(f"run file {self._file.path!r} was begun but "
                          "never joined or closed", ResourceWarning,
                          source=self)
            self.close()


def transpose_events(events: EventTable) -> np.ndarray:
    """The paper's ``UpdateEvents`` transpose, paid explicitly.

    Returns the event-major ``(n, 8)`` table as a C-contiguous copy:
    one out-of-place transpose of the run's columns.  The Table III-VI
    proxies call this inside their timed ``UpdateEvents`` and run their
    kernels on the copy, so their load still costs what the paper's
    does although :func:`load_md` itself does not transpose.
    """
    return np.ascontiguousarray(events.data)
