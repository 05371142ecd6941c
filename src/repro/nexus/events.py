"""In-memory event representations.

Two layouts exist, mirroring the paper's pipeline:

* :class:`RunData` — the *raw* form straight out of a NeXus file: one
  time-of-flight and detector id per recorded neutron, plus the run
  metadata (goniometer orientation, proton charge, wavelength band).
* :class:`EventTable` — the *MDEvent* form produced by ``UpdateEvents``:
  the 8 columns MiniVATES.jl loads (signal, error^2, run index,
  detector id, goniometer index, and the three Q_sample coordinates)
  held as one C-contiguous ``(8, n_events)`` float64 block, one row per
  column.  Every column is then a unit-stride 1-D array: BinMD reads
  its five columns and hashes the three Q rows without copying.  A
  table loaded for a reduction holds only the columns the load read.
  This is the structure-of-arrays choice the paper's proxies make
  (primitive arrays over array-of-structs); the event-major
  ``(n_events, 8)`` view stays available as ``EventTable.data``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.util.validation import ValidationError, as_matrix3, require

# Column indices of the 8-column MDEvent table (0-based; the paper's
# Julia listing indexes the same layout 1-based, coordinates at 6..8).
COL_SIGNAL = 0
COL_ERROR_SQ = 1
COL_RUN_INDEX = 2
COL_DETECTOR_ID = 3
COL_GONIOMETER_INDEX = 4
COL_QX = 5
COL_QY = 6
COL_QZ = 7
N_EVENT_COLUMNS = 8
COL_Q = slice(COL_QX, COL_QZ + 1)
#: the name each column is stored under in a SaveMD file
COLUMN_NAMES = ("signal", "error_sq", "run_index", "detector_id",
                "goniometer_index", "qx", "qy", "qz")
#: the columns BinMD reads, in the order its batch body takes them;
#: an out-of-core window decodes these and no others
BINMD_COLUMNS = (COL_SIGNAL, COL_ERROR_SQ, COL_QX, COL_QY, COL_QZ)
#: the columns a BinMD launch on cached in-grid pairs reads
WEIGHT_COLUMNS = (COL_SIGNAL, COL_ERROR_SQ)
#: the Q_sample columns, in the order of the ``(3, n)`` Q rows
Q_COLUMNS = (COL_QX, COL_QY, COL_QZ)


@dataclass
class RunData:
    """One experiment run as recorded by the data acquisition system.

    Attributes
    ----------
    run_number:
        The facility-assigned identifier of this run.
    detector_ids:
        ``(n_events,)`` uint32 pixel index of each neutron event.
    tof:
        ``(n_events,)`` float64 time of flight in microseconds.
    weights:
        ``(n_events,)`` float32 event weight (1 for raw events; weighted
        events appear after pre-processing).
    goniometer:
        3x3 rotation matrix ``R`` carrying Q_sample -> Q_lab.
    proton_charge:
        Integrated accelerator charge for the run (arbitrary units);
        used to normalize flux between runs.
    wavelength_band:
        ``(lambda_min, lambda_max)`` in Angstrom accepted by the
        instrument choppers for this run.
    """

    run_number: int
    detector_ids: np.ndarray
    tof: np.ndarray
    weights: np.ndarray
    goniometer: np.ndarray
    proton_charge: float
    wavelength_band: tuple[float, float]
    instrument: str = ""
    sample: str = ""
    ub_matrix: Optional[np.ndarray] = None
    #: optional wall-clock time of each event's proton pulse, seconds
    #: since run start (Section II: event-based data records "proton
    #: pulse wall-clock time"); enables event filtering
    pulse_times: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.detector_ids = np.ascontiguousarray(self.detector_ids, dtype=np.uint32)
        self.tof = np.ascontiguousarray(self.tof, dtype=np.float64)
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float32)
        self.goniometer = as_matrix3(self.goniometer, "goniometer")
        n = self.detector_ids.shape[0]
        require(self.tof.shape == (n,), "tof and detector_ids length mismatch")
        require(self.weights.shape == (n,), "weights and detector_ids length mismatch")
        require(self.proton_charge > 0.0, "proton_charge must be positive")
        lo, hi = self.wavelength_band
        require(0.0 < lo < hi, "wavelength_band must satisfy 0 < min < max")
        if self.ub_matrix is not None:
            self.ub_matrix = as_matrix3(self.ub_matrix, "ub_matrix")
        if self.pulse_times is not None:
            self.pulse_times = np.ascontiguousarray(self.pulse_times, dtype=np.float64)
            require(self.pulse_times.shape == (n,),
                    "pulse_times and detector_ids length mismatch")
            if n and self.pulse_times.min() < 0:
                raise ValidationError("pulse_times must be non-negative")

    @property
    def n_events(self) -> int:
        return int(self.detector_ids.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RunData(run={self.run_number}, events={self.n_events}, "
            f"charge={self.proton_charge:.3g})"
        )


class UnreadColumnError(ValidationError):
    """A column of an :class:`EventTable` that its load did not read."""


class EventTable:
    """The MDEvent table consumed by all kernels, stored by column.

    ``cols`` is one C-contiguous ``(8, n)`` float64 block: row ``c`` is
    column ``c`` of the paper's 8-column table, so every column (and
    the ``(3, n)`` Q block) is a unit-stride view.  ``data`` is the
    transposed ``(n, 8)`` view of the same memory, one event per row,
    for ``[:, COL_*]`` indexing; it never copies.  The constructor
    takes that event-major ``(n, 8)`` form and transposes it once;
    :meth:`from_cols` adopts an ``(8, n)`` block as is.

    A loaded table (:meth:`from_read_columns`) holds the columns its
    load read, as the load returned them (a raw one-chunk column is a
    view of the checked read buffer): all eight for
    :func:`~repro.core.md_event_workspace.load_md`, BinMD's five, or
    only signal and error_sq when a reduction's BinMD pairs are cached.
    :meth:`column` returns them; ``cols`` and ``data`` stack all eight
    on first use, and with fewer read they and every other column raise
    :class:`UnreadColumnError`.  ``q_digest`` is the ``digest_array``
    digest of the ``(3, n)`` Q rows when the load knows it (SaveMD
    stores it in the file), else None; such a table is read-only.
    """

    __slots__ = ("_cols", "_read", "q_digest")

    def __init__(self, data: np.ndarray) -> None:
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != N_EVENT_COLUMNS:
            raise ValidationError(
                f"event table must be (n, {N_EVENT_COLUMNS}), got {arr.shape}"
            )
        self._cols: Optional[np.ndarray] = np.ascontiguousarray(arr.T)
        self._read: Optional[Dict[int, np.ndarray]] = None
        self.q_digest: Optional[str] = None

    @classmethod
    def from_cols(cls, cols: np.ndarray) -> "EventTable":
        """Adopt an ``(8, n)`` column block; no copy when it is already
        C-contiguous float64."""
        arr = np.asarray(cols, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != N_EVENT_COLUMNS:
            raise ValidationError(
                f"event columns must be ({N_EVENT_COLUMNS}, n), got {arr.shape}"
            )
        table = cls.__new__(cls)
        table._cols = np.ascontiguousarray(arr)
        table._read = None
        table.q_digest = None
        return table

    @classmethod
    def from_read_columns(cls, columns: Mapping[int, np.ndarray]) -> "EventTable":
        """The table of the columns a load read, keyed by column index,
        kept as given (no copy); the others raise
        :class:`UnreadColumnError`."""
        lengths = {len(col) for col in columns.values()}
        require(len(lengths) == 1, f"read columns differ in length: {lengths}")
        table = cls.__new__(cls)
        table._cols = None
        table._read = dict(columns)
        table.q_digest = None
        return table

    @property
    def cols(self) -> np.ndarray:
        """The ``(8, n)`` block.  A loaded table that read all eight
        columns stacks them into a read-only block the first time it is
        asked for (one copy) and keeps that; one that read fewer
        raises :class:`UnreadColumnError`."""
        if self._cols is None:
            if len(self._read) < N_EVENT_COLUMNS:
                raise UnreadColumnError(
                    "the table holds only the columns "
                    f"{[COLUMN_NAMES[c] for c in sorted(self._read)]}"
                )
            block = np.stack([self._read[c] for c in range(N_EVENT_COLUMNS)])
            block.flags.writeable = False
            self._cols, self._read = block, None
        return self._cols

    def column(self, c: int) -> np.ndarray:
        """Column ``c`` (a ``COL_*`` index), unit-stride."""
        if self._cols is not None:
            return self._cols[c]
        try:
            return self._read[c]
        except KeyError:
            raise UnreadColumnError(
                f"column {COLUMN_NAMES[c]!r} was not read") from None

    @classmethod
    def empty(cls) -> "EventTable":
        return cls.from_cols(np.empty((N_EVENT_COLUMNS, 0), dtype=np.float64))

    @classmethod
    def from_columns(
        cls,
        *,
        signal: np.ndarray,
        error_sq: Optional[np.ndarray] = None,
        run_index: int | np.ndarray = 0,
        detector_id: Optional[np.ndarray] = None,
        goniometer_index: int | np.ndarray = 0,
        q_sample: np.ndarray,
    ) -> "EventTable":
        """Assemble a table from per-column arrays.

        ``q_sample`` is ``(n, 3)``; scalar ``run_index`` and
        ``goniometer_index`` broadcast over all rows.
        """
        signal = np.asarray(signal, dtype=np.float64)
        n = signal.shape[0]
        q = np.asarray(q_sample, dtype=np.float64)
        require(q.shape == (n, 3), f"q_sample must be ({n}, 3), got {q.shape}")
        cols = np.empty((N_EVENT_COLUMNS, n), dtype=np.float64)
        cols[COL_SIGNAL] = signal
        cols[COL_ERROR_SQ] = signal if error_sq is None else error_sq
        cols[COL_RUN_INDEX] = run_index
        cols[COL_DETECTOR_ID] = 0.0 if detector_id is None else detector_id
        cols[COL_GONIOMETER_INDEX] = goniometer_index
        cols[COL_Q] = q.T
        return cls.from_cols(cols)

    @property
    def data(self) -> np.ndarray:
        """The ``(n, 8)`` event-major view of ``cols`` (no copy)."""
        return self.cols.T

    @property
    def n_events(self) -> int:
        if self._cols is not None:
            return int(self._cols.shape[1])
        return int(next(iter(self._read.values())).shape[0])

    @property
    def signal(self) -> np.ndarray:
        return self.column(COL_SIGNAL)

    @property
    def error_sq(self) -> np.ndarray:
        return self.column(COL_ERROR_SQ)

    @property
    def q_rows(self) -> np.ndarray:
        """The ``(3, n)`` Q rows: a view of the block, or stacked from
        the read columns."""
        if self._cols is not None:
            return self._cols[COL_Q]
        return np.stack([self.column(c) for c in Q_COLUMNS])

    @property
    def q_sample(self) -> np.ndarray:
        return self.q_rows.T

    @property
    def detector_id(self) -> np.ndarray:
        return self.column(COL_DETECTOR_ID)

    def total_signal(self) -> float:
        return float(self.signal.sum())

    def concat(self, other: "EventTable") -> "EventTable":
        return EventTable.from_cols(np.hstack([self.cols, other.cols]))

    def __len__(self) -> int:
        return self.n_events

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EventTable(n_events={self.n_events})"
