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
  its five columns and hashes the three Q rows without copying, and a
  legacy run file's column-major payload becomes the table as read.
  This is the structure-of-arrays choice the paper's proxies make
  (primitive arrays over array-of-structs); the event-major
  ``(n_events, 8)`` view stays available as ``EventTable.data``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

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
#: the name each column is stored under in a chunked SaveMD file
COLUMN_NAMES = ("signal", "error_sq", "run_index", "detector_id",
                "goniometer_index", "qx", "qy", "qz")
#: the columns BinMD reads, in the order its batch body takes them;
#: an out-of-core window decodes these and no others
BINMD_COLUMNS = (COL_SIGNAL, COL_ERROR_SQ, COL_QX, COL_QY, COL_QZ)


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


class EventTable:
    """The MDEvent table consumed by all kernels, stored by column.

    ``cols`` is one C-contiguous ``(8, n)`` float64 block: row ``c`` is
    column ``c`` of the paper's 8-column table, so every column (and
    the ``(3, n)`` Q block) is a unit-stride view.  ``data`` is the
    transposed ``(n, 8)`` view of the same memory, one event per row,
    for the element bodies and ``[:, COL_*]`` indexing; it never
    copies.  The constructor takes that event-major ``(n, 8)`` form
    and transposes it once; :meth:`from_cols` adopts an ``(8, n)``
    block as is.  ``q_leaves`` are the two SHA-256 leaves of the Q
    rows' bytes when they were hashed on load (a read-only block only),
    else None.
    """

    __slots__ = ("cols", "q_leaves")

    def __init__(self, data: np.ndarray) -> None:
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != N_EVENT_COLUMNS:
            raise ValidationError(
                f"event table must be (n, {N_EVENT_COLUMNS}), got {arr.shape}"
            )
        self.cols = np.ascontiguousarray(arr.T)
        self.q_leaves: Optional[Tuple[bytes, bytes]] = None

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
        table.cols = np.ascontiguousarray(arr)
        table.q_leaves = None
        return table

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
        return int(self.cols.shape[1])

    @property
    def signal(self) -> np.ndarray:
        return self.cols[COL_SIGNAL]

    @property
    def error_sq(self) -> np.ndarray:
        return self.cols[COL_ERROR_SQ]

    @property
    def q_sample(self) -> np.ndarray:
        return self.cols[COL_Q].T

    @property
    def detector_id(self) -> np.ndarray:
        return self.cols[COL_DETECTOR_ID]

    def total_signal(self) -> float:
        return float(self.cols[COL_SIGNAL].sum())

    def concat(self, other: "EventTable") -> "EventTable":
        return EventTable.from_cols(np.hstack([self.cols, other.cols]))

    def __len__(self) -> int:
        return self.n_events

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EventTable(n_events={self.n_events})"
