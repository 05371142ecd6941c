"""Checkpoint/resume for the multi-run reduction campaign.

A campaign over N run files accumulates two histograms (Σ BinMD,
Σ MDNorm).  This module persists its progress so an interrupted
reduction — a dead rank, a killed job, a lost allocation — resumes
from the last completed run **bit-identically**.  The checkpoint
directory is its own manifest: a run is durable exactly when its file
exists.

* a run's contribution is one sparse :class:`RunDelta` (per array, the
  flat indices of the bins its fresh histograms touched and their
  values): the gathered reduction payload and the checkpoint unit;
* after run ``i`` completes, its delta is published crash-safely
  (:func:`repro.util.atomic_io.atomic_path`: fsync, then rename) as the
  :mod:`repro.nexus.h5lite` file ``run_<i>.ckpt.h5``.  Its header
  attributes carry the run record (run index, ``config_digest``,
  attempts, rank, grid shape) and one BLAKE2b digest over that record
  and every dataset's name, dtype, shape and bytes: the h5lite CRCs
  cover only the payload, the digest the header too;
* a quarantined run gets its own atomic record ``run_<i>.quarantined``.
  Saving a run publishes its delta, then removes that record; when a
  crash leaves both, the delta wins;
* a manager scans its directory once, for exactly those two names (a
  ``*.tmp`` left by a killed write is ignored).  A delta whose digest
  does not match, whose header is unreadable or whose run index is not
  the one in its name is corrupt, and the caller recomputes the run.
  Folded in ascending run order, the deltas give exactly the
  float-addition order of the uninterrupted loop.

An intact file or record of a different campaign (``config_digest``:
inputs, grid, symmetry, backend) raises :class:`CheckpointMismatchError`
instead of silently mixing histograms; a directory in the older layout
(one JSON ``manifest.json`` for every run) is refused.

:class:`RecoveryConfig` bundles the whole failure policy — retry
budget, quarantine switch, checkpoint manager, resume flag — that the
drivers thread into :func:`repro.core.cross_section.compute_cross_section`.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.nexus.h5lite import File
from repro.util import atomic_io
from repro.util import trace as _trace
from repro.util.faults import RetryPolicy
from repro.util.validation import ReproError

#: the one file of the older layout; a directory holding it is refused
MANIFEST_NAME = "manifest.json"

#: the names a scan indexes: a run's delta file or its quarantine record
_RUN_NAME = re.compile(r"run_(\d{4,})\.(ckpt\.h5|quarantined)")

#: what h5lite and numpy raise on a malformed header: a flipped bit can
#: leave valid JSON that names a missing key, a bad dtype or a group
_UNREADABLE = (OSError, LookupError, TypeError, ValueError, SyntaxError,
               AttributeError)


class CheckpointError(ReproError):
    """Checkpoint machinery failure (I/O, layout, digest)."""


class CheckpointMismatchError(CheckpointError):
    """The checkpoint directory belongs to a different campaign."""


class CheckpointCorruptError(CheckpointError):
    """A persisted run delta failed verification."""


def _digest(record: Dict[str, Any], data: Dict[str, np.ndarray]) -> str:
    """BLAKE2b over a run record and every dataset's name, dtype, shape
    and bytes."""
    h = hashlib.blake2b(digest_size=16)
    h.update(json.dumps(record, sort_keys=True).encode())
    for name in sorted(data):
        a = np.ascontiguousarray(data[name])
        h.update(f"\0{name}\0{a.dtype}\0{a.shape!r}\0".encode())
        h.update(a.data)
    return h.hexdigest()


def campaign_digest(**fields: Any) -> str:
    """Stable digest of a campaign configuration (order-insensitive)."""
    def default(obj: Any) -> Any:
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (np.integer,)):
            return int(obj)
        if isinstance(obj, (np.floating,)):
            return float(obj)
        return repr(obj)

    payload = json.dumps(fields, sort_keys=True, default=default)
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


#: the arrays of a run delta; ``binmd_error_sq`` is absent when the
#: run's BinMD histogram tracks no errors
DELTA_ARRAYS = ("binmd_signal", "binmd_error_sq", "mdnorm_signal")


@dataclass(frozen=True)
class RunDelta:
    """One run's own MDNorm/BinMD contribution, sparse: per array, the
    flat indices (int32 when the grid fits) of the bins the run's fresh
    histograms hold nonzero, and their values.

    Dropping the zero bins loses nothing: a fold adds each delta into
    totals that start at +0.0, and adding ±0.0 to such a total leaves
    it unchanged bit for bit."""

    shape: Tuple[int, ...]
    #: array name (one of :data:`DELTA_ARRAYS`) -> ``(flat index, value)``
    arrays: Dict[str, Tuple[np.ndarray, np.ndarray]]

    @classmethod
    def from_hists(cls, binmd: Hist3, mdnorm: Hist3) -> "RunDelta":
        """Sparsify a run's fresh delta histograms."""
        size = binmd.signal.size
        itype = np.int32 if size <= np.iinfo(np.int32).max else np.int64
        arrays = {}
        for name, dense in zip(DELTA_ARRAYS, (binmd.signal, binmd.error_sq,
                                              mdnorm.signal)):
            if dense is not None:
                flat = dense.reshape(-1)
                # a boolean mask scans ~5x faster than nonzero on floats;
                # -0.0 != 0 is False, so a -0.0 bin is not a touch
                idx = np.flatnonzero(flat != 0).astype(itype, copy=False)
                arrays[name] = (idx, flat[idx])
        return cls(tuple(binmd.signal.shape), arrays)


class CheckpointManager:
    """Per-run delta files and quarantine records in one directory.

    Thread-safe: the in-process MPI ranks share one manager.  The lock
    guards only the in-memory index; every file is written, fsynced and
    renamed outside it, so one rank's save never waits out another's.
    """

    def __init__(self, directory: str | os.PathLike, *,
                 config_digest: str = "") -> None:
        self.directory = os.fspath(directory)
        self.config_digest = config_digest
        os.makedirs(self.directory, exist_ok=True)
        if os.path.exists(self.manifest_path):
            raise CheckpointError(
                f"checkpoint {self.directory!r} holds a {MANIFEST_NAME}: it "
                f"is in the manifest layout, and this version reads only the "
                f"per-run file layout (run_<i>.ckpt.h5, run_<i>.quarantined)"
                f"; reduce into a fresh checkpoint directory")
        self._lock = threading.Lock()
        #: run -> its verified record (None: the file is corrupt)
        self._runs: Dict[int, Optional[Dict[str, Any]]] = {}
        self._quarantined: Set[int] = set()
        for name in os.listdir(self.directory):
            m = _RUN_NAME.fullmatch(name)
            if m is None or m.group(1) != f"{int(m.group(1)):04d}":
                continue
            i = int(m.group(1))
            if m.group(2) == "ckpt.h5":
                self._runs[i] = self._scan_run(i)
            elif self._scan_quarantine(i):
                self._quarantined.add(i)
        self._quarantined -= set(self._runs)  # the delta wins

    #: the older layout's manifest; never written (perfbench reads it)
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_NAME)

    def _run_file(self, i: int) -> str:
        return os.path.join(self.directory, f"run_{i:04d}.ckpt.h5")

    def _quarantine_file(self, i: int) -> str:
        return os.path.join(self.directory, f"run_{i:04d}.quarantined")

    def _check_campaign(self, theirs: Any, path: str) -> None:
        if self.config_digest and theirs and theirs != self.config_digest:
            raise CheckpointMismatchError(
                f"checkpoint {path!r} was written by a different campaign "
                f"(config digest {theirs!r} != {self.config_digest!r})")

    def _scan_run(self, i: int) -> Optional[Dict[str, Any]]:
        try:
            record, _ = self._read(i)
        except CheckpointCorruptError:
            return None
        self._check_campaign(record.get("config_digest"), self._run_file(i))
        return record

    def _scan_quarantine(self, i: int) -> bool:
        try:  # an unreadable record is dropped: the run is recomputed
            with open(self._quarantine_file(i)) as fh:
                theirs = json.load(fh)["config_digest"]
        except (OSError, ValueError, LookupError, TypeError):
            return False
        self._check_campaign(theirs, self._quarantine_file(i))
        return True

    # -- queries ------------------------------------------------------------
    def has_run(self, i: int) -> bool:
        with self._lock:
            return i in self._runs

    def is_quarantined(self, i: int) -> bool:
        with self._lock:
            return i in self._quarantined

    def completed_runs(self) -> List[int]:
        with self._lock:
            return sorted(self._runs)

    def quarantined_runs(self) -> List[int]:
        with self._lock:
            return sorted(self._quarantined)

    def run_record(self, i: int) -> Optional[Dict[str, Any]]:
        """Run ``i``'s file name and the record its header carries."""
        with self._lock:
            if i not in self._runs:
                return None
            rec = self._runs[i] or {}
        return {"file": os.path.basename(self._run_file(i)), **rec}

    # -- persistence --------------------------------------------------------
    def save_run(self, i: int, delta: RunDelta, *, attempts: int = 1,
                 rank: Optional[int] = None) -> None:
        """Atomically publish run ``i``'s delta file, the point from which
        the run is durable, then drop any quarantine record of the run."""
        record: Dict[str, Any] = {
            "run_index": int(i), "config_digest": self.config_digest,
            "attempts": int(attempts), "shape": [int(n) for n in delta.shape],
        }
        if rank is not None:
            record["rank"] = int(rank)
        data = {f"{name}_{part}": arr
                for name, pair in delta.arrays.items()
                for part, arr in zip(("idx", "val"), pair)}
        tracer = _trace.active_tracer()
        with tracer.span("checkpoint.write", kind="checkpoint", run=int(i)):
            with atomic_io.atomic_path(self._run_file(i)) as tmp:
                with File(tmp, "w") as f:
                    grp = f.create_group("checkpoint")
                    for key, value in record.items():
                        grp.attrs[key] = value
                    grp.attrs["digest"] = _digest(record, data)
                    for ds, arr in data.items():
                        grp.create_dataset(ds, data=arr)
            try:
                os.unlink(self._quarantine_file(i))
            except FileNotFoundError:
                pass
            with self._lock:
                self._runs[i] = record
                self._quarantined.discard(i)
        tracer.count("checkpoint.write")

    def _read(self, i: int) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        """Run ``i``'s verified record and datasets."""
        try:
            with File(self._run_file(i), "r") as f:
                grp = f["checkpoint"]
                record = {k: v.tolist() if isinstance(v, np.ndarray) else v
                          for k, v in grp.attrs.items() if k != "digest"}
                data = {ds: grp.read(ds) for ds in grp.keys()}
                intact = grp.attrs["digest"] == _digest(record, data)
        except _UNREADABLE as exc:
            raise CheckpointCorruptError(
                f"checkpoint delta for run {i} is unreadable: {exc}") from exc
        if not intact or record.get("run_index") != i:
            raise CheckpointCorruptError(
                f"checkpoint delta for run {i} fails its digest or holds "
                f"run {record.get('run_index')!r}")
        return record, data

    def load_run(self, i: int, grid: HKLGrid) -> RunDelta:
        """Load run ``i``'s persisted delta, verifying the file's CRCs,
        its digest, its run index and the grid shape."""
        if not self.has_run(i):
            raise CheckpointError(f"run {i} is not checkpointed")
        tracer = _trace.active_tracer()
        with tracer.span("checkpoint.read", kind="checkpoint", run=int(i)):
            record, data = self._read(i)
            shape = tuple(record.get("shape", ()))
            if shape != tuple(grid.bins):
                raise CheckpointMismatchError(
                    f"checkpoint delta for run {i} has shape {shape}, "
                    f"campaign grid is {tuple(grid.bins)}")
        tracer.count("checkpoint.read")
        return RunDelta(shape, {
            name: (data[f"{name}_idx"], data[f"{name}_val"])
            for name in DELTA_ARRAYS if f"{name}_idx" in data})

    def quarantine_run(self, i: int, reason: str) -> None:
        """Durably record run ``i`` as quarantined."""
        atomic_io.atomic_write_text(self._quarantine_file(i), json.dumps(
            {"config_digest": self.config_digest, "reason": reason}))
        with self._lock:
            self._quarantined.add(i)
        _trace.active_tracer().count("checkpoint.quarantine")

    def mark_campaign_complete(self, text: str = "") -> None:
        """Write the COMPLETE sentinel once the final reduce happened."""
        atomic_io.mark_complete(self.directory, text)

    @property
    def campaign_complete(self) -> bool:
        return atomic_io.is_complete(self.directory)


# ---------------------------------------------------------------------------
# the bundled failure policy
# ---------------------------------------------------------------------------

@dataclass
class RecoveryConfig:
    """Everything the run loop needs to survive faults.

    ``retry`` bounds each run's attempts and shapes the backoff between
    them (the failures retried are
    :func:`~repro.util.faults.default_retryable`'s); ``quarantine``
    lets runs that exhaust retries be dropped (the campaign completes
    degraded on the survivors) instead of aborting; ``checkpoint``
    persists per-run deltas; ``resume`` replays completed runs from the
    checkpoint.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    quarantine: bool = True
    checkpoint: Optional[CheckpointManager] = None
    resume: bool = False
