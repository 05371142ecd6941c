"""Checkpoint/resume for the multi-run reduction campaign.

A campaign over N run files accumulates two histograms (Σ BinMD,
Σ MDNorm).  This module persists the campaign's progress so an
interrupted reduction — a dead rank, a killed job, a lost allocation —
resumes from the last completed run **bit-identically** instead of
re-reducing hundreds of GB from scratch:

* a run's contribution is one sparse :class:`RunDelta`: per array
  (BinMD signal, BinMD ``error_sq``, MDNorm signal) the flat indices of
  the bins the run's fresh histograms touched and their values.  The
  same object is the gathered reduction payload and the checkpoint
  unit;
* after each run ``i`` completes, its delta is written to
  ``run_<i>.ckpt.h5`` as ``<array>_idx`` / ``<array>_val`` datasets
  plus the grid shape — an :mod:`repro.nexus.h5lite` file published
  crash-safely via :func:`repro.util.atomic_io.atomic_path` (fsync,
  then rename);
* a schema-versioned JSON **manifest** (schema 2) records, per run: the
  delta file, a BLAKE2b digest of every dataset in it, the disposition
  (``done`` / ``quarantined``), attempts and owning rank.  The manifest
  itself is rewritten atomically after every update, so a crash at any
  instant leaves either the pre-run or post-run manifest — never a torn
  one.  A schema-1 (dense delta) directory is refused;
* a delta read back is verified against the file's CRCs, the manifest's
  digests (every dataset must have one) and the campaign grid's shape.
  The root reads deltas back only for runs no live rank holds in
  memory: on resume, and for the durable runs of a dead rank.  Folded
  in ascending run order, they give exactly the float-addition order
  of the uninterrupted loop, which is what makes resumption
  bit-identical;
* quarantined runs stay quarantined across resumes (the manifest is
  the campaign's durable disposition record).

A manifest is bound to its campaign by a ``config_digest`` (inputs,
grid, symmetry, backend); resuming against a checkpoint directory
written by a different campaign raises :class:`CheckpointMismatchError`
instead of silently mixing histograms.

:class:`RecoveryConfig` bundles the whole failure policy — retry
budget, quarantine switch, checkpoint manager, resume flag — and is
what the drivers (:mod:`repro.core.workflow`, the proxies, streaming)
thread into :func:`repro.core.cross_section.compute_cross_section`.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.nexus.h5lite import File, H5LiteError
from repro.util import atomic_io
from repro.util import trace as _trace
from repro.util.faults import RetryPolicy
from repro.util.validation import ReproError

#: manifest schema version (bump on any layout change); 2 = sparse deltas
MANIFEST_SCHEMA = 2

MANIFEST_NAME = "manifest.json"


class CheckpointError(ReproError):
    """Checkpoint machinery failure (I/O, schema, digest)."""


class CheckpointMismatchError(CheckpointError):
    """The checkpoint directory belongs to a different campaign."""


class CheckpointCorruptError(CheckpointError):
    """A persisted run delta failed digest verification."""


def _digest(arr: np.ndarray) -> str:
    a = np.ascontiguousarray(arr)
    h = hashlib.blake2b(digest_size=16)
    h.update(str(a.dtype).encode())
    h.update(repr(a.shape).encode())
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
    """Per-run delta persistence + the crash-safe campaign manifest.

    Thread-safe: the in-process MPI ranks share one manager, so all
    manifest mutation happens under one lock and every write is
    published atomically (see :mod:`repro.util.atomic_io`).
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        config_digest: str = "",
        grid: Optional[HKLGrid] = None,
    ) -> None:
        self.directory = os.fspath(directory)
        self.config_digest = config_digest
        os.makedirs(self.directory, exist_ok=True)
        self._lock = threading.Lock()
        self._manifest: Dict[str, Any] = {
            "schema": MANIFEST_SCHEMA,
            "config_digest": config_digest,
            "runs": {},
            "quarantined": {},
        }
        self._load_manifest(grid)

    # -- manifest ---------------------------------------------------------
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_NAME)

    def _load_manifest(self, grid: Optional[HKLGrid]) -> None:
        path = self.manifest_path
        if not os.path.exists(path):
            return
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"unreadable checkpoint manifest {path!r}: {exc}"
            ) from exc
        if doc.get("schema") != MANIFEST_SCHEMA:
            raise CheckpointError(
                f"checkpoint manifest {path!r} has schema "
                f"{doc.get('schema')!r}; this version reads only schema "
                f"{MANIFEST_SCHEMA} (sparse run deltas): reduce into a "
                f"fresh checkpoint directory"
            )
        if self.config_digest and doc.get("config_digest") \
                and doc["config_digest"] != self.config_digest:
            raise CheckpointMismatchError(
                f"checkpoint {self.directory!r} was written by a different "
                f"campaign (config digest {doc['config_digest']!r} != "
                f"{self.config_digest!r})"
            )
        doc.setdefault("runs", {})
        doc.setdefault("quarantined", {})
        self._manifest = doc

    def _write_manifest(self) -> None:
        atomic_io.atomic_write_text(
            self.manifest_path,
            json.dumps(self._manifest, indent=1, sort_keys=True) + "\n",
        )

    # -- queries ----------------------------------------------------------
    def has_run(self, i: int) -> bool:
        with self._lock:
            return str(i) in self._manifest["runs"]

    def is_quarantined(self, i: int) -> bool:
        with self._lock:
            return str(i) in self._manifest["quarantined"]

    def completed_runs(self) -> List[int]:
        with self._lock:
            return sorted(int(k) for k in self._manifest["runs"])

    def quarantined_runs(self) -> List[int]:
        with self._lock:
            return sorted(int(k) for k in self._manifest["quarantined"])

    def run_record(self, i: int) -> Optional[Dict[str, Any]]:
        with self._lock:
            rec = self._manifest["runs"].get(str(i))
            return dict(rec) if rec is not None else None

    # -- persistence ------------------------------------------------------
    def _run_file(self, i: int) -> str:
        return os.path.join(self.directory, f"run_{i:04d}.ckpt.h5")

    def save_run(
        self,
        i: int,
        delta: RunDelta,
        *,
        attempts: int = 1,
        rank: Optional[int] = None,
    ) -> None:
        """Atomically persist run ``i``'s delta + update the manifest.

        The delta file is fully written, fsynced and renamed into place
        *before* the manifest names it, so a crash between the two
        leaves a manifest that simply does not know about the run yet.
        """
        tracer = _trace.active_tracer()
        path = self._run_file(i)
        with tracer.span("checkpoint.write", kind="checkpoint", run=int(i)):
            digests = {}
            with atomic_io.atomic_path(path) as tmp:
                with File(tmp, "w") as f:
                    grp = f.create_group("checkpoint")
                    grp.attrs["schema"] = MANIFEST_SCHEMA
                    grp.attrs["run_index"] = int(i)
                    grp.attrs["shape"] = list(delta.shape)
                    for name, (idx, val) in delta.arrays.items():
                        for ds, arr in ((f"{name}_idx", idx),
                                        (f"{name}_val", val)):
                            grp.create_dataset(ds, data=arr)
                            digests[ds] = _digest(arr)
            with self._lock:
                self._manifest["runs"][str(i)] = {
                    "file": os.path.basename(path),
                    "digests": digests,
                    "status": "done",
                    "attempts": int(attempts),
                    "rank": None if rank is None else int(rank),
                }
                self._manifest["quarantined"].pop(str(i), None)
                self._write_manifest()
        tracer.count("checkpoint.write")

    def load_run(self, i: int, grid: HKLGrid) -> RunDelta:
        """Load run ``i``'s persisted delta, verifying the file's CRCs,
        a manifest digest for every dataset, and the grid shape."""
        with self._lock:
            rec = self._manifest["runs"].get(str(i))
        if rec is None:
            raise CheckpointError(f"run {i} is not checkpointed")
        path = os.path.join(self.directory, rec["file"])
        tracer = _trace.active_tracer()
        with tracer.span("checkpoint.read", kind="checkpoint", run=int(i)):
            try:
                with File(path, "r") as f:
                    grp = f["checkpoint"]
                    shape = tuple(grp.attrs.get("shape", ()))
                    data = {ds: grp.read(ds) for ds in grp.keys()}
            except (OSError, H5LiteError, KeyError) as exc:
                raise CheckpointCorruptError(
                    f"checkpoint delta for run {i} is unreadable: {exc}"
                ) from exc
            digests = rec.get("digests", {})
            if set(data) != set(digests):
                raise CheckpointCorruptError(
                    f"checkpoint delta for run {i}: datasets {sorted(data)} "
                    f"!= manifest digests {sorted(digests)}"
                )
            for ds, arr in data.items():
                if _digest(arr) != digests[ds]:
                    raise CheckpointCorruptError(
                        f"checkpoint delta for run {i}: {ds} digest mismatch"
                    )
            arrays = {name: (data[f"{name}_idx"], data[f"{name}_val"])
                      for name in DELTA_ARRAYS
                      if f"{name}_idx" in data and f"{name}_val" in data}
            if not {"binmd_signal", "mdnorm_signal"} <= set(arrays) \
                    or len(data) != 2 * len(arrays):
                raise CheckpointCorruptError(
                    f"checkpoint delta for run {i} holds datasets "
                    f"{sorted(data)}, not a run delta"
                )
            if shape != tuple(grid.bins):
                raise CheckpointMismatchError(
                    f"checkpoint delta for run {i} has shape {shape}, "
                    f"campaign grid is {tuple(grid.bins)}"
                )
        tracer.count("checkpoint.read")
        return RunDelta(shape, arrays)

    def quarantine_run(self, i: int, reason: str) -> None:
        """Durably record run ``i`` as quarantined."""
        with self._lock:
            self._manifest["quarantined"][str(i)] = {"reason": reason}
            self._write_manifest()
        _trace.active_tracer().count("checkpoint.quarantine")

    def mark_campaign_complete(self, text: str = "") -> None:
        """Write the COMPLETE sentinel once the final reduce happened."""
        atomic_io.mark_complete(self.directory, text)

    @property
    def campaign_complete(self) -> bool:
        return atomic_io.is_complete(self.directory)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"CheckpointManager({self.directory!r}, "
                f"runs={len(self._manifest['runs'])}, "
                f"quarantined={len(self._manifest['quarantined'])})")


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
