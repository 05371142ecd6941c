"""Content-addressed result store with single-flight dedup.

Results live under ``root/<config-digest>/`` — the digest is
:func:`repro.service.jobs.workflow_digest`, i.e. the campaign's
*configuration* content address, so two tenants submitting the same
science share one reduction and one copy of the histograms.  Each
entry is published crash-safely: arrays go into an h5lite file via
:func:`repro.util.atomic_io.atomic_path`, the metadata (with BLAKE2b
array digests) is rewritten atomically, and a ``COMPLETE`` sentinel
commits the entry — a reader never sees a torn result, only "present"
or "absent".

Single-flight: when N jobs with the same digest are in flight at once,
:meth:`ResultStore.begin` elects exactly one *leader* to compute; the
others *join* the flight and block until the leader publishes (or
fails, in which case a joiner is re-elected leader and computes
itself).  The service's dedup guarantee — N concurrent identical
submissions, one reduction — is this module.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.nexus.h5lite import File, H5LiteError
from repro.util import atomic_io
from repro.util.validation import ReproError

RESULT_NAME = "result.h5"
META_NAME = "meta.json"


class ResultStoreError(ReproError):
    """Store I/O or integrity failure."""


def _array_digest(arr: np.ndarray) -> str:
    a = np.ascontiguousarray(arr)
    h = hashlib.blake2b(digest_size=16)
    h.update(str(a.dtype).encode())
    h.update(repr(a.shape).encode())
    h.update(a.data)
    return h.hexdigest()


@dataclass
class StoredResult:
    """One committed entry, digest-verified at load time."""

    digest: str
    path: str
    binmd_signal: np.ndarray
    binmd_error_sq: Optional[np.ndarray]
    mdnorm_signal: np.ndarray
    cross_section: np.ndarray
    meta: Dict[str, Any] = field(default_factory=dict)


class _Flight:
    """One in-flight computation of a digest (leader + joiners)."""

    def __init__(self, digest: str, leader: str) -> None:
        self.digest = digest
        self.leader = leader
        self.leader_uid: Optional[str] = None  # leader's job-span uid
        self.done = threading.Event()
        self.result: Optional[StoredResult] = None
        self.error: Optional[BaseException] = None
        self.joiners = 0


class ResultStore:
    """Content-addressed persistence + the single-flight registry."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self._lock = threading.Lock()
        self._flights: Dict[str, _Flight] = {}
        self.hits = 0
        self.misses = 0
        self.coalesced = 0

    # -- layout -----------------------------------------------------------
    def _entry_dir(self, digest: str) -> str:
        return os.path.join(self.root, digest)

    def has(self, digest: str) -> bool:
        return atomic_io.is_complete(self._entry_dir(digest))

    # -- single-flight ----------------------------------------------------
    def begin(
        self, digest: str, owner: str
    ) -> Tuple[str, Optional[StoredResult], Optional[_Flight]]:
        """Join the digest's flight: ``("hit", result, None)`` when the
        entry is already committed, ``("lead", None, flight)`` when this
        owner must compute, ``("join", None, flight)`` to wait on the
        current leader."""
        with self._lock:
            if self.has(digest):
                self.hits += 1
                stored = self._load_unlocked(digest)
                return ("hit", stored, None)
            flight = self._flights.get(digest)
            if flight is not None and not flight.done.is_set():
                flight.joiners += 1
                self.coalesced += 1
                return ("join", None, flight)
            flight = _Flight(digest, owner)
            self._flights[digest] = flight
            self.misses += 1
            return ("lead", None, flight)

    def complete(self, flight: _Flight, stored: StoredResult) -> None:
        """Leader publishes: wake every joiner with the result."""
        with self._lock:
            flight.result = stored
            flight.done.set()
            self._flights.pop(flight.digest, None)

    def fail(self, flight: _Flight, exc: BaseException) -> None:
        """Leader failed/was cancelled: joiners re-elect via begin()."""
        with self._lock:
            flight.error = exc
            flight.done.set()
            self._flights.pop(flight.digest, None)

    # -- persistence ------------------------------------------------------
    def put(
        self,
        digest: str,
        *,
        binmd_signal: np.ndarray,
        binmd_error_sq: Optional[np.ndarray],
        mdnorm_signal: np.ndarray,
        cross_section: np.ndarray,
        meta: Optional[Dict[str, Any]] = None,
    ) -> StoredResult:
        """Commit one entry (idempotent: an existing entry wins)."""
        entry = self._entry_dir(digest)
        os.makedirs(entry, exist_ok=True)
        if atomic_io.is_complete(entry):
            with self._lock:
                return self._load_unlocked(digest)
        digests = {
            "binmd": _array_digest(binmd_signal),
            "mdnorm": _array_digest(mdnorm_signal),
            "cross_section": _array_digest(cross_section),
        }
        if binmd_error_sq is not None:
            digests["binmd_error_sq"] = _array_digest(binmd_error_sq)
        path = os.path.join(entry, RESULT_NAME)
        with atomic_io.atomic_path(path) as tmp:
            with File(tmp, "w") as f:
                grp = f.create_group("result")
                grp.attrs["config_digest"] = digest
                grp.create_dataset("binmd_signal", data=binmd_signal)
                if binmd_error_sq is not None:
                    grp.create_dataset("binmd_error_sq", data=binmd_error_sq)
                grp.create_dataset("mdnorm_signal", data=mdnorm_signal)
                grp.create_dataset("cross_section", data=cross_section)
        doc = {"digest": digest, "digests": digests, "meta": meta or {}}
        atomic_io.atomic_write_text(
            os.path.join(entry, META_NAME),
            json.dumps(doc, indent=1, sort_keys=True) + "\n",
        )
        atomic_io.mark_complete(entry, digest + "\n")
        return StoredResult(
            digest=digest, path=path,
            binmd_signal=binmd_signal, binmd_error_sq=binmd_error_sq,
            mdnorm_signal=mdnorm_signal, cross_section=cross_section,
            meta=dict(meta or {}),
        )

    def get(self, digest: str) -> Optional[StoredResult]:
        """Load a committed entry (None when absent)."""
        with self._lock:
            if not self.has(digest):
                return None
            return self._load_unlocked(digest)

    def _load_unlocked(self, digest: str) -> StoredResult:
        entry = self._entry_dir(digest)
        meta_path = os.path.join(entry, META_NAME)
        try:
            with open(meta_path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ResultStoreError(
                f"unreadable result metadata {meta_path!r}: {exc}"
            ) from exc
        path = os.path.join(entry, RESULT_NAME)
        try:
            with File(path, "r") as f:
                grp = f["result"]
                binmd = grp.read("binmd_signal")
                err = (grp.read("binmd_error_sq")
                       if "binmd_error_sq" in grp else None)
                mdnorm = grp.read("mdnorm_signal")
                xsec = grp.read("cross_section")
        except (OSError, H5LiteError) as exc:
            raise ResultStoreError(
                f"stored result {digest} is unreadable: {exc}"
            ) from exc
        want = doc.get("digests", {})
        checks = [("binmd", binmd), ("mdnorm", mdnorm),
                  ("cross_section", xsec)]
        if err is not None:
            checks.append(("binmd_error_sq", err))
        for name, arr in checks:
            expect = want.get(name)
            if expect is not None and _array_digest(arr) != expect:
                raise ResultStoreError(
                    f"stored result {digest}: {name} digest mismatch"
                )
        return StoredResult(
            digest=digest, path=path,
            binmd_signal=binmd, binmd_error_sq=err,
            mdnorm_signal=mdnorm, cross_section=xsec,
            meta=dict(doc.get("meta", {})),
        )

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "coalesced": self.coalesced,
                "in_flight": len(self._flights),
            }
