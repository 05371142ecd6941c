"""Deterministic, seedable fault injection + retry/backoff machinery.

The paper's production setting — dozens of NeXus run files reduced
across MPI ranks on shared OLCF resources — is exactly the regime where
individual file loads, ranks or kernels fail mid-campaign.  This module
is the reproduction's *failure model*:

* a :class:`FaultPlan` describes **what** goes wrong (IO errors,
  corrupt/truncated payloads, slow reads, kernel exceptions, rank
  crashes), **where** (named *fault sites* such as
  ``"nexus.read_events"`` or ``"kernel.mdnorm"``), and **how often**
  (per-site probability with an optional total-injection budget);
* instrumented code declares sites by calling
  :func:`fault_point("nexus.read_events", run=i) <fault_point>`; with
  no active plan the call is a few-nanosecond no-op;
* injection is **deterministic**: every ``(site, rank)`` pair owns an
  independent PRNG stream seeded from ``(plan.seed, site, rank)``, so
  the same plan seed reproduces the same fault schedule — and therefore
  the same retry counts and quarantine set — across repeated runs and
  across thread interleavings of the in-process MPI world;
* :func:`retry_call` is the recovery half: per-site retry bounded by
  an attempt budget, with exponential backoff + deterministic jitter,
  raising :class:`RetryExhaustedError` (chaining the last failure)
  when the attempts are spent so callers can quarantine.

Every injection and retry emits trace counters
(``fault.injected[.<site>.<kind>]``, ``retry.attempt[.<site>]``,
``retry.exhausted``) into :func:`repro.util.trace.active_tracer`, so
``repro trace`` summarizes recovery behaviour from the records alone.

An **ambient** plan may be installed process-wide via the
``REPRO_FAULT_PLAN`` environment variable (a JSON plan file) — this is
what the CI chaos job uses to run the whole tier-1 suite under
low-probability background faults.  Specs with ``scope="recovery"``
only fire inside a :func:`retry_call` attempt (i.e. where the pipeline
is armed to recover), which keeps ambient error injection honest
without failing unprotected code paths.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.util import trace as _trace
from repro.util.validation import ReproError, require

#: every fault kind a spec may request
FAULT_KINDS = (
    "io_error",      # transient I/O failure (InjectedIOError, an OSError)
    "corrupt",       # payload checksum mismatch (CorruptFileError)
    "truncate",      # short read / truncated payload (TruncatedFileError)
    "slow",          # injected latency (sleeps, raises nothing)
    "kernel_error",  # kernel launch failure (InjectedKernelError)
    "rank_crash",    # the whole rank dies (RankCrashError, non-retryable)
)

#: fault-plan JSON schema version
PLAN_SCHEMA_VERSION = 1


class FaultError(ReproError):
    """Misconfigured fault plan or fault-machinery misuse."""


class InjectedFault(ReproError):
    """Base class of every exception raised by :func:`fault_point`."""

    def __init__(self, site: str, kind: str, seq: int) -> None:
        super().__init__(f"injected {kind} fault at {site!r} (hit #{seq})")
        self.site = site
        self.kind = kind
        self.seq = seq


class InjectedIOError(InjectedFault, OSError):
    """A transient I/O failure (retryable)."""


class InjectedKernelError(InjectedFault):
    """A kernel launch/execution failure (retryable)."""


class RankCrashError(InjectedFault):
    """The rank hosting this call dies (NOT retryable — the MPI layer
    redistributes the rank's remaining runs to survivors)."""


class RetryExhaustedError(ReproError):
    """A retryable unit failed on every attempt; ``__cause__`` is the
    last failure.  Callers quarantine the unit (or re-raise)."""

    def __init__(self, site: str, attempts: int, last: BaseException) -> None:
        super().__init__(
            f"{site!r} failed after {attempts} attempts: {last!r}"
        )
        self.site = site
        self.attempts = attempts
        self.last = last


# ---------------------------------------------------------------------------
# the plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: *kind* at *site* with *probability*.

    ``site`` may be an exact site name or an ``fnmatch`` glob
    (``"kernel.*"``).  ``max_hits`` caps the total number of injections
    this spec performs (``None`` = unbounded).  ``ranks`` / ``runs``
    restrict injection to specific MPI ranks / run indices (matched
    against the ``rank``/``run`` context of the fault point).
    ``scope="recovery"`` restricts injection to call sites currently
    protected by :func:`retry_call` — the setting ambient chaos plans
    use so unprotected paths are never failed.
    """

    site: str
    kind: str
    probability: float = 1.0
    max_hits: Optional[int] = None
    delay_s: float = 0.0
    ranks: Optional[Tuple[int, ...]] = None
    runs: Optional[Tuple[int, ...]] = None
    scope: str = "any"

    def __post_init__(self) -> None:
        require(self.kind in FAULT_KINDS,
                f"unknown fault kind {self.kind!r} (expected one of {FAULT_KINDS})")
        require(0.0 <= self.probability <= 1.0,
                "fault probability must be in [0, 1]")
        require(self.scope in ("any", "recovery"),
                "fault scope must be 'any' or 'recovery'")
        require(self.delay_s >= 0.0, "delay_s must be >= 0")
        if self.max_hits is not None:
            require(self.max_hits >= 0, "max_hits must be >= 0")

    def matches(self, site: str, rank: Optional[int], run: Optional[int]) -> bool:
        if site != self.site and not fnmatch.fnmatchcase(site, self.site):
            return False
        if self.ranks is not None and (rank is None or rank not in self.ranks):
            return False
        if self.runs is not None and (run is None or run not in self.runs):
            return False
        return True

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"site": self.site, "kind": self.kind,
                               "probability": self.probability}
        if self.max_hits is not None:
            out["max_hits"] = self.max_hits
        if self.delay_s:
            out["delay_s"] = self.delay_s
        if self.ranks is not None:
            out["ranks"] = list(self.ranks)
        if self.runs is not None:
            out["runs"] = list(self.runs)
        if self.scope != "any":
            out["scope"] = self.scope
        return out

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "FaultSpec":
        return cls(
            site=doc["site"],
            kind=doc["kind"],
            probability=float(doc.get("probability", 1.0)),
            max_hits=doc.get("max_hits"),
            delay_s=float(doc.get("delay_s", 0.0)),
            ranks=tuple(doc["ranks"]) if doc.get("ranks") is not None else None,
            runs=tuple(doc["runs"]) if doc.get("runs") is not None else None,
            scope=doc.get("scope", "any"),
        )


def _stream_seed(seed: int, site: str, rank: Optional[int]) -> int:
    """Deterministic 64-bit seed of the ``(site, rank)`` draw stream."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(seed)).encode())
    h.update(b"\x00")
    h.update(site.encode())
    h.update(b"\x00")
    h.update(str(-1 if rank is None else int(rank)).encode())
    return int.from_bytes(h.digest(), "little")


class _LCG:
    """A tiny deterministic uniform stream (64-bit LCG, MMIX constants).

    Deliberately not ``random.Random``: the draw sequence is part of
    the fault plan's reproducibility contract, so it must be pinned to
    arithmetic we own, not a stdlib implementation detail.
    """

    __slots__ = ("state",)
    _A = 6364136223846793005
    _C = 1442695040888963407
    _M = 1 << 64

    def __init__(self, seed: int) -> None:
        self.state = seed % self._M

    def uniform(self) -> float:
        self.state = (self._A * self.state + self._C) % self._M
        return (self.state >> 11) / float(1 << 53)


class FaultPlan:
    """A deterministic fault schedule: specs + a seed + draw state.

    Thread-safe.  Every ``(site, rank)`` pair draws from its own stream,
    so concurrent MPI-rank threads cannot perturb each other's
    schedules.  :meth:`reset` rewinds all draw state (a fresh plan with
    the same seed is equivalent).
    """

    def __init__(self, specs: Sequence[FaultSpec], *, seed: int = 0,
                 label: str = "") -> None:
        self.specs = list(specs)
        self.seed = int(seed)
        self.label = label
        self._lock = threading.Lock()
        self._streams: Dict[Tuple[str, Optional[int]], _LCG] = {}
        self._hits: List[int] = [0] * len(self.specs)
        self._site_seq: Dict[str, int] = {}
        self.events: List[Dict[str, Any]] = []

    # -- draw machinery ---------------------------------------------------
    def reset(self) -> None:
        """Rewind all draw state (streams, budgets, recorded events)."""
        with self._lock:
            self._streams.clear()
            self._hits = [0] * len(self.specs)
            self._site_seq.clear()
            self.events.clear()

    def _stream(self, site: str, rank: Optional[int]) -> _LCG:
        key = (site, rank)
        stream = self._streams.get(key)
        if stream is None:
            stream = self._streams[key] = _LCG(
                _stream_seed(self.seed, site, rank)
            )
        return stream

    def draw(
        self,
        site: str,
        *,
        rank: Optional[int],
        run: Optional[int],
        in_recovery: bool,
    ) -> Optional[Tuple[FaultSpec, int]]:
        """One injection decision at ``site``; returns ``(spec, seq)``
        when a fault fires, advancing exactly one uniform draw per
        matching spec (first firing spec wins)."""
        with self._lock:
            fired: Optional[Tuple[FaultSpec, int]] = None
            for j, spec in enumerate(self.specs):
                if not spec.matches(site, rank, run):
                    continue
                if spec.scope == "recovery" and not in_recovery:
                    continue
                u = self._stream(site, rank).uniform()
                if fired is not None:
                    continue  # draws still advance: schedule is stable
                if self._hits[j] >= (spec.max_hits
                                     if spec.max_hits is not None else 1 << 62):
                    continue
                if u < spec.probability:
                    self._hits[j] += 1
                    seq = self._site_seq.get(site, 0) + 1
                    self._site_seq[site] = seq
                    self.events.append({
                        "site": site, "kind": spec.kind, "rank": rank,
                        "run": run, "seq": seq,
                    })
                    fired = (spec, seq)
            return fired

    # -- introspection ----------------------------------------------------
    def schedule_signature(self) -> Tuple[Tuple[str, str, Any, Any, int], ...]:
        """Hashable summary of every injection so far (for determinism
        assertions): ``(site, kind, rank, run, seq)`` per event, sorted
        (rank-thread completion order is not deterministic; the per-rank
        schedule is)."""
        with self._lock:
            return tuple(sorted(
                (e["site"], e["kind"],
                 -1 if e["rank"] is None else e["rank"],
                 -1 if e["run"] is None else e["run"], e["seq"])
                for e in self.events
            ))

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            by_site: Dict[str, int] = {}
            by_kind: Dict[str, int] = {}
            for e in self.events:
                by_site[e["site"]] = by_site.get(e["site"], 0) + 1
                by_kind[e["kind"]] = by_kind.get(e["kind"], 0) + 1
            return {"injected": len(self.events),
                    "by_site": by_site, "by_kind": by_kind}

    # -- (de)serialization -------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": PLAN_SCHEMA_VERSION,
            "seed": self.seed,
            "label": self.label,
            "specs": [s.to_json() for s in self.specs],
        }

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "FaultPlan":
        schema = doc.get("schema", PLAN_SCHEMA_VERSION)
        if schema != PLAN_SCHEMA_VERSION:
            raise FaultError(
                f"unsupported fault-plan schema {schema!r} "
                f"(expected {PLAN_SCHEMA_VERSION})"
            )
        return cls(
            [FaultSpec.from_json(s) for s in doc.get("specs", [])],
            seed=int(doc.get("seed", 0)),
            label=doc.get("label", ""),
        )

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise FaultError(f"{path}: not a JSON fault plan: {exc}") from exc
        plan = cls.from_json(doc)
        if not plan.label:
            plan.label = os.path.basename(path)
        return plan

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"FaultPlan(seed={self.seed}, specs={len(self.specs)}, "
                f"injected={len(self.events)})")


# ---------------------------------------------------------------------------
# active-plan management (+ the ambient env plan)
# ---------------------------------------------------------------------------

_UNSET = object()
_plan_lock = threading.Lock()
_active_plan: Any = _UNSET  # _UNSET -> lazily resolve REPRO_FAULT_PLAN


def _ambient_from_env() -> Optional[FaultPlan]:
    path = os.environ.get("REPRO_FAULT_PLAN")
    if not path:
        return None
    return FaultPlan.from_file(path)


def active_plan() -> Optional[FaultPlan]:
    """The plan :func:`fault_point` currently consults (None = none)."""
    global _active_plan
    with _plan_lock:
        if _active_plan is _UNSET:
            _active_plan = _ambient_from_env()
        return _active_plan


def set_fault_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install the process-wide plan (None disables injection)."""
    global _active_plan
    with _plan_lock:
        _active_plan = plan
        return plan


@contextmanager
def use_fault_plan(plan: Optional[FaultPlan]):
    """Install ``plan`` for a block, restoring the previous plan after."""
    global _active_plan
    with _plan_lock:
        prev = _active_plan
        _active_plan = plan
    try:
        yield plan
    finally:
        with _plan_lock:
            _active_plan = prev


# ---------------------------------------------------------------------------
# recovery scope (retry protection)
# ---------------------------------------------------------------------------

_recovery_ctx = threading.local()


def in_recovery() -> bool:
    """True while the calling thread executes a :func:`retry_call`
    attempt (i.e. failures here will be retried/quarantined)."""
    return getattr(_recovery_ctx, "depth", 0) > 0


@contextmanager
def recovery_scope():
    """Mark the calling thread as retry-protected for a block."""
    _recovery_ctx.depth = getattr(_recovery_ctx, "depth", 0) + 1
    try:
        yield
    finally:
        _recovery_ctx.depth -= 1


# ---------------------------------------------------------------------------
# the fault point
# ---------------------------------------------------------------------------

def _raise_fault(spec: FaultSpec, site: str, seq: int) -> None:
    kind = spec.kind
    if kind == "slow":
        time.sleep(spec.delay_s)
        return
    if kind == "io_error":
        raise InjectedIOError(site, kind, seq)
    if kind == "kernel_error":
        raise InjectedKernelError(site, kind, seq)
    if kind == "rank_crash":
        raise RankCrashError(site, kind, seq)
    # corrupt / truncate reuse the real on-disk error taxonomy so the
    # recovery path exercises exactly the handlers production reads hit
    from repro.nexus.h5lite import CorruptFileError, TruncatedFileError

    if kind == "corrupt":
        raise CorruptFileError(f"injected corrupt payload at {site!r} (hit #{seq})")
    raise TruncatedFileError(f"injected truncated payload at {site!r} (hit #{seq})")


def fault_point(site: str, **ctx: Any) -> None:
    """Declare a named fault site; inject per the active plan.

    ``ctx`` may carry ``rank`` and ``run`` for spec filtering (``rank``
    defaults to the thread's trace rank attribution).  No active plan →
    near-zero cost.
    """
    plan = active_plan()
    if plan is None:
        return
    rank = ctx.get("rank", _trace.current_rank())
    run = ctx.get("run")
    fired = plan.draw(
        site,
        rank=None if rank is None else int(rank),
        run=None if run is None else int(run),
        in_recovery=in_recovery(),
    )
    if fired is None:
        return
    spec, seq = fired
    tracer = _trace.active_tracer()
    tracer.count("fault.injected")
    tracer.count(f"fault.injected.{site}.{spec.kind}")
    _raise_fault(spec, site, seq)


# ---------------------------------------------------------------------------
# retry with exponential backoff + deterministic jitter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """Per-site retry budget: attempts and backoff shape."""

    max_attempts: int = 4
    base_delay_s: float = 0.0
    multiplier: float = 2.0
    max_delay_s: float = 1.0
    #: jitter fraction in [0, 1): delay *= (1 + jitter * u)
    jitter: float = 0.5

    def __post_init__(self) -> None:
        require(self.max_attempts >= 1, "max_attempts must be >= 1")
        require(self.base_delay_s >= 0.0, "base_delay_s must be >= 0")
        require(self.multiplier >= 1.0, "multiplier must be >= 1")
        require(0.0 <= self.jitter < 1.0, "jitter must be in [0, 1)")

    def delay(self, attempt: int, u: float) -> float:
        """Backoff before retry #``attempt`` (1-based), ``u`` in [0,1)."""
        raw = self.base_delay_s * (self.multiplier ** (attempt - 1))
        return min(self.max_delay_s, raw) * (1.0 + self.jitter * u)


#: the exception types retry_call retries (everything else propagates)
def default_retryable() -> Tuple[type, ...]:
    from repro.nexus.h5lite import H5LiteError

    return (OSError, H5LiteError, InjectedKernelError)


def retry_call(
    fn: Callable[[int], Any],
    *,
    site: str,
    policy: Optional[RetryPolicy] = None,
    on_retry: Optional[Callable[[BaseException, int], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> Any:
    """Run ``fn(attempt)`` under the retry policy (attempt is 1-based).

    Only :func:`default_retryable` failures are retried; everything
    else (including :class:`RankCrashError`) propagates immediately.
    After ``policy.max_attempts`` failed attempts,
    :class:`RetryExhaustedError` is raised chaining the last failure.
    ``on_retry(exc, attempt)`` runs before each re-attempt (e.g. cache
    invalidation after a corrupt read).  Backoff jitter is drawn from a
    stream seeded by ``site``, so sleep schedules are reproducible;
    ``sleep`` is injectable so they are testable without real waiting.
    """
    policy = policy or RetryPolicy()
    retryable = default_retryable()
    tracer = _trace.active_tracer()
    jitter_stream = _LCG(_stream_seed(0xBACC0FF, site, _trace.current_rank()))
    last: Optional[BaseException] = None
    for attempt in range(1, policy.max_attempts + 1):
        try:
            with recovery_scope():
                with tracer.span("recover.attempt", kind="recovery",
                                 site=site, attempt=int(attempt)):
                    return fn(attempt)
        except RankCrashError:
            raise  # rank death is never retried in place
        except retryable as exc:
            last = exc
            tracer.count("retry.attempt")
            tracer.count(f"retry.attempt.{site}")
            if attempt >= policy.max_attempts:
                break
            if on_retry is not None:
                on_retry(exc, attempt)
            delay = policy.delay(attempt, jitter_stream.uniform())
            if delay > 0.0:
                with tracer.span("recover.backoff", kind="recovery",
                                 site=site, delay_s=float(delay)):
                    sleep(delay)
    tracer.count("retry.exhausted")
    tracer.count(f"retry.exhausted.{site}")
    assert last is not None
    raise RetryExhaustedError(site, attempt, last) from last
