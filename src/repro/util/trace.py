"""Structured tracing + metrics for the reduction pipeline.

The paper's entire results section is per-stage wall-clock accounting
(UpdateEvents / MDNorm / BinMD, first-call vs warm, per backend, per MPI
rank).  :class:`~repro.util.timers.StageTimings` only carries flat sums;
this module is the machine-readable record *behind* those sums:

* hierarchical **spans** — ``with tracer.span("mdnorm", run=3): ...`` —
  with monotonic timestamps, per-span attributes and strict nesting,
  kept on **thread-local stacks** so the in-process MPI ranks
  (:func:`repro.mpi.runner.run_world` threads) each produce their own
  attributed stream;
* **counters** and **gauges** (events processed, geometry-cache
  hits/misses, bytes read by :mod:`repro.nexus.h5lite`, device transfer
  volumes);
* **exporters**: JSON-lines (one record per line, schema below), one
  Chrome-trace writer (:func:`write_chrome_trace`, loadable in
  ``chrome://tracing`` / Perfetto) over any number of ``(meta,
  records)`` pairs, and a plain-text summary table that reproduces the
  paper's WCT rows from the trace alone;
* a **derived view**: :func:`stage_timings_from_records` rebuilds an
  API-compatible ``StageTimings`` from the stage spans — and because
  ``StageTimings.stage`` itself drives its timers from the span
  timestamps (one clock read per edge, shared by both), the derived
  totals equal the legacy accumulator **bit for bit**.

Tracing is **opt-in**: the process default is :data:`DISABLED`, a
null tracer whose spans still carry timestamps (so ``StageTimings``
keeps working) but record nothing.  Enable with::

    tracer = Tracer(label="benzil")
    with use_tracer(tracer):
        workflow.run()
    tracer.write_jsonl("trace.jsonl")
    print(tracer.summary())

JSON-lines schema 4 (:data:`SCHEMA_VERSION`), the only format written
or read:

* line 1 — ``{"type": "meta", "schema": 4, "label": ..., "pid": ...,
  "epoch_unix": ..., "campaign_id": ...}``
* span — ``{"type": "span", "name", "span_id", "parent_id", "rank",
  "thread", "t0", "t1", "dur", "seq", "attrs": {...}, "uid",
  "parent_uid"}`` (``t0``/``t1`` are seconds on the tracer's monotonic
  clock, 0 at tracer creation)
* link — ``{"type": "link", "kind", "src", "dst", "seq", "attrs"}``: a
  causal edge between two span *uids* that is not a nesting edge (a
  stolen task pointing back at its planning span, a coalesced job
  pointing at the leader's reduction)
* metrics — ``{"type": "metrics", "counters": {...}, "gauges": {...}}``,
  the one record that carries every counter and gauge, written last
  and once per file (only in the ``main`` file of a
  :meth:`Tracer.write_jsonl_dir` directory), so the summary needs
  only one artifact

The span and link records form the **cross-process causal layer**:
every span carries a globally unique ``uid``
(``"{rank}:{namespace}:{span_id}"`` — the namespace defaults to the
pid) next to the process-local integer ids,
and a ``parent_uid`` that can cross process/thread boundaries where
``parent_id`` never does.  The dispatching side of an execution
boundary captures ``span.uid``; the executing side re-enters it with
:func:`parent_scope`, so its root spans record the causal edge.  All
files of one campaign share the meta ``campaign_id`` (see
:func:`new_campaign_id`) and :mod:`repro.util.tracedag` merges them
back into one validated DAG.

:func:`load_file`, which every reader goes through, refuses a file of
any other schema (the schema-1 to -3 files of earlier versions
included) with a :class:`TraceError` naming the version found and the
one expected: re-record the trace.  The CI trace-smoke job runs
:func:`validate_file` on every push.  Profiled spans additionally
carry a ``perf`` attribute (raw work quantities) consumed by
:mod:`repro.util.perf` — attached only when :attr:`Tracer.enabled` is
true, which is never the case for :class:`NullTracer` (zero derived-
metric work with tracing off).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.util.validation import ReproError

#: JSON-lines schema version written to trace files — and the only one
#: :func:`load_file` reads
SCHEMA_VERSION = 4

#: record keys every span record must carry
SPAN_KEYS = (
    "type", "name", "span_id", "parent_id", "rank", "thread",
    "t0", "t1", "dur", "seq", "attrs", "uid", "parent_uid",
)

#: record keys every link record must carry
LINK_KEYS = ("type", "kind", "src", "dst", "seq", "attrs")

#: valid record types of the JSON-lines stream
RECORD_TYPES = ("meta", "span", "metrics", "link")


def new_campaign_id(digest: str = "", nonce: Optional[bytes] = None) -> str:
    """A fresh 128-bit campaign id (32 hex chars).

    Derived from the campaign's config ``digest`` plus a random
    ``nonce``, so two submissions of the same configuration still get
    distinct campaigns while the id remains reproducible when the
    nonce is pinned (tests).
    """
    import hashlib

    h = hashlib.blake2b(digest_size=16)
    h.update(str(digest).encode())
    h.update(nonce if nonce is not None else os.urandom(16))
    return h.hexdigest()


class TraceError(ReproError):
    """Tracing misuse or a malformed trace file."""


# ---------------------------------------------------------------------------
# per-thread context (rank attribution)
# ---------------------------------------------------------------------------

_thread_ctx = threading.local()


def set_current_rank(rank: Optional[int]) -> None:
    """Attribute spans opened by this thread to an MPI rank (None clears)."""
    _thread_ctx.rank = rank


def current_rank() -> Optional[int]:
    """The MPI rank attributed to this thread (None outside ``run_world``)."""
    return getattr(_thread_ctx, "rank", None)


@contextmanager
def rank_scope(rank: Optional[int]) -> Iterator[None]:
    """Set the thread's rank attribution for the duration of a block."""
    prev = current_rank()
    set_current_rank(rank)
    try:
        yield
    finally:
        set_current_rank(prev)


def set_remote_parent(uid: Optional[str]) -> None:
    """Declare a cross-boundary parent uid for this thread's root spans
    (None clears).  Prefer :func:`parent_scope`."""
    _thread_ctx.parent_uid = uid


def remote_parent() -> Optional[str]:
    """The cross-boundary parent uid adopted by this thread, if any."""
    return getattr(_thread_ctx, "parent_uid", None)


@contextmanager
def parent_scope(uid: Optional[str]) -> Iterator[None]:
    """Adopt ``uid`` as the causal parent of this thread's root spans.

    This is the cross-process propagation primitive: the dispatching side
    of an execution boundary (rank spawn, shard task, steal) captures
    ``span.uid``, and the executing thread re-enters it
    here so spans it opens at stack depth zero record the edge in
    ``parent_uid`` — the process-local ``parent_id`` namespace is
    never shared across threads or processes.
    """
    prev = remote_parent()
    set_remote_parent(uid)
    try:
        yield
    finally:
        set_remote_parent(prev)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class Span:
    """One timed region: name + attributes + [t0, t1] on the monotonic
    clock.  Create via :meth:`Tracer.begin` / :meth:`Tracer.span`."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "rank", "thread",
                 "t0", "t1", "uid", "parent_uid")

    def __init__(
        self,
        name: str,
        attrs: Dict[str, Any],
        span_id: int,
        parent_id: Optional[int],
        rank: Optional[int],
        thread: str,
        t0: float,
        uid: Optional[str] = None,
        parent_uid: Optional[str] = None,
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self.rank = rank
        self.thread = thread
        self.t0 = t0
        self.t1: Optional[float] = None
        #: globally unique id (``"{rank}:{namespace}:{span_id}"``);
        #: None on :class:`NullTracer` spans
        self.uid = uid
        #: the causal parent's uid — in-process nesting *or* the
        #: cross-boundary parent adopted via :func:`parent_scope`
        self.parent_uid = parent_uid

    @property
    def duration(self) -> float:
        if self.t1 is None:
            raise TraceError(f"span {self.name!r} has not finished")
        return self.t1 - self.t0

    @property
    def finished(self) -> bool:
        return self.t1 is not None

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes after the span opened."""
        self.attrs.update(attrs)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"dur={self.duration:.6f}s" if self.finished else "open"
        return f"Span({self.name!r}, id={self.span_id}, {state})"


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------

class Tracer:
    """Process-wide structured tracer with thread-local span stacks.

    Thread-safe: each thread nests spans on its own stack (so the
    simulated MPI ranks and the threads back end cannot corrupt each
    other's hierarchy); the finished-record list and the counter/gauge
    tables are guarded by one lock.
    """

    enabled = True

    def __init__(self, label: str = "", *,
                 campaign_id: Optional[str] = None,
                 uid_ns: Optional[str] = None) -> None:
        self.label = label
        #: the campaign this trace belongs to — every participant of
        #: one campaign (its ranks) shares it
        self.campaign_id = campaign_id or new_campaign_id(label)
        #: uid namespace — distinguishes tracers that could otherwise
        #: collide on a ``(rank, span_id)`` pair.  Defaults to the pid.
        self.uid_ns = uid_ns if uid_ns is not None else str(os.getpid())
        self.epoch_unix = time.time()
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._records: List[Dict[str, Any]] = []
        self._counters: "OrderedDict[str, float]" = OrderedDict()
        self._gauges: "OrderedDict[str, float]" = OrderedDict()
        self._tls = threading.local()
        # itertools.count.__next__ never releases the GIL, so span ids
        # stay unique across threads without taking the record lock on
        # the begin() hot path
        self._ids = itertools.count()
        self._seq = 0
        # uid strings share a per-rank prefix; minting one f-string per
        # span would cost ~20% of the whole span overhead budget
        self._uid_prefix: Dict[Optional[int], str] = {}

    # -- span lifecycle ---------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def begin(self, name: str, **attrs: Any) -> Span:
        """Open a span on this thread's stack (prefer :meth:`span`)."""
        if not name:
            raise TraceError("span name must be non-empty")
        tls = self._tls
        stack = getattr(tls, "stack", None)
        if stack is None:
            stack = tls.stack = []
        if stack:
            top = stack[-1]
            parent_id: Optional[int] = top.span_id
            parent_uid: Optional[str] = top.uid
        else:
            parent_id = None
            parent_uid = getattr(_thread_ctx, "parent_uid", None)
        span_id = next(self._ids)
        rank = getattr(_thread_ctx, "rank", None)
        prefix = self._uid_prefix.get(rank)
        if prefix is None:
            prefix = self._uid_prefix.setdefault(
                rank, f"{'-' if rank is None else rank}:{self.uid_ns}:")
        tname = getattr(tls, "tname", None)
        if tname is None:
            tname = tls.tname = threading.current_thread().name
        span = Span(
            name=name,
            attrs=attrs,
            span_id=span_id,
            parent_id=parent_id,
            rank=rank,
            thread=tname,
            uid=prefix + str(span_id),
            parent_uid=parent_uid,
            t0=time.perf_counter() - self._epoch,
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> Span:
        """Close a span; it must be the innermost open span of this
        thread (strict LIFO — this is what makes nesting provable)."""
        stack = self._stack()
        if not stack or stack[-1] is not span:
            if span in stack:
                raise TraceError(
                    f"span {span.name!r} closed out of order (strict LIFO)"
                )
            raise TraceError(
                f"span {span.name!r} was not opened by thread "
                f"{threading.current_thread().name!r} (spans must never "
                f"cross threads)"
            )
        stack.pop()
        span.t1 = time.perf_counter() - self._epoch
        self._record(span)
        return span

    def _record(self, span: Span) -> None:
        rec = {
            "type": "span",
            "name": span.name,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "rank": span.rank,
            "thread": span.thread,
            "t0": span.t0,
            "t1": span.t1,
            "dur": span.t1 - span.t0,  # type: ignore[operator]
            "attrs": span.attrs,
            "uid": span.uid,
            "parent_uid": span.parent_uid,
        }
        with self._lock:
            rec["seq"] = self._seq
            self._seq += 1
            self._records.append(rec)

    # -- cross-process causality ------------------------------------------
    def link(self, src: Optional[str], dst: Optional[str], *,
             kind: str = "link", **attrs: Any) -> None:
        """Record a causal edge between two span uids.

        Used where the relationship is a *handoff* rather than a
        nesting: a stolen task's executing span → its planning span.
        A no-op when either end is unknown (NullTracer spans carry no
        uid), so propagation sites never have to special-case tracing
        off.
        """
        if not src or not dst:
            return
        rec: Dict[str, Any] = {"type": "link", "kind": str(kind),
                               "src": str(src), "dst": str(dst),
                               "attrs": dict(attrs)}
        with self._lock:
            rec["seq"] = self._seq
            self._seq += 1
            self._records.append(rec)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """``with tracer.span("mdnorm", run=3, backend="threads"):``"""
        sp = self.begin(name, **attrs)
        try:
            yield sp
        finally:
            self.end(sp)

    def current_span(self) -> Optional[Span]:
        """The innermost open span of the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- metrics ----------------------------------------------------------
    def count(self, name: str, delta: float = 1.0) -> None:
        """Accumulate a named counter (thread-safe)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + delta

    def gauge(self, name: str, value: float) -> None:
        """Set a named gauge (last write wins)."""
        with self._lock:
            self._gauges[name] = float(value)

    @property
    def counters(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._counters)

    @property
    def gauges(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._gauges)

    # -- inspection -------------------------------------------------------
    @property
    def records(self) -> List[Dict[str, Any]]:
        """Finished span records in completion order (copies the list)."""
        with self._lock:
            return list(self._records)

    @property
    def n_spans(self) -> int:
        with self._lock:
            return len(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._counters.clear()
            self._gauges.clear()

    # -- exporters --------------------------------------------------------
    def _meta(self) -> Dict[str, Any]:
        return {
            "type": "meta",
            "schema": SCHEMA_VERSION,
            "label": self.label,
            "pid": os.getpid(),
            "epoch_unix": self.epoch_unix,
            "campaign_id": self.campaign_id,
            "tool": "repro.util.trace",
        }

    def _metrics(self) -> Dict[str, Any]:
        return {"type": "metrics", "counters": self.counters,
                "gauges": self.gauges}

    def write_jsonl(self, path: str) -> int:
        """Write the JSON-lines trace file; returns the record count."""
        return _write_lines(path, [self._meta(), *self.records,
                                   self._metrics()])

    def write_jsonl_dir(self, dir_path: str, *,
                        prefix: str = "trace") -> List[str]:
        """Write one JSON-lines file per rank stream under ``dir_path``.

        Models the real-MPI deployment where every rank writes its own
        trace file: span records split by ``rank`` (None → the
        ``main`` file, which also carries the one ``metrics``
        record), link records follow the rank encoded in their ``src``
        uid.  Every file carries the same campaign meta, so
        :mod:`repro.util.tracedag` can stitch the directory back into
        one causal DAG.  Returns the written paths.
        """
        records = self.records
        by_key: "OrderedDict[str, List[Dict[str, Any]]]" = OrderedDict()
        by_key["main"] = []
        for rec in records:
            rtype = rec.get("type")
            if rtype == "span":
                rank = rec.get("rank")
                key = "main" if rank is None else f"rank{rank}"
            elif rtype == "link":
                head = str(rec.get("src", "")).split(":", 1)[0]
                key = "main" if head in ("", "-") else f"rank{head}"
            else:
                continue
            by_key.setdefault(key, []).append(rec)
        by_key["main"].append(self._metrics())
        os.makedirs(dir_path, exist_ok=True)
        meta = self._meta()
        paths: List[str] = []
        for key, recs in by_key.items():
            path = os.path.join(dir_path, f"{prefix}-{key}.jsonl")
            _write_lines(path, [meta, *recs])
            paths.append(path)
        return paths

    def write_chrome_trace(self, path: str) -> int:
        """Write a ``chrome://tracing`` / Perfetto JSON file."""
        return write_chrome_trace(path, [(self._meta(), self.records)])

    def summary(self) -> str:
        """The trace report (:func:`summary_from_records`) of the
        records so far; ``repro trace summary`` prints the same text
        from the written file."""
        return summary_from_records(
            self.records, counters=self.counters, gauges=self.gauges,
            label=self.label,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Tracer(label={self.label!r}, spans={self.n_spans}, "
                f"counters={len(self.counters)})")


class NullTracer(Tracer):
    """The disabled tracer: spans still carry timestamps (so the
    ``StageTimings`` view keeps working), but nothing is recorded, no
    stacks are kept, and counters/gauges are dropped."""

    enabled = False

    def begin(self, name: str, **attrs: Any) -> Span:
        return Span(
            name=name, attrs=attrs, span_id=-1, parent_id=None,
            rank=None, thread="", t0=time.perf_counter() - self._epoch,
        )

    def end(self, span: Span) -> Span:
        span.t1 = time.perf_counter() - self._epoch
        return span

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        sp = self.begin(name)
        try:
            yield sp
        finally:
            sp.t1 = time.perf_counter() - self._epoch

    def current_span(self) -> Optional[Span]:
        return None

    def count(self, name: str, delta: float = 1.0) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def link(self, src: Optional[str], dst: Optional[str], *,
             kind: str = "link", **attrs: Any) -> None:
        pass


#: the process-default tracer: disabled (tracing is strictly opt-in)
DISABLED = NullTracer()

_active_lock = threading.Lock()
_active: Tracer = DISABLED


def active_tracer() -> Tracer:
    """The tracer the instrumented pipeline currently reports into."""
    return _active


def set_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Install the process-wide tracer (None resets to :data:`DISABLED`)."""
    global _active
    with _active_lock:
        _active = tracer if tracer is not None else DISABLED
        return _active


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` for a block, restoring the previous one after."""
    global _active
    with _active_lock:
        prev = _active
        _active = tracer
    try:
        yield tracer
    finally:
        with _active_lock:
            _active = prev


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _json_default(obj: Any) -> Any:
    """Best-effort JSON encoding of numpy scalars / arrays in attrs."""
    import numpy as np

    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


def _write_lines(path: str, records: Sequence[Dict[str, Any]]) -> int:
    """Write ``records`` one JSON object per line; returns the count."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, default=_json_default) + "\n")
    return len(records)


def load_file(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read a JSON-lines trace back as ``(meta, records)``.

    ``records`` holds every non-meta record (spans and links in seq
    order as written, then the metrics record).  A file whose meta is
    not schema :data:`SCHEMA_VERSION` is refused.
    """
    records: List[Dict[str, Any]] = []
    meta: Optional[Dict[str, Any]] = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"{path}:{lineno}: not JSON: {exc}") from exc
            if not isinstance(rec, dict) or "type" not in rec:
                raise TraceError(f"{path}:{lineno}: record has no 'type'")
            if rec["type"] == "meta":
                if meta is not None:
                    raise TraceError(f"{path}:{lineno}: duplicate meta record")
                meta = rec
            else:
                records.append(rec)
    if meta is None:
        raise TraceError(f"{path}: missing meta record")
    if meta.get("schema") != SCHEMA_VERSION:
        raise TraceError(
            f"{path}: trace schema {meta.get('schema')!r}; this version "
            f"reads only schema {SCHEMA_VERSION}: re-record the trace"
        )
    return meta, records


def validate_file(path: str) -> Dict[str, Any]:
    """Validate a JSON-lines trace against the schema.

    Raises :class:`TraceError` on any violation; returns a summary
    dict (span/rank/counter inventory) on success.  This is the helper
    the CI trace-smoke job runs.
    """
    return validate_records(path, *load_file(path))


def validate_records(path: str, meta: Dict[str, Any],
                     records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """:func:`validate_file`'s record checks on an already loaded
    ``(meta, records)`` pair of the file ``path`` (named in errors)."""
    campaign_id = meta.get("campaign_id")
    if not isinstance(campaign_id, str) or not campaign_id:
        raise TraceError(f"{path}: meta record has no campaign_id")
    span_ids = set()
    uids = set()
    parents = []
    names = set()
    ranks = set()
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    n_spans = 0
    n_links = 0
    n_metrics = 0
    last_seq = -1
    for i, rec in enumerate(records):
        rtype = rec.get("type")
        if rtype not in RECORD_TYPES:
            raise TraceError(f"{path}: record {i} has unknown type {rtype!r}")
        if rtype == "span":
            missing = [k for k in SPAN_KEYS if k not in rec]
            if missing:
                raise TraceError(
                    f"{path}: span record {i} missing keys {missing}"
                )
            if not isinstance(rec["name"], str) or not rec["name"]:
                raise TraceError(f"{path}: span record {i} has empty name")
            if not isinstance(rec["attrs"], dict):
                raise TraceError(f"{path}: span record {i} attrs not a dict")
            t0, t1, dur = rec["t0"], rec["t1"], rec["dur"]
            if not (isinstance(t0, (int, float)) and isinstance(t1, (int, float))):
                raise TraceError(f"{path}: span record {i} timestamps not numeric")
            if t1 < t0 or dur < 0:
                raise TraceError(f"{path}: span record {i} runs backwards")
            if abs((t1 - t0) - dur) > 1e-9:
                raise TraceError(f"{path}: span record {i} dur != t1 - t0")
            if rec["span_id"] in span_ids:
                raise TraceError(
                    f"{path}: duplicate span_id {rec['span_id']}"
                )
            if rec["seq"] <= last_seq:
                raise TraceError(f"{path}: span record {i} out of seq order")
            last_seq = rec["seq"]
            span_ids.add(rec["span_id"])
            if rec["parent_id"] is not None:
                parents.append((i, rec["parent_id"]))
            uid = rec["uid"]
            if not isinstance(uid, str) or not uid:
                raise TraceError(
                    f"{path}: span record {i} uid must be a "
                    f"non-empty string"
                )
            if uid in uids:
                raise TraceError(f"{path}: duplicate span uid {uid!r}")
            uids.add(uid)
            pu = rec["parent_uid"]
            # parent_uid may reference a span in *another* file of the
            # campaign — dangling here is legal; the merged-DAG
            # validator (repro.util.tracedag) is the one that rejects
            # orphans
            if pu is not None and (not isinstance(pu, str) or not pu):
                raise TraceError(
                    f"{path}: span record {i} parent_uid must be "
                    f"None or a non-empty string"
                )
            names.add(rec["name"])
            if rec["rank"] is not None:
                ranks.add(rec["rank"])
            n_spans += 1
        elif rtype == "link":
            missing = [k for k in LINK_KEYS if k not in rec]
            if missing:
                raise TraceError(
                    f"{path}: link record {i} missing keys {missing}"
                )
            for end in ("src", "dst"):
                if not isinstance(rec[end], str) or not rec[end]:
                    raise TraceError(
                        f"{path}: link record {i} {end} must be a "
                        f"non-empty uid"
                    )
            if not isinstance(rec["attrs"], dict):
                raise TraceError(f"{path}: link record {i} attrs not a dict")
            n_links += 1
        elif rtype == "metrics":
            n_metrics += 1
            if n_metrics > 1:
                raise TraceError(f"{path}: second metrics record {i}")
            for kind, table in (("counters", counters), ("gauges", gauges)):
                block = rec.get(kind)
                if not isinstance(block, dict):
                    raise TraceError(
                        f"{path}: metrics record {i} missing {kind!r} dict"
                    )
                for name, value in block.items():
                    if not isinstance(value, (int, float)):
                        raise TraceError(
                            f"{path}: metrics record {i} {kind} "
                            f"{name!r} value not numeric"
                        )
                    table[name] = value
    for i, pid in enumerate(p for _, p in parents):
        if pid not in span_ids:
            raise TraceError(
                f"{path}: span parent_id {pid} references no span in the file"
            )
    return {
        "schema": meta["schema"],
        "label": meta.get("label", ""),
        "campaign_id": campaign_id,
        "n_spans": n_spans,
        "n_links": n_links,
        "span_names": sorted(names),
        "ranks": sorted(ranks),
        "counters": counters,
        "gauges": gauges,
    }


# ---------------------------------------------------------------------------
# chrome trace export
# ---------------------------------------------------------------------------

def write_chrome_trace(
    path: str,
    traces: Sequence[Tuple[Dict[str, Any], Sequence[Dict[str, Any]]]],
) -> int:
    """Write span records as one Chrome-trace (``chrome://tracing`` /
    Perfetto) file.

    ``traces`` is a sequence of ``(meta, records)`` pairs — one per
    trace file (from :func:`load_file`), or a live tracer's own pair.
    Every distinct ``(pid, rank)`` pair gets its own chrome process
    (one row group per rank, one row per thread inside it), so
    per-rank files written by the same process — or files whose
    processes recycled a pid — never collide on pid/tid rows, and each
    file's timestamps are aligned onto one campaign clock via its meta
    ``epoch_unix``.  Spans are complete ("X") events with microsecond
    timestamps.  Returns the number of trace events written.
    """
    if not traces:
        raise TraceError("write_chrome_trace: no trace files given")
    base_epoch = min(float(m.get("epoch_unix", 0.0)) for m, _ in traces)
    events: List[Dict[str, Any]] = []
    pids: Dict[Tuple[Any, Any], int] = {}
    tids: Dict[Tuple[int, Any, str], int] = {}
    for meta, records in traces:
        file_pid = meta.get("pid", 0)
        offset_us = (float(meta.get("epoch_unix", base_epoch))
                     - base_epoch) * 1e6
        label = meta.get("label", "")
        for rec in records:
            if rec.get("type", "span") != "span":
                continue
            rank = rec.get("rank")
            pkey = (file_pid, rank)
            if pkey not in pids:
                pid = len(pids) + 1
                pids[pkey] = pid
                row = (f"rank {rank}" if rank is not None
                       else (label or "main"))
                events.append({
                    "ph": "M", "name": "process_name", "pid": pid,
                    "args": {"name": f"{row} (pid {file_pid})"},
                })
            pid = pids[pkey]
            tkey = (pid, rank, rec.get("thread", ""))
            if tkey not in tids:
                tid = len([k for k in tids if k[0] == pid])
                tids[tkey] = tid
                events.append({
                    "ph": "M", "name": "thread_name", "pid": pid,
                    "tid": tid,
                    "args": {"name": rec.get("thread", "") or "main"},
                })
            events.append({
                "ph": "X",
                "name": rec["name"],
                "cat": str(rec.get("attrs", {}).get("kind", "span")),
                "pid": pid,
                "tid": tids[tkey],
                "ts": rec["t0"] * 1e6 + offset_us,
                "dur": rec["dur"] * 1e6,
                "args": rec.get("attrs", {}),
            })
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                  fh, default=_json_default)
    return len(events)


# ---------------------------------------------------------------------------
# derived views: StageTimings + the paper-style summary table
# ---------------------------------------------------------------------------

def iter_spans(records: Sequence[Dict[str, Any]]) -> Iterator[Dict[str, Any]]:
    for rec in records:
        if rec.get("type", "span") == "span":
            yield rec


def _metric_table(records: Sequence[Dict[str, Any]],
                  kind: str) -> "OrderedDict[str, float]":
    out: "OrderedDict[str, float]" = OrderedDict()
    for rec in records:
        if rec.get("type") == "metrics":
            for name, value in rec.get(kind, {}).items():
                out[name] = float(value)
    return out


def counters_from_records(
    records: Sequence[Dict[str, Any]],
) -> "OrderedDict[str, float]":
    """Counter totals from the records' ``metrics`` record."""
    return _metric_table(records, "counters")


def gauges_from_records(
    records: Sequence[Dict[str, Any]],
) -> "OrderedDict[str, float]":
    """Gauge values from the records' ``metrics`` record."""
    return _metric_table(records, "gauges")


def _stage_spans(
    records: Sequence[Dict[str, Any]],
    *,
    label: Optional[str] = None,
    rank: Optional[int] = None,
) -> Iterator[Dict[str, Any]]:
    for rec in iter_spans(records):
        attrs = rec.get("attrs", {})
        if attrs.get("kind") != "stage":
            continue
        if label is not None and attrs.get("timings") != label:
            continue
        if rank is not None and rec.get("rank") != rank:
            continue
        yield rec


def stage_timings_from_records(
    records: Sequence[Dict[str, Any]],
    *,
    label: Optional[str] = None,
    rank: Optional[int] = None,
):
    """Rebuild a ``StageTimings`` from the trace's stage spans.

    Replays the spans in completion (seq) order, accumulating exactly
    the float additions the live accumulator performed — so for a
    single-threaded reduction the result equals the legacy
    ``StageTimings`` **bit for bit** (the differential tests assert
    ``==``, not ``approx``).

    ``label`` filters on the originating ``StageTimings.label`` (stage
    spans carry it as the ``timings`` attribute); ``rank`` filters one
    MPI rank's stream.
    """
    from repro.util.timers import StageTimings

    derived = StageTimings(label=label or "trace-derived")
    for rec in sorted(_stage_spans(records, label=label, rank=rank),
                      key=lambda r: r["seq"]):
        name = rec["name"]
        timer = derived.timer(name)
        timer.elapsed += rec["dur"]
        timer.ncalls += 1
        derived.first_call.setdefault(name, rec["dur"])
    return derived


def stage_totals(
    records: Sequence[Dict[str, Any]],
    *,
    label: Optional[str] = None,
    rank: Optional[int] = None,
) -> "OrderedDict[str, float]":
    """Per-stage total seconds derived from the trace alone."""
    timings = stage_timings_from_records(records, label=label, rank=rank)
    out: "OrderedDict[str, float]" = OrderedDict()
    for name in timings.stages:
        out[name] = timings.seconds(name)
    return out


#: counter prefixes that make up the recovery story of a trace
RECOVERY_COUNTER_PREFIXES = (
    "fault.injected", "retry.attempt", "retry.exhausted",
    "quarantine.", "checkpoint.", "rank.crash", "stream.dropped",
)


def recovery_summary(
    records: Sequence[Dict[str, Any]],
    *,
    counters: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """The failure/recovery story of a trace, from its records alone.

    Collects every fault/retry/quarantine/checkpoint counter plus the
    ``recover.attempt`` / ``recover.backoff`` span totals; empty dict
    when the trace saw no recovery activity (the common case — the
    block is omitted from the summary then).
    """
    out: Dict[str, float] = {}
    for name, value in (counters or {}).items():
        if name.startswith(RECOVERY_COUNTER_PREFIXES):
            out[name] = float(value)
    n_attempts = 0
    backoff_s = 0.0
    for rec in iter_spans(records):
        if rec["name"] == "recover.attempt":
            n_attempts += 1
        elif rec["name"] == "recover.backoff":
            backoff_s += float(rec.get("dur", 0.0))
    if n_attempts:
        out["recover.attempt.spans"] = float(n_attempts)
    if backoff_s:
        out["recover.backoff.seconds"] = backoff_s
    return dict(sorted(out.items()))


def summary_from_records(
    records: Sequence[Dict[str, Any]],
    *,
    counters: Optional[Dict[str, float]] = None,
    gauges: Optional[Dict[str, float]] = None,
    label: str = "",
) -> str:
    """The trace report: the paper-style WCT table and its breakdowns,
    reproduced from the trace alone.

    One block of UpdateEvents / MDNorm / BinMD / MDNorm + BinMD / Total
    rows (total, calls, first call, warm remainder) for the whole trace
    and — when the trace carries rank-attributed spans — one per rank,
    then the one per-kernel table (:class:`~repro.util.perf.PerfModel`:
    launches, seconds, rates and cold/warm seconds per span and back
    end), then the shard fan-out, stealing and recovery blocks — each
    only when the trace has their spans or counters — and the
    counter/gauge tables.  Counters/gauges default to the totals
    embedded in the records themselves (the file's ``metrics``
    record), so a written trace file is a complete artifact on its own.
    """
    # lazy: perf imports helpers from this module
    from repro.util.perf import (
        PerfModel,
        shard_summary,
        shard_table,
        steal_summary,
        steal_table,
    )
    from repro.util.timers import CANONICAL_STAGES

    if counters is None:
        counters = counters_from_records(records)
    if gauges is None:
        gauges = gauges_from_records(records)

    lines: List[str] = [f"trace summary ({label or 'unlabelled'})"]

    def block(title: str, rank: Optional[int]) -> None:
        timings = stage_timings_from_records(records, rank=rank)
        if not timings.stages:
            return
        lines.append(f"-- {title}")
        lines.append(f"  {'stage':<18s} {'total (s)':>12s} {'calls':>7s} "
                     f"{'first (s)':>12s} {'warm (s)':>12s}")
        names = [s for s in CANONICAL_STAGES
                 if s in timings.stages or s == "MDNorm + BinMD"]
        names += [s for s in timings.stages if s not in names]
        for name in names:
            if name == "MDNorm + BinMD" and "MDNorm" not in timings.stages \
                    and "BinMD" not in timings.stages:
                continue
            t = timings.stages.get(name)
            ncalls = t.ncalls if t is not None else 0
            first = timings.first_call.get(name, 0.0)
            if name == "MDNorm + BinMD":
                ncalls = max(
                    getattr(timings.stages.get("MDNorm"), "ncalls", 0),
                    getattr(timings.stages.get("BinMD"), "ncalls", 0),
                )
                first = (timings.first_call.get("MDNorm", 0.0)
                         + timings.first_call.get("BinMD", 0.0))
            lines.append(
                f"  {name:<18s} {timings.seconds(name):12.4f} {ncalls:7d} "
                f"{first:12.4f} {timings.warm_seconds(name):12.4f}"
            )

    block("all ranks", None)
    ranks = sorted({r["rank"] for r in iter_spans(records)
                    if r.get("rank") is not None})
    for rank in ranks:
        block(f"rank {rank}", rank)

    model = PerfModel.from_records(records)
    if model.n_kernels:
        lines.append(model.table())
    shards = shard_summary(records)
    if shards:
        lines.append(shard_table(shards))
    steals = steal_summary(records)
    if steals:
        lines.append(steal_table(steals))
    recovery = recovery_summary(records, counters=counters)
    if recovery:
        lines.append("-- recovery")
        for name, value in recovery.items():
            lines.append(f"  {name:<40s} {value:16.6g}")
    if counters:
        lines.append("-- counters")
        for name, value in counters.items():
            lines.append(f"  {name:<40s} {value:16.6g}")
    if gauges:
        lines.append("-- gauges")
        for name, value in gauges.items():
            lines.append(f"  {name:<40s} {value:16.6g}")
    return "\n".join(lines)
