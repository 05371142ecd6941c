"""Kernel-level performance model derived from trace records.

The paper's results are throughput claims — MDNorm/BinMD wall-clock on
Milan CPUs and MI250X GPUs, speedups over the Mantid baseline — but the
trace layer (:mod:`repro.util.trace`) only records *where* time goes.
This module records *why*: every profiled span carries a ``perf``
attribute (a dict of raw work quantities — events, trajectories,
intersections, estimated bytes moved, estimated flops) and
:class:`PerfModel` rolls the finished records up into the one
per-kernel table of ``repro trace summary``: launches, seconds, rates
and the cold/warm split from the geometry-cache flags the spans
already carry.  The shard fan-out and stealing rollups below feed the
same report.

Two invariants drive the design:

* **derived purely from the trace** — every number the report prints is
  recomputed from the JSON-lines records alone (``rate = work / dur``);
  a trace file round-trips to the identical table, which is what lets
  ``repro trace summary --compare`` diff two backends offline;
* **zero cost when off** — the instrumentation sites guard the *entire*
  estimate computation on ``tracer.enabled`` (False for
  :class:`~repro.util.trace.NullTracer`), so with tracing disabled no
  derived-metric arithmetic runs at all.

The byte/flop numbers are a documented *cost model*, not hardware
counters (DESIGN.md section 6e): deterministic functions of the kernel
shape parameters (`n_ops`, `n_events`, padded buffer ``width``, ...),
the same role the analytic models in HPDR-style frameworks play for
cross-backend attribution.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple


#: span-attribute key holding the raw work dict of a profiled span
PERF_ATTR = "perf"

#: work quantities a ``perf`` dict may carry (all float, all summable)
WORK_KEYS = (
    "events", "trajectories", "intersections", "segments", "bins_touched",
    "bytes_read", "bytes_written", "flops", "items",
)


# ---------------------------------------------------------------------------
# the cost model (DESIGN.md section 6e documents every constant)
# ---------------------------------------------------------------------------

#: BinMD reads per (op, event) lane: qx,qy,qz,signal,err_sq float64
BYTES_PER_EVENT_READ = 40.0
#: BinMD writes per deposited lane: signal + err_sq atomic adds
BYTES_PER_EVENT_WRITE = 16.0
#: BinMD flops per lane: 3x3 mat-vec (15) + bin search / guards (9)
FLOPS_PER_EVENT = 24.0

#: MDNorm reads per trajectory: direction (24 B) + k window (16 B)
BYTES_PER_TRAJ_READ = 40.0
#: MDNorm reads per segment: two cumulative-flux table values
BYTES_PER_SEGMENT_READ = 16.0
#: MDNorm writes per segment: one float64 histogram deposit
BYTES_PER_SEGMENT_WRITE = 8.0
#: MDNorm flops per segment: interp (4) + midpoint (2) + coords (3)
#: + bin index (3)
FLOPS_PER_SEGMENT = 12.0
#: MDNorm flops per trajectory: window clip + sort amortization
FLOPS_PER_TRAJ = 20.0

#: warm deposit-plan replay per segment: cached flux x weight + scatter
WARM_FLOPS_PER_SEGMENT = 2.0
#: warm reads per stored plan segment: seg_flux (8) + flat_idx (8)
#: (the per-row offsets are a rounding error next to them)
WARM_BYTES_PER_SEGMENT_READ = 16.0


def binmd_work(
    n_ops: int,
    n_events: int,
    *,
    track_errors: bool = True,
    cache_hit: bool = False,
    stored_pairs: Optional[int] = None,
    index_itemsize: int = 8,
) -> Dict[str, float]:
    """Cost-model work of one BinMD launch (``(n_ops, n_events)`` lanes).

    A warm launch (``cache_hit``) replays the cached in-grid
    ``(flat, event)`` pairs: the transform flops are skipped, and each
    stored pair costs its two indices plus the gather of its weights.
    ``stored_pairs`` is the entry's pair count; without it every lane
    is assumed inside, which bounds it.
    """
    lanes = float(n_ops) * float(n_events)
    write = BYTES_PER_EVENT_WRITE if track_errors else 8.0
    if cache_hit:
        pairs = lanes if stored_pairs is None else float(stored_pairs)
        # per pair: two indices, then a gather of what is written
        return {
            "events": lanes,
            "bins_touched": pairs,
            "bytes_read": pairs * (2.0 * index_itemsize + write),
            "bytes_written": pairs * write,
            "flops": pairs * 2.0,
        }
    return {
        "events": lanes,
        "bins_touched": lanes,
        "bytes_read": lanes * BYTES_PER_EVENT_READ,
        "bytes_written": lanes * write,
        "flops": lanes * FLOPS_PER_EVENT,
    }


def mdnorm_work(
    n_ops: int,
    n_det: int,
    width: int,
    *,
    warm_plan: bool = False,
    stored_segments: Optional[int] = None,
) -> Dict[str, float]:
    """Cost-model work of one MDNorm launch.

    ``width`` is the padded intersection-buffer width (pre-pass bound
    + 2 endpoints); segments per trajectory are ``width - 1`` and
    plane crossings are bounded by ``width - 2``.  A warm launch
    (cached :class:`~repro.core.geom_cache.DepositPlan`) skips the
    fill/sort/interpolate pipeline entirely and replays only the
    plan's stored segments: ``stored_segments`` is their count (the
    plan's real size); without it the padded segment count bounds it.
    """
    traj = float(n_ops) * float(n_det)
    segments = traj * float(max(int(width) - 1, 0))
    crossings = traj * float(max(int(width) - 2, 0))
    if warm_plan:
        stored = segments if stored_segments is None else float(stored_segments)
        return {
            "trajectories": traj,
            "intersections": crossings,
            "segments": segments,
            "bins_touched": stored,
            "bytes_read": stored * WARM_BYTES_PER_SEGMENT_READ,
            "bytes_written": stored * BYTES_PER_SEGMENT_WRITE,
            "flops": stored * WARM_FLOPS_PER_SEGMENT,
        }
    return {
        "trajectories": traj,
        "intersections": crossings,
        "segments": segments,
        "bins_touched": segments,
        "bytes_read": traj * BYTES_PER_TRAJ_READ
        + segments * BYTES_PER_SEGMENT_READ,
        "bytes_written": segments * BYTES_PER_SEGMENT_WRITE,
        "flops": traj * FLOPS_PER_TRAJ + segments * FLOPS_PER_SEGMENT,
    }


def mdnorm_work_from_crossings(
    n_trajectories: int, n_crossings: int
) -> Dict[str, float]:
    """Cost-model work of one MDNorm pass with *exact* crossing counts.

    Used by the C++ proxy, whose per-row ROI loop never pads a buffer:
    each live row contributes its crossings plus one extra segment
    (``len(ks) - 1`` segments for ``crossings + 2`` endpoints), so
    ``segments = crossings + trajectories`` bounds the deposit work.
    """
    traj = float(n_trajectories)
    segments = float(n_crossings) + traj
    return {
        "trajectories": traj,
        "intersections": float(n_crossings),
        "segments": segments,
        "bins_touched": segments,
        "bytes_read": traj * BYTES_PER_TRAJ_READ
        + segments * BYTES_PER_SEGMENT_READ,
        "bytes_written": segments * BYTES_PER_SEGMENT_WRITE,
        "flops": traj * FLOPS_PER_TRAJ + segments * FLOPS_PER_SEGMENT,
    }


def intersections_work(n_rows: int, width: int) -> Dict[str, float]:
    """Cost-model work of one batched fill+sort of the padded
    intersection buffer (``n_rows`` live trajectories, ``width``
    columns).  The sort term is the comb-sort's ``w log2 w`` comparison
    count per row; crossings are bounded by ``width - 2`` (the two
    endpoints are not plane crossings)."""
    rows = float(n_rows)
    w = float(max(int(width), 1))
    log_w = math.log2(w) if w > 1.0 else 1.0
    return {
        "trajectories": rows,
        "intersections": rows * float(max(int(width) - 2, 0)),
        "bytes_read": rows * BYTES_PER_TRAJ_READ,
        "bytes_written": rows * w * 8.0,
        "flops": rows * w * log_w,
    }


#: chunk-codec decode cost per *decoded* byte (inflate is byte-at-a-time
#: Huffman + LZ77 copy work; the shuffle adds one strided pass)
CODEC_FLOPS_PER_BYTE = {
    "none": 0.0,
    "zlib": 8.0,
    "shuffle-zlib": 9.0,
}
#: extra bytes moved per decoded byte by the byte-shuffle transpose
#: (one read + one write of the intermediate)
SHUFFLE_BYTES_PER_BYTE = 2.0


def chunk_decode_work(
    codec: str, stored_nbytes: int, raw_nbytes: int
) -> Dict[str, float]:
    """Cost-model work of decoding one stored chunk (ISSUE 6).

    ``stored_nbytes`` is what came off the disk (encoded), ``raw_nbytes``
    what the decode produced; the ratio is the chunk's compression
    ratio, so ``bytes_read``/``seconds`` measures delivered I/O
    bandwidth and ``bytes_written``/``seconds`` the decode bandwidth
    the tile manager sees.  Unknown codecs cost like ``zlib`` rather
    than erroring — the model must never fail a read.
    """
    raw = float(raw_nbytes)
    flops = raw * CODEC_FLOPS_PER_BYTE.get(codec, CODEC_FLOPS_PER_BYTE["zlib"])
    moved = raw
    if codec == "shuffle-zlib":
        moved += raw * SHUFFLE_BYTES_PER_BYTE
    return {
        "items": 1.0,
        "bytes_read": float(stored_nbytes),
        "bytes_written": moved,
        "flops": flops,
    }


def prepass_work(n_trajectories: int) -> Dict[str, float]:
    """Cost-model work of the max-intersections pre-pass."""
    traj = float(n_trajectories)
    return {
        "trajectories": traj,
        "bytes_read": traj * BYTES_PER_TRAJ_READ,
        "bytes_written": traj * 8.0,
        "flops": traj * 6.0,  # 3 axes x (2 binary-search partials)
    }


def kernel_items(dims: Sequence[int]) -> Dict[str, float]:
    """Generic work of one jacc launch: the index-space size."""
    n = 1.0
    for d in dims:
        n *= float(d)
    return {"items": n}


# ---------------------------------------------------------------------------
# per-kernel rollup
# ---------------------------------------------------------------------------

@dataclass
class KernelStats:
    """Aggregated launches of one (span name, backend) pair."""

    name: str
    backend: str
    launches: int = 0
    seconds: float = 0.0
    cold_launches: int = 0
    cold_seconds: float = 0.0
    warm_launches: int = 0
    warm_seconds: float = 0.0
    work: Dict[str, float] = field(default_factory=dict)

    def add(self, dur: float, perf: Dict[str, Any], warm: Optional[bool]) -> None:
        self.launches += 1
        self.seconds += float(dur)
        if warm:
            self.warm_launches += 1
            self.warm_seconds += float(dur)
        else:
            self.cold_launches += 1
            self.cold_seconds += float(dur)
        for k, v in perf.items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                self.work[k] = self.work.get(k, 0.0) + float(v)

    # -- derived metrics (rate = work / seconds, from the records alone)
    def rate(self, key: str) -> float:
        w = self.work.get(key, 0.0)
        return w / self.seconds if self.seconds > 0.0 else 0.0

    @property
    def events_per_s(self) -> float:
        return self.rate("events")

    @property
    def intersections_per_s(self) -> float:
        return self.rate("intersections")

    @property
    def trajectories_per_s(self) -> float:
        return self.rate("trajectories")

    @property
    def bytes_total(self) -> float:
        return self.work.get("bytes_read", 0.0) + self.work.get("bytes_written", 0.0)

    @property
    def bytes_per_s(self) -> float:
        return self.bytes_total / self.seconds if self.seconds > 0.0 else 0.0

    @property
    def arithmetic_intensity(self) -> float:
        """Estimated flops per byte moved (the roofline x-axis)."""
        b = self.bytes_total
        return self.work.get("flops", 0.0) / b if b > 0.0 else 0.0


def _is_warm(attrs: Dict[str, Any]) -> Optional[bool]:
    """Cold/warm attribution from the PR 1 geometry-cache span flags."""
    if attrs.get("warm_plan"):
        return True
    if "cache_hit" in attrs:
        return bool(attrs["cache_hit"])
    return None


class PerfModel:
    """Per-kernel throughput rollup of a trace's profiled spans.

    Every span whose ``attrs`` carry a ``perf`` dict contributes; spans
    are replayed in ``seq`` order, so the rollup is **deterministic**
    regardless of the order records arrive in (shuffling the input
    yields a bit-identical model — the 50-seed test asserts it).
    """

    def __init__(self) -> None:
        self.kernels: "OrderedDict[Tuple[str, str], KernelStats]" = OrderedDict()

    # -- construction -----------------------------------------------------
    @classmethod
    def from_records(cls, records: Sequence[Dict[str, Any]]) -> "PerfModel":
        model = cls()
        spans = [r for r in records if r.get("type", "span") == "span"
                 and isinstance(r.get("attrs"), dict)
                 and isinstance(r["attrs"].get(PERF_ATTR), dict)]
        spans.sort(key=lambda r: r.get("seq", 0))
        for rec in spans:
            attrs = rec["attrs"]
            backend = str(attrs.get("backend", "-"))
            key = (rec["name"], backend)
            slot = model.kernels.get(key)
            if slot is None:
                slot = model.kernels[key] = KernelStats(
                    name=rec["name"], backend=backend
                )
            slot.add(rec.get("dur", 0.0), attrs[PERF_ATTR], _is_warm(attrs))
        model.kernels = OrderedDict(
            sorted(model.kernels.items(), key=lambda kv: kv[0])
        )
        return model

    # -- inspection -------------------------------------------------------
    def rows(self) -> List[KernelStats]:
        return list(self.kernels.values())

    def get(self, name: str, backend: str = "-") -> Optional[KernelStats]:
        return self.kernels.get((name, backend))

    @property
    def n_kernels(self) -> int:
        return len(self.kernels)

    # -- renderers --------------------------------------------------------
    def table(self) -> str:
        """The paper-style per-kernel throughput table (plain text)."""
        lines = ["-- kernels"]
        header = (f"  {'kernel':<28s} {'backend':<11s} {'n':>5s} "
                  f"{'seconds':>10s} {'events/s':>12s} {'trajs/s':>12s} "
                  f"{'isects/s':>12s} {'GB/s':>8s} {'AI':>7s} "
                  f"{'cold s':>9s} {'warm s':>9s}")
        lines.append(header)
        for k in self.rows():
            # a row with no byte count (an items-only span) has no
            # bandwidth or intensity: print "-", not a 0 that reads as
            # a measurement
            gbs, ai = ((f"{k.bytes_per_s / 1e9:.3f}",
                        f"{k.arithmetic_intensity:.2f}")
                       if k.bytes_total > 0.0 else ("-", "-"))
            lines.append(
                f"  {k.name:<28s} {k.backend:<11s} {k.launches:>5d} "
                f"{k.seconds:>10.4f} {_si(k.events_per_s):>12s} "
                f"{_si(k.trajectories_per_s):>12s} "
                f"{_si(k.intersections_per_s):>12s} "
                f"{gbs:>8s} {ai:>7s} "
                f"{k.cold_seconds:>9.4f} {k.warm_seconds:>9.4f}"
            )
        if not self.kernels:
            lines.append("  (no profiled spans in this trace)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# shard fan-out attribution (PR 5: hierarchical intra-run sharding)
# ---------------------------------------------------------------------------

def shard_summary(records: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Roll up the intra-run shard fan-out spans of a trace.

    ``kind="shard_fanout"`` spans (one per sharded MDNorm/BinMD call)
    and their child ``kind="shard"`` spans (one per shard task) are
    attributed per op.  The interesting derived number is **balance**:
    mean shard seconds over max shard seconds within the trace — 1.0
    means the fan-out was perfectly even, values near ``1/n_shards``
    mean one straggler serialized the whole fan-out (exactly what the
    weighted detector cut is for).  A static BinMD task is a window
    read (``rows``, no ``lanes``): its seconds and balance measure
    decoding, and the binning is timed in the ``kernel:bin_events``
    span.  Deterministic: records are replayed in ``seq`` order.
    """
    spans = [r for r in records if r.get("type", "span") == "span"
             and isinstance(r.get("attrs"), dict)]
    spans.sort(key=lambda r: r.get("seq", 0))
    out: Dict[str, Dict[str, float]] = {}
    for rec in spans:
        attrs = rec["attrs"]
        kind = attrs.get("kind")
        if kind == "shard_fanout":
            op = str(attrs.get("op", rec["name"]))
            slot = out.setdefault(op, {
                "fanouts": 0.0, "tasks": 0.0, "lanes": 0.0,
                "fanout_seconds": 0.0, "shard_seconds": 0.0,
                "max_shard_seconds": 0.0, "n_shards": 0.0,
            })
            slot["fanouts"] += 1.0
            slot["fanout_seconds"] += float(rec.get("dur", 0.0))
            slot["n_shards"] = max(slot["n_shards"],
                                   float(attrs.get("n_shards", 0)))
        elif kind == "shard":
            # span name is "shard:<op>"
            op = str(rec["name"]).partition(":")[2] or str(rec["name"])
            slot = out.setdefault(op, {
                "fanouts": 0.0, "tasks": 0.0, "lanes": 0.0,
                "fanout_seconds": 0.0, "shard_seconds": 0.0,
                "max_shard_seconds": 0.0, "n_shards": 0.0,
            })
            dur = float(rec.get("dur", 0.0))
            slot["tasks"] += 1.0
            slot["lanes"] += float(attrs.get("lanes", 0))
            slot["shard_seconds"] += dur
            slot["max_shard_seconds"] = max(slot["max_shard_seconds"], dur)
    for slot in out.values():
        if slot["tasks"] > 0 and slot["max_shard_seconds"] > 0.0:
            mean = slot["shard_seconds"] / slot["tasks"]
            slot["balance"] = mean / slot["max_shard_seconds"]
        else:
            slot["balance"] = 1.0
    return dict(sorted(out.items()))


def shard_table(summary: Dict[str, Dict[str, float]]) -> str:
    """Plain-text table of :func:`shard_summary` (``repro trace summary``)."""
    lines = ["-- shard fan-out"]
    if not summary:
        lines.append("  (no shard fan-out spans in this trace)")
        return "\n".join(lines)
    lines.append(f"  {'op':<10s} {'fanouts':>8s} {'tasks':>7s} "
                 f"{'lanes':>10s} {'fanout s':>10s} {'shard s':>9s} "
                 f"{'balance':>8s} {'shards':>7s}")
    for op, s in summary.items():
        lines.append(
            f"  {op:<10s} {int(s['fanouts']):>8d} {int(s['tasks']):>7d} "
            f"{_si(s['lanes']):>10s} {s['fanout_seconds']:>10.4f} "
            f"{s['shard_seconds']:>9.4f} {s['balance']:>8.3f} "
            f"{int(s['n_shards']):>7d}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# elastic stealing attribution (PR 7: work-stealing executor)
# ---------------------------------------------------------------------------

def steal_summary(records: Sequence[Dict[str, Any]]) -> Dict[int, Dict[str, float]]:
    """Roll up the stealing executor's task spans per executing rank.

    ``kind="steal_task"`` spans are shard tasks a rank executed from
    its own static block; ``kind="steal"`` spans are tasks it pulled
    off a victim's queue.  The interesting derived number is the
    stolen share of each rank's busy seconds — how much of its work
    arrived through the queue rather than the static plan, which is
    exactly what the skewed-campaign benchmark moves.  ``incomplete``
    counts spans whose task never deposited (a rank crash mid-task
    that the queue must have re-issued elsewhere).
    """
    out: Dict[int, Dict[str, float]] = {}
    for rec in records:
        if rec.get("type", "span") != "span":
            continue
        attrs = rec.get("attrs")
        if not isinstance(attrs, dict):
            continue
        kind = attrs.get("kind")
        if kind not in ("steal_task", "steal"):
            continue
        rank = int(attrs.get("exec_rank", rec.get("rank", 0)))
        slot = out.setdefault(rank, {
            "tasks": 0.0, "stolen": 0.0, "task_seconds": 0.0,
            "stolen_seconds": 0.0, "incomplete": 0.0,
        })
        dur = float(rec.get("dur", 0.0))
        slot["tasks"] += 1.0
        slot["task_seconds"] += dur
        if kind == "steal":
            slot["stolen"] += 1.0
            slot["stolen_seconds"] += dur
        if not attrs.get("completed", False):
            slot["incomplete"] += 1.0
    return dict(sorted(out.items()))


def steal_table(summary: Dict[int, Dict[str, float]]) -> str:
    """Plain-text table of :func:`steal_summary` (``repro trace summary``)."""
    lines = ["-- elastic stealing"]
    if not summary:
        lines.append("  (no stealing-executor spans in this trace)")
        return "\n".join(lines)
    lines.append(f"  {'rank':>6s} {'tasks':>7s} {'stolen':>7s} "
                 f"{'task s':>9s} {'stolen s':>9s} {'stolen %':>9s} "
                 f"{'incomplete':>11s}")
    for rank, s in summary.items():
        share = (100.0 * s["stolen_seconds"] / s["task_seconds"]
                 if s["task_seconds"] > 0.0 else 0.0)
        lines.append(
            f"  {rank:>6d} {int(s['tasks']):>7d} {int(s['stolen']):>7d} "
            f"{s['task_seconds']:>9.4f} {s['stolen_seconds']:>9.4f} "
            f"{share:>8.1f}% {int(s['incomplete']):>11d}"
        )
    return "\n".join(lines)


def _si(value: float) -> str:
    """Engineering-notation rate (1.23M, 45.6k) for the text table."""
    if value <= 0.0:
        return "-"
    for factor, suffix in ((1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "k")):
        if value >= factor:
            return f"{value / factor:.2f}{suffix}"
    return f"{value:.1f}"


# ---------------------------------------------------------------------------
# differential report (repro trace summary --compare A B)
# ---------------------------------------------------------------------------

def compare_traces(
    records_a: Sequence[Dict[str, Any]],
    records_b: Sequence[Dict[str, Any]],
    *,
    label_a: str = "A",
    label_b: str = "B",
) -> str:
    """Differential WCT + throughput report between two traces.

    Stage rows come from :func:`repro.util.trace.stage_totals`; kernel
    rows reuse the :class:`PerfModel` rollup.  ``ratio`` is B/A seconds
    (< 1 means B is faster) and rate ratios are B/A throughput.
    """
    from repro.util.trace import stage_totals

    lines = [f"trace comparison: A={label_a}  B={label_b}"]
    st_a = stage_totals(records_a)
    st_b = stage_totals(records_b)
    names = list(st_a)
    names += [n for n in st_b if n not in names]
    if names:
        lines.append("-- stages (wall-clock)")
        lines.append(f"  {'stage':<18s} {'A (s)':>12s} {'B (s)':>12s} "
                     f"{'B/A':>8s}")
        for name in names:
            a = st_a.get(name, 0.0)
            b = st_b.get(name, 0.0)
            ratio = f"{b / a:8.3f}" if a > 0.0 else "     n/a"
            lines.append(f"  {name:<18s} {a:>12.4f} {b:>12.4f} {ratio}")

    model_a = PerfModel.from_records(records_a)
    model_b = PerfModel.from_records(records_b)
    keys = list(model_a.kernels)
    keys += [k for k in model_b.kernels if k not in keys]
    if keys:
        lines.append("-- kernels (throughput)")
        lines.append(f"  {'kernel [backend]':<36s} {'A (s)':>10s} "
                     f"{'B (s)':>10s} {'B/A t':>8s} {'A rate':>10s} "
                     f"{'B rate':>10s} {'B/A rate':>9s}")
        for key in sorted(keys):
            ka = model_a.kernels.get(key)
            kb = model_b.kernels.get(key)
            sa = ka.seconds if ka else 0.0
            sb = kb.seconds if kb else 0.0
            ra = _primary_rate(ka) if ka else 0.0
            rb = _primary_rate(kb) if kb else 0.0
            t_ratio = f"{sb / sa:8.3f}" if sa > 0.0 else "     n/a"
            r_ratio = f"{rb / ra:9.3f}" if ra > 0.0 else "      n/a"
            lines.append(
                f"  {key[0] + ' [' + key[1] + ']':<36s} {sa:>10.4f} "
                f"{sb:>10.4f} {t_ratio} {_si(ra):>10s} {_si(rb):>10s} "
                f"{r_ratio}"
            )
    return "\n".join(lines)


def _primary_rate(k: KernelStats) -> float:
    """The most meaningful single rate of a kernel for compact reports."""
    for key in ("events", "trajectories", "intersections", "items"):
        if k.work.get(key, 0.0) > 0.0:
            return k.rate(key)
    return k.bytes_per_s
