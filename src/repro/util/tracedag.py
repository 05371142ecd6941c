"""Campaign-wide causal trace DAG: merge, validate, attribute.

The trace schema (:mod:`repro.util.trace`) gives every span a globally
unique ``uid`` and a ``parent_uid`` that crosses process/thread
boundaries.
One campaign can therefore produce a *set* of JSON-lines files — one
per tracing process — that this module stitches back into a single
validated causal DAG and interrogates:

* :func:`merge_files` / :func:`merge_dir` — load + normalise onto one
  absolute campaign clock (each file's ``epoch_unix`` + relative span
  times); files of an older schema are refused by
  :func:`repro.util.trace.load_file`;
* :meth:`TraceDAG.validate` — no duplicate uids, no orphan parents, no
  dangling link endpoints, completed steal tasks exactly once per
  ``(run, stage, shard)``, and a single rooted span tree;
* :meth:`TraceDAG.critical_chain` — the last-finisher root-to-leaf
  blocking chain (the answer to "what was the campaign waiting on when
  it ended");
* :meth:`TraceDAG.crit_attribution` — the full backward walk that
  charges **every instant** of the root window to exactly one span, so
  per-stage/per-kernel *critical* seconds sit next to their *total*
  span seconds and serialization vs. fan-out waste is explicit;
* :meth:`TraceDAG.rank_attribution` — busy / idle / stolen-work
  seconds per rank (idle = the rank span minus the union of its child
  intervals);
* :meth:`TraceDAG.anomalies` — work-normalised duration outliers
  against sibling spans (same name/backend/kind): a span is flagged
  when its seconds-per-work exceed both ``median + k*IQR`` of its
  group and ``min_ratio * median``, with the work scalar taken from
  the ``perf`` attrs so the flag is a *model-vs-measured* deviation,
  not a raw-seconds one.

The CLI surface is ``repro trace merge|crit|chrome``
(``merge --out PATH`` writes the DAG document; ``crit`` prints
:meth:`TraceDAG.crit_report`).
"""

from __future__ import annotations

import glob
import json
import os
from collections import OrderedDict, defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.util.trace import TraceError, load_file, validate_records

#: span kinds that mark the elastic steal-task layer
STEAL_KINDS = ("steal", "steal_task")

#: kind → reporting layer of the service→job→run→stage→shard→kernel
#: hierarchy (anything unlisted reports as "other")
LAYER_BY_KIND = {
    "campaign": "service",
    "world": "job",
    "rank": "job",
    "algorithm": "run",
    "run": "run",
    "stage": "stage",
    "shard_fanout": "shard",
    "shard": "shard",
    "steal": "shard",
    "steal_task": "shard",
    "chunk": "shard",
    "op": "kernel",
    "kernel": "kernel",
}

#: reporting order of the layers
LAYERS = ("service", "job", "run", "stage", "shard", "kernel", "other")

#: preference order for the work scalar that normalises a span's
#: duration before outlier testing (all are PR 4 ``perf`` attr keys)
WORK_PREFERENCE = ("flops", "items", "events", "intersections",
                   "bins_touched", "bytes_read", "bytes_written",
                   "segments", "trajectories")


def _layer(node: Dict[str, Any]) -> str:
    if str(node["name"]).startswith("kernel:"):
        return "kernel"
    return LAYER_BY_KIND.get(node.get("kind"), "other")


def _median(sorted_vals: Sequence[float]) -> float:
    n = len(sorted_vals)
    if n == 0:
        return 0.0
    mid = n // 2
    if n % 2:
        return sorted_vals[mid]
    return 0.5 * (sorted_vals[mid - 1] + sorted_vals[mid])


def _quartiles(vals: Sequence[float]) -> Tuple[float, float, float]:
    """(q25, median, q75) of a sorted sequence (median-of-halves)."""
    n = len(vals)
    if n == 0:
        return 0.0, 0.0, 0.0
    mid = n // 2
    lower = vals[:mid]
    upper = vals[mid + 1:] if n % 2 else vals[mid:]
    return _median(lower), _median(vals), _median(upper)


class TraceDAG:
    """The merged causal DAG of one campaign's trace files."""

    def __init__(self, campaign_id: str) -> None:
        self.campaign_id = campaign_id
        self.spans: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self.links: List[Dict[str, Any]] = []
        self.counters: "OrderedDict[str, float]" = OrderedDict()
        self.gauges: "OrderedDict[str, float]" = OrderedDict()
        self.files: List[str] = []
        self._children: Optional[Dict[Optional[str], List[str]]] = None

    # -- structure --------------------------------------------------------
    def add_span(self, node: Dict[str, Any]) -> None:
        uid = node["uid"]
        if uid in self.spans:
            raise TraceError(
                f"duplicate span uid {uid!r} across files "
                f"({self.spans[uid]['file']} vs {node['file']})"
            )
        self.spans[uid] = node
        self._children = None

    @property
    def children(self) -> Dict[Optional[str], List[str]]:
        """parent uid → child uids, children sorted by absolute end."""
        if self._children is None:
            kids: Dict[Optional[str], List[str]] = defaultdict(list)
            for uid, node in self.spans.items():
                kids[node.get("parent_uid")].append(uid)
            for uid_list in kids.values():
                uid_list.sort(key=lambda u: self.spans[u]["t1"])
            self._children = dict(kids)
        return self._children

    def roots(self) -> List[Dict[str, Any]]:
        """Spans with no causal parent, in start order."""
        out = [n for n in self.spans.values() if n.get("parent_uid") is None]
        out.sort(key=lambda n: n["t0"])
        return out

    def root(self) -> Dict[str, Any]:
        """The campaign root span (errors unless exactly one root)."""
        roots = self.roots()
        if len(roots) != 1:
            raise TraceError(
                f"campaign {self.campaign_id}: expected one root span, "
                f"found {len(roots)} ({[r['name'] for r in roots[:6]]})"
            )
        return roots[0]

    def ranks(self) -> List[int]:
        return sorted({n["rank"] for n in self.spans.values()
                       if n.get("rank") is not None})

    # -- validation -------------------------------------------------------
    def validate(self) -> Dict[str, Any]:
        """Check the merged-DAG invariants; raise :class:`TraceError`
        on the first violation, return a summary report on success."""
        # orphan parents
        for uid, node in self.spans.items():
            pu = node.get("parent_uid")
            if pu is not None and pu not in self.spans:
                raise TraceError(
                    f"span {uid} ({node['name']!r}) has orphan "
                    f"parent_uid {pu!r}"
                )
        # link endpoints resolve
        for link in self.links:
            for end in ("src", "dst"):
                if link[end] not in self.spans:
                    raise TraceError(
                        f"link {link['kind']!r} {end} {link[end]!r} "
                        f"references no span in the campaign"
                    )
        # completed steal tasks land exactly once per (run, stage, shard)
        seen: Dict[Tuple[Any, Any, Any], str] = {}
        for uid, node in self.spans.items():
            if node.get("kind") not in STEAL_KINDS:
                continue
            attrs = node["attrs"]
            if not attrs.get("completed"):
                continue
            key = (attrs.get("run"), node["name"], attrs.get("shard"))
            if key in seen:
                raise TraceError(
                    f"steal task {key} completed twice "
                    f"({seen[key]} and {uid})"
                )
            seen[key] = uid
        # acyclic + a single rooted tree
        roots = self.roots()
        reached = set()
        stack = [n["uid"] for n in roots]
        while stack:
            uid = stack.pop()
            if uid in reached:
                continue
            reached.add(uid)
            stack.extend(self.children.get(uid, ()))
        if len(reached) != len(self.spans):
            raise TraceError(
                f"campaign {self.campaign_id}: "
                f"{len(self.spans) - len(reached)} spans unreachable "
                f"from any root (parent cycle)"
            )
        if len(roots) != 1:
            raise TraceError(
                f"campaign {self.campaign_id}: expected a single rooted "
                f"tree, found {len(roots)} roots "
                f"({[r['name'] for r in roots[:6]]})"
            )
        return {
            "ok": True,
            "campaign_id": self.campaign_id,
            "n_files": len(self.files),
            "n_spans": len(self.spans),
            "n_links": len(self.links),
            "n_steal_links": sum(1 for l in self.links
                                 if l["kind"] == "steal"),
            "roots": [r["name"] for r in roots],
            "ranks": self.ranks(),
        }

    # -- critical path ----------------------------------------------------
    def _last_finisher(self, node: Dict[str, Any],
                       cursor: float) -> Optional[Dict[str, Any]]:
        """The child whose (clamped) end is latest but <= cursor."""
        best: Optional[Dict[str, Any]] = None
        best_t1 = node["t0"]
        for uid in self.children.get(node["uid"], ()):
            child = self.spans[uid]
            t1c = min(child["t1"], cursor)
            t0c = max(child["t0"], node["t0"])
            if t1c <= t0c:          # zero-width after clamping
                continue
            if t1c > best_t1:
                best, best_t1 = child, t1c
        return best

    def critical_chain(self,
                       root: Optional[Dict[str, Any]] = None
                       ) -> List[Dict[str, Any]]:
        """The root-to-leaf blocking chain (last-finisher descent).

        Each entry carries the span plus ``self_s``, the tail segment
        of the parent's window that only this span (and not a deeper
        child) accounts for.  The chain's total duration is the root
        span's duration — by construction never more than the measured
        wall-clock that contains it.
        """
        node = root or self.root()
        cursor = node["t1"]
        chain: List[Dict[str, Any]] = []
        while node is not None:
            best = self._last_finisher(node, cursor)
            tail_start = (min(best["t1"], cursor) if best is not None
                          else max(node["t0"], min(node["t0"], cursor)))
            chain.append({
                "uid": node["uid"],
                "name": node["name"],
                "kind": node.get("kind"),
                "layer": _layer(node),
                "rank": node.get("rank"),
                "dur": node["dur"],
                "self_s": max(0.0, cursor - max(tail_start, node["t0"])),
                "depth": len(chain),
            })
            if best is None:
                break
            cursor = min(best["t1"], cursor)
            node = best
        return chain

    def crit_attribution(self,
                         root: Optional[Dict[str, Any]] = None
                         ) -> Dict[str, float]:
        """Charge every instant of the root window to exactly one span.

        Backward walk: starting at the root's end, repeatedly descend
        into the child that finished last before the cursor, charging
        the uncovered tail to the current span; after a child's window
        is attributed, the walk resumes in the parent just before the
        child began.  The charges sum to the root's duration exactly
        (up to float error), so the rollup answers "where did the
        wall-clock go" with no double counting of parallel work.
        """
        root = root or self.root()
        crit: Dict[str, float] = defaultdict(float)

        # (node, cursor) frames; each frame attributes [node.t0, cursor]
        stack: List[Tuple[Dict[str, Any], float]] = [(root, root["t1"])]
        while stack:
            node, cursor = stack.pop()
            if cursor <= node["t0"]:
                continue
            best = self._last_finisher(node, cursor)
            if best is None:
                crit[node["uid"]] += cursor - node["t0"]
                continue
            b_t1 = min(best["t1"], cursor)
            if cursor > b_t1:
                crit[node["uid"]] += cursor - b_t1
            # resume in this node before the child began, then (LIFO)
            # attribute the child's own window first
            stack.append((node, max(node["t0"], best["t0"])))
            stack.append((best, b_t1))
        return dict(crit)

    def crit_rollup(self,
                    root: Optional[Dict[str, Any]] = None
                    ) -> List[Dict[str, Any]]:
        """Per (layer, name) rows: critical seconds vs total seconds."""
        crit = self.crit_attribution(root)
        rows: Dict[Tuple[str, str], Dict[str, Any]] = {}
        for uid, node in self.spans.items():
            key = (_layer(node), node["name"])
            row = rows.setdefault(key, {
                "layer": key[0], "name": key[1],
                "crit_s": 0.0, "total_s": 0.0, "count": 0,
            })
            row["crit_s"] += crit.get(uid, 0.0)
            row["total_s"] += node["dur"]
            row["count"] += 1
        out = list(rows.values())
        out.sort(key=lambda r: (LAYERS.index(r["layer"]), -r["crit_s"]))
        return out

    # -- rank attribution -------------------------------------------------
    def rank_attribution(self) -> List[Dict[str, Any]]:
        """Busy / idle / stolen-work seconds per rank span.

        ``busy`` is the union of the rank span's direct child intervals
        (clamped into the rank window); ``idle`` is the remainder —
        for the stealing executor that is exactly the steal-wait time
        the queue could not fill.  ``steal_s`` is the busy time spent
        executing *stolen* tasks (kind ``steal`` anywhere under the
        rank).
        """
        out: List[Dict[str, Any]] = []
        for uid, node in self.spans.items():
            if node.get("kind") != "rank":
                continue
            intervals = []
            for child_uid in self.children.get(uid, ()):
                child = self.spans[child_uid]
                t0 = max(child["t0"], node["t0"])
                t1 = min(child["t1"], node["t1"])
                if t1 > t0:
                    intervals.append((t0, t1))
            intervals.sort()
            busy = 0.0
            cur_start: Optional[float] = None
            cur_end = 0.0
            for t0, t1 in intervals:
                if cur_start is None or t0 > cur_end:
                    if cur_start is not None:
                        busy += cur_end - cur_start
                    cur_start, cur_end = t0, t1
                else:
                    cur_end = max(cur_end, t1)
            if cur_start is not None:
                busy += cur_end - cur_start
            steal_s = sum(
                self.spans[u]["dur"] for u in self._descendants(uid)
                if self.spans[u].get("kind") == "steal"
            )
            out.append({
                "rank": node.get("rank"),
                "uid": uid,
                "total_s": node["dur"],
                "busy_s": busy,
                "idle_s": max(0.0, node["dur"] - busy),
                "steal_s": steal_s,
            })
        out.sort(key=lambda r: (r["rank"] is None, r["rank"], r["uid"]))
        return out

    def _descendants(self, uid: str) -> List[str]:
        out: List[str] = []
        stack = list(self.children.get(uid, ()))
        while stack:
            u = stack.pop()
            out.append(u)
            stack.extend(self.children.get(u, ()))
        return out

    # -- anomalies --------------------------------------------------------
    @staticmethod
    def _work_scalar(node: Dict[str, Any]) -> float:
        attrs = node.get("attrs", {})
        perf = attrs.get("perf")
        if isinstance(perf, dict):
            for key in WORK_PREFERENCE:
                value = perf.get(key)
                if isinstance(value, (int, float)) and value > 0:
                    return float(value)
        weight = attrs.get("weight")
        if isinstance(weight, (int, float)) and weight > 0:
            return float(weight)
        return 1.0

    def anomalies(self, *, k: float = 3.0, min_ratio: float = 1.5,
                  min_group: int = 4) -> List[Dict[str, Any]]:
        """Model-vs-measured outliers among sibling spans.

        Groups kernel/op/steal spans by ``(name, backend, kind)``,
        normalises each duration by the analytic work scalar (PR 4
        ``perf`` attrs, falling back to the steal-task byte weight,
        then raw seconds), and flags members whose seconds-per-work
        exceed ``median + k*IQR`` *and* ``min_ratio * median``.  The
        IQR term ignores jitter within a noisy group and the
        ``min_ratio`` floor keeps a zero-IQR group from flagging
        micro-jitter, so a flagged span is slower than its own siblings
        predict for the work it did, not merely the biggest task.
        """
        groups: Dict[Tuple[Any, Any, Any],
                     List[Tuple[Dict[str, Any], float]]] = defaultdict(list)
        for node in self.spans.values():
            kind = node.get("kind")
            name = str(node["name"])
            if not (kind in ("op",) + STEAL_KINDS
                    or name.startswith("kernel:")):
                continue
            work = self._work_scalar(node)
            groups[(name, node["attrs"].get("backend"), kind)].append(
                (node, node["dur"] / work))
        flags: List[Dict[str, Any]] = []
        for (name, backend, kind), members in groups.items():
            if len(members) < min_group:
                continue
            ratios = sorted(r for _, r in members)
            q25, med, q75 = _quartiles(ratios)
            if med <= 0.0:
                continue
            threshold = max(med + k * (q75 - q25), min_ratio * med)
            for node, ratio in members:
                if ratio > threshold:
                    flags.append({
                        "uid": node["uid"],
                        "name": name,
                        "backend": backend,
                        "kind": kind,
                        "rank": node.get("rank"),
                        "dur": node["dur"],
                        "ratio": ratio,
                        "expected": med,
                        "deviation": ratio / med,
                        "threshold": threshold,
                        "n_siblings": len(members),
                    })
        flags.sort(key=lambda f: -f["deviation"])
        return flags

    # -- reporting --------------------------------------------------------
    def critical_seconds(self) -> float:
        """The critical-path duration — the root span's wall window."""
        return float(self.root()["dur"])

    def crit_report(self, *, k: float = 3.0, min_ratio: float = 1.5,
                    min_group: int = 4, max_chain: int = 24) -> str:
        """The ``repro trace crit`` table."""
        chain = self.critical_chain()
        rollup = self.crit_rollup()
        ranks = self.rank_attribution()
        flags = self.anomalies(k=k, min_ratio=min_ratio,
                               min_group=min_group)
        total = self.critical_seconds()
        lines = [f"critical path (campaign {self.campaign_id})",
                 f"  critical seconds: {total:.4f}  "
                 f"({len(self.spans)} spans, {len(self.links)} links, "
                 f"{len(self.files)} files)",
                 "-- blocking chain (root -> leaf, last finisher)"]
        for entry in chain[:max_chain]:
            rank = "-" if entry["rank"] is None else str(entry["rank"])
            lines.append(
                f"  {'  ' * min(entry['depth'], 8)}{entry['name']:<28s} "
                f"[{entry['layer']:<7s}] rank {rank:>2s} "
                f"self {entry['self_s']*1e3:9.3f} ms  "
                f"span {entry['dur']:9.4f} s"
            )
        if len(chain) > max_chain:
            lines.append(f"  ... {len(chain) - max_chain} deeper entries")
        lines.append("-- critical vs total seconds per layer/name")
        lines.append(f"  {'layer':<8s} {'name':<30s} {'crit (s)':>10s} "
                     f"{'total (s)':>10s} {'count':>6s} {'crit %':>7s}")
        for row in rollup:
            if row["crit_s"] <= 0.0 and row["layer"] == "other":
                continue
            share = 100.0 * row["crit_s"] / total if total > 0 else 0.0
            lines.append(
                f"  {row['layer']:<8s} {row['name'][:30]:<30s} "
                f"{row['crit_s']:10.4f} {row['total_s']:10.4f} "
                f"{row['count']:6d} {share:6.1f}%"
            )
        if ranks:
            lines.append("-- per-rank attribution")
            lines.append(f"  {'rank':>4s} {'total (s)':>10s} "
                         f"{'busy (s)':>10s} {'idle (s)':>10s} "
                         f"{'stolen (s)':>10s}")
            for row in ranks:
                lines.append(
                    f"  {row['rank']!s:>4s} {row['total_s']:10.4f} "
                    f"{row['busy_s']:10.4f} {row['idle_s']:10.4f} "
                    f"{row['steal_s']:10.4f}"
                )
        lines.append(f"-- anomalies (median + {k:g}*IQR over siblings, "
                     f"floor {min_ratio:g}x median)")
        if not flags:
            lines.append("  none")
        for flag in flags[:16]:
            rank = "-" if flag["rank"] is None else str(flag["rank"])
            lines.append(
                f"  {flag['name'][:30]:<30s} rank {rank:>2s} "
                f"dur {flag['dur']:9.4f} s  "
                f"{flag['deviation']:6.1f}x expected "
                f"(n={flag['n_siblings']})"
            )
        return "\n".join(lines)

    def to_doc(self, *, include_spans: bool = True) -> Dict[str, Any]:
        """A JSON-able document of the merged DAG (the ``merge``
        artifact)."""
        doc: Dict[str, Any] = {
            "campaign_id": self.campaign_id,
            "files": list(self.files),
            "n_spans": len(self.spans),
            "n_links": len(self.links),
            "roots": [r["uid"] for r in self.roots()],
            "ranks": self.ranks(),
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "links": list(self.links),
        }
        if include_spans:
            doc["spans"] = list(self.spans.values())
        return doc


# ---------------------------------------------------------------------------
# merging
# ---------------------------------------------------------------------------

def merge_files(paths: Sequence[str]) -> TraceDAG:
    """Merge per-process JSON-lines trace files into one
    :class:`TraceDAG`.

    Every file is read once and schema-validated
    (:func:`~repro.util.trace.validate_records`), and spans join on
    their global uids.  Files disagreeing on
    ``campaign_id`` are rejected: one DAG is one campaign.
    """
    if not paths:
        raise TraceError("merge_files: no trace files given")
    campaign_ids = set()
    loaded: List[Tuple[str, Dict[str, Any], List[Dict[str, Any]]]] = []
    for path in paths:
        meta, records = load_file(path)
        campaign_ids.add(validate_records(path, meta, records)["campaign_id"])
        loaded.append((path, meta, records))
    if len(campaign_ids) > 1:
        raise TraceError(
            f"trace files span {len(campaign_ids)} campaigns "
            f"({sorted(campaign_ids)}); merge one campaign at a time"
        )
    dag = TraceDAG(campaign_ids.pop())
    for path, meta, records in loaded:
        epoch = float(meta.get("epoch_unix", 0.0))
        base = os.path.basename(path)
        dag.files.append(base)
        for rec in records:
            rtype = rec.get("type")
            if rtype == "span":
                dag.add_span({
                    "uid": rec["uid"],
                    "parent_uid": rec["parent_uid"],
                    "name": rec["name"],
                    "kind": rec.get("attrs", {}).get("kind"),
                    "rank": rec.get("rank"),
                    "thread": rec.get("thread", ""),
                    "t0": epoch + float(rec["t0"]),
                    "t1": epoch + float(rec["t1"]),
                    "dur": float(rec["dur"]),
                    "seq": rec.get("seq"),
                    "attrs": rec.get("attrs", {}),
                    "file": base,
                })
            elif rtype == "link":
                dag.links.append({
                    "kind": rec["kind"],
                    "src": rec["src"],
                    "dst": rec["dst"],
                    "attrs": rec.get("attrs", {}),
                    "file": base,
                })
            elif rtype == "metrics":
                for name, value in rec["counters"].items():
                    dag.counters[name] = float(value)
                for name, value in rec["gauges"].items():
                    dag.gauges[name] = float(value)
    return dag


def merge_dir(dir_path: str, *, pattern: str = "*.jsonl") -> TraceDAG:
    """Merge every trace file matching ``pattern`` under ``dir_path``."""
    paths = sorted(glob.glob(os.path.join(dir_path, pattern)))
    if not paths:
        raise TraceError(
            f"merge_dir: no files matching {pattern!r} in {dir_path}"
        )
    return merge_files(paths)


def write_dag(path: str, dag: TraceDAG, *,
              include_spans: bool = True) -> None:
    """Write the merged DAG document as JSON."""
    with open(path, "w") as fh:
        json.dump(dag.to_doc(include_spans=include_spans), fh, indent=1)
