"""Unit tests of :mod:`repro.util.tracedag` — merging per-process
trace files into one causal DAG, its invariants, the critical-path
machinery and the model-vs-measured anomaly detector.

Files are synthesized two ways: through the real :class:`Tracer` (the
cross-process propagation API) and by hand (exact timings for the
critical-path arithmetic).
"""

import json

import pytest

from repro.util import trace as trace_mod
from repro.util import tracedag
from repro.util.trace import TraceError, Tracer

CAMPAIGN = "c" * 32


# ---------------------------------------------------------------------------
# synthetic-file helpers
# ---------------------------------------------------------------------------

def _meta(campaign=CAMPAIGN, *, pid=1234, epoch=1000.0, label="test"):
    return {
        "type": "meta", "schema": trace_mod.SCHEMA_VERSION, "label": label,
        "pid": pid, "epoch_unix": epoch, "campaign_id": campaign,
        "tool": "repro.util.trace",
    }


def _span(name, uid, parent_uid, t0, t1, *, rank=None, span_id=0,
          parent_id=None, seq=0, thread="main", **attrs):
    return {
        "type": "span", "name": name, "span_id": span_id,
        "parent_id": parent_id, "rank": rank, "thread": thread,
        "t0": float(t0), "t1": float(t1), "dur": float(t1) - float(t0),
        "seq": seq, "attrs": attrs, "uid": uid, "parent_uid": parent_uid,
    }


def _link(src, dst, *, kind="steal", seq=0, **attrs):
    return {"type": "link", "kind": kind, "src": src, "dst": dst,
            "seq": seq, "attrs": attrs}


def _write(path, meta, records):
    with open(path, "w") as fh:
        fh.write(json.dumps(meta) + "\n")
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return str(path)


def _tree_files(tmp_path):
    """A tiny 2-rank campaign: main file with the root + plan spans,
    one file per rank, one steal link back to a plan span."""
    root = _span("campaign", "-:m:0", None, 0.0, 10.0, seq=9,
                 kind="campaign")
    plan = _span("plan:mdnorm", "-:m:1", "-:m:0", 0.1, 0.2,
                 span_id=1, seq=1, kind="plan_task", run=0, shard=0)
    main = _write(tmp_path / "trace-main.jsonl", _meta(),
                  [plan, root])
    r0 = _write(tmp_path / "trace-rank0.jsonl", _meta(), [
        _span("steal:mdnorm", "0:m:2", "-:m:0", 0.3, 4.0, rank=0,
              span_id=2, seq=2, kind="steal_task", run=0, shard=0,
              completed=True, stolen=False),
    ])
    r1 = _write(tmp_path / "trace-rank1.jsonl", _meta(), [
        _span("steal:mdnorm", "1:m:3", "-:m:0", 0.3, 9.0, rank=1,
              span_id=3, seq=3, kind="steal", run=0, shard=1,
              completed=True, stolen=True),
        _link("1:m:3", "-:m:1", seq=4, run=0, shard=1),
    ])
    return [main, r0, r1]


# ---------------------------------------------------------------------------
# merge + invariants
# ---------------------------------------------------------------------------

class TestMergeInvariants:
    def test_merge_validates_single_rooted_tree(self, tmp_path):
        dag = tracedag.merge_files(_tree_files(tmp_path))
        report = dag.validate()
        assert report["ok"]
        assert report["campaign_id"] == CAMPAIGN
        assert report["n_files"] == 3
        assert report["n_spans"] == 4
        assert report["n_links"] == 1
        assert report["n_steal_links"] == 1
        assert report["roots"] == ["campaign"]
        assert report["ranks"] == [0, 1]
        assert dag.root()["name"] == "campaign"

    def test_merge_dir_equals_merge_files(self, tmp_path):
        _tree_files(tmp_path)
        dag = tracedag.merge_dir(str(tmp_path))
        assert dag.validate()["n_spans"] == 4

    def test_campaign_mismatch_rejected(self, tmp_path):
        files = _tree_files(tmp_path)
        other = _write(tmp_path / "other.jsonl", _meta("d" * 32), [
            _span("campaign", "-:x:0", None, 0.0, 1.0, kind="campaign"),
        ])
        with pytest.raises(TraceError, match="campaign"):
            tracedag.merge_files(files + [other])

    def test_duplicate_uid_rejected(self, tmp_path):
        a = _write(tmp_path / "a.jsonl", _meta(), [
            _span("campaign", "-:m:0", None, 0.0, 1.0, kind="campaign"),
        ])
        b = _write(tmp_path / "b.jsonl", _meta(pid=99), [
            _span("other", "-:m:0", None, 0.0, 1.0),
        ])
        with pytest.raises(TraceError, match="duplicate span uid"):
            tracedag.merge_files([a, b])

    def test_orphan_parent_rejected(self, tmp_path):
        p = _write(tmp_path / "a.jsonl", _meta(), [
            _span("campaign", "-:m:0", None, 0.0, 1.0, kind="campaign"),
            _span("waif", "-:m:1", "-:gone:7", 0.1, 0.9, span_id=1,
                  seq=1),
        ])
        with pytest.raises(TraceError, match="orphan"):
            tracedag.merge_files([p]).validate()

    def test_dangling_link_rejected(self, tmp_path):
        p = _write(tmp_path / "a.jsonl", _meta(), [
            _span("campaign", "-:m:0", None, 0.0, 1.0, kind="campaign"),
            _link("-:m:0", "-:gone:3", seq=1),
        ])
        with pytest.raises(TraceError, match="references no span"):
            tracedag.merge_files([p]).validate()

    def test_steal_task_completing_twice_rejected(self, tmp_path):
        recs = [_span("campaign", "-:m:0", None, 0.0, 10.0,
                      kind="campaign")]
        for i in (1, 2):
            recs.append(_span(
                "steal:mdnorm", f"0:m:{i}", "-:m:0", 0.1 * i, 1.0 * i,
                rank=0, span_id=i, seq=i, kind="steal_task",
                run=0, shard=0, completed=True))
        p = _write(tmp_path / "a.jsonl", _meta(), recs)
        with pytest.raises(TraceError, match="completed twice"):
            tracedag.merge_files([p]).validate()

    def test_multi_root_always_rejected(self, tmp_path):
        """Several roots — in one file or one per file — never merge
        into a valid campaign DAG."""
        p = _write(tmp_path / "a.jsonl", _meta(), [
            _span("a", "-:m:0", None, 0.0, 1.0),
            _span("b", "-:m:1", None, 0.0, 1.0, span_id=1, seq=1),
        ])
        q = _write(tmp_path / "b.jsonl", _meta(pid=77), [
            _span("c", "-:n:0", None, 0.0, 1.0),
        ])
        for paths in ([p], [p, q]):
            dag = tracedag.merge_files(paths)
            with pytest.raises(TraceError, match="single rooted"):
                dag.validate()


# ---------------------------------------------------------------------------
# cross-process propagation through the real Tracer API
# ---------------------------------------------------------------------------

class TestTracerRoundTrip:
    def test_jsonl_dir_round_trip(self, tmp_path):
        tracer = Tracer("rt", campaign_id=trace_mod.new_campaign_id("rt"))
        with tracer.span("campaign", kind="campaign") as root:
            with trace_mod.rank_scope(0), \
                    trace_mod.parent_scope(root.uid):
                pass
            root_uid = root.uid
        # a second tracer stands in for another process of the campaign
        worker = Tracer("rt-w", campaign_id=tracer.campaign_id,
                        uid_ns="w1")
        with trace_mod.rank_scope(1), trace_mod.parent_scope(root_uid):
            with worker.span("steal:binmd", kind="steal_task", run=0,
                             shard=0, completed=True):
                pass
        d = tmp_path / "dir"
        tracer.write_jsonl_dir(str(d))
        worker.write_jsonl_dir(str(d), prefix="worker")
        dag = tracedag.merge_dir(str(d))
        report = dag.validate()
        assert report["ok"] and report["roots"] == ["campaign"]
        assert report["ranks"] == [1]
        (steal_uid,) = [u for u, n in dag.spans.items()
                        if n["name"] == "steal:binmd"]
        assert dag.spans[steal_uid]["parent_uid"] == root_uid


# ---------------------------------------------------------------------------
# legacy (v1/v2) files are refused, not merged
# ---------------------------------------------------------------------------

class TestLegacyRefusal:
    def _legacy_span(self, name, span_id, parent_id, t0, t1, *,
                     rank=None, seq=0, **attrs):
        return {
            "type": "span", "name": name, "span_id": span_id,
            "parent_id": parent_id, "rank": rank, "thread": "main",
            "t0": float(t0), "t1": float(t1),
            "dur": float(t1) - float(t0), "seq": seq, "attrs": attrs,
        }

    def _legacy_meta(self, schema, pid=1234):
        meta = _meta(pid=pid)
        meta["schema"] = schema
        del meta["campaign_id"]
        return meta

    def _refusal(self, found):
        return (f"trace schema {found}; this version reads only schema "
                f"{trace_mod.SCHEMA_VERSION}")

    def test_v2_files_refused(self, tmp_path):
        a = _write(tmp_path / "a.jsonl", self._legacy_meta(2), [
            self._legacy_span("outer", 0, None, 0.0, 2.0),
            self._legacy_span("inner", 1, 0, 0.5, 1.5, seq=1),
            {"type": "metrics", "counters": {"c": 2.0}, "gauges": {}},
        ])
        b = _write(tmp_path / "b.jsonl", self._legacy_meta(2, pid=77), [
            self._legacy_span("outer", 0, None, 0.0, 1.0),
        ])
        for paths in ([a, b], [b]):
            with pytest.raises(TraceError, match=self._refusal(2)):
                tracedag.merge_files(paths)

    def test_v1_file_refused(self, tmp_path):
        a = _write(tmp_path / "a.jsonl", self._legacy_meta(1), [
            self._legacy_span("solo", 0, None, 0.0, 1.0),
            {"type": "counter", "name": "k", "value": 3.0},
        ])
        with pytest.raises(TraceError, match=self._refusal(1)):
            tracedag.merge_files([a])


# ---------------------------------------------------------------------------
# critical path + attribution
# ---------------------------------------------------------------------------

def _crit_files(tmp_path):
    """root [0,10]; a [0,4] -> a1 [1,3.5]; b [4,9] (last finisher)."""
    recs = [
        _span("campaign", "-:m:0", None, 0.0, 10.0, kind="campaign"),
        _span("a", "-:m:1", "-:m:0", 0.0, 4.0, span_id=1, seq=1,
              kind="stage"),
        _span("a1", "-:m:2", "-:m:1", 1.0, 3.5, span_id=2, seq=2,
              kind="op", backend="serial"),
        _span("b", "-:m:3", "-:m:0", 4.0, 9.0, span_id=3, seq=3,
              kind="stage"),
    ]
    return [_write(tmp_path / "crit.jsonl", _meta(), recs)]


class TestCriticalPath:
    def test_chain_descends_by_last_finisher(self, tmp_path):
        dag = tracedag.merge_files(_crit_files(tmp_path))
        chain = dag.critical_chain()
        assert [n["name"] for n in chain] == ["campaign", "b"]
        assert dag.critical_seconds() == pytest.approx(10.0)

    def test_attribution_charges_every_instant_once(self, tmp_path):
        dag = tracedag.merge_files(_crit_files(tmp_path))
        crit = dag.crit_attribution()
        total = sum(crit.values())
        assert total == pytest.approx(dag.critical_seconds(), abs=1e-9)
        by_name = {dag.spans[u]["name"]: s for u, s in crit.items()}
        # b blocks [4,9]; a1 blocks [1,3.5]; a owns its own uncovered
        # windows [0,1] + [3.5,4]; the root owns only the tail [9,10]
        assert by_name["b"] == pytest.approx(5.0)
        assert by_name["a1"] == pytest.approx(2.5)
        assert by_name["a"] == pytest.approx(1.5)
        assert by_name["campaign"] == pytest.approx(1.0)

    def test_rollup_crit_never_exceeds_total(self, tmp_path):
        dag = tracedag.merge_files(_crit_files(tmp_path))
        for row in dag.crit_rollup():
            assert row["crit_s"] <= row["total_s"] + 1e-9

    def test_crit_report_renders(self, tmp_path):
        dag = tracedag.merge_files(_tree_files(tmp_path))
        text = dag.crit_report()
        assert "critical path" in text
        assert "blocking chain" in text
        assert "per-rank attribution" not in text or "rank" in text


# ---------------------------------------------------------------------------
# anomaly flags
# ---------------------------------------------------------------------------

def _sibling_files(tmp_path, durs, *, weights=None, name="kernel:mdnorm",
                   kind="op"):
    recs = [_span("campaign", "-:m:0", None, 0.0, 1000.0,
                  kind="campaign")]
    t = 0.0
    for i, dur in enumerate(durs):
        attrs = {"kind": kind, "backend": "serial"}
        if weights is not None:
            attrs["weight"] = weights[i]
        recs.append(_span(name, f"-:m:{i + 1}", "-:m:0", t, t + dur,
                          span_id=i + 1, seq=i + 1, **attrs))
        t += dur
    return [_write(tmp_path / "sib.jsonl", _meta(), recs)]


class TestAnomalies:
    def test_slow_sibling_flagged(self, tmp_path):
        dag = tracedag.merge_files(
            _sibling_files(tmp_path, [1.0] * 8 + [9.0]))
        flags = dag.anomalies()
        assert len(flags) == 1
        assert flags[0]["dur"] == pytest.approx(9.0)
        assert flags[0]["deviation"] > 1.5

    def test_uniform_siblings_clean(self, tmp_path):
        dag = tracedag.merge_files(
            _sibling_files(tmp_path, [1.0, 1.01, 0.99, 1.0, 1.02]))
        assert dag.anomalies() == []

    def test_small_groups_not_judged(self, tmp_path):
        dag = tracedag.merge_files(_sibling_files(tmp_path, [1.0, 50.0]))
        assert dag.anomalies() == []

    def test_weight_normalizes_expected_cost(self, tmp_path):
        # 10x duration at 10x weight is NOT anomalous once normalized
        dag = tracedag.merge_files(_sibling_files(
            tmp_path, [1.0, 1.0, 1.0, 1.0, 10.0],
            weights=[1.0, 1.0, 1.0, 1.0, 10.0],
            name="steal:mdnorm", kind="steal_task"))
        assert dag.anomalies() == []


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

class TestArtifacts:
    def test_write_dag_document(self, tmp_path):
        dag = tracedag.merge_files(_tree_files(tmp_path))
        out = tmp_path / "dag.json"
        tracedag.write_dag(str(out), dag)
        doc = json.loads(out.read_text())
        assert doc["campaign_id"] == CAMPAIGN
        assert doc["n_spans"] == 4
        assert len(doc["spans"]) == 4
        assert doc["ranks"] == [0, 1]

    def test_chrome_merged_namespaces_pids(self, tmp_path):
        files = _tree_files(tmp_path)
        traces = [trace_mod.load_file(p) for p in files]
        out = tmp_path / "chrome.json"
        trace_mod.write_chrome_trace(str(out), traces)
        doc = json.loads(out.read_text())
        rows = [e for e in doc["traceEvents"]
                if e.get("name") == "process_name"]
        # same OS pid, three rank streams -> three distinct chrome pids
        assert len({r["pid"] for r in rows}) == 3

    def test_chrome_merged_rejects_empty(self, tmp_path):
        with pytest.raises(TraceError):
            trace_mod.write_chrome_trace(str(tmp_path / "x.json"), [])
