"""Property tests for the structured tracing layer.

The randomized suites (50 seeds each) pin down the tracer's contract:

* spans always nest — a child's interval is contained in its parent's
  and ``parent_id`` links are exactly the dynamic nesting;
* spans never leak across threads — concurrent threads produce disjoint
  parent chains, and closing another thread's span raises;
* the ``StageTimings`` derived from the trace equals the live
  accumulator **exactly** (``==``, not approx) — both sides consume the
  same clock reads;
* the disabled tracer records nothing at all.
"""

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.util import trace as trace_mod
from repro.util.timers import StageTimings
from repro.util.trace import (
    DISABLED,
    SCHEMA_VERSION,
    NullTracer,
    TraceError,
    Tracer,
    counters_from_records,
    gauges_from_records,
    load_file,
    stage_timings_from_records,
    stage_totals,
    summary_from_records,
    use_tracer,
    validate_file,
)

N_SEEDS = 50


def _random_span_tree(tracer: Tracer, rng: np.random.Generator, max_ops: int = 40):
    """Drive a random open/close sequence (always well-nested)."""
    open_spans = []
    for _ in range(max_ops):
        if open_spans and (rng.random() < 0.5 or len(open_spans) >= 6):
            tracer.end(open_spans.pop())
        else:
            name = f"s{rng.integers(0, 5)}"
            open_spans.append(tracer.begin(name, depth=len(open_spans)))
    while open_spans:
        tracer.end(open_spans.pop())


class TestNesting:
    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_spans_always_nest(self, seed):
        rng = np.random.default_rng(seed)
        tracer = Tracer(label=f"seed{seed}")
        _random_span_tree(tracer, rng)
        records = tracer.records
        by_id = {r["span_id"]: r for r in records}
        assert len(by_id) == len(records), "span ids must be unique"
        for rec in records:
            assert rec["t1"] >= rec["t0"]
            pid = rec["parent_id"]
            if pid is None:
                continue
            parent = by_id[pid]
            # interval containment: child inside parent
            assert parent["t0"] <= rec["t0"]
            assert rec["t1"] <= parent["t1"]

    def test_parent_ids_reflect_dynamic_nesting(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            with tracer.span("b") as b:
                with tracer.span("c") as c:
                    pass
            with tracer.span("d") as d:
                pass
        assert a.parent_id is None
        assert b.parent_id == a.span_id
        assert c.parent_id == b.span_id
        assert d.parent_id == a.span_id

    def test_strict_lifo_out_of_order_close_raises(self):
        tracer = Tracer()
        a = tracer.begin("a")
        b = tracer.begin("b")
        with pytest.raises(TraceError, match="out of order"):
            tracer.end(a)
        tracer.end(b)
        tracer.end(a)

    def test_exception_unwinds_spans(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        assert tracer.current_span() is None
        assert [r["name"] for r in tracer.records] == ["inner", "outer"]


class TestThreadIsolation:
    @pytest.mark.parametrize("seed", range(0, N_SEEDS, 5))
    def test_spans_never_leak_across_threads(self, seed):
        tracer = Tracer()
        n_threads = 4
        errors = []

        def work(tid: int):
            try:
                rng = np.random.default_rng(seed * 100 + tid)
                with tracer.span(f"thread-root-{tid}"):
                    _random_span_tree(tracer, rng, max_ops=20)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,), name=f"iso-{t}")
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        records = tracer.records
        by_id = {r["span_id"]: r for r in records}
        for rec in records:
            if rec["parent_id"] is not None:
                parent = by_id[rec["parent_id"]]
                assert parent["thread"] == rec["thread"], \
                    "a span's parent must live on the same thread"

    def test_closing_foreign_span_raises(self):
        tracer = Tracer()
        sp = tracer.begin("main-span")
        caught = []

        def other():
            try:
                tracer.end(sp)
            except TraceError as exc:
                caught.append(exc)

        t = threading.Thread(target=other)
        t.start()
        t.join()
        assert len(caught) == 1
        assert "cross threads" in str(caught[0]) or "not opened" in str(caught[0])
        tracer.end(sp)  # still closable by its own thread

    def test_rank_scope_attributes_spans(self):
        tracer = Tracer()
        with trace_mod.rank_scope(3):
            with tracer.span("inner"):
                pass
        assert trace_mod.current_rank() is None
        assert tracer.records[0]["rank"] == 3


class TestStageTimingsEquivalence:
    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_derived_totals_equal_live_accumulator_exactly(self, seed):
        """Bit-for-bit: same clock reads, same float additions."""
        rng = np.random.default_rng(seed)
        tracer = Tracer()
        timings = StageTimings(label=f"seed{seed}")
        stages = ["UpdateEvents", "MDNorm", "BinMD"]
        with use_tracer(tracer):
            for _ in range(int(rng.integers(1, 8))):
                name = stages[int(rng.integers(0, len(stages)))]
                with timings.stage(name):
                    # a tiny random workload so durations vary
                    np.sum(rng.random(int(rng.integers(10, 2000))))
        derived = stage_timings_from_records(tracer.records,
                                             label=f"seed{seed}")
        for name in timings.stages:
            assert derived.seconds(name) == timings.seconds(name)  # exact
            assert derived.stages[name].ncalls == timings.stages[name].ncalls
            assert derived.first_call[name] == timings.first_call[name]
        assert set(derived.stages) == set(timings.stages)

    def test_label_filter_separates_accumulators(self):
        tracer = Tracer()
        ta = StageTimings(label="A")
        tb = StageTimings(label="B")
        with use_tracer(tracer):
            with ta.stage("MDNorm"):
                pass
            with tb.stage("MDNorm"):
                pass
        da = stage_timings_from_records(tracer.records, label="A")
        db = stage_timings_from_records(tracer.records, label="B")
        assert da.seconds("MDNorm") == ta.seconds("MDNorm")
        assert db.seconds("MDNorm") == tb.seconds("MDNorm")
        both = stage_timings_from_records(tracer.records)
        assert both.stages["MDNorm"].ncalls == 2

    def test_stage_totals_view(self):
        tracer = Tracer()
        timings = StageTimings(label="x")
        with use_tracer(tracer):
            with timings.stage("Total"):
                with timings.stage("MDNorm"):
                    pass
        totals = stage_totals(tracer.records)
        assert totals["MDNorm"] == timings.seconds("MDNorm")
        assert totals["Total"] == timings.seconds("Total")


class TestDisabledTracer:
    @pytest.mark.parametrize("seed", range(0, N_SEEDS, 10))
    def test_disabled_tracer_records_nothing(self, seed):
        rng = np.random.default_rng(seed)
        tracer = NullTracer()
        _random_span_tree(tracer, rng)
        tracer.count("events", 100)
        tracer.gauge("bytes", 1.0)
        assert tracer.n_spans == 0
        assert tracer.records == []
        assert tracer.counters == {}
        assert tracer.gauges == {}

    def test_disabled_spans_still_carry_time(self):
        sp = DISABLED.begin("x")
        DISABLED.end(sp)
        assert sp.t1 is not None
        assert sp.duration >= 0.0

    def test_stage_timings_work_under_disabled_tracer(self):
        timings = StageTimings(label="off")
        with timings.stage("MDNorm"):
            np.sum(np.arange(100))
        assert timings.seconds("MDNorm") > 0.0
        assert timings.stages["MDNorm"].ncalls == 1

    def test_process_default_is_disabled(self):
        assert trace_mod.active_tracer() is DISABLED
        assert not trace_mod.active_tracer().enabled


class TestActiveTracer:
    def test_use_tracer_restores_previous(self):
        t1, t2 = Tracer(label="one"), Tracer(label="two")
        assert trace_mod.active_tracer() is DISABLED
        with use_tracer(t1):
            assert trace_mod.active_tracer() is t1
            with use_tracer(t2):
                assert trace_mod.active_tracer() is t2
            assert trace_mod.active_tracer() is t1
        assert trace_mod.active_tracer() is DISABLED

    def test_use_tracer_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with use_tracer(Tracer()):
                raise RuntimeError("boom")
        assert trace_mod.active_tracer() is DISABLED

    def test_set_tracer_none_resets(self):
        t = trace_mod.set_tracer(Tracer(label="tmp"))
        assert trace_mod.active_tracer() is t
        trace_mod.set_tracer(None)
        assert trace_mod.active_tracer() is DISABLED


class TestCountersAndGauges:
    def test_counters_accumulate(self):
        tracer = Tracer()
        tracer.count("events", 10)
        tracer.count("events", 5)
        tracer.count("bytes", 2.5)
        assert tracer.counters == {"events": 15.0, "bytes": 2.5}

    def test_gauges_last_write_wins(self):
        tracer = Tracer()
        tracer.gauge("width", 4)
        tracer.gauge("width", 9)
        assert tracer.gauges == {"width": 9.0}

    def test_counters_thread_safe(self):
        tracer = Tracer()

        def bump():
            for _ in range(1000):
                tracer.count("n", 1)

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tracer.counters["n"] == 4000


class TestSerialization:
    def _traced(self) -> Tracer:
        tracer = Tracer(label="roundtrip")
        with use_tracer(tracer):
            with tracer.span("workflow", kind="workflow", implementation="core"):
                with tracer.span("kernel:mdnorm", kind="kernel",
                                 backend="serial", dims=[2, 3]):
                    pass
            tracer.count("events", 42)
            tracer.gauge("width", 7.0)
        return tracer

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = self._traced()
        path = str(tmp_path / "t.jsonl")
        n = tracer.write_jsonl(path)
        meta, records = load_file(path)
        assert meta["schema"] == SCHEMA_VERSION
        assert meta["label"] == "roundtrip"
        spans = [r for r in records if r["type"] == "span"]
        assert [s["name"] for s in spans] == ["kernel:mdnorm", "workflow"]
        assert n == 1 + len(records)
        (metrics,) = [r for r in records if r["type"] == "metrics"]
        assert records[-1] is metrics
        assert metrics["counters"] == {"events": 42.0}
        assert metrics["gauges"] == {"width": 7.0}

    @staticmethod
    def _metric_tracer() -> Tracer:
        """Two rank streams plus counters that must survive the file
        exactly: a 0.0-delta counter and a float-delta one."""
        tracer = Tracer(label="metrics")
        with tracer.span("campaign", kind="campaign") as root:
            pass
        for rank in (0, 1):
            with trace_mod.rank_scope(rank), \
                    trace_mod.parent_scope(root.uid), tracer.span("work"):
                pass
        tracer.count("events", 42)
        tracer.count("zero", 0.0)
        tracer.count("frac", 0.1)
        tracer.count("frac", 0.2)
        tracer.gauge("width", 7.5)
        return tracer

    def test_every_metric_written_once(self, tmp_path):
        from repro.util import tracedag

        tracer = self._metric_tracer()
        path = str(tmp_path / "t.jsonl")
        tracer.write_jsonl(path)
        paths = tracer.write_jsonl_dir(str(tmp_path / "dir"))
        assert sorted(os.path.basename(p) for p in paths) == [
            "trace-main.jsonl", "trace-rank0.jsonl", "trace-rank1.jsonl"]
        for p in [path] + paths:
            types = [json.loads(line)["type"] for line in open(p)]
            assert "counter" not in types and "gauge" not in types
            want = 0 if "rank" in os.path.basename(p) else 1
            assert types.count("metrics") == want, p
        # read back through every reader: equal to the live tables
        _, records = load_file(path)
        info = validate_file(path)
        dag = tracedag.merge_dir(str(tmp_path / "dir"))
        for counters, gauges in (
            (counters_from_records(records), gauges_from_records(records)),
            (info["counters"], info["gauges"]),
            (dag.counters, dag.gauges),
        ):
            assert dict(counters) == tracer.counters
            assert dict(gauges) == tracer.gauges
        assert tracer.counters["zero"] == 0.0
        assert tracer.counters["frac"] == 0.1 + 0.2

    def test_second_metrics_record_rejected(self, tmp_path):
        tracer = self._traced()
        path = str(tmp_path / "t.jsonl")
        tracer.write_jsonl(path)
        with open(path, "a") as fh:
            fh.write(json.dumps({"type": "metrics", "counters": {},
                                 "gauges": {}}) + "\n")
        with pytest.raises(TraceError, match="second metrics record"):
            validate_file(path)

    def test_validate_file_accepts_good_trace(self, tmp_path):
        tracer = self._traced()
        path = str(tmp_path / "t.jsonl")
        tracer.write_jsonl(path)
        info = validate_file(path)
        assert info["n_spans"] == 2
        assert "workflow" in info["span_names"]
        assert info["counters"] == {"events": 42.0}
        assert info["gauges"] == {"width": 7.0}

    @pytest.mark.parametrize("mutation", [
        lambda rec: rec.pop("dur"),                     # missing key
        lambda rec: rec.update(dur=-1.0),               # negative duration
        lambda rec: rec.update(t1=rec["t0"] - 1.0, dur=-1.0),  # backwards
        lambda rec: rec.update(dur=rec["dur"] + 0.5),   # dur != t1-t0
        lambda rec: rec.update(parent_id=999999),       # dangling parent
        lambda rec: rec.update(name=""),                # empty name
        lambda rec: rec.update(attrs=[1, 2]),           # attrs not a dict
    ])
    def test_validate_file_rejects_corruption(self, tmp_path, mutation):
        tracer = self._traced()
        path = str(tmp_path / "t.jsonl")
        tracer.write_jsonl(path)
        lines = [json.loads(l) for l in open(path)]
        span_idx = next(i for i, r in enumerate(lines) if r["type"] == "span")
        mutation(lines[span_idx])
        with open(path, "w") as fh:
            for rec in lines:
                fh.write(json.dumps(rec) + "\n")
        with pytest.raises(TraceError):
            validate_file(path)

    def test_validate_file_rejects_bad_schema_and_missing_meta(self, tmp_path):
        p1 = tmp_path / "schema.jsonl"
        p1.write_text(json.dumps({"type": "meta", "schema": 99}) + "\n")
        with pytest.raises(TraceError, match="schema"):
            validate_file(str(p1))
        p2 = tmp_path / "nometa.jsonl"
        p2.write_text(json.dumps({"type": "counter", "name": "x", "value": 1}) + "\n")
        with pytest.raises(TraceError, match="missing meta"):
            validate_file(str(p2))
        p3 = tmp_path / "nocampaign.jsonl"
        p3.write_text(json.dumps({"type": "meta",
                                  "schema": SCHEMA_VERSION}) + "\n")
        with pytest.raises(TraceError, match="no campaign_id"):
            validate_file(str(p3))

    def test_numpy_attrs_serialize(self, tmp_path):
        tracer = Tracer()
        with tracer.span("s", n=np.int64(3), x=np.float64(1.5),
                         flag=np.bool_(True), arr=np.arange(3)):
            pass
        path = str(tmp_path / "np.jsonl")
        tracer.write_jsonl(path)
        _, records = load_file(path)
        attrs = records[0]["attrs"]
        assert attrs == {"n": 3, "x": 1.5, "flag": True, "arr": [0, 1, 2]}


def _old_trace_files(tmp_path):
    """A trace of each kind :func:`load_file` refuses, keyed by the
    schema its meta records: a schema-1 file (spans without uids,
    per-name counter records), a schema-3 file (uids, counter and gauge
    records next to the metrics record) and a meta with no schema."""
    span = {"type": "span", "name": "s", "span_id": 0, "parent_id": None,
            "rank": None, "thread": "main", "t0": 0.0, "t1": 1.0,
            "dur": 1.0, "seq": 0, "attrs": {}}
    span3 = dict(span, uid="-:1:0", parent_uid=None)
    meta = {"type": "meta", "label": "old", "pid": 1, "epoch_unix": 0.0,
            "campaign_id": "c" * 32}
    files = {
        1: [dict(meta, schema=1), span,
            {"type": "counter", "name": "k", "value": 1.0}],
        3: [dict(meta, schema=3), span3,
            {"type": "counter", "name": "k", "value": 1.0},
            {"type": "gauge", "name": "g", "value": 2.0},
            {"type": "metrics", "counters": {"k": 1.0},
             "gauges": {"g": 2.0}}],
        None: [meta, span3,
               {"type": "metrics", "counters": {}, "gauges": {}}],
    }
    out = {}
    for schema, recs in files.items():
        path = tmp_path / f"schema-{schema}.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in recs))
        out[schema] = str(path)
    return out


def _refusal(found) -> str:
    return (f"trace schema {found!r}; this version reads only schema "
            f"{SCHEMA_VERSION}")


class TestSchemaRefusal:
    """Schema 4 is the only trace format: every reader refuses an older
    file (or one with no schema) through :func:`load_file`, naming the
    version found and the one expected."""

    @pytest.mark.parametrize("reader", ["load_file", "validate_file",
                                        "merge_files"])
    @pytest.mark.parametrize("found", [1, 3, None])
    def test_readers_refuse_old_schemas(self, tmp_path, reader, found):
        from repro.util.tracedag import merge_files

        read = {"load_file": load_file, "validate_file": validate_file,
                "merge_files": lambda p: merge_files([p])}[reader]
        path = _old_trace_files(tmp_path)[found]
        with pytest.raises(TraceError) as exc:
            read(path)
        assert _refusal(found) in str(exc.value)

    @pytest.mark.parametrize("cmd", ["merge", "chrome", "summary", "crit"])
    def test_cli_refuses_old_schemas(self, tmp_path, cmd, capsys):
        """``repro trace merge|chrome|summary|crit`` exit nonzero on
        every old file with one stderr line naming both schemas, not a
        traceback; the schema-1 case runs as a real process."""
        from repro.cli import repro_main

        paths = _old_trace_files(tmp_path)
        out = str(tmp_path / "out")
        argv = {"chrome": ["trace", "chrome", "--out", out],
                }.get(cmd, ["trace", cmd])
        prefix = f"repro {argv[0]} {argv[1]}: "
        for found in (3, None):
            assert repro_main(argv + [paths[found]]) == 1
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert err.startswith(prefix), err
            assert err.count("\n") == 1 and _refusal(found) in err, err
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv, paths[1]],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(prefix), proc.stderr
        assert _refusal(1) in proc.stderr
        assert not (tmp_path / "out").exists()


class TestChromeExport:
    def test_chrome_trace_structure(self, tmp_path):
        tracer = Tracer(label="chrome")
        with tracer.span("outer", kind="op"):
            with tracer.span("inner", kind="kernel"):
                pass
        path = str(tmp_path / "chrome.json")
        n = tracer.write_chrome_trace(path)
        doc = json.load(open(path))
        events = doc["traceEvents"]
        assert n == len(events)
        xs = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in xs} == {"outer", "inner"}
        for e in xs:
            assert e["dur"] >= 0.0
            assert isinstance(e["ts"], float)
            assert (e["pid"], e["tid"]) == (1, 0)
        metas = [(e["name"], e["args"]["name"]) for e in events
                 if e["ph"] == "M"]
        assert metas == [
            ("process_name", f"chrome (pid {os.getpid()})"),
            ("thread_name", threading.current_thread().name),
        ]

    def test_chrome_rows_per_rank(self, tmp_path):
        """One chrome process per rank stream, each with its own
        thread row."""
        tracer = Tracer()
        for rank in (0, 1):
            with trace_mod.rank_scope(rank):
                with tracer.span("work"):
                    pass
        path = str(tmp_path / "ranks.json")
        tracer.write_chrome_trace(path)
        doc = json.load(open(path))
        procs = {e["pid"]: e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert sorted(procs.values()) == [
            f"rank {r} (pid {os.getpid()})" for r in (0, 1)]
        rows = [(e["pid"], e["tid"]) for e in doc["traceEvents"]
                if e["ph"] == "M" and e["name"] == "thread_name"]
        assert sorted(rows) == [(pid, 0) for pid in sorted(procs)]


class TestUnreadablePaths:
    """Every offline ``repro trace`` reader reports a missing file, or
    a directory holding no trace, as one ``prog: message`` line with
    exit status 1 and writes nothing."""

    @pytest.mark.parametrize("what", ["missing", "directory"])
    @pytest.mark.parametrize("cmd", ["summary", "merge", "crit", "chrome"])
    def test_one_line_error(self, tmp_path, cmd, what, capsys):
        from repro.cli import repro_main

        empty = tmp_path / "empty"
        empty.mkdir()
        path = str(tmp_path / "nope.jsonl") if what == "missing" else str(empty)
        out = tmp_path / "out.json"
        extra = ["--out", str(out)] if cmd in ("merge", "chrome") else []
        assert repro_main(["trace", cmd, *extra, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro trace {cmd}: "), captured.err
        assert captured.err.count("\n") == 1 and path in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()
        assert list(empty.iterdir()) == []


class TestSummary:
    def test_kernel_totals_aggregation(self):
        """``kernel:*`` launch spans aggregate into rows of the one
        kernel table, one per (span, back end), with their launch
        counts; there is no second kernel block."""
        from repro.util.perf import kernel_items

        tracer = Tracer()
        for _ in range(3):
            with tracer.span("kernel:mdnorm", kind="kernel", backend="serial",
                             perf=kernel_items((4,))):
                pass
        with tracer.span("kernel:bin_events", kind="kernel",
                         backend="threads", perf=kernel_items((4,))):
            pass
        text = tracer.summary()
        assert "-- kernel launches" not in text
        rows = {tuple(line.split()[:2]): line.split()
                for line in text.split("-- kernels\n")[1].splitlines()[1:]}
        assert rows[("kernel:mdnorm", "serial")][2] == "3"
        assert rows[("kernel:bin_events", "threads")][2] == "1"

    def test_summary_reproduces_wct_rows(self):
        tracer = Tracer(label="wct")
        timings = StageTimings(label="wct")
        with use_tracer(tracer):
            with timings.stage("Total"):
                with timings.stage("UpdateEvents"):
                    pass
                with timings.stage("MDNorm"):
                    pass
                with timings.stage("BinMD"):
                    pass
            tracer.count("events", 9)
        text = tracer.summary()
        for row in ("UpdateEvents", "MDNorm", "BinMD", "MDNorm + BinMD",
                    "Total", "events"):
            assert row in text
        # numbers in the table come from the same records that equal the
        # live accumulator exactly
        derived = stage_timings_from_records(tracer.records, label="wct")
        assert derived.seconds("Total") == timings.seconds("Total")

    def test_summary_from_empty_records(self):
        assert "trace summary" in summary_from_records([])
