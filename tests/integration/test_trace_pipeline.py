"""End-to-end trace tests on the tiny Benzil workload.

Four pillars:

* **golden schema** — each implementation's trace carries the required
  span names and attributes (workflow/cross_section/run/stage/kernel);
* **per-rank streams** — under ``run_world(size=4)`` every rank
  produces its own attributed span stream with correct nesting;
* **bit-identical results** — tracing on vs :data:`Tracer.DISABLED`
  leaves the cross-section untouched, bit for bit;
* **differential timings** — the ``StageTimings`` derived from the
  trace equals the live accumulator exactly.
"""

import numpy as np
import pytest

from repro.core import geom_cache as gc_mod
from repro.core import workflow as workflow_mod
from repro.core.geom_cache import GeomCache
from repro.core.md_event_workspace import load_md
from repro.core.workflow import ReductionWorkflow, WorkflowConfig
from repro.jacc import default_backend
from repro.mpi import run_world
from repro.nexus import h5lite
from repro.proxy.cpp_proxy import CppProxyConfig, CppProxyWorkflow
from repro.proxy.minivates import MiniVatesConfig, MiniVatesWorkflow
from repro.util import bytesplit
from repro.util import trace as trace_mod
from repro.util.timers import StageTimings
from repro.util.trace import (
    Tracer,
    stage_timings_from_records,
    use_tracer,
    validate_file,
)

STAGE_NAMES = {"UpdateEvents", "MDNorm", "BinMD", "Total"}


def _core_workflow(exp, backend="serial", cache=None) -> ReductionWorkflow:
    return ReductionWorkflow(WorkflowConfig(
        md_paths=exp.md_paths,
        flux_path=exp.flux_path,
        vanadium_path=exp.vanadium_path,
        instrument=exp.instrument,
        grid=exp.grid,
        point_group=exp.point_group,
        backend=backend,
        geom_cache=cache if cache is not None else GeomCache(),
    ))


def _spans_by_name(records):
    out = {}
    for rec in records:
        out.setdefault(rec["name"], []).append(rec)
    return out


class TestGoldenSchema:
    def test_core_workflow_trace_schema(self, tiny_experiment):
        tracer = Tracer(label="core")
        with use_tracer(tracer):
            _core_workflow(tiny_experiment).run()
        spans = _spans_by_name(tracer.records)

        wf = spans["workflow"]
        assert len(wf) == 1
        assert wf[0]["attrs"]["implementation"] == "core"
        assert wf[0]["attrs"]["kind"] == "workflow"

        cs = spans["cross_section"]
        assert cs[0]["attrs"]["kind"] == "algorithm"
        assert cs[0]["attrs"]["n_runs"] == 3
        assert cs[0]["parent_id"] == wf[0]["span_id"]

        runs = spans["run"]
        assert sorted(r["attrs"]["run"] for r in runs) == [0, 1, 2]

        for name in STAGE_NAMES:
            assert name in spans, f"missing stage span {name}"
            for rec in spans[name]:
                assert rec["attrs"]["kind"] == "stage"

        assert "mdnorm" in spans and "binmd" in spans
        assert spans["mdnorm"][0]["attrs"]["kind"] == "op"
        assert "mpi_reduce" in spans

        # kernel spans from the jacc layer, tagged with the backend,
        # the body form it ran and the elements it covered
        assert "kernel:mdnorm" in spans
        assert "kernel:bin_events" in spans
        for rec in spans["kernel:bin_events"]:
            assert rec["attrs"]["backend"] == "serial"
            assert rec["attrs"]["kind"] == "kernel"
            assert rec["attrs"]["body"] == "element"
            assert rec["attrs"]["elements"] == int(
                np.prod(rec["attrs"]["dims"])) > 0

        counters = tracer.counters
        assert counters.get("binmd.events", 0) > 0
        assert counters.get("mdnorm.trajectories", 0) > 0
        assert counters.get("h5lite.bytes_read", 0) > 0
        assert counters.get("jacc.launches", 0) > 0

    @pytest.mark.parametrize("backend", [None, "serial", "vectorized"])
    def test_spans_name_the_backend_that_ran(self, tiny_experiment, backend):
        """Op and algorithm spans record the resolved back end, the one
        the kernel spans report, never a placeholder; kernel spans also
        say which body form ran over how many elements."""
        ran = backend or default_backend().name
        body = {"serial": "element", "vectorized": "batch"}[ran]
        tracer = Tracer(label="backend")
        with use_tracer(tracer):
            _core_workflow(tiny_experiment, backend=backend).run()
        spans = _spans_by_name(tracer.records)
        for name in ("binmd", "mdnorm", "cross_section",
                     "kernel:bin_events", "kernel:mdnorm"):
            assert {r["attrs"]["backend"] for r in spans[name]} == {ran}, name
        for name in ("kernel:bin_events", "kernel:mdnorm"):
            for rec in spans[name]:
                assert rec["attrs"]["body"] == body, name
                assert rec["attrs"]["elements"] == int(
                    np.prod(rec["attrs"]["dims"])), name

    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_sharded_spans_name_the_backend_that_ran(self, tiny_experiment,
                                                     backend):
        """Shard ranges and windows run the batch bodies, so sharded
        op spans and the crossing fill name ``vectorized`` whatever
        ``--backend`` picked for the geometry pre-pass."""
        tracer = Tracer(label="sharded")
        wf = _core_workflow(tiny_experiment, backend=backend)
        wf.config.shards = 2
        with use_tracer(tracer):
            wf.run()
        spans = _spans_by_name(tracer.records)
        for name in ("binmd", "mdnorm", "intersections.fill_sort"):
            assert spans[name], name
            assert ({r["attrs"]["backend"] for r in spans[name]}
                    == {"vectorized"}), name

    def test_stealing_span_names_the_backend(self, tiny_experiment):
        tracer = Tracer(label="stealing")
        wf = _core_workflow(tiny_experiment, backend=None)
        wf.config.executor = "stealing"
        with use_tracer(tracer):
            wf.run()
        spans = _spans_by_name(tracer.records)
        assert spans["cross_section"][0]["attrs"]["executor"] == "stealing"
        assert ({r["attrs"]["backend"] for r in spans["cross_section"]}
                == {default_backend().name})

    def test_trace_counts_the_byte_split(self, tiny_experiment,
                                         large_experiment):
        """Runs of 2 MiB or more (Bixbyite-warm sized) CRC and key their
        bytes on two cores.  Tiny runs (Benzil-cold sized) reach the
        helper only through their deferred payload jobs: it hashes no
        more than each run's payload and Q rows, and no cancel fallback
        is taken.  The trace says which."""
        counters = {}
        for label, exp in (("tiny", tiny_experiment),
                           ("large", large_experiment)):
            tracer = Tracer(label=label)
            with use_tracer(tracer):
                _core_workflow(exp, backend="vectorized").run()
            counters[label] = tracer.counters
        tiny, large = counters["tiny"], counters["large"]
        # payload (8 columns) plus Q rows (3 columns), 8 bytes each
        job_bytes = sum(88 * ws.n_events for ws in tiny_experiment.workspaces)
        assert tiny["bytesplit.calls"] > 0
        assert tiny.get("bytesplit.helper_bytes", 0) <= job_bytes
        assert "bytesplit.inline" not in tiny
        assert large["bytesplit.calls"] > 0
        if bytesplit._cores() >= 2:
            assert tiny["nexus.payload_deferred"] == len(tiny_experiment.md_paths)
            assert large["bytesplit.helper_bytes"] > 0
        else:
            assert "nexus.payload_deferred" not in tiny
            assert "bytesplit.helper_bytes" not in tiny
            assert "bytesplit.helper_bytes" not in large

    def test_trace_counts_cold_mdnorm_segments(self, tiny_experiment):
        """Cold MDNorm counts its live rows and the real segments it
        interpolates and bins: at least one, at most every gap of every
        live row's padded buffer.  A warm re-reduction replays the
        deposit plan and adds none."""
        cache = GeomCache()
        tracer = Tracer(label="segments")
        with use_tracer(tracer):
            _core_workflow(tiny_experiment, backend="vectorized",
                           cache=cache).run()
        cold = tracer.counters
        width = max(r["attrs"]["width"]
                    for r in _spans_by_name(tracer.records)["mdnorm"])
        assert 0 < cold["mdnorm.segments"] \
            <= cold["mdnorm.live_rows"] * (width - 1)
        with use_tracer(tracer):
            _core_workflow(tiny_experiment, backend="vectorized",
                           cache=cache).run()
        warm = tracer.counters
        assert warm["mdnorm.trajectories"] == 2 * cold["mdnorm.trajectories"]
        assert warm["mdnorm.segments"] == cold["mdnorm.segments"]
        assert warm["mdnorm.live_rows"] == cold["mdnorm.live_rows"]

    def test_cpp_proxy_trace_schema(self, tiny_experiment):
        exp = tiny_experiment
        tracer = Tracer(label="cpp")
        cfg = CppProxyConfig(
            md_paths=exp.md_paths,
            flux_path=exp.flux_path,
            vanadium_path=exp.vanadium_path,
            instrument=exp.instrument,
            grid=exp.grid,
            point_group=exp.point_group,
            n_threads=1,
        )
        with use_tracer(tracer):
            CppProxyWorkflow(cfg).run()
        spans = _spans_by_name(tracer.records)
        assert spans["workflow"][0]["attrs"]["implementation"] == "cpp_proxy"
        assert len(spans["cpp.mdnorm"]) == 3
        assert len(spans["cpp.binmd"]) == 3
        for name in STAGE_NAMES:
            assert name in spans
        # the proxy kernels replace the jacc kernels entirely
        assert not any(n.startswith("kernel:") for n in spans)

    def test_minivates_trace_schema(self, tiny_experiment):
        exp = tiny_experiment
        tracer = Tracer(label="mv")
        cfg = MiniVatesConfig(
            md_paths=exp.md_paths,
            flux_path=exp.flux_path,
            vanadium_path=exp.vanadium_path,
            instrument=exp.instrument,
            grid=exp.grid,
            point_group=exp.point_group,
        )
        with use_tracer(tracer):
            MiniVatesWorkflow(cfg).run()
        spans = _spans_by_name(tracer.records)
        wf = spans["workflow"][0]["attrs"]
        assert wf["implementation"] == "minivates"
        assert wf["backend"] == "vectorized"
        kernel_backends = {
            rec["attrs"]["backend"]
            for name, recs in spans.items() if name.startswith("kernel:")
            for rec in recs
        }
        assert kernel_backends == {"vectorized"}
        gauges = tracer.gauges
        assert gauges["minivates.bytes_h2d"] > 0
        assert gauges["minivates.kernel_launches"] > 0
        assert tracer.counters.get("jacc.bytes_h2d", 0) > 0


class TestDeferredPayload:
    """The trace says what overlapped: payload jobs queued, pieces the
    caller ran at the join, and the join itself inside UpdateEvents."""

    def test_in_memory_runs_defer_their_payloads(self, tiny_experiment,
                                                 bytesplit_helper):
        exp = tiny_experiment
        tracer = Tracer(label="deferred")
        with use_tracer(tracer):
            _core_workflow(exp, backend="vectorized").run()
        n_runs = len(exp.md_paths)
        counters = tracer.counters
        assert counters["nexus.payload_deferred"] == n_runs
        # a read, one CRC32 range and two key leaves per (small) run
        assert 0 <= counters.get("nexus.payload_inline", 0) <= 4 * n_runs
        spans = _spans_by_name(tracer.records)
        by_id = {rec["span_id"]: rec for rec in tracer.records}
        joins = spans["nexus.join_payload"]
        assert sorted(r["attrs"]["run"] for r in joins) == list(range(n_runs))
        for rec in joins:
            assert by_id[rec["parent_id"]]["name"] == "UpdateEvents"

    @pytest.mark.parametrize("how", ["sharded", "stealing"])
    def test_no_key_leaves_without_a_cached_binmd(
        self, tiny_experiment, bytesplit_helper, monkeypatch, how
    ):
        """Sharded and stealing BinMD never look a key up: every load
        reads BinMD's five columns, no Q leaves are hashed, and the
        digested bytes equal a reduction whose runs load through plain
        ``load_md``."""
        digested = []
        digest_array = gc_mod.digest_array

        def spy_digest(arr):
            digested.append(np.asarray(arr).nbytes)
            return digest_array(arr)

        reads = []
        init = h5lite.PayloadRead.__init__

        def spy_init(read, datasets, hashed=()):
            reads.append(([ds.basename for ds in datasets], list(hashed)))
            init(read, datasets, hashed)

        monkeypatch.setattr(gc_mod, "digest_array", spy_digest)
        monkeypatch.setattr(h5lite.PayloadRead, "__init__", spy_init)

        def reduce():
            wf = _core_workflow(tiny_experiment, backend="vectorized")
            if how == "sharded":
                wf.config.shards = 2
            else:
                wf.config.executor = "stealing"
            digested.clear()
            wf.run()
            return sum(digested)

        begun = reduce()
        assert reads == [(["signal", "error_sq", "qx", "qy", "qz"],
                          [])] * len(tiny_experiment.md_paths)
        monkeypatch.setattr(workflow_mod, "begin_md", load_md)
        assert reduce() == begun > 0


class TestPerRankStreams:
    def test_run_world_four_ranks(self, tiny_experiment):
        tracer = Tracer(label="ranks")
        workflow = _core_workflow(tiny_experiment)
        with use_tracer(tracer):
            run_world(4, lambda comm: workflow.run(comm))
        records = tracer.records
        spans = _spans_by_name(records)
        rank_spans = spans["rank"]
        assert sorted(r["attrs"]["rank"] for r in rank_spans) == [0, 1, 2, 3]

        by_id = {r["span_id"]: r for r in records}

        def root_rank(rec):
            while rec["parent_id"] is not None:
                rec = by_id[rec["parent_id"]]
            return rec

        # every cross_section span sits under its own rank's root span,
        # and its rank attribution matches
        for cs in spans["cross_section"]:
            assert cs["rank"] is not None
            root = root_rank(cs)
            assert root["name"] == "rank"
            assert root["attrs"]["rank"] == cs["rank"]
            assert cs["attrs"]["mpi_size"] == 4

        # 3 runs over 4 ranks: each run span belongs to exactly one rank
        run_ranks = [r["rank"] for r in spans["run"]]
        assert len(run_ranks) == 3
        for r in spans["run"]:
            assert r["rank"] is not None

        # the summary renders one block per rank
        text = tracer.summary()
        for rank in range(4):
            assert f"rank {rank}" in text

    def test_per_rank_stage_timings_derivable(self, tiny_experiment):
        tracer = Tracer()
        workflow = _core_workflow(tiny_experiment)
        with use_tracer(tracer):
            run_world(2, lambda comm: workflow.run(comm))
        t0 = stage_timings_from_records(tracer.records, rank=0)
        t1 = stage_timings_from_records(tracer.records, rank=1)
        # both ranks timed a Total; the per-rank MDNorm call counts sum
        # to the number of runs
        assert t0.stages["Total"].ncalls == 1
        assert t1.stages["Total"].ncalls == 1
        n_calls = (t0.stages["MDNorm"].ncalls if "MDNorm" in t0.stages else 0) \
            + (t1.stages["MDNorm"].ncalls if "MDNorm" in t1.stages else 0)
        assert n_calls == 3


class TestBitIdentical:
    def test_tracing_on_off_identical_cross_section(self, tiny_experiment):
        # fresh caches so neither run warms the other
        on = _core_workflow(tiny_experiment, cache=GeomCache()).run
        off = _core_workflow(tiny_experiment, cache=GeomCache()).run

        tracer = Tracer(label="on")
        with use_tracer(tracer):
            res_on = on()
        with use_tracer(trace_mod.DISABLED):
            res_off = off()

        assert tracer.n_spans > 0
        np.testing.assert_array_equal(res_on.cross_section.signal,
                                      res_off.cross_section.signal)
        np.testing.assert_array_equal(res_on.binmd.signal,
                                      res_off.binmd.signal)
        np.testing.assert_array_equal(res_on.mdnorm.signal,
                                      res_off.mdnorm.signal)


class TestDifferentialTimings:
    def test_trace_derived_equals_live_stagetimings(self, tiny_experiment):
        tracer = Tracer(label="diff")
        timings = StageTimings(label="diff")
        with use_tracer(tracer):
            _core_workflow(tiny_experiment).run(timings=timings)
        derived = stage_timings_from_records(tracer.records, label="diff")
        for name in ("UpdateEvents", "MDNorm", "BinMD", "Total"):
            assert derived.seconds(name) == timings.seconds(name)  # exact
            assert derived.stages[name].ncalls == timings.stages[name].ncalls
            assert derived.first_call[name] == timings.first_call[name]
        assert derived.seconds("MDNorm + BinMD") == timings.seconds("MDNorm + BinMD")


class TestExportedFile:
    def test_written_trace_validates_and_summarizes(self, tiny_experiment,
                                                    tmp_path):
        tracer = Tracer(label="export")
        with use_tracer(tracer):
            _core_workflow(tiny_experiment).run()
        jsonl = str(tmp_path / "pipeline.jsonl")
        chrome = str(tmp_path / "pipeline_chrome.json")
        tracer.write_jsonl(jsonl)
        tracer.write_chrome_trace(chrome)

        info = validate_file(jsonl)
        for name in ("workflow", "cross_section", "run", "mdnorm", "binmd",
                     "UpdateEvents", "MDNorm", "BinMD", "Total"):
            assert name in info["span_names"]
        assert info["counters"]["binmd.events"] > 0

        # the summary reproduces the paper's WCT rows from the file alone
        from repro.util.trace import load_file, summary_from_records

        _, records = load_file(jsonl)
        text = summary_from_records(records, counters=info["counters"],
                                    label=info["label"])
        for row in ("UpdateEvents", "MDNorm", "BinMD", "MDNorm + BinMD",
                    "Total", "kernel:"):
            assert row in text


class TestOneReport:
    """``tracer.summary()`` is the one trace report: the shard fan-out
    and stealing blocks appear exactly when the trace has their spans,
    and ``repro trace summary FILE`` prints the same text offline."""

    @staticmethod
    def _report(exp, tmp_path, capsys, ranks=1, **config):
        from repro.cli import repro_main

        tracer = Tracer(label="report")
        wf = _core_workflow(exp, backend=None)
        for name, value in config.items():
            setattr(wf.config, name, value)
        with use_tracer(tracer):
            run_world(ranks, lambda comm: wf.run(comm))
        live = tracer.summary()
        path = str(tmp_path / "t.jsonl")
        tracer.write_jsonl(path)
        assert repro_main(["trace", "summary", path]) == 0
        assert capsys.readouterr().out == live + "\n"
        return live

    def test_unsharded_trace_prints_neither_block(self, tiny_experiment,
                                                  tmp_path, capsys):
        text = self._report(tiny_experiment, tmp_path, capsys)
        assert "-- kernels" in text
        assert "-- shard fan-out" not in text
        assert "-- elastic stealing" not in text
        assert "-- kernel launches" not in text

    def test_static_shards_print_the_fanout_block(self, tiny_experiment,
                                                  tmp_path, capsys):
        text = self._report(tiny_experiment, tmp_path, capsys, shards=3)
        block = text.split("-- shard fan-out\n")[1].split("\n-- ")[0]
        rows = {line.split()[0]: line.split()
                for line in block.splitlines()[1:]}
        assert sorted(rows) == ["binmd", "mdnorm"]
        for row in rows.values():
            # one fan-out per run, each cut into 3 shard tasks
            assert row[1:3] == ["3", "9"] and row[-1] == "3", row
        assert "-- elastic stealing" not in text

    def test_stealing_prints_the_stealing_block(self, tiny_experiment,
                                                tmp_path, capsys):
        text = self._report(tiny_experiment, tmp_path, capsys, ranks=2,
                            executor="stealing")
        block = text.split("-- elastic stealing\n")[1].split("\n-- ")[0]
        assert [line.split()[0] for line in block.splitlines()[1:]] == [
            "0", "1"]
        assert "-- shard fan-out" not in text

    def test_summary_expands_a_trace_directory(self, tiny_experiment,
                                              tmp_path, capsys):
        """A ``--out-dir`` directory reports each of its per-rank files,
        in name order."""
        from repro.cli import repro_main
        from repro.util.trace import load_file, summary_from_records

        tracer = Tracer(label="dir")
        wf = _core_workflow(tiny_experiment)
        with use_tracer(tracer):
            run_world(2, lambda comm: wf.run(comm))
        traces = str(tmp_path / "traces")
        paths = tracer.write_jsonl_dir(traces)
        assert len(paths) == 3  # main, rank0, rank1
        assert repro_main(["trace", "summary", traces]) == 0
        want = "\n\n".join(
            summary_from_records(load_file(p)[1], label="dir")
            for p in sorted(paths))
        assert capsys.readouterr().out == want + "\n"
