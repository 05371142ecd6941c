"""The kernel-level performance model (PR 4 tentpole 1).

Locks down the cost model's arithmetic, the determinism of the
:class:`~repro.util.perf.PerfModel` rollup, and the "derived purely
from the trace" invariant: ``repro trace summary`` of a written
JSON-lines file prints exactly the live ``tracer.summary()``.
"""

import random

import pytest

from repro.util import perf
from repro.util import trace as trace_mod
from repro.util.perf import (
    BYTES_PER_EVENT_READ,
    BYTES_PER_EVENT_WRITE,
    BYTES_PER_SEGMENT_READ,
    BYTES_PER_SEGMENT_WRITE,
    BYTES_PER_TRAJ_READ,
    FLOPS_PER_EVENT,
    FLOPS_PER_SEGMENT,
    FLOPS_PER_TRAJ,
    KernelStats,
    PerfModel,
    WARM_BYTES_PER_SEGMENT_READ,
    WORK_KEYS,
    _is_warm,
    binmd_work,
    compare_traces,
    intersections_work,
    kernel_items,
    mdnorm_work,
    mdnorm_work_from_crossings,
    prepass_work,
)


# ---------------------------------------------------------------------------
# the cost model
# ---------------------------------------------------------------------------

class TestWorkFunctions:
    def test_binmd_work_cold(self):
        w = binmd_work(6, 1000, track_errors=True)
        lanes = 6 * 1000.0
        assert w["events"] == lanes
        assert w["bins_touched"] == lanes
        assert w["bytes_read"] == lanes * BYTES_PER_EVENT_READ
        assert w["bytes_written"] == lanes * BYTES_PER_EVENT_WRITE
        assert w["flops"] == lanes * FLOPS_PER_EVENT

    def test_binmd_work_without_errors_halves_writes(self):
        lanes = 2 * 500.0
        w = binmd_work(2, 500, track_errors=False)
        assert w["bytes_written"] == lanes * 8.0

    def test_binmd_work_warm_is_cheaper(self):
        cold = binmd_work(4, 100)
        warm = binmd_work(4, 100, cache_hit=True)
        assert warm["events"] == cold["events"]
        assert warm["flops"] < cold["flops"]
        assert warm["bytes_read"] < cold["bytes_read"]

    def test_mdnorm_work_shape(self):
        n_ops, n_det, width = 6, 50, 12
        w = mdnorm_work(n_ops, n_det, width)
        traj = float(n_ops * n_det)
        segments = traj * (width - 1)
        assert w["trajectories"] == traj
        assert w["segments"] == segments
        assert w["intersections"] == traj * (width - 2)
        assert w["bytes_read"] == (traj * BYTES_PER_TRAJ_READ
                                   + segments * BYTES_PER_SEGMENT_READ)
        assert w["bytes_written"] == segments * BYTES_PER_SEGMENT_WRITE
        assert w["flops"] == (traj * FLOPS_PER_TRAJ
                              + segments * FLOPS_PER_SEGMENT)

    def test_mdnorm_work_warm_plan_is_cheaper(self):
        cold = mdnorm_work(6, 50, 12)
        warm = mdnorm_work(6, 50, 12, warm_plan=True)
        assert warm["segments"] == cold["segments"]
        assert warm["flops"] < cold["flops"]
        assert warm["bytes_read"] < cold["bytes_read"]

    def test_mdnorm_work_warm_plan_counts_stored_segments(self):
        warm = mdnorm_work(6, 50, 12, warm_plan=True, stored_segments=100)
        assert warm["bins_touched"] == 100.0
        assert warm["bytes_read"] == 100.0 * WARM_BYTES_PER_SEGMENT_READ
        assert warm["bytes_written"] == 100.0 * BYTES_PER_SEGMENT_WRITE
        # without the plan's size the padded segment count bounds it
        bound = mdnorm_work(6, 50, 12, warm_plan=True)
        assert bound["bins_touched"] == 6 * 50 * 11

    def test_mdnorm_op_span_charges_live_rows(self):
        """The traced MDNorm op charges the rows that enter the box."""
        import numpy as np

        from repro.core.geom_cache import DISABLED
        from repro.core.grid import HKLGrid
        from repro.core.hist3 import Hist3
        from repro.core.mdnorm import mdnorm
        from repro.nexus.corrections import FluxSpectrum
        from repro.util.trace import Tracer, use_tracer

        grid = HKLGrid(basis=np.eye(3), minimum=(-2.0, -2.0, -0.5),
                       maximum=(2.0, 2.0, 0.5), bins=(8, 8, 1))
        rng = np.random.default_rng(5)
        dets = rng.normal(size=(40, 3))
        dets /= np.linalg.norm(dets, axis=1, keepdims=True)
        flux = FluxSpectrum(momentum=np.linspace(1.0, 12.0, 32),
                            density=np.ones(32))
        tracer = Tracer()
        with use_tracer(tracer):
            mdnorm(Hist3(grid), np.eye(3)[None], dets, np.ones(40), flux,
                   (2.0, 9.0), backend="vectorized", cache=DISABLED)
        (op,) = [r for r in tracer.records
                 if r.get("type") == "span" and r["name"] == "mdnorm"]
        live = tracer.counters["mdnorm.prepass_trajectories"]
        assert 0 < live < 40
        assert op["attrs"]["perf"]["trajectories"] == live

    def test_mdnorm_work_degenerate_width(self):
        w = mdnorm_work(2, 3, 0)
        assert w["segments"] == 0.0
        assert w["intersections"] == 0.0

    def test_mdnorm_work_from_crossings(self):
        w = mdnorm_work_from_crossings(100, 700)
        assert w["trajectories"] == 100.0
        assert w["intersections"] == 700.0
        # segments = crossings + one per trajectory
        assert w["segments"] == 800.0

    def test_intersections_work_sort_term_grows_superlinearly(self):
        w8 = intersections_work(10, 8)["flops"]
        w16 = intersections_work(10, 16)["flops"]
        assert w16 > 2 * w8  # w log w

    def test_prepass_and_items(self):
        assert prepass_work(10)["trajectories"] == 10.0
        assert kernel_items((4, 5, 6))["items"] == 120.0

    def test_all_work_dicts_use_known_keys(self):
        for w in (
            binmd_work(2, 3),
            binmd_work(2, 3, cache_hit=True),
            mdnorm_work(2, 3, 8),
            mdnorm_work(2, 3, 8, warm_plan=True),
            mdnorm_work_from_crossings(5, 9),
            intersections_work(5, 8),
            prepass_work(5),
            kernel_items((2, 2)),
        ):
            assert set(w) <= set(WORK_KEYS)
            assert all(isinstance(v, float) for v in w.values())


class TestWarmAttribution:
    def test_warm_plan_wins(self):
        assert _is_warm({"warm_plan": True}) is True

    def test_cache_hit_flag(self):
        assert _is_warm({"cache_hit": True}) is True
        assert _is_warm({"cache_hit": False}) is False

    def test_unknown_is_none(self):
        assert _is_warm({}) is None
        assert _is_warm({"backend": "serial"}) is None


# ---------------------------------------------------------------------------
# the rollup
# ---------------------------------------------------------------------------

def _span(name, seq, dur, attrs):
    return {
        "type": "span", "name": name, "seq": seq, "dur": dur,
        "t0": 0.0, "t1": dur, "span_id": seq, "parent_id": None,
        "rank": None, "thread": "main", "attrs": attrs,
    }


def _synthetic_records():
    rng = random.Random(77)
    records = []
    seq = 0
    for i in range(12):
        warm = i % 3 == 0
        records.append(_span(
            "mdnorm", seq, 0.01 + 0.001 * i,
            {"backend": "vectorized", "warm_plan": warm,
             "perf": mdnorm_work(6, 40, 10, warm_plan=warm)},
        ))
        seq += 1
        records.append(_span(
            "binmd", seq, 0.02 + 0.001 * i,
            {"backend": "vectorized", "cache_hit": i % 2 == 0,
             "perf": binmd_work(6, 500 + i, cache_hit=i % 2 == 0)},
        ))
        seq += 1
        # an unprofiled span must not contribute
        records.append(_span("run", seq, 0.5, {"run": i}))
        seq += 1
    records.append({"type": "metrics",
                    "counters": {"geom_cache.hit": 4.0,
                                 "binmd.events": 6000.0},
                    "gauges": {"minivates.bytes_h2d": 123.0}})
    rng.shuffle(records)  # from_records must not care
    return records


class TestPerfModel:
    def test_rollup_basics(self):
        model = PerfModel.from_records(_synthetic_records())
        assert model.n_kernels == 2
        md = model.get("mdnorm", "vectorized")
        bd = model.get("binmd", "vectorized")
        assert md.launches == 12 and bd.launches == 12
        assert md.warm_launches == 4 and md.cold_launches == 8
        assert bd.warm_launches == 6
        assert md.trajectories_per_s > 0
        assert bd.events_per_s > 0

    def test_rates_are_work_over_seconds(self):
        model = PerfModel.from_records(_synthetic_records())
        k = model.get("binmd", "vectorized")
        assert k.events_per_s == pytest.approx(
            k.work["events"] / k.seconds
        )
        assert k.arithmetic_intensity == pytest.approx(
            k.work["flops"] / (k.work["bytes_read"] + k.work["bytes_written"])
        )

    def test_rollup_deterministic_over_50_shuffles(self):
        base = PerfModel.from_records(_synthetic_records()).rows()
        records = _synthetic_records()
        for seed in range(50):
            shuffled = list(records)
            random.Random(seed).shuffle(shuffled)
            assert PerfModel.from_records(shuffled).rows() == base

    def test_cold_warm_summary(self):
        """Every launch is either cold or warm, and the split is in the
        table's ``cold s`` and ``warm s`` columns."""
        model = PerfModel.from_records(_synthetic_records())
        for k in model.rows():
            assert k.cold_launches + k.warm_launches == k.launches == 12
            assert k.cold_seconds > 0.0 and k.warm_seconds > 0.0
            assert k.cold_seconds + k.warm_seconds == pytest.approx(k.seconds)
        rows = {line.split()[0]: line.split()
                for line in model.table().splitlines()[2:]}
        for k in model.rows():
            assert rows[k.name][-2:] == [f"{k.cold_seconds:.4f}",
                                         f"{k.warm_seconds:.4f}"]

    def test_table_renders_every_kernel(self):
        model = PerfModel.from_records(_synthetic_records())
        text = model.table()
        assert "mdnorm" in text and "binmd" in text
        assert "events/s" in text and "isects/s" in text

    def test_items_only_row_prints_dash_not_zero(self):
        # a jacc kernel span carries only ``items``: no byte count, so
        # its GB/s and AI cells are "-"
        records = _synthetic_records() + [_span(
            "kernel:bin_events", 10_000, 0.004,
            {"backend": "vectorized", "perf": kernel_items((128,))},
        )]
        model = PerfModel.from_records(records)
        rows = {line.split()[0]: line.split()
                for line in model.table().splitlines()[2:]}
        gbs, ai = rows["kernel:bin_events"][7:9]
        assert (gbs, ai) == ("-", "-")
        assert rows["binmd"][7] != "-" and float(rows["binmd"][7]) > 0.0

    def test_empty_model(self):
        model = PerfModel.from_records([])
        assert model.n_kernels == 0
        assert "(no profiled spans" in model.table()


# ---------------------------------------------------------------------------
# derived purely from the trace: offline == live
# ---------------------------------------------------------------------------

class TestOfflineRecompute:
    def test_written_file_reproduces_live_rollup(self, tmp_path, capsys):
        """``repro trace summary FILE`` prints exactly the live
        ``tracer.summary()``: kernel rows, cold/warm split, counters
        and gauges all come back from the file alone."""
        from repro.cli import repro_main

        tracer = trace_mod.Tracer(label="perf-offline")
        with trace_mod.use_tracer(tracer):
            for i in range(4):
                with tracer.span("mdnorm", backend="serial",
                                 warm_plan=i % 2 == 1,
                                 perf=mdnorm_work(2, 10, 6,
                                                  warm_plan=i % 2 == 1)):
                    pass
                with tracer.span("binmd", backend="serial",
                                 perf=binmd_work(2, 50)):
                    pass
            tracer.count("geom_cache.hit", 3)
            tracer.gauge("minivates.bytes_h2d", 42.0)
        live = tracer.summary()
        assert "-- kernels" in live and "geom_cache.hit" in live
        path = str(tmp_path / "t.jsonl")
        tracer.write_jsonl(path)
        assert repro_main(["trace", "summary", path]) == 0
        assert capsys.readouterr().out == live + "\n"


# ---------------------------------------------------------------------------
# the differential report
# ---------------------------------------------------------------------------

class TestCompareTraces:
    def test_compare_smoke(self):
        a = _synthetic_records()
        # B: same work, half the time -> ratios ~0.5 / rates ~2x
        b = []
        for r in _synthetic_records():
            r = dict(r)
            if r.get("type") == "span":
                r["dur"] = r["dur"] / 2.0
            b.append(r)
        text = compare_traces(a, b, label_a="slow", label_b="fast")
        assert "A=slow" in text and "B=fast" in text
        assert "mdnorm [vectorized]" in text
        assert "binmd [vectorized]" in text

    def test_compare_handles_disjoint_kernels(self):
        a = [_span("mdnorm", 0, 0.1,
                   {"backend": "serial", "perf": mdnorm_work(1, 5, 6)})]
        b = [_span("binmd", 0, 0.1,
                   {"backend": "cpp", "perf": binmd_work(1, 10)})]
        text = compare_traces(a, b)
        assert "mdnorm [serial]" in text
        assert "binmd [cpp]" in text
        assert "n/a" in text


class TestKernelStats:
    def test_zero_seconds_rates_are_zero(self):
        k = KernelStats(name="x", backend="-")
        assert k.rate("events") == 0.0
        assert k.bytes_per_s == 0.0
        assert k.arithmetic_intensity == 0.0

    def test_si_notation(self):
        assert perf._si(0.0) == "-"
        assert perf._si(1234.0) == "1.23k"
        assert perf._si(2.5e6) == "2.50M"
        assert perf._si(3.0e9) == "3.00G"
        assert perf._si(12.0) == "12.0"


class TestStealSummary:
    """Per-rank attribution of the stealing executor's task spans."""

    @staticmethod
    def _records():
        return [
            _span("steal:binmd", 1, 2.0,
                  {"kind": "steal_task", "exec_rank": 0, "completed": True}),
            _span("steal:mdnorm", 2, 1.0,
                  {"kind": "steal_task", "exec_rank": 0, "completed": True}),
            _span("steal:binmd", 3, 0.5,
                  {"kind": "steal", "exec_rank": 1, "owner": 0,
                   "victim": 0, "stolen": True, "completed": True}),
            _span("steal:binmd", 4, 0.5,
                  {"kind": "steal_task", "exec_rank": 1, "completed": False}),
            # non-stealing spans must be invisible to the rollup
            _span("kernel:binmd", 5, 9.0, {"kind": "kernel"}),
            {"type": "metrics", "counters": {"steals": 1.0}, "gauges": {}},
        ]

    def test_rolls_up_per_rank(self):
        s = perf.steal_summary(self._records())
        assert sorted(s) == [0, 1]
        assert s[0]["tasks"] == 2.0 and s[0]["stolen"] == 0.0
        assert s[0]["task_seconds"] == pytest.approx(3.0)
        assert s[1]["tasks"] == 2.0 and s[1]["stolen"] == 1.0
        assert s[1]["stolen_seconds"] == pytest.approx(0.5)
        assert s[1]["incomplete"] == 1.0

    def test_table_renders_share_and_totals(self):
        text = perf.steal_table(perf.steal_summary(self._records()))
        assert "elastic stealing" in text
        lines = text.splitlines()
        assert any(line.strip().startswith("0") for line in lines)
        assert "50.0%" in text  # rank 1: 0.5 stolen of 1.0 busy seconds

    def test_empty_trace_degrades_gracefully(self):
        assert perf.steal_summary([]) == {}
        assert "no stealing-executor spans" in perf.steal_table({})
