"""Live campaign monitoring, end to end (PR 4 tentpole 3).

Heartbeats and per-rank gauges from the real Algorithm-1 loop under
``run_world(4)``, stall detection with an injected clock, quarantine /
resume / crash visibility from the PR 3 recovery protocol, and the
OpenMetrics text exposition (atomic file + parse round-trip).
"""

import math
import threading
from dataclasses import dataclass
from typing import List

import numpy as np
import pytest

from repro.core.checkpoint import CheckpointManager, RecoveryConfig
from repro.core.cross_section import compute_cross_section
from repro.core.grid import HKLGrid
from repro.core.md_event_workspace import convert_to_md, load_md, save_md
from repro.crystal.goniometer import Goniometer
from repro.crystal.structures import benzil
from repro.crystal.symmetry import point_group
from repro.crystal.ub import UBMatrix
from repro.instruments.corelli import make_corelli
from repro.instruments.synth import make_flux, make_vanadium, synthesize_run
from repro.mpi import run_world
from repro.util.faults import (
    FaultPlan,
    FaultSpec,
    RankCrashError,
    RetryPolicy,
    use_fault_plan,
)
from repro.util.monitor import (
    DISABLED,
    CampaignMonitor,
    NullMonitor,
    active_monitor,
    parse_metrics,
    use_monitor,
    watch_report,
)

N_RUNS = 4
POLICY = RetryPolicy(max_attempts=2, base_delay_s=0.0)


@dataclass
class MicroExperiment:
    instrument: object
    grid: HKLGrid
    point_group: object
    flux: object
    vanadium: object
    md_paths: List[str]

    def loader(self, i):
        return load_md(self.md_paths[i])

    def kw(self):
        return dict(
            n_runs=len(self.md_paths),
            grid=self.grid,
            point_group=self.point_group,
            flux=self.flux,
            det_directions=self.instrument.directions,
            solid_angles=self.vanadium.detector_weights,
        )


@pytest.fixture(scope="module")
def exp(tmp_path_factory) -> MicroExperiment:
    base = tmp_path_factory.mktemp("monitor")
    structure = benzil()
    instrument = make_corelli(n_pixels=120)
    ub = UBMatrix.from_u_vectors(structure.cell, [0.0, 0.0, 1.0],
                                 [1.0, 0.0, 0.0])
    grid = HKLGrid.benzil_grid(bins=(13, 13, 1))
    pg = point_group("321")
    flux = make_flux(instrument)
    vanadium = make_vanadium(instrument)
    md_paths = []
    for i, omega in enumerate((0.0, 30.0, 60.0, 90.0)):
        run = synthesize_run(
            instrument=instrument, structure=structure, ub=ub,
            goniometer=Goniometer(omega).rotation, n_events=300,
            rng=np.random.default_rng(8400 + i), run_number=i,
        )
        ws = convert_to_md(run, instrument, run_index=i)
        path = str(base / f"run_{i}.md.h5")
        save_md(path, ws)
        md_paths.append(path)
    return MicroExperiment(
        instrument=instrument, grid=grid, point_group=pg, flux=flux,
        vanadium=vanadium, md_paths=md_paths,
    )


class TestHeartbeats:
    def test_sequential_campaign_fully_accounted(self, exp):
        mon = CampaignMonitor(label="seq")
        with use_monitor(mon):
            res = compute_cross_section(exp.loader, **exp.kw())
        assert res.cross_section is not None
        snap = mon.snapshot()
        assert snap["n_runs"] == N_RUNS
        assert snap["runs_completed"] == N_RUNS
        assert snap["events_processed"] == pytest.approx(4 * 300.0)
        assert snap["finished_at"] is not None
        assert snap["eta_seconds"] == 0.0
        [rank] = snap["ranks"]
        assert rank["rank"] == 0
        assert rank["runs_assigned"] == N_RUNS
        assert rank["status"] == "done"

    def test_four_rank_world_heartbeats(self, exp):
        mon = CampaignMonitor(label="world4")

        def body(comm):
            # the process-global monitor is shared by the rank threads
            return compute_cross_section(exp.loader, comm=comm, **exp.kw())

        with use_monitor(mon):
            run_world(4, body)
        snap = mon.snapshot()
        assert [r["rank"] for r in snap["ranks"]] == [0, 1, 2, 3]
        assert snap["runs_completed"] == N_RUNS
        assert sum(r["runs_assigned"] for r in snap["ranks"]) == N_RUNS
        assert all(r["status"] == "done" for r in snap["ranks"])
        assert snap["stalled_ranks"] == []

    def test_monitoring_does_not_change_the_result(self, exp):
        bare = compute_cross_section(exp.loader, **exp.kw())
        with use_monitor(CampaignMonitor()):
            monitored = compute_cross_section(exp.loader, **exp.kw())
        assert np.array_equal(bare.cross_section.signal,
                              monitored.cross_section.signal,
                              equal_nan=True)

    def test_default_monitor_is_disabled(self):
        assert active_monitor() is DISABLED
        assert not DISABLED.enabled
        # NullMonitor swallows everything without growing state
        DISABLED.heartbeat(0, site="x")
        DISABLED.run_completed(0, 0, events=5.0)
        assert DISABLED.snapshot()["runs_completed"] == 0


class TestStallDetection:
    def test_stall_detector_with_injected_clock(self):
        t = [100.0]
        mon = CampaignMonitor(stall_deadline=30.0, clock=lambda: t[0])
        mon.start_campaign(4, 2)
        mon.heartbeat(0, site="run:0/MDNorm", run=0)
        mon.heartbeat(1, site="run:2/BinMD", run=2)
        assert mon.stalled_ranks() == []
        t[0] = 120.0
        mon.heartbeat(1)  # rank 1 keeps making progress
        t[0] = 140.0
        assert mon.stalled_ranks() == [0]  # 40 s silent > 30 s deadline
        assert mon.snapshot()["stalled_ranks"] == [0]
        t[0] = 180.0
        assert mon.stalled_ranks() == [0, 1]
        mon.finish_campaign()
        assert mon.stalled_ranks() == []  # a finished campaign never stalls

    def test_slow_fault_shows_as_late_heartbeat(self, exp):
        """The PR 3 ``slow`` fault delays a run; the heartbeat ages."""
        mon = CampaignMonitor(stall_deadline=0.02)
        plan = FaultPlan(
            [FaultSpec(site="run", kind="slow", probability=1.0,
                       delay_s=0.06, runs=(1,), max_hits=1)],
            seed=3,
        )
        stalls = []

        def spy_loader(i):
            stalls.append(mon.stalled_ranks())
            return exp.loader(i)

        with use_monitor(mon), use_fault_plan(plan):
            compute_cross_section(
                spy_loader, recovery=RecoveryConfig(retry=POLICY),
                **exp.kw(),
            )
        # the run after the injected sleep saw rank 0 past its deadline
        assert any(0 in s for s in stalls)

    def test_eta_estimator(self):
        t = [0.0]
        mon = CampaignMonitor(clock=lambda: t[0])
        mon.start_campaign(4, 1)
        assert mon.eta_seconds() is None  # no throughput sample yet
        t[0] = 10.0
        mon.run_completed(0, 0)
        # 1 run / 10 s -> 3 remaining at 10 s each
        assert mon.eta_seconds() == pytest.approx(30.0)
        t[0] = 20.0
        mon.run_completed(0, 1)
        assert mon.eta_seconds() == pytest.approx(20.0)
        mon.record_quarantine(0, 2)  # accounted, not completed
        mon.run_completed(0, 3)
        assert mon.eta_seconds() == 0.0


class TestRecoveryVisibility:
    def test_quarantine_is_visible(self, exp):
        mon = CampaignMonitor()
        plan = FaultPlan(
            [FaultSpec(site="run", kind="io_error", probability=1.0,
                       runs=(1,))],
            seed=5,
        )
        with use_monitor(mon), use_fault_plan(plan):
            res = compute_cross_section(
                exp.loader, recovery=RecoveryConfig(retry=POLICY),
                **exp.kw(),
            )
        assert res.quarantined_runs == (1,)
        snap = mon.snapshot()
        assert snap["runs_quarantined"] == 1
        assert snap["runs_completed"] == N_RUNS - 1
        assert snap["eta_seconds"] == 0.0  # degraded campaign converges
        text = mon.openmetrics()
        parsed = parse_metrics(text)
        assert parsed["repro_campaign_runs_quarantined"][()] == 1.0

    def test_resume_is_visible(self, exp, tmp_path):
        ck = CheckpointManager(tmp_path / "ck", config_digest="mon")
        with use_monitor(CampaignMonitor()):
            compute_cross_section(
                exp.loader,
                recovery=RecoveryConfig(retry=POLICY, checkpoint=ck),
                **exp.kw(),
            )
        mon2 = CampaignMonitor()
        ck2 = CheckpointManager(tmp_path / "ck", config_digest="mon")
        with use_monitor(mon2):
            compute_cross_section(
                exp.loader,
                recovery=RecoveryConfig(retry=POLICY, checkpoint=ck2,
                                        resume=True),
                **exp.kw(),
            )
        snap = mon2.snapshot()
        assert snap["runs_resumed"] == N_RUNS
        assert snap["runs_completed"] == N_RUNS

    def test_crash_is_visible(self, exp):
        mon = CampaignMonitor()
        plan = FaultPlan(
            [FaultSpec(site="run", kind="rank_crash", probability=1.0,
                       ranks=(1,), max_hits=1)],
            seed=7,
        )

        def body(comm):
            return compute_cross_section(
                exp.loader, comm=comm,
                recovery=RecoveryConfig(retry=POLICY), **exp.kw(),
            )

        with use_monitor(mon), use_fault_plan(plan):
            run_world(2, body)
        snap = mon.snapshot()
        assert snap["crashed_ranks"] == [1]
        assert snap["runs_completed"] == N_RUNS  # survivors adopted the backlog
        parsed = parse_metrics(mon.openmetrics())
        info = parsed["repro_rank_info"]
        statuses = {dict(labels)["rank"]: dict(labels)["status"]
                    for labels in info}
        assert statuses["1"] == "crashed"


class TestOpenMetrics:
    def test_exposition_round_trip(self):
        t = [50.0]
        mon = CampaignMonitor(label="om", clock=lambda: t[0])
        mon.start_campaign(3, 2)
        mon.assign_runs(0, 2)
        mon.assign_runs(1, 1)
        mon.heartbeat(0, site="run:0/MDNorm", run=0)
        t[0] = 60.0
        mon.run_completed(0, 0, events=1200.0)
        text = mon.openmetrics()
        assert text.rstrip().endswith("# EOF")
        parsed = parse_metrics(text)
        assert parsed["repro_campaign_runs_total"][()] == 3.0
        assert parsed["repro_campaign_runs_completed"][()] == 1.0
        assert parsed["repro_campaign_events_processed"][()] == 1200.0
        assert parsed["repro_campaign_eta_seconds"][()] == pytest.approx(20.0)
        per_rank = parsed["repro_rank_runs_completed"]
        assert per_rank[(("rank", "0"),)] == 1.0
        assert per_rank[(("rank", "1"),)] == 0.0

    def test_eta_nan_before_first_completion(self):
        mon = CampaignMonitor()
        mon.start_campaign(2, 1)
        mon.heartbeat(0, site="run:0/UpdateEvents", run=0)
        parsed = parse_metrics(mon.openmetrics())
        assert math.isnan(parsed["repro_campaign_eta_seconds"][()])

    def test_metrics_file_written_during_campaign(self, exp, tmp_path):
        path = str(tmp_path / "metrics.txt")
        mon = CampaignMonitor(metrics_path=path)
        with use_monitor(mon):
            compute_cross_section(exp.loader, **exp.kw())
        with open(path) as fh:
            text = fh.read()
        assert text.rstrip().endswith("# EOF")
        parsed = parse_metrics(text)
        assert parsed["repro_campaign_runs_completed"][()] == float(N_RUNS)
        report = watch_report(path)
        assert f"{N_RUNS}/{N_RUNS} runs" in report
        assert "rank" in report

    def test_parse_rejects_garbage(self):
        with pytest.raises(Exception):
            parse_metrics("this is {not a metric line")


class TestMonitorPlumbing:
    def test_use_monitor_restores_previous(self):
        mon = CampaignMonitor()
        assert active_monitor() is DISABLED
        with use_monitor(mon):
            assert active_monitor() is mon
        assert active_monitor() is DISABLED

    def test_null_monitor_is_reusable_across_campaigns(self):
        null = NullMonitor()
        null.start_campaign(5, 2)
        null.record_crash(0)
        assert null.snapshot()["n_runs"] == 0

    def test_thread_safety_smoke(self):
        mon = CampaignMonitor()
        mon.start_campaign(64, 8)

        def pound(rank):
            for i in range(50):
                mon.heartbeat(rank, site=f"run:{i}/MDNorm", run=i)
                mon.run_completed(rank, i, events=1.0)

        threads = [threading.Thread(target=pound, args=(r,)) for r in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        snap = mon.snapshot()
        assert snap["runs_completed"] == 8 * 50
        assert snap["events_processed"] == 400.0


class TestGaugeLabels:
    """Ad-hoc gauges published next to the campaign metrics."""

    def test_set_gauge_round_trip(self):
        mon = CampaignMonitor()
        mon.set_gauge("trace_anomalies", 3)
        mon.set_gauge("trace_critical_seconds", 1.0, run="1", stage="BinMD")
        parsed = parse_metrics(mon.openmetrics())
        assert parsed["repro_trace_anomalies"][()] == 3.0
        key = (("run", "1"), ("stage", "BinMD"))
        assert parsed["repro_trace_critical_seconds"][key] == 1.0

    def test_labelled_round_trip_through_parse_metrics(self):
        mon = CampaignMonitor()
        mon.set_gauge("trace_critical_seconds", 2, shard="s0", rank="1")
        text = mon.openmetrics()
        parsed = parse_metrics(text)
        key = (("rank", "1"), ("shard", "s0"))
        assert parsed["repro_trace_critical_seconds"][key] == 2.0


class TestLabelEscaping:
    """Label-value escaping per the Prometheus exposition spec:
    backslash, double quote and newline must survive a write/parse
    round trip (satellite of the causal-tracing PR)."""

    def test_quote_backslash_newline_round_trip(self):
        nasty = 'run "A"\\steal\nphase'
        mon = CampaignMonitor()
        mon.set_gauge("trace_anomalies", 1.0, run=nasty, site='x"y\\z')
        parsed = parse_metrics(mon.openmetrics())
        key = (("run", nasty), ("site", 'x"y\\z'))
        assert parsed["repro_trace_anomalies"][key] == 1.0

    def test_closing_brace_inside_label_value(self):
        mon = CampaignMonitor()
        mon.set_gauge("trace_anomalies", 2.0, site="shard{3}of4")
        parsed = parse_metrics(mon.openmetrics())
        key = (("site", "shard{3}of4"),)
        assert parsed["repro_trace_anomalies"][key] == 2.0

    def test_escaped_backslash_before_n_is_not_newline(self):
        # the classic chained-replace bug: a literal backslash followed
        # by the letter n must NOT come back as a newline
        mon = CampaignMonitor()
        mon.set_gauge("trace_anomalies", 3.0, path="C:\\new\\nodes")
        parsed = parse_metrics(mon.openmetrics())
        key = (("path", "C:\\new\\nodes"),)
        assert parsed["repro_trace_anomalies"][key] == 3.0

    def test_rank_info_site_with_quotes(self):
        mon = CampaignMonitor()
        mon.start_campaign(n_runs=1, world_size=1)
        mon.heartbeat(0, site='run:0/"BinMD"/shard:1of2', run=0)
        parsed = parse_metrics(mon.openmetrics())
        sites = [dict(k).get("site")
                 for k in parsed["repro_rank_info"]]
        assert 'run:0/"BinMD"/shard:1of2' in sites
