"""End-to-end smoke of the campaign trace tooling.

The acceptance scenario of the causal-tracing PR on a small Benzil
campaign: per-rank files merge into one validating schema-v3 DAG, the
critical path reconciles with the measured wall-clock, steal links
resolve, an injected ``slow`` fault is flagged as a model-vs-measured
anomaly — and tracing on/off stays bit-identical in the science.
"""

import time
from typing import List

import numpy as np
import pytest

from repro.core.checkpoint import RecoveryConfig
from repro.core.grid import HKLGrid
from repro.core.md_event_workspace import convert_to_md, load_md, save_md
from repro.core.sharding import ShardConfig
from repro.crystal.goniometer import Goniometer
from repro.crystal.structures import benzil
from repro.crystal.symmetry import point_group
from repro.crystal.ub import UBMatrix
from repro.instruments.corelli import make_corelli
from repro.instruments.synth import make_flux, make_vanadium, synthesize_run
from repro.mpi import run_world
from repro.mpi.stealing import run_stealing_campaign
from repro.util import trace as trace_mod
from repro.util import tracedag
from repro.util.faults import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    use_fault_plan,
)
from repro.util.schedule import ScheduleController

N_RUNS = 3
N_SHARDS = 2
POLICY = RetryPolicy(max_attempts=3, base_delay_s=0.0)


@pytest.fixture(scope="module")
def exp(tmp_path_factory):
    base = tmp_path_factory.mktemp("critsmoke")
    structure = benzil()
    instrument = make_corelli(n_pixels=24)
    ub = UBMatrix.from_u_vectors(structure.cell, [0.0, 0.0, 1.0],
                                 [1.0, 0.0, 0.0])
    grid = HKLGrid.benzil_grid(bins=(7, 7, 1))
    pg = point_group("321")
    flux = make_flux(instrument)
    vanadium = make_vanadium(instrument)
    md_paths: List[str] = []
    for i, omega in enumerate((0.0, 40.0, 80.0)):
        run = synthesize_run(
            instrument=instrument, structure=structure, ub=ub,
            goniometer=Goniometer(omega).rotation, n_events=60,
            rng=np.random.default_rng(8300 + i), run_number=i,
        )
        ws = convert_to_md(run, instrument, run_index=i)
        path = str(base / f"run_{i}.md.h5")
        save_md(path, ws)
        md_paths.append(path)
    return {
        "md_paths": md_paths,
        "kw": dict(
            n_runs=N_RUNS, grid=grid, point_group=pg, flux=flux,
            det_directions=instrument.directions,
            solid_angles=vanadium.detector_weights,
        ),
    }


def _campaign(exp, *, size, schedule, tracer=None, plan=None):
    """One stealing world; returns (root result, wall seconds)."""

    def loader(i):
        return load_md(exp["md_paths"][i])

    def body(comm):
        return run_stealing_campaign(
            loader, comm=comm, recovery=RecoveryConfig(retry=POLICY),
            shards=ShardConfig(n_shards=N_SHARDS),
            schedule=schedule, **exp["kw"]
        )

    def launch():
        if plan is not None:
            with use_fault_plan(plan):
                return run_world(size, body, barrier_timeout=60.0)
        return run_world(size, body, barrier_timeout=60.0)

    t_start = time.monotonic()
    if tracer is None:
        results = launch()
    else:
        with trace_mod.use_tracer(tracer):
            with tracer.span("campaign", kind="campaign"):
                results = launch()
    wall = time.monotonic() - t_start
    roots = [r for r in results if r is not None
             and r.cross_section is not None]
    assert len(roots) == 1
    return roots[0], wall


class TestCritSmoke:
    def test_two_rank_stealing_campaign_reconciles(self, exp, tmp_path):
        tracer = trace_mod.Tracer(
            label="crit-smoke",
            campaign_id=trace_mod.new_campaign_id("crit-smoke"),
        )
        res, wall = _campaign(
            exp, size=2,
            schedule=ScheduleController(seed=5, policy="random", p_steal=1.0),
            tracer=tracer,
        )
        out = tmp_path / "traces"
        paths = tracer.write_jsonl_dir(str(out))
        assert len(paths) >= 3  # main + one per rank
        for p in paths:
            info = trace_mod.validate_file(p)
            assert info["schema"] == trace_mod.SCHEMA_VERSION
            assert info["campaign_id"] == tracer.campaign_id

        dag = tracedag.merge_dir(str(out))
        report = dag.validate()
        assert report["ok"] and report["roots"] == ["campaign"]
        assert report["n_steal_links"] >= 1

        # the critical path reconciles with the measured wall-clock:
        # never longer, and the campaign dominated by the reduction
        crit_s = dag.critical_seconds()
        assert crit_s <= wall + 1e-6
        assert crit_s >= 0.9 * wall, (crit_s, wall)

        # the report renders every block
        text = dag.crit_report()
        assert "blocking chain" in text
        assert "per-rank attribution" in text

    def test_tracing_is_bit_identical_to_disabled(self, exp):
        schedule = ScheduleController(seed=9, policy="random", p_steal=1.0)
        baseline, _ = _campaign(exp, size=2, schedule=schedule)
        tracer = trace_mod.Tracer(label="bitident")
        traced, _ = _campaign(
            exp, size=2,
            schedule=ScheduleController(seed=9, policy="random", p_steal=1.0),
            tracer=tracer,
        )
        assert np.array_equal(traced.binmd.signal, baseline.binmd.signal)
        assert np.array_equal(traced.mdnorm.signal,
                              baseline.mdnorm.signal)
        assert np.array_equal(traced.cross_section.signal,
                              baseline.cross_section.signal,
                              equal_nan=True)
        if baseline.binmd.error_sq is not None:
            assert np.array_equal(traced.binmd.error_sq,
                                  baseline.binmd.error_sq)


class TestAnomalyFlag:
    def test_injected_slow_fault_is_flagged(self, exp, tmp_path):
        """A ``slow`` fault on one shard-task site must surface as a
        model-vs-measured anomaly among its siblings."""
        tracer = trace_mod.Tracer(
            label="anomaly",
            campaign_id=trace_mod.new_campaign_id("anomaly"),
        )
        plan = FaultPlan(
            [FaultSpec(site="steal.task", kind="slow", probability=1.0,
                       max_hits=1, delay_s=0.35)],
            seed=13,
        )
        res, _ = _campaign(
            exp, size=2,
            schedule=ScheduleController(seed=13, policy="no-steal"),
            tracer=tracer, plan=plan,
        )
        assert plan.stats()["injected"] == 1
        out = tmp_path / "traces"
        tracer.write_jsonl_dir(str(out))
        dag = tracedag.merge_dir(str(out))
        dag.validate()
        flags = dag.anomalies()
        assert flags, "slow-faulted span not flagged"
        worst = max(flags, key=lambda f: f["deviation"])
        assert worst["name"].startswith("steal:")
        assert worst["dur"] >= 0.35
        assert worst["deviation"] > 1.5
