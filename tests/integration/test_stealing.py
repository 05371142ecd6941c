"""Steal-schedule fuzzing harness (ISSUE 7 centerpiece).

The elastic work-stealing executor's whole contract is that the steal
schedule is **numerically invisible**: for any interleaving of steals
and rank deaths the reduced histograms are bit-identical to the static
recovering loop on the in-memory ``vectorized`` back end (the oracle).
This suite attacks that claim from every angle the ScheduleController
and the fault plan can express:

* a fuzz matrix — 50 seeds x {2, 3, 4} ranks, rotating through every
  schedule policy, each campaign asserted bit-identical to the oracle;
* the policies by name — ``no-steal`` (the calibration leg: trivially
  the static plan), ``weighted`` and ``random`` — and a rank killed
  *while holding a claimed task* (fault injection at the
  ``steal.task`` site);
* exactly-once accounting — the trace stream carries one
  ``completed=True`` steal span per planned ``(run, stage, shard)``
  cell, under chaos included;
* the executor x back-end conformance sweep — the stealing result is
  bit-identical to the oracle on *every* registered back end (shards
  run the batch bodies; back ends only accelerate the exact-integer
  pre-pass);
* cancellation — the campaign's cancel token and deadline stop the
  stealing executor exactly as they stop the static loop.
"""

from dataclasses import dataclass
from typing import List

import numpy as np
import pytest

from repro.core.checkpoint import RecoveryConfig
from repro.core.cross_section import compute_cross_section
from repro.core.grid import HKLGrid
from repro.core.md_event_workspace import convert_to_md, load_md, save_md
from repro.core.sharding import ShardConfig
from repro.crystal.goniometer import Goniometer
from repro.crystal.structures import benzil
from repro.crystal.symmetry import point_group
from repro.crystal.ub import UBMatrix
from repro.instruments.corelli import make_corelli
from repro.instruments.synth import make_flux, make_vanadium, synthesize_run
from repro.jacc import available_backends
from repro.mpi import run_world
from repro.mpi.stealing import StealQueue, run_stealing_campaign
from repro.util import trace as trace_mod
from repro.util.faults import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    use_fault_plan,
)
from repro.util.schedule import POLICIES, ScheduleController
from repro.util.validation import ValidationError

N_RUNS = 3
N_SHARDS = 2
N_FUZZ_SEEDS = 50
SIZES = (2, 3, 4)
# the fuzz rotation: every policy at a rotating p_steal, plus an
# always-steal leg (``random`` with ``p_steal=1.0`` steals whenever a
# victim exists), the most adversarial schedule the controller has
FUZZ_SCHEDULES = (("weighted", None), ("random", None),
                  ("no-steal", None), ("random", 1.0))
POLICY = RetryPolicy(max_attempts=3, base_delay_s=0.0)

EXECUTORS = ("static", "stealing")
BACKENDS = tuple(available_backends())


@dataclass
class StealExperiment:
    """A 3-run experiment small enough for hundreds of campaigns."""

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
def exp(tmp_path_factory) -> StealExperiment:
    base = tmp_path_factory.mktemp("stealing")
    structure = benzil()
    instrument = make_corelli(n_pixels=24)
    ub = UBMatrix.from_u_vectors(structure.cell, [0.0, 0.0, 1.0],
                                 [1.0, 0.0, 0.0])
    grid = HKLGrid.benzil_grid(bins=(7, 7, 1))
    pg = point_group("321")
    flux = make_flux(instrument)
    vanadium = make_vanadium(instrument)
    md_paths = []
    for i, omega in enumerate((0.0, 40.0, 80.0)):
        run = synthesize_run(
            instrument=instrument, structure=structure, ub=ub,
            goniometer=Goniometer(omega).rotation, n_events=80,
            rng=np.random.default_rng(6200 + i), run_number=i,
        )
        ws = convert_to_md(run, instrument, run_index=i)
        path = str(base / f"run_{i}.md.h5")
        save_md(path, ws)
        md_paths.append(path)
    return StealExperiment(
        instrument=instrument, grid=grid, point_group=pg, flux=flux,
        vanadium=vanadium, md_paths=md_paths,
    )


@pytest.fixture(scope="module")
def golden(exp):
    """The oracle: the static recovering loop, in memory on the
    ``vectorized`` back end, fault-free."""
    return compute_cross_section(
        exp.loader, recovery=RecoveryConfig(retry=POLICY),
        backend="vectorized", **exp.kw()
    )


def _shards():
    return ShardConfig(n_shards=N_SHARDS)


def _steal_seq(exp, schedule, *, recovery=None, backend=None):
    return run_stealing_campaign(
        exp.loader,
        recovery=recovery or RecoveryConfig(retry=POLICY),
        shards=_shards(), schedule=schedule, backend=backend, **exp.kw()
    )


def _steal_world(exp, size, schedule, *, recovery=None, plan=None):
    """Run one multi-rank stealing campaign; return the root's result."""

    def body(comm):
        return run_stealing_campaign(
            exp.loader, comm=comm,
            recovery=recovery or RecoveryConfig(retry=POLICY),
            shards=_shards(), schedule=schedule, **exp.kw()
        )

    if plan is not None:
        with use_fault_plan(plan):
            results = run_world(size, body, barrier_timeout=60.0)
    else:
        results = run_world(size, body, barrier_timeout=60.0)
    roots = [r for r in results if r is not None
             and r.cross_section is not None]
    assert len(roots) == 1
    return roots[0]


def _assert_identical(res, golden, label=""):
    """Bit-identity against the oracle, error_sq included."""
    assert np.array_equal(res.binmd.signal, golden.binmd.signal), label
    assert np.array_equal(res.binmd.error_sq, golden.binmd.error_sq), label
    assert np.array_equal(res.mdnorm.signal, golden.mdnorm.signal), label
    assert np.array_equal(res.cross_section.signal,
                          golden.cross_section.signal, equal_nan=True), label


def _planned_cells():
    """Every (run, stage, shard) cell the plan cuts for this fixture:
    24 detectors and 80 in-memory events both split into N_SHARDS
    contiguous ranges per run."""
    return {
        (run, stage, idx)
        for run in range(N_RUNS)
        for stage in ("mdnorm", "binmd")
        for idx in range(N_SHARDS)
    }


def _completed_cells(records):
    """(run, stage, shard) of every completed steal span, with
    multiplicity (exactly-once accounting reads this)."""
    cells = {}
    for rec in trace_mod.iter_spans(records):
        if not rec["name"].startswith("steal:"):
            continue
        if not rec["attrs"].get("completed"):
            continue
        key = (rec["attrs"]["run"], rec["name"].split(":", 1)[1],
               rec["attrs"]["shard"])
        cells[key] = cells.get(key, 0) + 1
    return cells


# ---------------------------------------------------------------------------
# calibration + dispatch
# ---------------------------------------------------------------------------

class TestStaticEquivalence:
    def test_no_steal_is_the_static_plan(self, exp, golden):
        """The calibration leg: a schedule that never steals executes
        the static plan and must match it with zero steals."""
        res = _steal_seq(exp, ScheduleController(seed=0, policy="no-steal"))
        _assert_identical(res, golden)
        assert res.extras["stealing"]["steals"] == 0
        assert res.extras["stealing"]["tasks"] == 2 * N_SHARDS * N_RUNS
        assert res.extras["stealing"]["policy"] == "no-steal"

    def test_sequential_random_matches_static(self, exp, golden):
        res = _steal_seq(exp, ScheduleController(seed=3, policy="random"))
        _assert_identical(res, golden)

    def test_dispatch_through_compute_cross_section(self, exp, golden):
        """`executor="stealing"` routes the public entry point through
        the elastic executor; the result carries the stealing extras."""
        res = compute_cross_section(
            exp.loader, executor="stealing",
            schedule=ScheduleController(seed=5, policy="random"),
            recovery=RecoveryConfig(retry=POLICY),
            shards=_shards(), **exp.kw()
        )
        _assert_identical(res, golden)
        assert res.extras["stealing"]["seed"] == 5

    def test_schedule_without_dynamic_executor_rejected(self, exp):
        with pytest.raises(ValidationError, match="dynamic executor"):
            compute_cross_section(
                exp.loader, executor="static",
                schedule=ScheduleController(seed=0), **exp.kw()
            )

    def test_unknown_executor_rejected(self, exp):
        with pytest.raises(ValueError, match="stealing"):
            compute_cross_section(exp.loader, executor="fifo", **exp.kw())

    def test_kernel_impl_overrides_not_stealable(self, exp):
        with pytest.raises(ValidationError, match="not stealable"):
            run_stealing_campaign(
                exp.loader, binmd_impl=lambda *a, **k: None, **exp.kw()
            )

    def test_tasks_run_in_process(self, exp, golden, forbid_pool):
        """Every task runs in the claiming rank's thread: the process
        pool is never touched."""
        forbid_pool()
        res = run_stealing_campaign(
            exp.loader, recovery=RecoveryConfig(retry=POLICY),
            shards=_shards(),
            schedule=ScheduleController(seed=9, policy="random"), **exp.kw()
        )
        _assert_identical(res, golden)


# ---------------------------------------------------------------------------
# the fuzz matrix
# ---------------------------------------------------------------------------

class TestFuzzMatrix:
    """50 seeds x {2, 3, 4} ranks, schedules rotating (always-steal
    included) — every campaign bit-identical to the oracle, whatever
    got stolen."""

    @pytest.mark.parametrize("size", SIZES)
    def test_fifty_seeds_bit_identical(self, exp, golden, size):
        total_steals = 0
        for seed in range(N_FUZZ_SEEDS):
            policy, p_steal = FUZZ_SCHEDULES[seed % len(FUZZ_SCHEDULES)]
            if p_steal is None:
                p_steal = 0.25 + 0.5 * (
                    (seed // len(FUZZ_SCHEDULES)) % 3) / 2.0
            ctl = ScheduleController(seed=seed, policy=policy,
                                     p_steal=p_steal)
            res = _steal_world(exp, size, ctl)
            _assert_identical(
                res, golden,
                label=f"size={size} seed={seed} {policy} p={p_steal}")
            stats = res.extras["stealing"]
            assert stats["tasks"] == 2 * N_SHARDS * N_RUNS
            total_steals += stats["steals"]
        # the matrix is not vacuous: schedules other than no-steal
        # actually moved work between ranks
        assert total_steals > 0


# ---------------------------------------------------------------------------
# adversarial presets
# ---------------------------------------------------------------------------

class TestAdversarialSchedules:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("size", (2, 3))
    def test_named_policies(self, exp, golden, size, policy):
        ctl = ScheduleController(seed=13, policy=policy)
        res = _steal_world(exp, size, ctl)
        _assert_identical(res, golden,
                          label=f"{policy}@{size}")
        if policy == "no-steal":
            assert res.extras["stealing"]["steals"] == 0

    def test_death_holding_claimed_work(self, exp, golden,
                                        fine_gil_switching,
                                        rank_one_claims_first):
        """The hardest preset: the rank dies *inside* a task attempt,
        while the task is claimed.  The claim must requeue and execute
        exactly once elsewhere."""
        plan = FaultPlan(
            [FaultSpec(site="steal.task", kind="rank_crash",
                       probability=1.0, ranks=(1,), max_hits=1)],
            seed=19,
        )
        ctl = ScheduleController(seed=19, policy="random", p_steal=1.0)
        tracer = trace_mod.Tracer()
        with trace_mod.use_tracer(tracer):
            res = _steal_world(exp, 3, ctl, plan=plan)
        assert plan.stats()["injected"] == 1
        _assert_identical(res, golden)
        assert res.extras["recovery"]["failed_ranks"] == [1]
        assert tracer.counters["rank.crash"] == 1
        cells = _completed_cells(tracer.records)
        assert cells == {key: 1 for key in _planned_cells()}


# ---------------------------------------------------------------------------
# exactly-once accounting through the trace stream
# ---------------------------------------------------------------------------

class TestExactlyOnceAccounting:
    def test_every_planned_cell_completes_exactly_once(self, exp, golden):
        tracer = trace_mod.Tracer()
        ctl = ScheduleController(seed=41, policy="random", p_steal=1.0)
        with trace_mod.use_tracer(tracer):
            res = _steal_world(exp, 3, ctl)
        _assert_identical(res, golden)
        cells = _completed_cells(tracer.records)
        assert cells == {key: 1 for key in _planned_cells()}
        assert tracer.counters["mdnorm.shard_tasks"] == N_SHARDS * N_RUNS
        assert tracer.counters["binmd.shard_tasks"] == N_SHARDS * N_RUNS
        assert tracer.counters.get("steals", 0) == float(
            res.extras["stealing"]["steals"])
        assert "steal.queue_depth" in tracer.gauges

    def test_steal_spans_carry_provenance(self, exp):
        """Each stolen task's span names thief, victim and the planned
        owner — the audit trail the fault tests lean on."""
        tracer = trace_mod.Tracer()
        with trace_mod.use_tracer(tracer):
            res = _steal_world(
                exp, 2,
                ScheduleController(seed=43, policy="random", p_steal=1.0))
        stolen = [r for r in trace_mod.iter_spans(tracer.records)
                  if r["name"].startswith("steal:")
                  and r["attrs"].get("stolen")]
        assert res.extras["stealing"]["steals"] == len(stolen)
        assert stolen
        for rec in stolen:
            attrs = rec["attrs"]
            assert attrs["victim"] != attrs["exec_rank"]
            assert {"run", "shard", "owner", "exec_rank"} <= set(attrs)

    def test_failed_steal_leaves_no_victim_on_own_task(self, exp, golden,
                                                       monkeypatch):
        """A steal claim that misses (the victim drained in between)
        falls back to the rank's own queue; that task's span is not a
        steal and must not name a victim."""
        monkeypatch.setattr(StealQueue, "claim_steal",
                            lambda self, thief, victim: None)
        tracer = trace_mod.Tracer()
        with trace_mod.use_tracer(tracer):
            res = _steal_world(
                exp, 2,
                ScheduleController(seed=43, policy="random", p_steal=1.0))
        _assert_identical(res, golden)
        tasks = [r["attrs"] for r in trace_mod.iter_spans(tracer.records)
                 if r["name"].startswith("steal:")]
        assert tasks
        assert not [a for a in tasks if not a["stolen"] and "victim" in a]


# ---------------------------------------------------------------------------
# executor x back-end conformance sweep
# ---------------------------------------------------------------------------

class TestExecutorBackendConformance:
    """The stealing executor rides the back-end matrix: record/replay
    runs the batch bodies, so the campaign is bit-identical to the
    oracle on every registered back end (the back end only accelerates
    the exact-integer intersection pre-pass)."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_bit_identical_under_random_schedules(
        self, exp, golden, backend
    ):
        for seed in (0, 1, 2):
            res = _steal_seq(
                exp, ScheduleController(seed=seed, policy="random"),
                backend=backend,
            )
            _assert_identical(res, golden,
                              label=f"{backend} seed={seed}")
