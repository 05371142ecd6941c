"""Fault tolerance of the in-process MPI layer: barrier timeouts,
party shrinkage on rank death, dead-slot masking in collectives, and
the runner's error attribution (satellite: ranks must not hang after a
peer dies).  The elastic-executor cases at the bottom pin the stealing
queue's exactly-once accounting under rank death and quarantine, read
back from the shard ids in the trace stream."""

import threading
import time

import numpy as np
import pytest

from repro.mpi import (
    SUM,
    BarrierTimeoutError,
    FaultTolerantBarrier,
    MPIError,
    run_world,
)
from repro.util import trace as trace_mod
from repro.util.faults import RankCrashError


class TestFaultTolerantBarrier:
    def test_plain_rendezvous(self):
        barrier = FaultTolerantBarrier(3)
        out = []

        def worker():
            out.append(barrier.wait(timeout=10.0))

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert sorted(out) == [0, 1, 2]

    def test_reusable_generations(self):
        barrier = FaultTolerantBarrier(2)
        hits = []

        def worker():
            for _ in range(5):
                barrier.wait(timeout=10.0)
                hits.append(1)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert len(hits) == 10

    def test_timeout_raises_in_expiring_thread(self):
        barrier = FaultTolerantBarrier(2)
        t0 = time.monotonic()
        with pytest.raises(BarrierTimeoutError, match="timed out"):
            barrier.wait(timeout=0.05)
        assert time.monotonic() - t0 < 5.0
        assert barrier.broken

    def test_timeout_breaks_barrier_for_peers(self):
        barrier = FaultTolerantBarrier(3)
        errors = []

        def early_waiter():
            try:
                barrier.wait(timeout=10.0)
            except threading.BrokenBarrierError:
                errors.append("broken")

        t = threading.Thread(target=early_waiter)
        t.start()
        time.sleep(0.02)
        with pytest.raises(BarrierTimeoutError):
            barrier.wait(timeout=0.05)
        t.join(timeout=10.0)
        assert errors == ["broken"]

    def test_default_timeout_used(self):
        barrier = FaultTolerantBarrier(2, default_timeout=0.05)
        with pytest.raises(BarrierTimeoutError):
            barrier.wait()

    def test_abort_matches_threading_barrier(self):
        barrier = FaultTolerantBarrier(2)
        barrier.abort()
        with pytest.raises(threading.BrokenBarrierError):
            barrier.wait(timeout=1.0)

    def test_mark_failed_shrinks_parties(self):
        barrier = FaultTolerantBarrier(3)
        barrier.mark_failed(2)
        assert barrier.alive == 2
        assert barrier.parties == 3

    def test_mark_failed_releases_pending_waiters(self):
        """The un-hang property: a waiter blocked on a rank that dies
        before the rendezvous is released when the death is declared."""
        barrier = FaultTolerantBarrier(3)
        released = threading.Event()

        def waiter():
            barrier.wait(timeout=30.0)
            released.set()

        t1 = threading.Thread(target=waiter)
        t2 = threading.Thread(target=waiter)
        t1.start(), t2.start()
        time.sleep(0.02)
        assert not released.is_set()
        barrier.mark_failed(2)  # 2 waiters now satisfy the reduced count
        t1.join(timeout=10.0), t2.join(timeout=10.0)
        assert released.is_set()
        assert not barrier.broken

    def test_mark_failed_never_drops_last_party(self):
        barrier = FaultTolerantBarrier(1)
        barrier.mark_failed(0)
        assert barrier.alive == 1


class TestDeadRankCollectives:
    """Collectives over a world with a marked-dead rank."""

    def _world(self, size, fn, **kw):
        return run_world(size, fn, barrier_timeout=30.0, **kw)

    def test_allreduce_skips_dead_rank(self):
        def fn(comm):
            if comm.rank == 1:
                comm.mark_failed({"runs": [1]})
                return None
            return comm.allreduce(10 + comm.rank, SUM)

        out = self._world(3, fn)
        assert out[0] == out[2] == 22  # 10 + 12, rank 1 masked
        assert out[1] is None

    def test_allgather_maps_dead_to_none(self):
        def fn(comm):
            if comm.rank == 0:
                comm.mark_failed()
                return None
            return comm.allgather(comm.rank)

        out = self._world(3, fn)
        assert out[1] == out[2] == [None, 1, 2]

    def test_array_reduce_skips_dead_rank(self):
        def fn(comm):
            send = np.full(4, float(comm.rank + 1))
            if comm.rank == 2:
                comm.mark_failed()
                return None
            recv = np.zeros(4) if comm.rank == 0 else None
            comm.Reduce(send, recv, SUM, root=0)
            return recv

        out = self._world(3, fn)
        assert np.array_equal(out[0], np.full(4, 3.0))  # 1 + 2, rank 2 dead

    def test_bcast_from_dead_root_raises(self):
        def fn(comm):
            if comm.rank == 0:
                comm.mark_failed()
                return None
            with pytest.raises(MPIError, match="root rank 0 is dead"):
                comm.bcast("payload", root=0)
            return "survived"

        out = self._world(2, fn)
        assert out[1] == "survived"

    def test_survivors_see_failed_disposition(self):
        def fn(comm):
            if comm.rank == 1:
                comm.mark_failed({"runs": [4, 5]})
                return None
            comm.barrier()  # completes with the shrunk party count
            return (comm.failed_ranks(), comm.alive_ranks(),
                    comm.is_alive(1))

        out = self._world(3, fn)
        failed, alive, one_alive = out[0]
        assert failed == {1: {"runs": [4, 5]}}
        assert alive == [0, 2]
        assert one_alive is False


class TestKillOneRank:
    """The satellite scenario: one rank dies mid-campaign and the rest
    of the world finishes instead of hanging."""

    def test_world_completes_after_rank_death(self):
        def fn(comm):
            if comm.rank == 1:
                # simulated node failure before this rank's collectives
                comm.mark_failed({"runs": list(range(2, 4))})
                return None
            # survivors: pick up the dead rank's leftovers, then reduce
            comm.barrier()
            leftovers = sorted(
                r for info in comm.failed_ranks().values()
                for r in info.get("runs", ())
            )
            share = [r for i, r in enumerate(leftovers)
                     if i % len(comm.alive_ranks())
                     == comm.alive_ranks().index(comm.rank)]
            return comm.allreduce(len(share), SUM)

        out = run_world(3, fn, barrier_timeout=30.0)
        assert out[1] is None
        assert out[0] == out[2] == 2  # both leftover runs reassigned

    def test_rank_crash_error_is_not_retried_into_hang(self):
        """A RankCrashError escaping a rank propagates as the root cause
        (single-rank worlds have no survivors to degrade to)."""
        def fn(comm):
            raise RankCrashError("run", "rank_crash", 1)

        with pytest.raises(RankCrashError):
            run_world(1, fn, barrier_timeout=10.0)

    def test_silent_death_times_out_not_hangs(self):
        """A rank that simply never shows up (no mark_failed — the crash
        was too hard to announce) must produce a timeout, not a hang."""
        def fn(comm):
            if comm.rank == 0:
                return None  # vanishes without declaring death
            comm.barrier()
            return comm.rank

        t0 = time.monotonic()
        with pytest.raises(BarrierTimeoutError):
            run_world(2, fn, barrier_timeout=0.2)
        assert time.monotonic() - t0 < 30.0

    def test_timeout_attribution_beats_broken_barrier(self):
        """Peers of the timing-out rank see BrokenBarrierError; the
        launcher must surface the BarrierTimeoutError as the cause."""
        def fn(comm):
            if comm.rank == 2:
                return None  # never reaches the rendezvous
            comm.barrier()
            return comm.rank

        with pytest.raises(BarrierTimeoutError):
            run_world(3, fn, barrier_timeout=0.2)


# ---------------------------------------------------------------------------
# elastic executor under rank death / quarantine (ISSUE 7 satellite)
# ---------------------------------------------------------------------------

N_STEAL_RUNS = 3
N_STEAL_SHARDS = 2


@pytest.fixture(scope="module")
def steal_exp(tmp_path_factory):
    """A 3-run micro experiment for the stealing fault scenarios."""
    from repro.core.grid import HKLGrid
    from repro.core.md_event_workspace import convert_to_md, load_md, save_md
    from repro.crystal.goniometer import Goniometer
    from repro.crystal.structures import benzil
    from repro.crystal.symmetry import point_group
    from repro.crystal.ub import UBMatrix
    from repro.instruments.corelli import make_corelli
    from repro.instruments.synth import (
        make_flux,
        make_vanadium,
        synthesize_run,
    )

    base = tmp_path_factory.mktemp("steal_ft")
    structure = benzil()
    instrument = make_corelli(n_pixels=18)
    ub = UBMatrix.from_u_vectors(structure.cell, [0.0, 0.0, 1.0],
                                 [1.0, 0.0, 0.0])
    paths = []
    for i, omega in enumerate((0.0, 45.0, 90.0)):
        run = synthesize_run(
            instrument=instrument, structure=structure, ub=ub,
            goniometer=Goniometer(omega).rotation, n_events=60,
            rng=np.random.default_rng(6400 + i), run_number=i,
        )
        path = str(base / f"run_{i}.md.h5")
        save_md(path, convert_to_md(run, instrument, run_index=i))
        paths.append(path)
    return dict(
        loader=lambda i: load_md(paths[i]),
        kw=dict(
            n_runs=N_STEAL_RUNS,
            grid=HKLGrid.benzil_grid(bins=(5, 5, 1)),
            point_group=point_group("321"),
            flux=make_flux(instrument),
            det_directions=instrument.directions,
            solid_angles=make_vanadium(instrument).detector_weights,
        ),
    )


class TestStealingExactlyOnce:
    """Rank death and quarantine against the shared steal queue: the
    trace stream's shard ids prove no cell is lost or double-counted."""

    def _campaign(self, steal_exp, schedule, *, size=3, plan=None):
        from repro.core.checkpoint import RecoveryConfig
        from repro.core.sharding import ShardConfig
        from repro.mpi.stealing import run_stealing_campaign
        from repro.util.faults import RetryPolicy, use_fault_plan

        recovery = RecoveryConfig(
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.0))

        def body(comm):
            return run_stealing_campaign(
                steal_exp["loader"], comm=comm, recovery=recovery,
                shards=ShardConfig(n_shards=N_STEAL_SHARDS),
                schedule=schedule, **steal_exp["kw"])

        if plan is not None:
            with use_fault_plan(plan):
                out = run_world(size, body, barrier_timeout=60.0)
        else:
            out = run_world(size, body, barrier_timeout=60.0)
        roots = [r for r in out if r is not None
                 and r.cross_section is not None]
        assert len(roots) == 1
        return roots[0]

    @staticmethod
    def _completed_cells(records):
        cells = {}
        for rec in trace_mod.iter_spans(records):
            if (rec["name"].startswith("steal:")
                    and rec["attrs"].get("completed")):
                key = (rec["attrs"]["run"], rec["name"].split(":", 1)[1],
                       rec["attrs"]["shard"])
                cells[key] = cells.get(key, 0) + 1
        return cells

    @staticmethod
    def _cells_of(runs):
        return {
            (run, stage, idx)
            for run in runs
            for stage in ("mdnorm", "binmd")
            for idx in range(N_STEAL_SHARDS)
        }

    def test_kill_rank_mid_steal_no_lost_no_double(self, steal_exp,
                                                   fine_gil_switching,
                                                   monkeypatch):
        """Rank 1 dies holding a claimed (stolen) task: the claim
        requeues and every planned shard completes exactly once on a
        survivor; the result matches the no-faults reference.

        Peers claim nothing until rank 1 holds a task, so the fault
        aimed at rank 1 fires however the rank threads are scheduled
        (otherwise its peers can take every task first)."""
        import threading

        from repro.mpi import stealing
        from repro.util import trace as trace_mod
        from repro.util.faults import FaultPlan, FaultSpec
        from repro.util.schedule import ScheduleController

        reference = self._campaign(
            steal_exp, ScheduleController(seed=0, policy="no-steal"), size=3)

        class RankOneFirst(stealing.StealQueue):
            """Holds every other rank's claims until rank 1 has one."""

            def __init__(self):
                super().__init__()
                self.rank_one_holds = threading.Event()

            def _gated(self, claim, rank, *args):
                if rank != 1:
                    assert self.rank_one_holds.wait(timeout=60.0)
                task = claim(rank, *args)
                if rank == 1 and task is not None:
                    self.rank_one_holds.set()
                return task

            def claim_own(self, rank):
                return self._gated(super().claim_own, rank)

            def claim_steal(self, thief, victim):
                return self._gated(super().claim_steal, thief, victim)

            def claim_orphan(self, thief):
                return self._gated(super().claim_orphan, thief)

        monkeypatch.setattr(stealing, "StealQueue", RankOneFirst)
        plan = FaultPlan(
            [FaultSpec(site="steal.task", kind="rank_crash",
                       probability=1.0, ranks=(1,), max_hits=1)],
            seed=3,
        )
        tracer = trace_mod.Tracer()
        with trace_mod.use_tracer(tracer):
            res = self._campaign(
                steal_exp,
                ScheduleController(seed=3, policy="random", p_steal=1.0),
                size=3, plan=plan)
        assert plan.stats()["injected"] == 1
        assert res.extras["recovery"]["failed_ranks"] == [1]
        cells = self._completed_cells(tracer.records)
        assert cells == {c: 1 for c in self._cells_of(range(N_STEAL_RUNS))}
        # the fault fires inside the task body, before q.complete(): the
        # span the crash interrupted must not be marked completed
        crashed = [
            rec for rec in trace_mod.iter_spans(tracer.records)
            if rec["name"].startswith("steal:")
            and rec["attrs"]["exec_rank"] == 1
            and not rec["attrs"].get("completed")
        ]
        assert len(crashed) == 1
        assert np.array_equal(res.binmd.signal, reference.binmd.signal)
        assert np.array_equal(res.cross_section.signal,
                              reference.cross_section.signal, equal_nan=True)

    def test_quarantine_accounting_stays_exact(self, steal_exp):
        """A run quarantines (persistent kernel fault) while the ranks
        steal: dropped cells never complete, and the surviving runs'
        cells still complete exactly once."""
        from repro.util import trace as trace_mod
        from repro.util.faults import FaultPlan, FaultSpec
        from repro.util.schedule import ScheduleController

        plan = FaultPlan(
            [FaultSpec(site="kernel.binmd", kind="kernel_error",
                       probability=1.0, runs=(1,))],
            seed=7,
        )
        tracer = trace_mod.Tracer()
        with trace_mod.use_tracer(tracer):
            res = self._campaign(
                steal_exp,
                ScheduleController(seed=7, policy="random"),
                size=2, plan=plan)
        assert res.degraded
        assert res.quarantined_runs == (1,)
        cells = self._completed_cells(tracer.records)
        # no cell ever completes twice, quarantine included
        assert all(n == 1 for n in cells.values()), cells
        # every cell of the surviving runs is present
        assert self._cells_of((0, 2)) <= set(cells)
        # run 1's binmd cells never complete (dropped, not lost)
        assert not any(
            run == 1 and stage == "binmd" for run, stage, _ in cells
        )
