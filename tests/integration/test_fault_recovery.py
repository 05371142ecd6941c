"""Fault-tolerant reduction, end to end (PR 3 acceptance suite).

Covers the failure model's contract on the real pipeline:

* the recovering loop with no faults matches the historical loop;
* every (fault site x fault kind) pair is survivable: transient faults
  are retried and the result is bit-identical to the fault-free
  recovering run;
* injection is deterministic: the same plan seed reproduces the same
  schedule, retry counters and quarantine set (seed sweep);
* runs that exhaust retries are quarantined and the campaign completes
  degraded;
* kill-and-resume is bit-identical for the core workflow and both
  proxies, sequentially and under ``run_world(4)`` with a dead rank
  whose backlog is redistributed;
* the streaming reduction retries / quarantines per-run, dropping a
  dead run's late batches.
"""

import json
import os
import shutil
import struct
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List

import numpy as np
import pytest

from repro.core.checkpoint import CheckpointManager, RecoveryConfig
from repro.core.cross_section import compute_cross_section
from repro.core.grid import HKLGrid
from repro.core.md_event_workspace import begin_md, convert_to_md, load_md, save_md
from repro.core.sharding import ShardConfig
from repro.core.streaming import EventStream, StreamingReduction
from repro.crystal.goniometer import Goniometer
from repro.crystal.structures import benzil
from repro.crystal.symmetry import point_group
from repro.crystal.ub import UBMatrix
from repro.instruments.corelli import make_corelli
from repro.instruments.synth import make_flux, make_vanadium, synthesize_run
from repro.mpi import run_world
from repro.nexus import h5lite
from repro.nexus.corrections import write_flux_file, write_vanadium_file
from repro.proxy.cpp_proxy import CppProxyConfig, CppProxyWorkflow
from repro.proxy.minivates import MiniVatesConfig, MiniVatesWorkflow
from repro.util import atomic_io
from repro.util import trace as trace_mod
from repro.util.faults import (
    FaultPlan,
    FaultSpec,
    InjectedKernelError,
    RankCrashError,
    RetryExhaustedError,
    RetryPolicy,
    use_fault_plan,
)

N_RUNS = 4
POLICY = RetryPolicy(max_attempts=3, base_delay_s=0.0)


@dataclass
class MicroExperiment:
    """A 4-run experiment small enough for dozens of full campaigns."""

    instrument: object
    grid: HKLGrid
    point_group: object
    flux: object
    vanadium: object
    runs: List[object]
    md_paths: List[str]
    flux_path: str
    vanadium_path: str

    def loader(self, i):
        return load_md(self.md_paths[i])

    def kw(self):
        # the oracle back end: in memory, the batch bodies shards run
        return dict(
            backend="vectorized",
            n_runs=len(self.md_paths),
            grid=self.grid,
            point_group=self.point_group,
            flux=self.flux,
            det_directions=self.instrument.directions,
            solid_angles=self.vanadium.detector_weights,
        )


@pytest.fixture(scope="module")
def exp(tmp_path_factory) -> MicroExperiment:
    base = tmp_path_factory.mktemp("fault_recovery")
    structure = benzil()
    instrument = make_corelli(n_pixels=120)
    ub = UBMatrix.from_u_vectors(structure.cell, [0.0, 0.0, 1.0],
                                 [1.0, 0.0, 0.0])
    grid = HKLGrid.benzil_grid(bins=(13, 13, 1))
    pg = point_group("321")
    flux = make_flux(instrument)
    vanadium = make_vanadium(instrument)
    runs, md_paths = [], []
    for i, omega in enumerate((0.0, 30.0, 60.0, 90.0)):
        run = synthesize_run(
            instrument=instrument, structure=structure, ub=ub,
            goniometer=Goniometer(omega).rotation, n_events=300,
            rng=np.random.default_rng(7100 + i), run_number=i,
        )
        ws = convert_to_md(run, instrument, run_index=i)
        path = str(base / f"run_{i}.md.h5")
        save_md(path, ws)
        runs.append(run)
        md_paths.append(path)
    flux_path = str(base / "flux.h5")
    vanadium_path = str(base / "vanadium.h5")
    write_flux_file(flux_path, flux)
    write_vanadium_file(vanadium_path, vanadium)
    return MicroExperiment(
        instrument=instrument, grid=grid, point_group=pg, flux=flux,
        vanadium=vanadium, runs=runs, md_paths=md_paths,
        flux_path=flux_path, vanadium_path=vanadium_path,
    )


@pytest.fixture(scope="module")
def golden(exp):
    """The fault-free *recovering* run every faulty run must match."""
    return compute_cross_section(
        exp.loader, recovery=RecoveryConfig(retry=POLICY), **exp.kw()
    )


class TestRecoveryEquivalence:
    def test_recovering_loop_matches_plain_loop(self, exp, golden):
        plain = compute_cross_section(exp.loader, **exp.kw())
        assert np.allclose(plain.cross_section.signal,
                           golden.cross_section.signal,
                           equal_nan=True, rtol=1e-12)
        assert not golden.degraded
        assert {d["status"] for d in golden.dispositions.values()} == {"done"}

    def test_checkpointed_run_bit_identical_to_uncheckpointed(
        self, exp, golden, tmp_path
    ):
        """The ascending-run-order delta sum reproduces the in-memory
        accumulation exactly."""
        ck = CheckpointManager(tmp_path / "ck", config_digest="eq")
        res = compute_cross_section(
            exp.loader,
            recovery=RecoveryConfig(retry=POLICY, checkpoint=ck),
            **exp.kw(),
        )
        assert np.array_equal(res.binmd.signal, golden.binmd.signal)
        assert np.array_equal(res.mdnorm.signal, golden.mdnorm.signal)
        assert np.array_equal(res.cross_section.signal,
                              golden.cross_section.signal, equal_nan=True)
        assert ck.completed_runs() == list(range(N_RUNS))
        assert ck.campaign_complete

    def test_checkpointed_campaign_fsyncs_each_file_once(
        self, exp, tmp_path, monkeypatch
    ):
        """One fsync per run's delta file and one for COMPLETE: nothing
        is rewritten as the campaign goes."""
        synced = []
        fsync = atomic_io.fsync_file

        def counting_fsync(fh):
            synced.append(str(fh.name))  # COMPLETE's handle names its fd
            fsync(fh)

        monkeypatch.setattr(atomic_io, "fsync_file", counting_fsync)
        ck = CheckpointManager(tmp_path / "ck", config_digest="eq")
        compute_cross_section(
            exp.loader,
            recovery=RecoveryConfig(retry=POLICY, checkpoint=ck),
            **exp.kw(),
        )
        assert N_RUNS == 4 and len(synced) == 5
        assert sum(".ckpt.h5." in name for name in synced) == N_RUNS
        assert ck.campaign_complete

    @pytest.mark.parametrize("executor", ["static", "stealing"])
    def test_healthy_checkpointed_campaign_reads_nothing_back(
        self, exp, golden, tmp_path, executor
    ):
        """The root folds the gathered deltas from memory; it writes
        every run's delta and reads none back."""
        ck = CheckpointManager(tmp_path / "ck", config_digest="eq")
        tracer = trace_mod.Tracer()
        with trace_mod.use_tracer(tracer):
            res = compute_cross_section(
                exp.loader,
                recovery=RecoveryConfig(retry=POLICY, checkpoint=ck),
                executor=executor,
                shards=ShardConfig(n_shards=2) if executor == "stealing"
                else None,
                **exp.kw(),
            )
        assert tracer.counters["checkpoint.write"] == N_RUNS
        assert tracer.counters.get("checkpoint.read", 0) == 0
        assert sorted(os.listdir(ck.directory)) == [
            "COMPLETE", *(f"run_{i:04d}.ckpt.h5" for i in range(N_RUNS))]
        assert np.array_equal(res.binmd.signal, golden.binmd.signal)
        assert np.array_equal(res.binmd.error_sq, golden.binmd.error_sq)
        assert np.array_equal(res.mdnorm.signal, golden.mdnorm.signal)
        assert ck.campaign_complete


SITES = ["nexus.read_events", "h5lite.read", "run",
         "kernel.mdnorm", "kernel.binmd"]
KINDS = ["io_error", "corrupt", "truncate", "kernel_error"]


class TestFaultMatrix:
    """Every site x kind pair: transient faults recover bit-identically."""

    @pytest.mark.parametrize("site", SITES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_transient_fault_recovered(self, exp, golden, site, kind):
        plan = FaultPlan(
            [FaultSpec(site=site, kind=kind, probability=1.0, max_hits=2)],
            seed=17,
        )
        with use_fault_plan(plan):
            res = compute_cross_section(
                exp.loader, recovery=RecoveryConfig(retry=POLICY), **exp.kw()
            )
        assert plan.stats()["injected"] == 2, (site, kind)
        assert not res.degraded
        assert np.array_equal(res.cross_section.signal,
                              golden.cross_section.signal, equal_nan=True)

    def test_slow_fault_only_delays(self, exp, golden):
        plan = FaultPlan(
            [FaultSpec(site="run", kind="slow", probability=1.0,
                       delay_s=0.001, max_hits=2)],
            seed=17,
        )
        with use_fault_plan(plan):
            res = compute_cross_section(
                exp.loader, recovery=RecoveryConfig(retry=POLICY), **exp.kw()
            )
        assert plan.stats()["injected"] == 2
        assert not res.degraded
        assert np.array_equal(res.cross_section.signal,
                              golden.cross_section.signal, equal_nan=True)


class TestDeterminism:
    """Same plan seed => same schedule, same counters, same result."""

    def _campaign(self, exp, seed):
        plan = FaultPlan(
            [FaultSpec(site="run", kind="io_error", probability=0.5),
             FaultSpec(site="kernel.*", kind="kernel_error",
                       probability=0.25)],
            seed=seed,
        )
        tracer = trace_mod.Tracer()
        with trace_mod.use_tracer(tracer), use_fault_plan(plan):
            res = compute_cross_section(
                exp.loader, recovery=RecoveryConfig(retry=POLICY), **exp.kw()
            )
        recovery_counters = trace_mod.recovery_summary(
            tracer.records, counters=tracer.counters
        )
        recovery_counters.pop("recover.backoff.seconds", None)  # wall time
        return (plan.schedule_signature(), recovery_counters,
                res.quarantined_runs, res.cross_section.signal)

    @pytest.mark.parametrize("seed", range(50))
    def test_seed_reproduces_campaign(self, exp, seed):
        sig_a, counters_a, quarantined_a, signal_a = self._campaign(exp, seed)
        sig_b, counters_b, quarantined_b, signal_b = self._campaign(exp, seed)
        assert sig_a == sig_b
        assert counters_a == counters_b
        assert quarantined_a == quarantined_b
        assert np.array_equal(signal_a, signal_b, equal_nan=True)


class TestQuarantine:
    def test_persistent_fault_quarantines_run(self, exp, golden):
        plan = FaultPlan(
            [FaultSpec(site="kernel.mdnorm", kind="kernel_error",
                       probability=1.0, runs=(1,))],
            seed=5,
        )
        tracer = trace_mod.Tracer()
        with trace_mod.use_tracer(tracer), use_fault_plan(plan):
            res = compute_cross_section(
                exp.loader, recovery=RecoveryConfig(retry=POLICY), **exp.kw()
            )
        assert res.degraded
        assert res.quarantined_runs == (1,)
        assert res.dispositions[1]["status"] == "quarantined"
        assert res.dispositions[1]["attempts"] == POLICY.max_attempts
        assert {i for i, d in res.dispositions.items()
                if d["status"] == "done"} == {0, 2, 3}
        # degraded output: strictly less accumulated than the full run
        assert res.mdnorm.total() < golden.mdnorm.total()
        assert tracer.counters["quarantine.runs"] == 1
        assert tracer.counters["retry.exhausted"] == 1

    def test_quarantine_disabled_raises(self, exp):
        plan = FaultPlan(
            [FaultSpec(site="run", kind="io_error", probability=1.0,
                       runs=(0,))],
            seed=5,
        )
        with use_fault_plan(plan):
            with pytest.raises(RetryExhaustedError):
                compute_cross_section(
                    exp.loader,
                    recovery=RecoveryConfig(retry=POLICY, quarantine=False),
                    **exp.kw(),
                )

    def test_quarantine_durable_across_resume(self, exp, tmp_path):
        ckdir = tmp_path / "ck"
        plan = FaultPlan(
            [FaultSpec(site="run", kind="io_error", probability=1.0,
                       runs=(2,))],
            seed=5,
        )
        ck = CheckpointManager(ckdir, config_digest="q")
        with use_fault_plan(plan):
            res = compute_cross_section(
                exp.loader,
                recovery=RecoveryConfig(retry=POLICY, checkpoint=ck),
                **exp.kw(),
            )
        assert res.quarantined_runs == (2,)
        # resume with no faults: the quarantine verdict sticks (the
        # run's quarantine record is durable)
        ck2 = CheckpointManager(ckdir, config_digest="q")
        res2 = compute_cross_section(
            exp.loader,
            recovery=RecoveryConfig(retry=POLICY, checkpoint=ck2,
                                    resume=True),
            **exp.kw(),
        )
        assert res2.quarantined_runs == (2,)
        assert np.array_equal(res2.cross_section.signal,
                              res.cross_section.signal, equal_nan=True)


class TestKillAndResumeCore:
    def _crash_plan(self, run, seed=7):
        return FaultPlan(
            [FaultSpec(site="run", kind="rank_crash", probability=1.0,
                       runs=(run,), max_hits=1)],
            seed=seed,
        )

    def test_kill_and_resume_bit_identical(self, exp, tmp_path):
        ckdir = tmp_path / "ck"
        ck = CheckpointManager(ckdir, config_digest="core")
        with use_fault_plan(self._crash_plan(2)):
            with pytest.raises(RankCrashError):
                compute_cross_section(
                    exp.loader,
                    recovery=RecoveryConfig(retry=POLICY, checkpoint=ck),
                    **exp.kw(),
                )
        assert ck.completed_runs() == [0, 1]
        assert not ck.campaign_complete

        ck2 = CheckpointManager(ckdir, config_digest="core")
        res = compute_cross_section(
            exp.loader,
            recovery=RecoveryConfig(retry=POLICY, checkpoint=ck2,
                                    resume=True),
            **exp.kw(),
        )
        gold_ck = CheckpointManager(tmp_path / "gold", config_digest="core")
        gold = compute_cross_section(
            exp.loader,
            recovery=RecoveryConfig(retry=POLICY, checkpoint=gold_ck),
            **exp.kw(),
        )
        assert np.array_equal(res.binmd.signal, gold.binmd.signal)
        assert np.array_equal(res.binmd.error_sq, gold.binmd.error_sq)
        assert np.array_equal(res.mdnorm.signal, gold.mdnorm.signal)
        assert np.array_equal(res.cross_section.signal,
                              gold.cross_section.signal, equal_nan=True)
        assert res.extras["recovery"]["resumed"] == [0, 1]
        assert ck2.campaign_complete

    def test_resume_of_complete_campaign_replays_everything(
        self, exp, tmp_path
    ):
        ckdir = tmp_path / "ck"
        ck = CheckpointManager(ckdir, config_digest="core")
        gold = compute_cross_section(
            exp.loader,
            recovery=RecoveryConfig(retry=POLICY, checkpoint=ck),
            **exp.kw(),
        )
        ck2 = CheckpointManager(ckdir, config_digest="core")
        res = compute_cross_section(
            exp.loader,
            recovery=RecoveryConfig(retry=POLICY, checkpoint=ck2,
                                    resume=True),
            **exp.kw(),
        )
        assert res.extras["recovery"]["resumed"] == list(range(N_RUNS))
        assert np.array_equal(res.cross_section.signal,
                              gold.cross_section.signal, equal_nan=True)

    def test_corrupt_checkpoint_delta_recomputed_on_resume(
        self, exp, tmp_path
    ):
        ckdir = tmp_path / "ck"
        ck = CheckpointManager(ckdir, config_digest="core")
        gold = compute_cross_section(
            exp.loader,
            recovery=RecoveryConfig(retry=POLICY, checkpoint=ck),
            **exp.kw(),
        )
        # flip one byte of run 1's persisted delta
        victim = os.path.join(ck.directory, ck.run_record(1)["file"])
        raw = bytearray(Path(victim).read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        Path(victim).write_bytes(bytes(raw))

        ck2 = CheckpointManager(ckdir, config_digest="core")
        tracer = trace_mod.Tracer()
        with trace_mod.use_tracer(tracer):
            res = compute_cross_section(
                exp.loader,
                recovery=RecoveryConfig(retry=POLICY, checkpoint=ck2,
                                        resume=True),
                **exp.kw(),
            )
        assert tracer.counters["checkpoint.corrupt"] == 1
        assert res.extras["recovery"]["resumed"] == [0, 2, 3]
        assert res.dispositions[1]["status"] == "done"
        assert np.array_equal(res.cross_section.signal,
                              gold.cross_section.signal, equal_nan=True)


    def _resume(self, exp, ckdir):
        tracer = trace_mod.Tracer()
        with trace_mod.use_tracer(tracer):
            res = compute_cross_section(
                exp.loader,
                recovery=RecoveryConfig(
                    retry=POLICY, resume=True,
                    checkpoint=CheckpointManager(ckdir, config_digest="core")),
                **exp.kw(),
            )
        return res, tracer

    def _checkpointed(self, exp, ckdir):
        return compute_cross_section(
            exp.loader,
            recovery=RecoveryConfig(
                retry=POLICY,
                checkpoint=CheckpointManager(ckdir, config_digest="core")),
            **exp.kw(),
        )

    def _assert_bit_identical(self, res, gold):
        assert np.array_equal(res.binmd.signal, gold.binmd.signal)
        assert np.array_equal(res.binmd.error_sq, gold.binmd.error_sq)
        assert np.array_equal(res.mdnorm.signal, gold.mdnorm.signal)
        assert np.array_equal(res.cross_section.signal,
                              gold.cross_section.signal, equal_nan=True)

    def test_corrupt_header_digest_recomputed_on_resume(self, exp, tmp_path):
        """The file's digest guards its header, which no CRC covers: a
        damaged digest makes the run corrupt, and it is recomputed."""
        ckdir = tmp_path / "ck"
        gold = self._checkpointed(exp, ckdir)
        victim = ckdir / "run_0002.ckpt.h5"
        raw = victim.read_bytes()
        at = raw.rindex(b'"digest":"') + len(b'"digest":"')
        victim.write_bytes(raw[:at] + bytes([raw[at] ^ 0x01]) + raw[at + 1:])

        res, tracer = self._resume(exp, ckdir)
        assert tracer.counters["checkpoint.corrupt"] == 1
        assert res.extras["recovery"]["resumed"] == [0, 1, 3]
        assert res.dispositions[2]["status"] == "done"
        self._assert_bit_identical(res, gold)

    def test_delta_wins_over_stale_quarantine_record(self, exp, tmp_path):
        """A crash between publishing a run's delta and removing its
        quarantine record leaves both files: the run resumes as done."""
        ckdir = tmp_path / "ck"
        gold = self._checkpointed(exp, ckdir)
        (ckdir / "run_0002.quarantined").write_text(
            json.dumps({"config_digest": "core", "reason": "flaky"}))

        res, tracer = self._resume(exp, ckdir)
        assert res.extras["recovery"]["resumed"] == list(range(N_RUNS))
        assert res.quarantined_runs == ()
        assert tracer.counters.get("checkpoint.corrupt", 0) == 0
        self._assert_bit_identical(res, gold)

    def test_leftover_tmp_file_ignored(self, exp, tmp_path):
        """A write killed before its rename leaves only a ``*.tmp``: the
        scan ignores it, and the run is recomputed."""
        ckdir = tmp_path / "ck"
        gold = self._checkpointed(exp, ckdir)
        final = ckdir / "run_0003.ckpt.h5"
        raw = final.read_bytes()
        final.unlink()
        (ckdir / "run_0003.ckpt.h5.k1ll3d.tmp").write_bytes(
            raw[:len(raw) // 2])

        res, tracer = self._resume(exp, ckdir)
        assert res.extras["recovery"]["resumed"] == [0, 1, 2]
        assert res.dispositions[3]["status"] == "done"
        assert tracer.counters.get("checkpoint.corrupt", 0) == 0
        self._assert_bit_identical(res, gold)
        assert np.array_equal(res.mdnorm.signal, gold.mdnorm.signal)


class TestKillAndResumeProxies:
    """The same kill-and-resume contract through both proxy drivers."""

    def _cpp_cfg(self, exp, recovery):
        return CppProxyConfig(
            md_paths=exp.md_paths, flux_path=exp.flux_path,
            vanadium_path=exp.vanadium_path, instrument=exp.instrument,
            grid=exp.grid, point_group=exp.point_group, recovery=recovery,
        )

    def _mv_cfg(self, exp, recovery):
        return MiniVatesConfig(
            md_paths=exp.md_paths, flux_path=exp.flux_path,
            vanadium_path=exp.vanadium_path, instrument=exp.instrument,
            grid=exp.grid, point_group=exp.point_group,
            cold_start=False, recovery=recovery,
        )

    @pytest.mark.parametrize("impl", ["cpp_proxy", "minivates"])
    def test_proxy_kill_and_resume(self, exp, tmp_path, impl):
        make_cfg = self._cpp_cfg if impl == "cpp_proxy" else self._mv_cfg
        make_wf = (CppProxyWorkflow if impl == "cpp_proxy"
                   else MiniVatesWorkflow)
        plan = FaultPlan(
            [FaultSpec(site="run", kind="rank_crash", probability=1.0,
                       runs=(2,), max_hits=1)],
            seed=9,
        )
        ckdir = tmp_path / impl
        ck = CheckpointManager(ckdir, config_digest=impl)
        with use_fault_plan(plan):
            with pytest.raises(RankCrashError):
                make_wf(make_cfg(
                    exp, RecoveryConfig(retry=POLICY, checkpoint=ck)
                )).run()
        assert ck.completed_runs() == [0, 1]

        ck2 = CheckpointManager(ckdir, config_digest=impl)
        res = make_wf(make_cfg(
            exp, RecoveryConfig(retry=POLICY, checkpoint=ck2, resume=True)
        )).run()
        gold_ck = CheckpointManager(tmp_path / f"{impl}-gold",
                                    config_digest=impl)
        gold = make_wf(make_cfg(
            exp, RecoveryConfig(retry=POLICY, checkpoint=gold_ck)
        )).run()
        assert np.array_equal(res.cross_section.signal,
                              gold.cross_section.signal, equal_nan=True)
        assert res.extras["recovery"]["resumed"] == [0, 1]
        assert ck2.campaign_complete


class TestMPIFaultRecovery:
    """run_world(4): a dead rank's backlog is redistributed and the
    checkpointed result stays bit-identical to the sequential one."""

    def _sequential_golden(self, exp, tmp_path):
        ck = CheckpointManager(tmp_path / "gold", config_digest="mpi")
        return compute_cross_section(
            exp.loader,
            recovery=RecoveryConfig(retry=POLICY, checkpoint=ck),
            **exp.kw(),
        )

    def test_world4_no_faults_matches_sequential(self, exp, tmp_path):
        gold = self._sequential_golden(exp, tmp_path)
        ck = CheckpointManager(tmp_path / "ck", config_digest="mpi")

        def body(comm):
            return compute_cross_section(
                exp.loader, comm=comm,
                recovery=RecoveryConfig(retry=POLICY, checkpoint=ck),
                **exp.kw(),
            )

        results = run_world(4, body, barrier_timeout=60.0)
        roots = [r for r in results if r.cross_section is not None]
        assert len(roots) == 1
        assert np.array_equal(roots[0].cross_section.signal,
                              gold.cross_section.signal, equal_nan=True)

    def test_world4_rank_crash_redistributed_bit_identical(
        self, exp, tmp_path
    ):
        gold = self._sequential_golden(exp, tmp_path)
        ck = CheckpointManager(tmp_path / "ck", config_digest="mpi")
        plan = FaultPlan(
            [FaultSpec(site="run", kind="rank_crash", probability=1.0,
                       ranks=(2,), max_hits=1)],
            seed=11,
        )

        def body(comm):
            return compute_cross_section(
                exp.loader, comm=comm,
                recovery=RecoveryConfig(retry=POLICY, checkpoint=ck),
                **exp.kw(),
            )

        with use_fault_plan(plan):
            results = run_world(4, body, barrier_timeout=60.0)

        assert plan.stats()["injected"] == 1
        roots = [r for r in results if r.cross_section is not None]
        assert len(roots) == 1
        res = roots[0]
        assert res.extras["recovery"]["failed_ranks"] == [2]
        # rank 2's run was adopted by a survivor
        assert res.dispositions[2]["status"] == "done"
        assert res.dispositions[2]["rank"] != 2
        assert sorted(res.dispositions) == list(range(N_RUNS))
        assert np.array_equal(res.binmd.signal, gold.binmd.signal)
        assert np.array_equal(res.mdnorm.signal, gold.mdnorm.signal)
        assert np.array_equal(res.cross_section.signal,
                              gold.cross_section.signal, equal_nan=True)


    @pytest.mark.parametrize("size", [2, 4])
    def test_dead_ranks_durable_run_read_back(self, exp, tmp_path, size):
        """A rank dies on its second run after its first is durable: the
        root reads exactly that run from the checkpoint and folds it
        with the gathered ones.  Eight runs (the four files twice) give
        the crashing rank two or more runs at both world sizes."""
        n_runs = 2 * N_RUNS
        kw = {**exp.kw(), "n_runs": n_runs}

        def loader(i):
            return exp.loader(i % N_RUNS)

        gold = compute_cross_section(
            loader, recovery=RecoveryConfig(retry=POLICY), **kw)
        ck = CheckpointManager(tmp_path / "ck", config_digest="mpi")
        # run 4 opens the block of rank 1 (of 2) or rank 2 (of 4)
        dead = size // 2
        plan = FaultPlan(
            [FaultSpec(site="run", kind="rank_crash", probability=1.0,
                       runs=(5,), max_hits=1)],
            seed=13,
        )

        def body(comm):
            return compute_cross_section(
                loader, comm=comm,
                recovery=RecoveryConfig(retry=POLICY, checkpoint=ck), **kw,
            )

        tracer = trace_mod.Tracer()
        with trace_mod.use_tracer(tracer), use_fault_plan(plan):
            results = run_world(size, body, barrier_timeout=60.0)

        assert plan.stats()["injected"] == 1
        roots = [r for r in results if r.cross_section is not None]
        assert len(roots) == 1
        res = roots[0]
        assert res.extras["recovery"]["failed_ranks"] == [dead]
        assert tracer.counters["checkpoint.read"] == 1
        assert res.dispositions[4] == {"status": "done", "rank": dead,
                                       "attempts": 1}
        assert res.dispositions[5]["rank"] != dead
        assert sorted(res.dispositions) == list(range(n_runs))
        assert ck.completed_runs() == list(range(n_runs))
        assert np.array_equal(res.binmd.signal, gold.binmd.signal)
        assert np.array_equal(res.binmd.error_sq, gold.binmd.error_sq)
        assert np.array_equal(res.mdnorm.signal, gold.mdnorm.signal)
        assert np.array_equal(res.cross_section.signal,
                              gold.cross_section.signal, equal_nan=True)


class TestChunkFaults:
    """Per-chunk fault sites on the out-of-core read path (ISSUE 6).

    Chunked (format v2) run files are read chunk-by-chunk through the
    tile manager, so the fault surface moves from "the file" to "one
    chunk": ``h5lite.read_chunk`` faults must be retryable, a genuinely
    bad chunk must raise ``CorruptFileError`` without poisoning its
    siblings, retries must invalidate only the affected run's
    geom-cache entries, and kill-and-resume must stay bit-identical
    when every byte of event data flows through bounded windows.
    """

    BUDGET = 2 * 64 * 8 * 8  # two 64-event chunks of decoded cache

    @pytest.fixture(scope="class")
    def chunked(self, exp, tmp_path_factory):
        base = tmp_path_factory.mktemp("chunked_runs")
        paths = []
        for i, src in enumerate(exp.md_paths):
            ws = load_md(src)
            path = str(base / f"run_{i}.md.h5")
            save_md(path, ws, chunk_events=64, codec="zlib")
            paths.append(path)
        return paths

    def _loader(self, paths):
        return lambda i: load_md(paths[i], memory_budget=self.BUDGET)

    def test_out_of_core_matches_in_memory_golden(self, exp, golden, chunked):
        res = compute_cross_section(
            self._loader(chunked), recovery=RecoveryConfig(retry=POLICY),
            **exp.kw(),
        )
        assert np.array_equal(res.cross_section.signal,
                              golden.cross_section.signal, equal_nan=True)
        assert np.array_equal(res.binmd.signal, golden.binmd.signal)

    @pytest.mark.parametrize("kind", ["io_error", "corrupt", "truncate"])
    def test_transient_chunk_fault_recovered(self, exp, golden, chunked, kind):
        plan = FaultPlan(
            [FaultSpec(site="h5lite.read_chunk", kind=kind,
                       probability=1.0, max_hits=2)],
            seed=31,
        )
        with use_fault_plan(plan):
            res = compute_cross_section(
                self._loader(chunked), recovery=RecoveryConfig(retry=POLICY),
                **exp.kw(),
            )
        assert plan.stats()["injected"] == 2, kind
        assert not res.degraded
        assert np.array_equal(res.cross_section.signal,
                              golden.cross_section.signal, equal_nan=True)

    def test_on_disk_chunk_corruption_is_isolated(self, chunked, tmp_path):
        """Flipping bytes in one stored column stream fails exactly that
        stream."""
        import shutil

        from repro.nexus.events import COLUMN_NAMES
        from repro.nexus.h5lite import CorruptFileError, File
        from repro.nexus.tiles import EVENT_COLUMNS_PATH

        qx = f"{EVENT_COLUMNS_PATH}/qx"
        victim = str(tmp_path / "corrupt.md.h5")
        shutil.copy(chunked[1], victim)
        with File(victim, "r") as f:
            ds = f.require_dataset(qx)
            offset, stored, _crc, _rows = ds._chunk_index[2]
            n_chunks = ds.n_chunks
        with open(victim, "r+b") as fh:
            fh.seek(offset + stored // 2)
            fh.write(bytes([fh.read(1)[0] ^ 0xFF]))

        with File(victim, "r") as f:
            with pytest.raises(CorruptFileError):
                f.require_dataset(qx).read_chunk(2)
            # every sibling stream still decodes and CRC-verifies: the
            # other chunks of the column and every other column's chunk
            for name in COLUMN_NAMES:
                ds = f.require_dataset(f"{EVENT_COLUMNS_PATH}/{name}")
                for ci in range(n_chunks):
                    if (name, ci) != ("qx", 2):
                        ds.read_chunk(ci)

    def test_persistent_chunk_corruption_quarantines_run(
        self, exp, chunked, tmp_path
    ):
        import shutil

        from repro.nexus.h5lite import File
        from repro.nexus.tiles import EVENT_COLUMNS_PATH

        paths = list(chunked)
        victim = str(tmp_path / "run_1_corrupt.md.h5")
        shutil.copy(chunked[1], victim)
        with File(victim, "r") as f:
            # a column BinMD reads, so the reduction decodes it
            offset, stored, _crc, _rows = (
                f.require_dataset(f"{EVENT_COLUMNS_PATH}/qx")._chunk_index[0])
        with open(victim, "r+b") as fh:
            fh.seek(offset + stored // 2)
            fh.write(bytes([fh.read(1)[0] ^ 0xFF]))
        paths[1] = victim

        res = compute_cross_section(
            self._loader(paths), recovery=RecoveryConfig(retry=POLICY),
            **exp.kw(),
        )
        assert res.degraded
        assert res.quarantined_runs == (1,)
        assert res.dispositions[1]["attempts"] == POLICY.max_attempts
        assert {i for i, d in res.dispositions.items()
                if d["status"] == "done"} == {0, 2, 3}

    def test_chunk_retry_invalidates_only_affected_run(
        self, exp, golden, chunked
    ):
        """The recovering loop's retry hook scopes cache invalidation to
        the faulted run: the other runs' geometry entries survive."""
        from repro.core.geom_cache import GeomCache

        cache = GeomCache()
        # warm every run's geometry, then fault run 0's first chunk reads
        compute_cross_section(
            self._loader(chunked), recovery=RecoveryConfig(retry=POLICY),
            cache=cache, **exp.kw(),
        )
        warm_entries = len(cache)
        assert warm_entries > 0
        plan = FaultPlan(
            [FaultSpec(site="h5lite.read_chunk", kind="io_error",
                       probability=1.0, max_hits=2)],
            seed=41,
        )
        with use_fault_plan(plan):
            res = compute_cross_section(
                self._loader(chunked), recovery=RecoveryConfig(retry=POLICY),
                cache=cache, **exp.kw(),
            )
        assert not res.degraded
        assert cache.stats.invalidations >= 1
        # runs 1..3 were never retried: their tagged entries are intact
        # (invalidate() returns how many entries carried the tag)
        for run in (1, 2, 3):
            assert cache.invalidate(f"run:{run}") >= 1, run
        assert np.array_equal(res.cross_section.signal,
                              golden.cross_section.signal, equal_nan=True)

    def test_kill_and_resume_through_tile_manager(self, exp, chunked,
                                                  tmp_path):
        """rank_crash mid-campaign + resume, all I/O through tiles."""
        loader = self._loader(chunked)
        ckdir = tmp_path / "ck"
        ck = CheckpointManager(ckdir, config_digest="ooc")
        plan = FaultPlan(
            [FaultSpec(site="run", kind="rank_crash", probability=1.0,
                       runs=(2,), max_hits=1)],
            seed=13,
        )
        with use_fault_plan(plan):
            with pytest.raises(RankCrashError):
                compute_cross_section(
                    loader,
                    recovery=RecoveryConfig(retry=POLICY, checkpoint=ck),
                    **exp.kw(),
                )
        assert ck.completed_runs() == [0, 1]

        ck2 = CheckpointManager(ckdir, config_digest="ooc")
        res = compute_cross_section(
            loader,
            recovery=RecoveryConfig(retry=POLICY, checkpoint=ck2,
                                    resume=True),
            **exp.kw(),
        )
        gold_ck = CheckpointManager(tmp_path / "gold", config_digest="ooc")
        gold = compute_cross_section(
            loader,
            recovery=RecoveryConfig(retry=POLICY, checkpoint=gold_ck),
            **exp.kw(),
        )
        assert res.extras["recovery"]["resumed"] == [0, 1]
        assert np.array_equal(res.binmd.signal, gold.binmd.signal)
        assert np.array_equal(res.binmd.error_sq, gold.binmd.error_sq)
        assert np.array_equal(res.mdnorm.signal, gold.mdnorm.signal)
        assert np.array_equal(res.cross_section.signal,
                              gold.cross_section.signal, equal_nan=True)


class TestStreamingRecovery:
    def _stream(self, exp, recovery, runs=None, plan=None):
        sr = StreamingReduction(
            grid=exp.grid, point_group=exp.point_group, flux=exp.flux,
            instrument=exp.instrument,
            solid_angles=exp.vanadium.detector_weights,
            recovery=recovery,
        )
        ctx = use_fault_plan(plan) if plan is not None else None
        try:
            if ctx is not None:
                ctx.__enter__()
            for run in (runs if runs is not None else exp.runs):
                sr.open_run(run)
                for batch in EventStream(run, batch_size=128):
                    sr.consume(batch)
                sr.close_run(run.run_number)
        finally:
            if ctx is not None:
                ctx.__exit__(None, None, None)
        return sr

    def test_transient_stream_faults_recovered(self, exp):
        clean = self._stream(exp, RecoveryConfig(retry=POLICY))
        plan = FaultPlan(
            [FaultSpec(site="stream.*", kind="io_error", probability=1.0,
                       max_hits=2)],
            seed=23,
        )
        faulty = self._stream(exp, RecoveryConfig(retry=POLICY), plan=plan)
        assert plan.stats()["injected"] == 2
        assert not faulty.quarantined
        assert np.array_equal(faulty.snapshot().signal,
                              clean.snapshot().signal, equal_nan=True)

    def test_consume_quarantine_evicts_run_and_drops_late_batches(self, exp):
        plan = FaultPlan(
            [FaultSpec(site="stream.consume", kind="io_error",
                       probability=1.0, runs=(1,))],
            seed=23,
        )
        tracer = trace_mod.Tracer()
        with trace_mod.use_tracer(tracer):
            faulty = self._stream(exp, RecoveryConfig(retry=POLICY),
                                  plan=plan)
        assert list(faulty.quarantined) == [1]
        assert tracer.counters["stream.dropped"] > 0
        # the live histograms degrade to the surviving runs
        survivors = self._stream(
            exp, RecoveryConfig(retry=POLICY),
            runs=[r for r in exp.runs if r.run_number != 1],
        )
        assert np.array_equal(faulty.snapshot().signal,
                              survivors.snapshot().signal, equal_nan=True)

    def test_close_run_quarantine_drops_the_finished_run(self, exp):
        """A lost end-of-run packet that exhausts its retries quarantines
        the run after all its batches arrived: its whole delta drops."""
        plan = FaultPlan(
            [FaultSpec(site="stream.close_run", kind="io_error",
                       probability=1.0, runs=(1,))],
            seed=23,
        )
        faulty = self._stream(exp, RecoveryConfig(retry=POLICY), plan=plan)
        assert list(faulty.quarantined) == [1]
        survivors = self._stream(
            exp, RecoveryConfig(retry=POLICY),
            runs=[r for r in exp.runs if r.run_number != 1],
        )
        for name in ("binmd", "mdnorm_hist"):
            assert np.array_equal(getattr(faulty, name).signal,
                                  getattr(survivors, name).signal), name
        assert np.array_equal(faulty.binmd.error_sq,
                              survivors.binmd.error_sq)
        assert np.array_equal(faulty.snapshot().signal,
                              survivors.snapshot().signal, equal_nan=True)

    def test_open_run_quarantine_never_contributes(self, exp):
        plan = FaultPlan(
            [FaultSpec(site="stream.open_run", kind="kernel_error",
                       probability=1.0, runs=(2,))],
            seed=23,
        )
        faulty = self._stream(exp, RecoveryConfig(retry=POLICY), plan=plan)
        assert list(faulty.quarantined) == [2]
        survivors = self._stream(
            exp, RecoveryConfig(retry=POLICY),
            runs=[r for r in exp.runs if r.run_number != 2],
        )
        assert np.array_equal(faulty.mdnorm_hist.signal,
                              survivors.mdnorm_hist.signal)


class TestKillAndResumeStealing:
    """Kill-and-resume through the elastic executor: the campaign dies
    mid-steal, then resumes with a *different* worker count and steal
    seed, and must still be bit-identical to an uninterrupted
    checkpointed reference (ISSUE 7 satellite)."""

    def _steal(self, exp, *, size, schedule, recovery):
        from repro.core.sharding import ShardConfig
        from repro.mpi.stealing import run_stealing_campaign

        def body(comm):
            return run_stealing_campaign(
                exp.loader, comm=comm, recovery=recovery,
                shards=ShardConfig(n_shards=2),
                schedule=schedule, **exp.kw())

        if size == 1:
            from repro.mpi import SequentialComm
            return body(SequentialComm())
        results = run_world(size, body, barrier_timeout=60.0)
        roots = [r for r in results
                 if r is not None and r.cross_section is not None]
        assert len(roots) == 1
        return roots[0]

    def test_kill_and_resume_different_world_and_seed(self, exp, tmp_path):
        from repro.util.schedule import ScheduleController

        ckdir = tmp_path / "ck"
        ck = CheckpointManager(ckdir, config_digest="steal")
        plan = FaultPlan(
            [FaultSpec(site="steal.task", kind="rank_crash",
                       probability=1.0, runs=(2,), max_hits=1)],
            seed=29,
        )
        # leg 1: sequential campaign, seed 29, dies on run 2's first task
        with use_fault_plan(plan):
            with pytest.raises(RankCrashError):
                self._steal(
                    exp, size=1,
                    schedule=ScheduleController(seed=29, policy="no-steal"),
                    recovery=RecoveryConfig(retry=POLICY, checkpoint=ck),
                )
        assert plan.stats()["injected"] == 1
        assert ck.completed_runs() == [0, 1]
        assert not ck.campaign_complete

        # leg 2: resume with 2 workers and a different steal seed
        ck2 = CheckpointManager(ckdir, config_digest="steal")
        res = self._steal(
            exp, size=2,
            schedule=ScheduleController(seed=101, policy="random"),
            recovery=RecoveryConfig(retry=POLICY, checkpoint=ck2,
                                    resume=True),
        )
        gold_ck = CheckpointManager(tmp_path / "gold", config_digest="steal")
        gold = compute_cross_section(
            exp.loader,
            recovery=RecoveryConfig(retry=POLICY, checkpoint=gold_ck),
            **exp.kw(),
        )
        assert res.extras["recovery"]["resumed"] == [0, 1]
        assert ck2.campaign_complete
        assert np.array_equal(res.binmd.signal, gold.binmd.signal)
        assert np.array_equal(res.binmd.error_sq, gold.binmd.error_sq)
        assert np.array_equal(res.mdnorm.signal, gold.mdnorm.signal)
        assert np.array_equal(res.cross_section.signal,
                              gold.cross_section.signal, equal_nan=True)

    def test_resumed_stealing_requeues_only_missing_runs(self, exp,
                                                         tmp_path):
        """The in-flight (crashed) run and the never-started run are the
        only tasks the resumed campaign executes."""
        from repro.util.schedule import ScheduleController

        ckdir = tmp_path / "ck"
        ck = CheckpointManager(ckdir, config_digest="steal-q")
        plan = FaultPlan(
            [FaultSpec(site="steal.task", kind="rank_crash",
                       probability=1.0, runs=(2,), max_hits=1)],
            seed=31,
        )
        with use_fault_plan(plan):
            with pytest.raises(RankCrashError):
                self._steal(
                    exp, size=1,
                    schedule=ScheduleController(seed=31, policy="no-steal"),
                    recovery=RecoveryConfig(retry=POLICY, checkpoint=ck),
                )

        ck2 = CheckpointManager(ckdir, config_digest="steal-q")
        res = self._steal(
            exp, size=3,
            schedule=ScheduleController(seed=77, policy="random", p_steal=1.0),
            recovery=RecoveryConfig(retry=POLICY, checkpoint=ck2,
                                    resume=True),
        )
        # only runs 2 and 3 re-executed: 2 runs x 2 stages x 2 shards
        assert res.extras["stealing"]["tasks"] == 8
        assert res.extras["recovery"]["resumed"] == [0, 1]
        assert ck2.campaign_complete


def _flip_payload_byte(path: str) -> None:
    """Flip a byte of the signal stream, which every load reads."""
    with h5lite.File(path, "r") as f:
        offset = f["MDEventWorkspace/event_columns/signal"]._chunk_index[0][0]
    with open(path, "r+b") as fh:
        fh.seek(offset + 101)
        fh.write(bytes([fh.read(1)[0] ^ 0x40]))


def _truncate_payload(path: str) -> None:
    """Point the signal stream at the header, so the read comes up
    short (the header itself stays readable)."""
    with open(path, "r+b") as fh:
        fh.seek(12)
        (header_off,) = struct.unpack("<Q", fh.read(8))
        fh.seek(header_off)
        header = fh.read()[:-8]
        doc = json.loads(header)
        entry = doc["root"]["children"]["MDEventWorkspace"]["children"][
            "event_columns"]["children"]["signal"]
        entry["chunks"][0][0] = header_off
        header = json.dumps(doc).encode()
        fh.seek(header_off)
        fh.write(header + struct.pack("<Q", len(header)))
        fh.truncate()


class TestDeferredPayload:
    """The workflow's loader (``begin_md``): a run's payload is read and
    CRC-checked on the helper while MDNorm runs and joined before BinMD,
    inside the run's attempt, so damage, retry, quarantine and faults
    behave as with ``load_md``."""

    DAMAGE = {"flip": _flip_payload_byte, "truncate": _truncate_payload}

    @staticmethod
    def _begun(paths):
        return lambda i: begin_md(paths[i])

    @staticmethod
    def _plain(paths):
        return lambda i: load_md(paths[i])

    def _damaged(self, exp, tmp_path, damage, run=2):
        paths = []
        for i, src in enumerate(exp.md_paths):
            dst = str(tmp_path / f"run_{i}.md.h5")
            shutil.copy(src, dst)
            paths.append(dst)
        self.DAMAGE[damage](paths[run])
        return paths

    @pytest.mark.parametrize("recovery", [False, True])
    def test_begun_loader_is_bit_identical(self, exp, golden,
                                           bytesplit_helper, recovery):
        res = compute_cross_section(
            self._begun(exp.md_paths),
            recovery=RecoveryConfig(retry=POLICY) if recovery else None,
            **exp.kw(),
        )
        for name in ("binmd", "mdnorm"):
            got, want = getattr(res, name), getattr(golden, name)
            assert np.array_equal(got.signal.view(np.int64),
                                  want.signal.view(np.int64)), name
        assert np.array_equal(res.binmd.error_sq.view(np.int64),
                              golden.binmd.error_sq.view(np.int64))

    @pytest.mark.parametrize("damage", ["flip", "truncate"])
    def test_damaged_payload_fails_fast(self, exp, tmp_path,
                                        bytesplit_helper, damage):
        paths = self._damaged(exp, tmp_path, damage)
        expected = (h5lite.TruncatedFileError if damage == "truncate"
                    else h5lite.CorruptFileError)
        with pytest.raises(expected):
            compute_cross_section(self._begun(paths), **exp.kw())

    @pytest.mark.parametrize("damage", ["flip", "truncate"])
    def test_damaged_payload_retried_then_quarantined(
        self, exp, tmp_path, bytesplit_helper, damage
    ):
        paths = self._damaged(exp, tmp_path, damage)
        tracer = trace_mod.Tracer()
        with trace_mod.use_tracer(tracer):
            begun = compute_cross_section(
                self._begun(paths), recovery=RecoveryConfig(retry=POLICY),
                **exp.kw())
        plain = compute_cross_section(
            self._plain(paths), recovery=RecoveryConfig(retry=POLICY),
            **exp.kw())
        assert begun.quarantined_runs == (2,)
        assert begun.dispositions == plain.dispositions
        assert begun.dispositions[2]["attempts"] == POLICY.max_attempts
        assert tracer.counters["quarantine.runs"] == 1
        assert np.array_equal(begun.binmd.signal, plain.binmd.signal)
        assert np.array_equal(begun.mdnorm.signal, plain.mdnorm.signal)

    def test_mdnorm_fault_with_job_in_flight_closes_the_run_file(
        self, exp, bytesplit_helper, monkeypatch
    ):
        """MDNorm fails while the helper is still reading the payload:
        the run's attempt waits for the read and closes the file."""
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("needs /proc/self/fd")
        started, finished = threading.Event(), threading.Event()
        pread = h5lite.PayloadRead._pread

        def slow_pread(read):
            started.set()
            time.sleep(0.05)
            try:
                return pread(read)
            finally:
                finished.set()

        def open_run_files():
            """This process's descriptors that resolve to a run file
            (counting all descriptors would count unrelated ones that
            other threads open and close meanwhile)."""
            runs = {os.path.realpath(p) for p in exp.md_paths}
            found = []
            for fd in os.listdir("/proc/self/fd"):
                try:
                    target = os.readlink(f"/proc/self/fd/{fd}")
                except OSError:  # closed since the listing
                    continue
                if target in runs:
                    found.append(target)
            return found

        monkeypatch.setattr(h5lite.PayloadRead, "_pread", slow_pread)
        plan = FaultPlan([FaultSpec(site="kernel.mdnorm", kind="kernel_error",
                                    probability=1.0)], seed=3)
        assert open_run_files() == []
        with use_fault_plan(plan), pytest.raises(InjectedKernelError) as info:
            compute_cross_section(self._begun(exp.md_paths), **exp.kw())
        # ``info`` keeps the failed attempt's frames and their locals, so
        # the begun load is not collected (whose finalizer would close
        # the file): only the attempt's own close can have closed it
        assert open_run_files() == []
        assert started.is_set() and finished.is_set()
        del info

    def test_stealing_planner_joins_at_once(self, exp, golden,
                                            bytesplit_helper):
        tracer = trace_mod.Tracer()
        with trace_mod.use_tracer(tracer):
            res = compute_cross_section(
                self._begun(exp.md_paths), executor="stealing",
                shards=ShardConfig(n_shards=2),
                recovery=RecoveryConfig(retry=POLICY), **exp.kw())
        assert "nexus.payload_deferred" not in tracer.counters
        assert np.array_equal(res.binmd.signal, golden.binmd.signal)
        assert np.array_equal(res.mdnorm.signal, golden.mdnorm.signal)
