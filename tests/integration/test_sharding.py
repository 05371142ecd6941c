"""Shard-invariance property suite (ISSUE 5 satellite b).

The contract under test: intra-run sharding is an *execution* detail,
never a *numerics* detail.  For the full Benzil-shaped pipeline the
cross-section (and both of its factors) must be **bit-identical** —
``np.array_equal(..., equal_nan=True)``, not allclose — across:

* shard counts 1, 2, 3, 7 (including shards > items axes);
* the ``shard_workers`` knob selects nothing, and with the process
  pool made to raise every shard range still runs, in process;
* streaming batch sizes, with sharded ``open_run`` normalization;
* kill-one-shard + retry and checkpoint/resume, riding the PR 3
  fault-plan machinery at the ``shard.mdnorm`` / ``shard.binmd`` sites.

Shards run the kernels' batch bodies, so the oracle is the in-memory
``vectorized`` reduction.  Every campaign mode folds the same per-run
deltas in ascending run order, so recovery cases compare against the
same fail-fast golden, bit for bit.
"""

import numpy as np
import pytest

from repro.core.binmd import bin_events
from repro.core.checkpoint import CheckpointManager, RecoveryConfig
from repro.core.cross_section import compute_cross_section
from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.core.md_event_workspace import convert_to_md
from repro.core.mdnorm import mdnorm
from repro.core.sharding import ShardConfig, sharded_binmd, sharded_mdnorm
from repro.core.streaming import EventStream, StreamingReduction
from repro.core.workflow import ReductionWorkflow, WorkflowConfig
from repro.crystal.goniometer import Goniometer
from repro.crystal.structures import benzil
from repro.crystal.symmetry import point_group
from repro.crystal.ub import UBMatrix
from repro.instruments.corelli import make_corelli
from repro.instruments.synth import make_flux, make_vanadium, synthesize_run
from repro.jacc.backend import BackendError
from repro.util.faults import FaultPlan, FaultSpec, RetryPolicy, use_fault_plan

N_RUNS = 3
SHARD_COUNTS = (1, 2, 3, 7)
POLICY = RetryPolicy(max_attempts=3, base_delay_s=0.0)


def same(a, b):
    """Bit-identity including the NaNs of empty (0/0) bins."""
    return np.array_equal(a, b, equal_nan=True)


class _Exp:
    def __init__(self):
        structure = benzil()
        self.instrument = make_corelli(n_pixels=150)
        self.ub = UBMatrix.from_u_vectors(structure.cell, [0.0, 0.0, 1.0],
                                          [1.0, 0.0, 0.0])
        self.grid = HKLGrid.benzil_grid(bins=(15, 15, 1))
        self.pg = point_group("321")
        self.flux = make_flux(self.instrument)
        self.vanadium = make_vanadium(self.instrument)
        self.sa = self.vanadium.detector_weights
        self.runs, self.wss = [], []
        for i, omega in enumerate((0.0, 40.0, 80.0)):
            run = synthesize_run(
                instrument=self.instrument, structure=structure, ub=self.ub,
                goniometer=Goniometer(omega).rotation, n_events=400,
                rng=np.random.default_rng(6200 + i), run_number=i,
            )
            self.runs.append(run)
            self.wss.append(convert_to_md(run, self.instrument, run_index=i))

    def loader(self, i):
        return self.wss[i]

    def compute(self, loader=None, **kw):
        kw.setdefault("backend", "vectorized")
        return compute_cross_section(
            loader or self.loader, N_RUNS, self.grid, self.pg, self.flux,
            self.instrument.directions, self.sa, **kw,
        )


@pytest.fixture(scope="module")
def exp():
    return _Exp()


@pytest.fixture(scope="module")
def golden(exp):
    """The unsharded in-memory ``vectorized`` cross-section every
    sharded run must match."""
    return exp.compute()


def assert_identical(res, ref):
    assert same(res.cross_section.signal, ref.cross_section.signal)
    assert np.array_equal(res.binmd.signal, ref.binmd.signal)
    assert np.array_equal(res.binmd.error_sq, ref.binmd.error_sq)
    assert np.array_equal(res.mdnorm.signal, ref.mdnorm.signal)


# ---------------------------------------------------------------------------
# the invariance matrix on the full pipeline
# ---------------------------------------------------------------------------

class TestShardInvariance:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_shard_count_invariance(self, exp, golden, forbid_pool,
                                    n_shards):
        """shards=7 > the 3-op outer axis and still partitions the
        inner axes exactly — empty shards are no-ops; every range runs
        in process."""
        forbid_pool()
        res = exp.compute(shards=ShardConfig(n_shards=n_shards))
        assert_identical(res, golden)

    def test_run_weighted_outer_level(self, exp, golden):
        """Weight-balanced run blocks (single rank: the whole block) do
        not perturb the result."""
        res = exp.compute(
            shards=ShardConfig(n_shards=2),
            run_weights=[float(len(r.detector_ids)) for r in exp.runs],
        )
        assert_identical(res, golden)

    def test_threads_backend_composes_with_shards(self, exp, golden):
        """Backend engine for the non-sharded kernels (max_intersections
        pre-pass) + shard fan-out for the deposits: still bit-identical."""
        res = exp.compute(backend="threads",
                          shards=ShardConfig(n_shards=2))
        assert_identical(res, golden)


# ---------------------------------------------------------------------------
# per-op equivalence (one run, direct against mdnorm / bin_events)
# ---------------------------------------------------------------------------

class TestShardedOps:
    def _transforms(self, exp, ws):
        traj = exp.grid.transforms_for(ws.ub_matrix, exp.pg,
                                       goniometer=ws.goniometer)
        ev = exp.grid.transforms_for(ws.ub_matrix, exp.pg)
        return traj, ev

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_sharded_mdnorm_bit_identical(self, exp, n_shards):
        ws = exp.wss[1]
        traj, _ = self._transforms(exp, ws)
        ref = Hist3(exp.grid)
        mdnorm(ref, traj, exp.instrument.directions, exp.sa, exp.flux,
               ws.momentum_band, charge=ws.proton_charge, backend="vectorized")
        got = Hist3(exp.grid)
        sharded_mdnorm(
            got, traj, exp.instrument.directions, exp.sa, exp.flux,
            ws.momentum_band, shards=ShardConfig(n_shards=n_shards),
            charge=ws.proton_charge, backend="serial",
        )
        assert np.array_equal(got.signal, ref.signal)

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_sharded_binmd_bit_identical(self, exp, n_shards):
        ws = exp.wss[2]
        _, ev = self._transforms(exp, ws)
        ref = Hist3(exp.grid, track_errors=True)
        bin_events(ref, ws.events, ev, backend="vectorized")
        got = Hist3(exp.grid, track_errors=True)
        sharded_binmd(got, ws.events, ev,
                      shards=ShardConfig(n_shards=n_shards))
        assert np.array_equal(got.signal, ref.signal)
        assert np.array_equal(got.error_sq, ref.error_sq)

    def test_shard_heartbeats_reported(self, exp):
        ws = exp.wss[0]
        traj, _ = self._transforms(exp, ws)
        seen = []
        sharded_mdnorm(
            Hist3(exp.grid), traj, exp.instrument.directions, exp.sa,
            exp.flux, ws.momentum_band,
            shards=ShardConfig(n_shards=3),
            on_shard=lambda s, n: seen.append((s, n)),
        )
        assert seen == [(0, 3), (1, 3), (2, 3)]


# ---------------------------------------------------------------------------
# streaming: sharded open_run normalization, batch-size invariance
# ---------------------------------------------------------------------------

class TestStreamingSharded:
    def _reduce(self, exp, *, shards=None, batch_size=128):
        sr = StreamingReduction(exp.grid, exp.pg, exp.flux, exp.instrument,
                                exp.sa, backend="vectorized", shards=shards)
        for run in exp.runs:
            sr.open_run(run)
            for batch in EventStream(run, batch_size=batch_size):
                sr.consume(batch)
            sr.close_run(run.run_number)
        return sr.snapshot()

    def test_sharded_matches_plain(self, exp):
        plain = self._reduce(exp)
        shard = self._reduce(exp, shards=ShardConfig(n_shards=3))
        assert same(shard.signal, plain.signal)

    @pytest.mark.parametrize("batch_size", (37, 256))
    def test_batch_size_invariance_under_shards(self, exp, batch_size):
        a = self._reduce(exp, shards=ShardConfig(n_shards=2),
                         batch_size=batch_size)
        b = self._reduce(exp, shards=ShardConfig(n_shards=2),
                         batch_size=101)
        assert same(a.signal, b.signal)


# ---------------------------------------------------------------------------
# fault tolerance: kill-one-shard + retry, checkpoint/resume
# ---------------------------------------------------------------------------

class TestShardFaults:
    @pytest.mark.parametrize("site", ("shard.mdnorm", "shard.binmd"))
    def test_kill_one_shard_then_retry(self, exp, golden, site):
        """An io_error injected at a shard dispatch kills that run's
        attempt; the run-level retry re-executes the run and the final
        campaign is bit-identical to the fault-free one."""
        plan = FaultPlan(
            [FaultSpec(site=site, kind="io_error", probability=1.0,
                       max_hits=1)],
            seed=42,
        )
        with use_fault_plan(plan):
            res = exp.compute(
                shards=ShardConfig(n_shards=3),
                recovery=RecoveryConfig(retry=POLICY),
            )
        assert len(plan.events) == 1  # the shard really was killed
        assert plan.events[0]["site"] == site
        assert_identical(res, golden)

    def test_kill_every_shard_of_one_run_quarantines(self, exp, golden):
        """A run whose shards always die exhausts its retries and is
        quarantined; survivors complete the campaign."""
        plan = FaultPlan(
            [FaultSpec(site="shard.mdnorm", kind="io_error",
                       probability=1.0, runs=(1,))],
            seed=7,
        )
        with use_fault_plan(plan):
            res = exp.compute(
                shards=ShardConfig(n_shards=2),
                recovery=RecoveryConfig(retry=POLICY, quarantine=True),
            )
        assert res.quarantined_runs == (1,)
        assert res.degraded
        # degraded result differs from the full campaign
        assert not same(res.cross_section.signal, golden.cross_section.signal)

    def test_checkpoint_resume_with_shards(self, exp, golden, tmp_path):
        """Kill the campaign after run 0's delta is checkpointed, then
        resume with shards: replayed runs + sharded fresh runs are
        bit-identical to the uninterrupted campaign."""
        ckpt_dir = str(tmp_path / "ckpt")
        plan = FaultPlan(
            [FaultSpec(site="shard.binmd", kind="io_error",
                       probability=1.0, runs=(1,))],
            seed=3,
        )
        first = RecoveryConfig(
            retry=RetryPolicy(max_attempts=1, base_delay_s=0.0),
            quarantine=False,
            checkpoint=CheckpointManager(ckpt_dir),
        )
        with use_fault_plan(plan):
            with pytest.raises(Exception):
                exp.compute(shards=ShardConfig(n_shards=2),
                            recovery=first)
        resume = RecoveryConfig(
            retry=POLICY, checkpoint=CheckpointManager(ckpt_dir), resume=True,
        )
        res = exp.compute(shards=ShardConfig(n_shards=3),
                          recovery=resume)
        assert_identical(res, golden)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

class TestShardConfigValidation:
    @pytest.mark.parametrize("bad", (0, -2, "three"))
    def test_bad_shard_count_rejected(self, bad):
        with pytest.raises(BackendError):
            ShardConfig(n_shards=bad)

    @staticmethod
    def _config(tiny_experiment, **kw):
        t = tiny_experiment
        return WorkflowConfig(
            md_paths=t.md_paths, flux_path=t.flux_path,
            vanadium_path=t.vanadium_path, instrument=t.instrument,
            grid=t.grid, point_group=t.point_group, **kw)

    def test_bad_workers_rejected(self, tiny_experiment):
        """``shard_workers`` is validated whether or not sharding is
        on."""
        for shards in (2, None):
            with pytest.raises(BackendError, match="shard workers"):
                self._config(tiny_experiment, shards=shards,
                             shard_workers=0)

    def test_from_options(self):
        assert ShardConfig.from_options(None) is None
        assert ShardConfig.from_options(4) == ShardConfig(n_shards=4)


# ---------------------------------------------------------------------------
# out-of-core invariance (ISSUE 6): chunk size / codec / budget are
# execution details of the same bit-identical reduction
# ---------------------------------------------------------------------------

class TestOutOfCoreInvariance:
    ROW_BYTES = 8 * 8

    @pytest.fixture(scope="class")
    def chunked_paths(self, exp, tmp_path_factory):
        """The same three runs stored at several chunk sizes/codecs."""
        from repro.core.md_event_workspace import save_md

        base = tmp_path_factory.mktemp("ooc_invariance")
        layouts = {}
        for chunk, codec in ((32, "zlib"), (57, "shuffle-zlib"),
                             (128, "none"), (1024, "zlib")):
            paths = []
            for i, ws in enumerate(exp.wss):
                p = str(base / f"c{chunk}_{codec}_r{i}.md.h5")
                save_md(p, ws, chunk_events=chunk, codec=codec)
                paths.append(p)
            layouts[(chunk, codec)] = paths
        return layouts

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_chunk_size_invariance_full_pipeline(
        self, exp, golden, chunked_paths, n_shards
    ):
        from repro.core.md_event_workspace import load_md

        for (chunk, codec), paths in chunked_paths.items():
            budget = 2 * chunk * self.ROW_BYTES
            res = exp.compute(
                loader=lambda i, p=paths: load_md(p[i],
                                                  memory_budget=budget),
                shards=ShardConfig(n_shards=n_shards),
            )
            assert_identical(res, golden)

    def test_worker_backend_invariance(self, exp, golden, chunked_paths,
                                       forbid_pool):
        """Out-of-core ranges read through the run's tile cache in
        process, with the process pool made to raise."""
        from repro.core.md_event_workspace import load_md

        paths = chunked_paths[(57, "shuffle-zlib")]
        budget = 3 * 57 * self.ROW_BYTES
        forbid_pool()
        res = exp.compute(
            loader=lambda i: load_md(paths[i], memory_budget=budget),
            shards=ShardConfig(n_shards=3),
        )
        assert_identical(res, golden)

    def test_shard_tasks_align_with_chunk_plan(self, exp, chunked_paths):
        """The runtime fans out exactly the chunk-aligned ranges the
        planner predicts (boundaries land on chunk boundaries)."""
        from repro.core.md_event_workspace import load_md
        from repro.mpi import chunk_aligned_event_ranges
        from repro.nexus.tiles import LazyEventTable
        from repro.util import trace as trace_mod

        paths = chunked_paths[(32, "zlib")]
        budget = 2 * 32 * self.ROW_BYTES
        expected = 0
        for p in paths:
            lazy = LazyEventTable(p, memory_budget=budget)
            ranges = chunk_aligned_event_ranges(
                lazy.chunk_bounds(), 3,
                chunk_weights=[float(b) for b in lazy.chunk_stored_nbytes()],
                max_rows=budget // lazy.row_nbytes,
            )
            bound_set = set(lazy.chunk_bounds())
            for a, b in ranges:
                assert a in bound_set and b in bound_set
            expected += len(ranges)
            lazy.close()

        tracer = trace_mod.Tracer()
        with trace_mod.use_tracer(tracer):
            exp.compute(
                loader=lambda i: load_md(paths[i], memory_budget=budget),
                shards=ShardConfig(n_shards=3),
            )
        assert tracer.counters["binmd.shard_tasks"] == expected


# ---------------------------------------------------------------------------
# the worker knob selects nothing: every shard range runs in process
# ---------------------------------------------------------------------------

class TestShardRangesRunInProcess:
    """A sharded static, an out-of-core and a stealing reduction, each
    asked for 2 shard workers, complete with a process pool that
    raises on use and match in-memory
    ``vectorized`` bit for bit."""

    @pytest.fixture(scope="class")
    def chunked_md_paths(self, tiny_experiment, tmp_path_factory):
        from repro.core.md_event_workspace import save_md

        base = tmp_path_factory.mktemp("in_process_ooc")
        paths = []
        for i, ws in enumerate(tiny_experiment.workspaces):
            path = str(base / f"run_{i}.md.h5")
            save_md(path, ws, chunk_events=100, codec="zlib")
            paths.append(path)
        return paths

    @staticmethod
    def _reduce(tiny_experiment, **kw):
        t = tiny_experiment
        kw.setdefault("md_paths", t.md_paths)
        return ReductionWorkflow(WorkflowConfig(
            flux_path=t.flux_path, vanadium_path=t.vanadium_path,
            instrument=t.instrument, grid=t.grid,
            point_group=t.point_group, backend="vectorized", **kw)).run()

    @pytest.mark.parametrize("path", ("static", "out_of_core", "stealing"))
    def test_no_path_reaches_for_the_pool(self, tiny_experiment,
                                          chunked_md_paths, forbid_pool,
                                          path):
        reference = self._reduce(tiny_experiment)
        kw = dict(shards=2, shard_workers=2)
        if path == "out_of_core":
            kw.update(md_paths=chunked_md_paths, memory_budget=2 * 100 * 64)
        elif path == "stealing":
            kw.update(executor="stealing", steal_seed=5)
        forbid_pool()
        res = self._reduce(tiny_experiment, **kw)
        assert_identical(res, reference)
        if path == "stealing":
            assert res.extras["stealing"]["tasks"] > 0
