"""Shard-path pipeline equivalence.

The file is named for the retired ``fused`` back end.  Its shard-path
cases never reached that back end's kernel: shards, stealing,
out-of-core and checkpointed runs execute the batch bodies whatever the
back end.  Those paths remain, and the contract stays: for every
instrument x symmetry group x execution mode below, the cross-section
(and both factors, including ``error_sq``) is **bit-identical** to the
in-memory ``vectorized`` campaign:

* intra-run sharding (shards > 1, including shard counts larger than
  the op axis);
* the elastic work-stealing executor under a random steal schedule;
* out-of-core runs (chunked event files re-read under a memory
  budget);
* checkpoint/resume across a mid-campaign failure.

Runs cover CORELLI/Benzil x 321 and TOPAZ/Bixbyite x m-3 (6-op and
24-op plans, distinct grids).  Each mode is compared against the
reduction with the same fold order: the plain loop for in-place modes,
the recovering loop (scratch-delta fold) for stealing and checkpoint
resume.
"""

import numpy as np
import pytest

from repro.core.checkpoint import CheckpointManager, RecoveryConfig
from repro.core.cross_section import compute_cross_section
from repro.core.grid import HKLGrid
from repro.core.md_event_workspace import convert_to_md, load_md, save_md
from repro.core.sharding import ShardConfig
from repro.crystal.goniometer import Goniometer
from repro.crystal.structures import benzil, bixbyite
from repro.crystal.symmetry import point_group
from repro.crystal.ub import UBMatrix
from repro.instruments.corelli import make_corelli
from repro.instruments.synth import make_flux, make_vanadium, synthesize_run
from repro.instruments.topaz import make_topaz
from repro.util.faults import FaultPlan, FaultSpec, RetryPolicy, use_fault_plan
from repro.util.schedule import ScheduleController

N_RUNS = 3
POLICY = RetryPolicy(max_attempts=3, base_delay_s=0.0)


class _Exp:
    """One instrument + structure + symmetry group campaign setup."""

    def __init__(self, key):
        if key == "benzil":
            structure = benzil()
            self.instrument = make_corelli(n_pixels=150)
            self.grid = HKLGrid.benzil_grid(bins=(15, 15, 1))
            self.pg = point_group("321")  # 6 ops
            u, v = [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]
        else:
            structure = bixbyite()
            self.instrument = make_topaz(n_pixels=120)
            self.grid = HKLGrid.bixbyite_grid(bins=(13, 13, 1))
            self.pg = point_group("m-3")  # 24 ops
            u, v = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
        self.ub = UBMatrix.from_u_vectors(structure.cell, u, v)
        self.flux = make_flux(self.instrument)
        self.sa = make_vanadium(self.instrument).detector_weights
        self.wss = [
            convert_to_md(
                synthesize_run(
                    instrument=self.instrument, structure=structure,
                    ub=self.ub, goniometer=Goniometer(omega).rotation,
                    n_events=400, rng=np.random.default_rng(9300 + i),
                    run_number=i,
                ),
                self.instrument, run_index=i,
            )
            for i, omega in enumerate((0.0, 40.0, 80.0))
        ]

    def loader(self, i):
        return self.wss[i]

    def compute(self, *, backend, loader=None, **kw):
        return compute_cross_section(
            loader or self.loader, N_RUNS, self.grid, self.pg, self.flux,
            self.instrument.directions, self.sa, backend=backend, **kw,
        )


@pytest.fixture(scope="module", params=("benzil", "bixbyite"))
def exp(request):
    return _Exp(request.param)


def assert_bit_identical(got, vec):
    assert got.mdnorm.signal.sum() > 0  # the campaign deposited
    assert np.array_equal(got.mdnorm.signal, vec.mdnorm.signal)
    assert np.array_equal(got.binmd.signal, vec.binmd.signal)
    if vec.binmd.error_sq is not None:
        assert np.array_equal(got.binmd.error_sq, vec.binmd.error_sq)
    assert np.array_equal(got.cross_section.signal,
                          vec.cross_section.signal, equal_nan=True)
    if got.cross_section.error_sq is not None:
        assert np.array_equal(got.cross_section.error_sq,
                              vec.cross_section.error_sq, equal_nan=True)


class TestFusedPipelineEquivalence:
    @pytest.mark.parametrize("n_shards", (2, 7))
    def test_sharded(self, exp, n_shards):
        shards = ShardConfig(n_shards=n_shards)
        assert_bit_identical(exp.compute(backend="vectorized", shards=shards),
                             exp.compute(backend="vectorized"))

    def test_stealing_executor(self, exp):
        got = exp.compute(
            backend="vectorized", executor="stealing",
            shards=ShardConfig(n_shards=3),
            schedule=ScheduleController(seed=5, policy="random"),
        )
        assert got.extras["stealing"]["tasks"] > 0
        assert_bit_identical(
            got, exp.compute(backend="vectorized", recovery=RecoveryConfig()))

    def test_out_of_core(self, exp, tmp_path):
        """Chunked event files re-read under a tight memory budget."""
        paths = []
        for i, ws in enumerate(exp.wss):
            p = str(tmp_path / f"run{i}.md.h5")
            save_md(p, ws, chunk_events=64, codec="shuffle-zlib")
            paths.append(p)
        budget = 2 * 64 * 8 * 8  # two chunks of 8-column float64 rows
        got = exp.compute(
            backend="vectorized",
            loader=lambda i: load_md(paths[i], memory_budget=budget),
            shards=ShardConfig(n_shards=3),
        )
        assert_bit_identical(got, exp.compute(backend="vectorized"))

    def test_checkpoint_resume(self, exp, tmp_path):
        """Kill run 1 mid-campaign, resume from the checkpoint: the
        replayed+fresh campaign equals an uninterrupted one."""
        ckpt_dir = str(tmp_path / "ckpt")
        plan = FaultPlan(
            [FaultSpec(site="shard.binmd", kind="io_error",
                       probability=1.0, runs=(1,))],
            seed=3,
        )
        first = RecoveryConfig(
            retry=RetryPolicy(max_attempts=1, base_delay_s=0.0),
            quarantine=False, checkpoint=CheckpointManager(ckpt_dir),
        )
        with use_fault_plan(plan):
            with pytest.raises(Exception):
                exp.compute(backend="vectorized",
                            shards=ShardConfig(n_shards=2),
                            recovery=first)
        resume = RecoveryConfig(
            retry=POLICY, checkpoint=CheckpointManager(ckpt_dir), resume=True,
        )
        got = exp.compute(backend="vectorized",
                          shards=ShardConfig(n_shards=2),
                          recovery=resume)
        reference = RecoveryConfig(
            checkpoint=CheckpointManager(str(tmp_path / "ckpt-reference")))
        assert_bit_identical(
            got, exp.compute(backend="vectorized", recovery=reference))
