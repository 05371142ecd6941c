"""Unit tests for the Algorithm-1 driver."""

import numpy as np
import pytest

from repro.core.checkpoint import CheckpointManager, RecoveryConfig
from repro.core.cross_section import compute_cross_section
from repro.core.md_event_workspace import load_md
from repro.core.sharding import ShardConfig
from repro.mpi import run_world
from repro.util.schedule import ScheduleController
from repro.util.timers import StageTimings
from repro.util.validation import ValidationError


def _run_cs(exp, comm=None, backend="vectorized", **kw):
    return compute_cross_section(
        load_run=lambda i: load_md(exp.md_paths[i]),
        n_runs=len(exp.md_paths),
        grid=exp.grid,
        point_group=exp.point_group,
        flux=exp.flux,
        det_directions=exp.instrument.directions,
        solid_angles=exp.vanadium.detector_weights,
        comm=comm,
        backend=backend,
        **kw,
    )


class TestSingleRank:
    def test_result_structure(self, tiny_experiment):
        res = _run_cs(tiny_experiment)
        assert res.is_root
        assert res.n_runs == 3
        assert res.cross_section.grid.bins == tiny_experiment.grid.bins
        assert res.binmd.total() > 0
        assert res.mdnorm.total() > 0

    def test_cross_section_is_ratio(self, tiny_experiment):
        res = _run_cs(tiny_experiment)
        mask = res.mdnorm.signal != 0
        expected = res.binmd.signal[mask] / res.mdnorm.signal[mask]
        assert np.allclose(res.cross_section.signal[mask], expected)
        assert np.all(np.isnan(res.cross_section.signal[~mask]))

    def test_stage_timings_populated(self, tiny_experiment):
        timings = StageTimings(label="test")
        res = _run_cs(tiny_experiment, timings=timings)
        assert res.timings is timings
        for stage in ("UpdateEvents", "MDNorm", "BinMD", "Total"):
            assert timings.seconds(stage) > 0
        assert timings.timer("MDNorm").ncalls == 3  # one per run

    def test_backends_agree(self, tiny_experiment):
        a = _run_cs(tiny_experiment, backend="serial")
        b = _run_cs(tiny_experiment, backend="vectorized")
        assert np.allclose(a.binmd.signal, b.binmd.signal)
        assert np.allclose(a.mdnorm.signal, b.mdnorm.signal, rtol=1e-10)

    def test_zero_runs_rejected(self, tiny_experiment):
        with pytest.raises(ValidationError):
            compute_cross_section(
                load_run=lambda i: None,
                n_runs=0,
                grid=tiny_experiment.grid,
                point_group=tiny_experiment.point_group,
                flux=tiny_experiment.flux,
                det_directions=tiny_experiment.instrument.directions,
                solid_angles=tiny_experiment.vanadium.detector_weights,
            )

    def test_missing_ub_rejected(self, tiny_experiment):
        def load_no_ub(i):
            ws = load_md(tiny_experiment.md_paths[i])
            ws.ub_matrix = None
            return ws

        with pytest.raises(ValidationError, match="UB"):
            compute_cross_section(
                load_run=load_no_ub,
                n_runs=1,
                grid=tiny_experiment.grid,
                point_group=tiny_experiment.point_group,
                flux=tiny_experiment.flux,
                det_directions=tiny_experiment.instrument.directions,
                solid_angles=tiny_experiment.vanadium.detector_weights,
            )


#: campaign modes of the one loop: fail-fast, recovery without a
#: checkpoint, recovery with one (built per campaign, shared by ranks)
MODES = ("fail-fast", "recovery", "checkpoint")


def _recovery(mode, tmp_path):
    if mode == "fail-fast":
        return None
    if mode == "recovery":
        return RecoveryConfig()
    return RecoveryConfig(checkpoint=CheckpointManager(tmp_path / "ck"))


def _assert_same_bits(res, ref, label=""):
    assert np.array_equal(res.binmd.signal, ref.binmd.signal), label
    assert np.array_equal(res.binmd.error_sq, ref.binmd.error_sq), label
    assert np.array_equal(res.mdnorm.signal, ref.mdnorm.signal), label


def _root_of(tiny_experiment, size, **kw):
    """The root result of a ``size``-rank campaign (others get None)."""

    def spmd(comm):
        res = _run_cs(tiny_experiment, comm=comm, **kw)
        return res if res.is_root else None

    outs = run_world(size, spmd)
    roots = [o for o in outs if o is not None]
    assert len(roots) == 1
    return roots[0]


class TestMPIDecomposition:
    """One fold: every rank count, campaign mode and executor lands on
    the bits of the single-rank fail-fast loop."""

    @pytest.fixture(scope="class")
    def single(self, tiny_experiment):
        return _run_cs(tiny_experiment)

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_matches_single_rank(self, tiny_experiment, single, tmp_path,
                                 size):
        for mode in MODES:
            res = _root_of(tiny_experiment, size,
                           recovery=_recovery(mode, tmp_path / mode))
            _assert_same_bits(res, single, f"{mode} on {size} ranks")
            assert (res.dispositions is None) == (mode == "fail-fast")

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_stealing_matches_single_rank(self, tiny_experiment, single,
                                          size):
        res = _root_of(tiny_experiment, size, executor="stealing",
                       shards=ShardConfig(n_shards=2),
                       schedule=ScheduleController(seed=size,
                                                   policy="random"))
        _assert_same_bits(res, single, f"stealing on {size} ranks")

    def test_more_ranks_than_runs(self, tiny_experiment, single, tmp_path):
        # 5 ranks, 3 runs: ranks 3 and 4 own no run
        for mode in MODES:
            res = _root_of(tiny_experiment, 5,
                           recovery=_recovery(mode, tmp_path / mode))
            _assert_same_bits(res, single, mode)


class TestImplInjection:
    def test_custom_impls_are_used(self, tiny_experiment):
        calls = {"binmd": 0, "mdnorm": 0}

        def binmd_impl(hist, events, transforms):
            calls["binmd"] += 1
            return hist

        def mdnorm_impl(hist, transforms, det_dirs, solid, flux, band, charge=1.0):
            calls["mdnorm"] += 1
            return hist

        res = _run_cs(
            tiny_experiment, binmd_impl=binmd_impl, mdnorm_impl=mdnorm_impl
        )
        assert calls == {"binmd": 3, "mdnorm": 3}
        assert res.binmd.total() == 0.0
