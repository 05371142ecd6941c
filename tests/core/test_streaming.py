"""Tests for the near-real-time streaming reduction extension."""

import itertools

import numpy as np
import pytest

from repro.core.checkpoint import CheckpointManager, RecoveryConfig
from repro.core.cross_section import compute_cross_section
from repro.core.geom_cache import DISABLED, GeomCache
from repro.core.md_event_workspace import load_md
from repro.core.streaming import EventStream, StreamBatch, StreamingReduction
from repro.util.validation import ReproError, ValidationError


def _reduction(exp, backend="vectorized", geom_cache=None, **kw):
    return StreamingReduction(
        grid=exp.grid,
        point_group=exp.point_group,
        flux=exp.flux,
        instrument=exp.instrument,
        solid_angles=exp.vanadium.detector_weights,
        backend=backend,
        geom_cache=geom_cache,
        **kw,
    )


def _batch_reference(exp):
    return compute_cross_section(
        load_run=lambda i: load_md(exp.md_paths[i]),
        n_runs=len(exp.md_paths),
        grid=exp.grid,
        point_group=exp.point_group,
        flux=exp.flux,
        det_directions=exp.instrument.directions,
        solid_angles=exp.vanadium.detector_weights,
        backend="vectorized",
    )


def _assert_equals_batch(streaming, reference):
    """Bit-for-bit: both histograms, the BinMD errors and the division."""
    assert np.array_equal(streaming.binmd.signal, reference.binmd.signal)
    assert np.array_equal(streaming.binmd.error_sq, reference.binmd.error_sq)
    assert np.array_equal(streaming.mdnorm_hist.signal,
                          reference.mdnorm.signal)
    assert np.array_equal(streaming.snapshot().signal,
                          reference.cross_section.signal, equal_nan=True)


class TestEventStream:
    def test_batches_partition_the_run(self, tiny_experiment):
        run = tiny_experiment.runs[0]
        stream = EventStream(run, batch_size=100)
        ids = np.concatenate([b.detector_ids for b in stream])
        tof = np.concatenate([b.tof for b in stream])
        assert np.array_equal(ids, run.detector_ids)
        assert np.array_equal(tof, run.tof)

    def test_n_batches(self, tiny_experiment):
        run = tiny_experiment.runs[0]
        stream = EventStream(run, batch_size=500)
        assert stream.n_batches == -(-run.n_events // 500)
        assert len(list(stream)) == stream.n_batches

    def test_batch_size_validated(self, tiny_experiment):
        with pytest.raises(Exception):
            EventStream(tiny_experiment.runs[0], batch_size=0)


class TestStreamingReduction:
    @pytest.mark.parametrize(
        "recovery", [None, RecoveryConfig()], ids=["failfast", "recovery"])
    def test_final_state_equals_batch_workflow(self, tiny_experiment,
                                               recovery):
        """The defining invariant: streaming == batch, bit for bit, for
        every failure policy."""
        exp = tiny_experiment
        streaming = _reduction(exp, recovery=recovery)
        for run in exp.runs:
            streaming.open_run(run)
            for batch in EventStream(run, batch_size=177):
                streaming.consume(batch)
            streaming.close_run(run.run_number)
        _assert_equals_batch(streaming, _batch_reference(exp))

    def test_interleaved_runs_closed_out_of_order(self, tiny_experiment):
        """Batches of all runs interleaved, runs closed 2, 0, 1: the
        fold is still ascending-run, so the result is the batch one."""
        exp = tiny_experiment
        streaming = _reduction(exp)
        for run in exp.runs:
            streaming.open_run(run)
        streams = [EventStream(run, batch_size=150) for run in exp.runs]
        for batches in itertools.zip_longest(*streams):
            for batch in filter(None, batches):
                streaming.consume(batch)
        for i in (2, 0, 1):
            streaming.close_run(exp.runs[i].run_number)
        _assert_equals_batch(streaming, _batch_reference(exp))

    def test_run_without_batches_contributes_only_mdnorm(
        self, tiny_experiment
    ):
        """A run opened and closed with no batches adds exactly its
        MDNorm delta and zero BinMD."""
        exp = tiny_experiment
        empty = _reduction(exp)
        empty.open_run(exp.runs[1])
        empty.close_run(exp.runs[1].run_number)
        assert not empty.binmd.signal.any()
        assert not empty.binmd.error_sq.any()

        streaming = _reduction(exp)
        streaming.open_run(exp.runs[0])
        for batch in EventStream(exp.runs[0], batch_size=256):
            streaming.consume(batch)
        binmd, norm = streaming.binmd, streaming.mdnorm_hist
        streaming.open_run(exp.runs[1])
        streaming.close_run(exp.runs[1].run_number)
        assert np.array_equal(streaming.binmd.signal, binmd.signal)
        assert np.array_equal(streaming.binmd.error_sq, binmd.error_sq)
        assert np.array_equal(streaming.mdnorm_hist.signal,
                              norm.signal + empty.mdnorm_hist.signal)

    def test_batch_size_does_not_matter(self, tiny_experiment):
        exp = tiny_experiment
        results = []
        for batch_size in (37, 1200):
            streaming = _reduction(exp)
            for run in exp.runs[:1]:
                streaming.open_run(run)
                for batch in EventStream(run, batch_size=batch_size):
                    streaming.consume(batch)
            results.append(streaming.binmd.signal.copy())
        assert np.array_equal(results[0], results[1])

    @pytest.mark.parametrize("cached", [False, True], ids=["nocache", "cache"])
    def test_batch_size_invariance_with_and_without_cache(
        self, tiny_experiment, cached
    ):
        """Results are independent of batch size (1 vs 4096), with and
        without the geometry cache — no batch-boundary state may leak
        into (or out of) cached geometry."""
        exp = tiny_experiment
        run = exp.runs[0]
        signals = {}
        norms = {}
        for batch_size in (1, 4096):
            cache = GeomCache() if cached else DISABLED
            streaming = _reduction(exp, geom_cache=cache)
            streaming.open_run(run)
            for batch in EventStream(run, batch_size=batch_size):
                streaming.consume(batch)
            signals[batch_size] = streaming.binmd.signal.copy()
            norms[batch_size] = streaming.mdnorm_hist.signal.copy()
            if cached:
                # one geometry computation at open_run; consuming event
                # batches must never insert per-batch entries
                assert streaming.cache_stats["hits"] == 0
                assert len(cache) >= 1
        assert np.array_equal(signals[1], signals[4096])
        assert np.array_equal(norms[1], norms[4096])

    def test_cache_shared_across_restreams(self, tiny_experiment):
        """Re-streaming the same run against one cache hits warm
        geometry and reproduces the cold stream bit for bit."""
        exp = tiny_experiment
        run = exp.runs[0]
        cache = GeomCache()
        results = []
        for _ in range(2):
            streaming = _reduction(exp, geom_cache=cache)
            streaming.open_run(run)
            for batch in EventStream(run, batch_size=256):
                streaming.consume(batch)
            results.append(
                (streaming.binmd.signal.copy(),
                 streaming.mdnorm_hist.signal.copy())
            )
        assert cache.stats.hits > 0
        assert np.array_equal(results[0][0], results[1][0])
        assert np.array_equal(results[0][1], results[1][1])

    def test_arbitrary_batch_sizes_property(self, tiny_experiment):
        """hypothesis: any batch size yields the reference histogram."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        exp = tiny_experiment
        reference = _reduction(exp)
        reference.open_run(exp.runs[0])
        for batch in EventStream(exp.runs[0], batch_size=10**9):
            reference.consume(batch)
        expected = reference.binmd.signal.copy()

        @given(batch_size=st.integers(1, 2000))
        @settings(max_examples=10, deadline=None)
        def check(batch_size):
            streaming = _reduction(exp)
            streaming.open_run(exp.runs[0])
            for batch in EventStream(exp.runs[0], batch_size=batch_size):
                streaming.consume(batch)
            assert np.array_equal(streaming.binmd.signal, expected)

        check()

    def test_snapshots_accumulate_monotonically(self, tiny_experiment):
        exp = tiny_experiment
        streaming = _reduction(exp)
        run = exp.runs[0]
        streaming.open_run(run)
        coverage = []
        totals = []
        for batch in EventStream(run, batch_size=300):
            streaming.consume(batch)
            coverage.append(streaming.binmd.nonzero_fraction())
            totals.append(streaming.binmd.total())
        assert all(b >= a for a, b in zip(coverage, coverage[1:]))
        assert all(b >= a for a, b in zip(totals, totals[1:]))
        assert streaming.events_seen == run.n_events

    def test_normalization_available_before_events(self, tiny_experiment):
        """MDNorm is geometry-only: it lands at open_run time."""
        exp = tiny_experiment
        streaming = _reduction(exp)
        streaming.open_run(exp.runs[0])
        assert streaming.mdnorm_hist.total() > 0
        assert streaming.binmd.total() == 0.0

    def test_batch_before_open_rejected(self, tiny_experiment):
        exp = tiny_experiment
        streaming = _reduction(exp)
        batch = next(iter(EventStream(exp.runs[0], batch_size=10)))
        with pytest.raises(ReproError, match="before open_run"):
            streaming.consume(batch)

    def test_double_open_rejected(self, tiny_experiment):
        exp = tiny_experiment
        streaming = _reduction(exp)
        streaming.open_run(exp.runs[0])
        with pytest.raises(ValidationError, match="already open"):
            streaming.open_run(exp.runs[0])

    def test_open_without_ub_rejected(self, tiny_experiment):
        exp = tiny_experiment
        streaming = _reduction(exp)
        import copy

        run = copy.copy(exp.runs[0])
        run.ub_matrix = None
        with pytest.raises(ValidationError, match="UB"):
            streaming.open_run(run)

    def test_empty_batch_is_noop(self, tiny_experiment):
        exp = tiny_experiment
        streaming = _reduction(exp)
        streaming.open_run(exp.runs[0])
        empty = StreamBatch(
            run_number=exp.runs[0].run_number,
            detector_ids=np.empty(0, dtype=np.uint32),
            tof=np.empty(0),
            weights=np.empty(0, dtype=np.float32),
        )
        streaming.consume(empty)
        assert streaming.events_seen == 0

    def test_checkpoint_rejected(self, tiny_experiment, tmp_path):
        """A stream keeps no checkpoint: asking for one is an error, not
        a silently ignored setting."""
        ckpt = CheckpointManager(tmp_path / "ck")
        with pytest.raises(ValidationError, match="checkpoint"):
            _reduction(tiny_experiment,
                       recovery=RecoveryConfig(checkpoint=ckpt))

    def test_solid_angle_mismatch_rejected(self, tiny_experiment):
        exp = tiny_experiment
        with pytest.raises(Exception):
            StreamingReduction(
                grid=exp.grid,
                point_group=exp.point_group,
                flux=exp.flux,
                instrument=exp.instrument,
                solid_angles=np.ones(3),
            )
