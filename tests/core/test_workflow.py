"""Unit tests for the file-driven reduction workflow."""

import numpy as np
import pytest

from repro.core.cross_section import compute_cross_section
from repro.core.md_event_workspace import load_md
from repro.core.workflow import ReductionWorkflow, WorkflowConfig
from repro.instruments.corelli import make_corelli
from repro.util.validation import ValidationError


def _bits(a):
    """Float arrays compared as int64 bit patterns: equal means equal
    to the last bit, signed zeros and NaN payloads included."""
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _config(exp, **over):
    kwargs = dict(
        md_paths=exp.md_paths,
        flux_path=exp.flux_path,
        vanadium_path=exp.vanadium_path,
        instrument=exp.instrument,
        grid=exp.grid,
        point_group=exp.point_group,
        backend="vectorized",
    )
    kwargs.update(over)
    return WorkflowConfig(**kwargs)


class TestWorkflow:
    def test_matches_direct_compute(self, tiny_experiment):
        wf = ReductionWorkflow(_config(tiny_experiment))
        res = wf.run()
        direct = compute_cross_section(
            load_run=lambda i: load_md(tiny_experiment.md_paths[i]),
            n_runs=3,
            grid=tiny_experiment.grid,
            point_group=tiny_experiment.point_group,
            flux=tiny_experiment.flux,
            det_directions=tiny_experiment.instrument.directions,
            solid_angles=tiny_experiment.vanadium.detector_weights,
            backend="vectorized",
        )
        # the workflow is the same per-run step and fold over the same
        # run files, so every histogram is bit-identical
        for name in ("binmd", "mdnorm"):
            assert np.array_equal(_bits(getattr(res, name).signal),
                                  _bits(getattr(direct, name).signal)), name

    def test_reads_corrections_from_files(self, tiny_experiment):
        wf = ReductionWorkflow(_config(tiny_experiment))
        assert wf.flux.total == pytest.approx(tiny_experiment.flux.total)
        assert np.array_equal(
            _bits(wf.solid_angles),
            _bits(tiny_experiment.vanadium.detector_weights),
        )

    def test_empty_paths_rejected(self, tiny_experiment):
        with pytest.raises(ValidationError):
            _config(tiny_experiment, md_paths=[])

    def test_vanadium_instrument_mismatch_rejected(self, tiny_experiment):
        wrong = make_corelli(n_pixels=100)
        with pytest.raises(ValidationError, match="vanadium"):
            ReductionWorkflow(_config(tiny_experiment, instrument=wrong))

    def test_sort_impl_flows_through(self, tiny_experiment):
        comb = ReductionWorkflow(_config(tiny_experiment, sort_impl="comb")).run()
        lib = ReductionWorkflow(_config(tiny_experiment, sort_impl="library")).run()
        # both sorts put each row's crossings in the same ascending
        # order, so MDNorm is bit-identical (DESIGN section 6f)
        assert np.array_equal(_bits(comb.mdnorm.signal),
                              _bits(lib.mdnorm.signal))
