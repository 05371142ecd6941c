"""Unit tests for the file-driven reduction workflow."""

import numpy as np
import pytest

from repro.core.cross_section import compute_cross_section
from repro.core.md_event_workspace import load_md
from repro.core.workflow import ReductionWorkflow, WorkflowConfig
from repro.instruments.corelli import make_corelli
from repro.util.validation import ValidationError


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
        assert np.allclose(res.binmd.signal, direct.binmd.signal)
        assert np.allclose(res.mdnorm.signal, direct.mdnorm.signal, rtol=1e-10)

    def test_reads_corrections_from_files(self, tiny_experiment):
        wf = ReductionWorkflow(_config(tiny_experiment))
        assert wf.flux.total == pytest.approx(tiny_experiment.flux.total)
        assert np.allclose(
            wf.solid_angles, tiny_experiment.vanadium.detector_weights
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
        assert np.allclose(comb.mdnorm.signal, lib.mdnorm.signal)
