"""Unit tests for the C++ proxy's optimized CPU kernels."""

import numpy as np
import pytest

from repro.core.binmd import bin_events
from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.core.mdnorm import mdnorm
from repro.core.workflow import ReductionWorkflow, WorkflowConfig
from repro.nexus.corrections import FluxSpectrum
from repro.nexus.events import EventTable
from repro.proxy.cpp_proxy import (
    CppProxyConfig,
    CppProxyWorkflow,
    cpp_bin_md,
    cpp_md_norm,
)
from repro.util.validation import ValidationError


@pytest.fixture()
def grid():
    return HKLGrid(
        basis=np.eye(3), minimum=(-2.0, -2.0, -0.5), maximum=(2.0, 2.0, 0.5),
        bins=(14, 14, 1),
    )


@pytest.fixture()
def flux():
    k = np.linspace(1.0, 12.0, 48)
    return FluxSpectrum(momentum=k, density=np.exp(-0.05 * k))


OPS = np.stack([np.eye(3), -np.eye(3)])
BAND = (2.0, 9.0)


class TestCppBinMd:
    def test_matches_core(self, grid, rng):
        events = EventTable.from_columns(
            signal=rng.random(400),
            q_sample=rng.uniform(-2.5, 2.5, size=(400, 3)),
        )
        a = Hist3(grid, track_errors=True)
        cpp_bin_md(a, events, OPS)
        b = Hist3(grid, track_errors=True)
        bin_events(b, events, OPS, backend="serial")
        assert np.allclose(a.signal, b.signal)
        assert np.allclose(a.error_sq, b.error_sq)

    def test_empty_events(self, grid):
        h = Hist3(grid)
        cpp_bin_md(h, EventTable.empty(), OPS)
        assert h.total() == 0.0

    def test_transform_validation(self, grid):
        with pytest.raises(ValidationError):
            cpp_bin_md(Hist3(grid), EventTable.empty(), np.eye(3))


class TestCppMdNorm:
    def _dets(self, rng, n=40):
        d = rng.normal(size=(n, 3))
        return d / np.linalg.norm(d, axis=1, keepdims=True)

    def test_matches_core(self, grid, flux, rng):
        dets = self._dets(rng)
        solid = rng.random(40)
        a = Hist3(grid)
        cpp_md_norm(a, OPS, dets, solid, flux, BAND, charge=1.3, n_threads=1)
        b = Hist3(grid)
        mdnorm(b, OPS, dets, solid, flux, BAND, charge=1.3, backend="vectorized")
        assert np.allclose(a.signal, b.signal, rtol=1e-9, atol=1e-15)

    def test_threaded_equals_serial(self, grid, flux, rng):
        dets = self._dets(rng, 60)
        solid = rng.random(60)
        a = Hist3(grid)
        cpp_md_norm(a, OPS, dets, solid, flux, BAND, n_threads=1)
        b = Hist3(grid)
        cpp_md_norm(b, OPS, dets, solid, flux, BAND, n_threads=4)
        assert np.allclose(a.signal, b.signal, rtol=1e-12)

    def test_charge_linearity(self, grid, flux, rng):
        dets = self._dets(rng, 20)
        a = Hist3(grid)
        cpp_md_norm(a, OPS, dets, np.ones(20), flux, BAND, charge=1.0)
        b = Hist3(grid)
        cpp_md_norm(b, OPS, dets, np.ones(20), flux, BAND, charge=3.0)
        assert np.allclose(b.signal, 3.0 * a.signal)

    def test_profiled_crossings_are_exact(self, grid, flux, rng):
        """The traced op's work counts every plane crossing of every
        row, as the scalar per-lane counter does, dead rows as 0."""
        from repro.core.intersections import (
            count_crossings_scalar,
            k_window,
            trajectory_directions,
        )
        from repro.util.trace import Tracer, use_tracer

        dets = self._dets(rng)
        tracer = Tracer(profile=True)
        with use_tracer(tracer):
            cpp_md_norm(Hist3(grid), OPS, dets, np.ones(40), flux, BAND,
                        n_threads=1)
        (op,) = [r for r in tracer.records
                 if r.get("type") == "span" and r["name"] == "cpp.mdnorm"]
        d = trajectory_directions(OPS, dets).reshape(-1, 3)
        lo, hi = k_window(d, grid, *BAND)
        want = sum(count_crossings_scalar(d[i], grid, lo[i], hi[i])
                   for i in range(len(d)))
        assert want > 0 and not (hi > lo).all()
        assert op["attrs"]["perf"]["intersections"] == want
        assert op["attrs"]["perf"]["trajectories"] == len(d)


class TestCppProxyWorkflow:
    def test_matches_core_workflow(self, tiny_experiment):
        cpp = CppProxyWorkflow(
            CppProxyConfig(
                md_paths=tiny_experiment.md_paths,
                flux_path=tiny_experiment.flux_path,
                vanadium_path=tiny_experiment.vanadium_path,
                instrument=tiny_experiment.instrument,
                grid=tiny_experiment.grid,
                point_group=tiny_experiment.point_group,
            )
        ).run()
        core = ReductionWorkflow(
            WorkflowConfig(
                md_paths=tiny_experiment.md_paths,
                flux_path=tiny_experiment.flux_path,
                vanadium_path=tiny_experiment.vanadium_path,
                instrument=tiny_experiment.instrument,
                grid=tiny_experiment.grid,
                point_group=tiny_experiment.point_group,
                backend="vectorized",
            )
        ).run()
        assert np.allclose(cpp.binmd.signal, core.binmd.signal)
        assert np.allclose(cpp.mdnorm.signal, core.mdnorm.signal, rtol=1e-9)
        assert cpp.backend == "cpp-proxy"

    def test_vanadium_mismatch_rejected(self, tiny_experiment):
        from repro.instruments.corelli import make_corelli

        with pytest.raises(ValidationError, match="vanadium"):
            CppProxyWorkflow(
                CppProxyConfig(
                    md_paths=tiny_experiment.md_paths,
                    flux_path=tiny_experiment.flux_path,
                    vanadium_path=tiny_experiment.vanadium_path,
                    instrument=make_corelli(n_pixels=64),
                    grid=tiny_experiment.grid,
                    point_group=tiny_experiment.point_group,
                )
            )
