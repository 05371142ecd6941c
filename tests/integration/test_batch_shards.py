"""One kernel body on every path.

Shards, out-of-core runs and the stealing executor run the kernels'
*batch* bodies — the ones the in-memory ``vectorized`` back end runs —
so they agree with it bit for bit by construction:

* tripwire: with both element bodies (``_bin_events_element``,
  ``_mdnorm_element``) replaced by stubs that raise, a sharded
  reduction, an out-of-core reduction and a stealing reduction still
  complete, and match the in-memory ``vectorized`` reduction, with the
  process pool made to raise as well;
* adversarial ranges: one-event shards (in memory and out of core),
  more shards than events or detectors, and an empty run (sharded,
  and under the stealing executor on one and two ranks).
"""

import dataclasses
import importlib

import numpy as np
import pytest

from repro.core.binmd import bin_events
from repro.core.cross_section import compute_cross_section
from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.core.md_event_workspace import convert_to_md, load_md, save_md
from repro.core.mdnorm import mdnorm
from repro.core.sharding import ShardConfig, sharded_binmd, sharded_mdnorm
from repro.crystal.goniometer import Goniometer
from repro.crystal.structures import benzil
from repro.crystal.symmetry import point_group
from repro.crystal.ub import UBMatrix
from repro.instruments.corelli import make_corelli
from repro.instruments.synth import make_flux, make_vanadium, synthesize_run
from repro.mpi import SequentialComm, run_world
from repro.nexus.events import EventTable
from repro.nexus.tiles import LazyEventTable
from repro.util.schedule import ScheduleController

N_RUNS = 3
#: the kernel modules (the package re-exports same-named functions)
KERNEL_MODULES = tuple(importlib.import_module(f"repro.core.{name}")
                       for name in ("binmd", "mdnorm", "sharding"))


class _Exp:
    def __init__(self, base):
        structure = benzil()
        self.instrument = make_corelli(n_pixels=60)
        ub = UBMatrix.from_u_vectors(structure.cell, [0.0, 0.0, 1.0],
                                     [1.0, 0.0, 0.0])
        self.grid = HKLGrid.benzil_grid(bins=(11, 11, 1))
        self.pg = point_group("321")
        self.flux = make_flux(self.instrument)
        self.sa = make_vanadium(self.instrument).detector_weights
        self.wss, self.paths = [], []
        for i, omega in enumerate((0.0, 45.0, 90.0)):
            run = synthesize_run(
                instrument=self.instrument, structure=structure, ub=ub,
                goniometer=Goniometer(omega).rotation, n_events=150,
                rng=np.random.default_rng(4400 + i), run_number=i,
            )
            ws = convert_to_md(run, self.instrument, run_index=i)
            path = str(base / f"run_{i}.md.h5")
            save_md(path, ws, chunk_events=16, codec="zlib")
            self.wss.append(ws)
            self.paths.append(path)

    def compute(self, loader=None, **kw):
        return compute_cross_section(
            loader or self.wss.__getitem__, N_RUNS, self.grid, self.pg,
            self.flux, self.instrument.directions, self.sa, **kw,
        )

    def lazy(self, i):
        return load_md(self.paths[i], memory_budget=2 * 16 * 64)

    def transforms(self, ws):
        return (self.grid.transforms_for(ws.ub_matrix, self.pg,
                                         goniometer=ws.goniometer),
                self.grid.transforms_for(ws.ub_matrix, self.pg))


@pytest.fixture(scope="module")
def exp(tmp_path_factory):
    return _Exp(tmp_path_factory.mktemp("batch_shards"))


@pytest.fixture(scope="module")
def reference(exp):
    """The oracle: in memory, ``vectorized``."""
    return exp.compute(backend="vectorized")


@pytest.fixture(scope="module")
def reference_recovering(exp):
    """The oracle with the recovering loop's ascending-run fold."""
    from repro.core.checkpoint import RecoveryConfig

    return exp.compute(backend="vectorized", recovery=RecoveryConfig())


def assert_identical(res, ref):
    assert res.mdnorm.signal.sum() > 0
    assert np.array_equal(res.mdnorm.signal, ref.mdnorm.signal)
    assert np.array_equal(res.binmd.signal, ref.binmd.signal)
    assert np.array_equal(res.cross_section.signal, ref.cross_section.signal,
                          equal_nan=True)


def _stealing_world(exp, loader, size):
    """The root's result of a ``size``-rank stealing campaign."""

    def body(comm):
        return exp.compute(
            loader, comm=comm, executor="stealing",
            shards=ShardConfig(n_shards=2),
            schedule=ScheduleController(seed=5, policy="random"),
        )

    if size == 1:
        return body(SequentialComm())
    roots = [r for r in run_world(size, body, barrier_timeout=60.0)
             if r is not None and r.cross_section is not None]
    assert len(roots) == 1
    return roots[0]


@pytest.fixture()
def no_element_bodies(monkeypatch):
    """Every element body of the two deposit kernels raises."""

    def tripwire(*args, **kwargs):
        raise AssertionError("an element body ran")

    binmd_mod, mdnorm_mod, _ = KERNEL_MODULES
    for name in ("_bin_events_element", "_mdnorm_element"):
        for mod in KERNEL_MODULES:
            monkeypatch.setattr(mod, name, tripwire, raising=False)
    for mod, kernel in ((binmd_mod, "BIN_EVENTS_KERNEL"),
                        (mdnorm_mod, "MDNORM_KERNEL")):
        monkeypatch.setattr(mod, kernel, dataclasses.replace(
            getattr(mod, kernel), element=tripwire))


class TestNoShardPathRunsAnElementBody:
    def test_sharded(self, exp, reference, no_element_bodies, forbid_pool):
        forbid_pool()
        # --backend serial: only the geometry pre-pass honours it
        res = exp.compute(backend="serial", shards=ShardConfig(n_shards=3))
        assert_identical(res, reference)

    @pytest.mark.parametrize("shards", (None, ShardConfig(n_shards=2)))
    def test_out_of_core(self, exp, reference, no_element_bodies,
                         forbid_pool, shards):
        forbid_pool()
        res = exp.compute(exp.lazy, backend="vectorized", shards=shards)
        assert_identical(res, reference)

    def test_stealing(self, exp, reference_recovering, no_element_bodies):
        res = exp.compute(
            backend="serial", executor="stealing",
            shards=ShardConfig(n_shards=2),
            schedule=ScheduleController(seed=3, policy="random"),
        )
        assert res.extras["stealing"]["tasks"] > 0
        assert_identical(res, reference_recovering)

    def test_the_tripwire_is_live(self, exp, no_element_bodies):
        """The stubs do stand in for the element bodies."""
        with pytest.raises(AssertionError, match="element body"):
            exp.compute(backend="serial")


class TestSortImplReachesShards:
    """``sort_impl`` is honoured by the shard and stealing paths, which
    still match the in-memory result (both sorts give the same rows)."""

    @pytest.fixture()
    def comb_calls(self, monkeypatch):
        import repro.core.intersections as intersections

        calls = []
        real = intersections.comb_sort_rows

        def counting(values, *args, **kwargs):
            calls.append(values.shape)
            return real(values, *args, **kwargs)

        monkeypatch.setattr(intersections, "comb_sort_rows", counting)
        return calls

    def test_sharded(self, exp, reference, comb_calls):
        shards = ShardConfig(n_shards=2)
        assert_identical(exp.compute(shards=shards), reference)
        assert comb_calls == []  # the library sort is the default
        res = exp.compute(shards=shards, sort_impl="comb")
        assert comb_calls
        assert_identical(res, reference)

    def test_stealing(self, exp, reference_recovering, comb_calls):
        res = exp.compute(
            sort_impl="comb", executor="stealing",
            shards=ShardConfig(n_shards=2),
            schedule=ScheduleController(seed=3, policy="random"),
        )
        assert comb_calls
        assert_identical(res, reference_recovering)


class TestAdversarialRanges:
    def _binmd_pair(self, exp, events, n_shards):
        _, ev = exp.transforms(exp.wss[1])
        ref = Hist3(exp.grid, track_errors=True)
        data = np.asarray(events) if not hasattr(events, "chunk_bounds") \
            else events.materialize().data
        bin_events(ref, data, ev, backend="vectorized")
        got = Hist3(exp.grid, track_errors=True)
        sharded_binmd(got, events, ev,
                      shards=ShardConfig(n_shards=n_shards))
        return got, ref

    def test_one_event_shards(self, exp, forbid_pool):
        forbid_pool()
        events = exp.wss[1].events.data
        got, ref = self._binmd_pair(exp, events, len(events))
        assert ref.signal.sum() > 0
        assert np.array_equal(got.signal, ref.signal)
        assert np.array_equal(got.error_sq, ref.error_sq)

    def test_one_event_shards_out_of_core(self, exp, tmp_path, forbid_pool):
        forbid_pool()
        ws = dataclasses.replace(
            exp.wss[1], events=EventTable(exp.wss[1].events.data[:30].copy()))
        path = str(tmp_path / "tiny.md.h5")
        save_md(path, ws, chunk_events=1, codec="shuffle-zlib")
        lazy = LazyEventTable(path, memory_budget=64)
        try:
            got, ref = self._binmd_pair(exp, lazy, 30)
        finally:
            lazy.close()
        assert ref.signal.sum() > 0
        assert np.array_equal(got.signal, ref.signal)
        assert np.array_equal(got.error_sq, ref.error_sq)

    def test_more_shards_than_events(self, exp):
        got, ref = self._binmd_pair(exp, exp.wss[1].events.data[5:8], 7)
        assert ref.signal.sum() > 0
        assert np.array_equal(got.signal, ref.signal)
        assert np.array_equal(got.error_sq, ref.error_sq)

    def test_empty_run(self, exp):
        got, ref = self._binmd_pair(exp, np.zeros((0, 8)), 3)
        assert not got.signal.any() and not got.error_sq.any()
        empty = dataclasses.replace(exp.wss[1],
                                    events=EventTable(np.zeros((0, 8))))
        wss = [exp.wss[0], empty, exp.wss[2]]
        res = exp.compute(wss.__getitem__, backend="vectorized",
                          shards=ShardConfig(n_shards=4))
        ref_run = exp.compute(wss.__getitem__, backend="vectorized")
        assert_identical(res, ref_run)
        # the stealing executor on one and two ranks: the empty run's
        # shards are tasks like any other
        for size in (1, 2):
            res = _stealing_world(exp, wss.__getitem__, size)
            assert_identical(res, ref_run)
            assert np.array_equal(res.binmd.error_sq, ref_run.binmd.error_sq)

    @pytest.mark.parametrize("n_det,n_shards", ((3, 7), (5, 5)))
    def test_detector_shards(self, exp, n_det, n_shards):
        """More shards than detectors, and one detector per shard."""
        ws = exp.wss[1]
        traj, _ = exp.transforms(ws)
        dets, sa = exp.instrument.directions[:n_det], exp.sa[:n_det]
        ref = Hist3(exp.grid)
        mdnorm(ref, traj, dets, sa, exp.flux, ws.momentum_band,
               charge=ws.proton_charge, backend="vectorized")
        got = Hist3(exp.grid)
        sharded_mdnorm(got, traj, dets, sa, exp.flux, ws.momentum_band,
                       shards=ShardConfig(n_shards=n_shards),
                       charge=ws.proton_charge)
        assert np.array_equal(got.signal, ref.signal)
