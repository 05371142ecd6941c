"""One launch per shard range, five decoded columns per window.

An MDNorm range is a contiguous block of the op-major (op, detector)
rows and runs as one batch launch; a BinMD range is an event window run
under every op in one launch and, out of core, decodes only the five
columns BinMD reads.  Each adversarial case below is compared
``array_equal`` with the in-memory ``vectorized`` reduction on BinMD
signal, ``error_sq`` and MDNorm, under the static executor and the
2-rank stealing executor:

* MDNorm row ranges at 1, 2, 3, 7 and ``n_ops * n_det + 5`` shards;
* a range whose rows are all dead, a one-detector instrument, and zero
  solid angles;
* lazy BinMD at ``chunk_events`` of 1, 7, ``n`` and ``n + 3``;
* an empty run, a budget smaller than one decoded chunk, and events
  exactly on bin edges;
* one full reduction decoding every BinMD chunk stream exactly once.

The deposit recorder every range launches into is covered on its own
at the end: its log keeps the batch body's call order, tracks
``err_sq`` only when the target does, and concatenates its parts into
one log that replays like the same deposits made in place.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.cross_section import compute_cross_section
from repro.core.grid import HKLGrid
from repro.core.md_event_workspace import convert_to_md, load_md, save_md
from repro.core.hist3 import Hist3
from repro.core.sharding import RecordingHist3, ShardConfig, replay_deposits
from repro.crystal.goniometer import Goniometer
from repro.crystal.structures import benzil
from repro.crystal.symmetry import point_group
from repro.crystal.ub import TWO_PI, UBMatrix
from repro.instruments.corelli import make_corelli
from repro.instruments.synth import make_flux, make_vanadium, synthesize_run
from repro.mpi import run_world
from repro.nexus.events import EventTable
from repro.util.schedule import ScheduleController

EXECUTORS = ("static", "stealing")
N_DET = 40


class _Exp:
    def __init__(self):
        structure = benzil()
        self.instrument = make_corelli(n_pixels=N_DET)
        ub = UBMatrix.from_u_vectors(structure.cell, [0.0, 0.0, 1.0],
                                     [1.0, 0.0, 0.0])
        # a coarse, thick slab: most lanes land, many per bin, so the
        # per-bin sums depend on the deposit order
        self.grid = HKLGrid.benzil_grid(bins=(5, 5, 1), l_half_width=3.0)
        self.pg = point_group("321")
        self.flux = make_flux(self.instrument)
        self.dets = self.instrument.directions
        self.sa = make_vanadium(self.instrument).detector_weights
        self.wss = []
        for i, omega in enumerate((0.0, 45.0, 90.0)):
            rng = np.random.default_rng(7100 + i)
            run = synthesize_run(
                instrument=self.instrument, structure=structure, ub=ub,
                goniometer=Goniometer(omega).rotation, n_events=300 + 7 * i,
                rng=rng, run_number=i,
            )
            ws = convert_to_md(run, self.instrument, run_index=i)
            # weights whose sums round: a wrong replay order shows
            cols = ws.events.cols.copy()
            cols[0] = rng.uniform(0.1, 3.0, cols.shape[1])
            cols[1] = cols[0] * rng.uniform(0.5, 2.0, cols.shape[1])
            self.wss.append(dataclasses.replace(
                ws, events=EventTable.from_cols(cols)))


@pytest.fixture(scope="module")
def exp():
    return _Exp()


def _reduce(exp, wss, executor=None, *, loader=None, grid=None, dets=None,
            sa=None, n_shards=None):
    args = (loader or wss.__getitem__, len(wss), grid or exp.grid, exp.pg,
            exp.flux, exp.dets if dets is None else dets,
            exp.sa if sa is None else sa)
    kw = dict(backend="vectorized")
    if n_shards is not None:
        kw["shards"] = ShardConfig(n_shards=n_shards)
    if executor != "stealing":
        return compute_cross_section(*args, **kw)

    def body(comm):
        return compute_cross_section(
            *args, comm=comm, executor="stealing",
            schedule=ScheduleController(seed=11, policy="random"), **kw)

    roots = [r for r in run_world(2, body, barrier_timeout=60.0)
             if r is not None and r.cross_section is not None]
    assert len(roots) == 1
    return roots[0]


def _assert_identical(res, ref):
    assert np.array_equal(res.binmd.signal, ref.binmd.signal)
    assert np.array_equal(res.binmd.error_sq, ref.binmd.error_sq)
    assert np.array_equal(res.mdnorm.signal, ref.mdnorm.signal)
    assert np.array_equal(res.cross_section.signal, ref.cross_section.signal,
                          equal_nan=True)


@pytest.fixture(scope="module")
def reference(exp):
    return _reduce(exp, exp.wss)


class TestMDNormRowRanges:
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("n_shards", (1, 2, 3, 7, 6 * N_DET + 5))
    def test_row_ranges(self, exp, reference, executor, n_shards):
        assert reference.mdnorm.signal.sum() > 0
        res = _reduce(exp, exp.wss, executor, n_shards=n_shards)
        _assert_identical(res, reference)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_range_of_dead_rows(self, exp, executor):
        """Half of every op's detectors weigh nothing: with one range
        per half op, every other range has only dead rows."""
        sa = exp.sa.copy()
        sa[: N_DET // 2] = 0.0
        ref = _reduce(exp, exp.wss, sa=sa)
        assert ref.mdnorm.signal.sum() > 0
        res = _reduce(exp, exp.wss, executor, sa=sa, n_shards=2 * 6)
        _assert_identical(res, ref)

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("n_shards", (1, 3, 7))
    def test_one_detector_instrument(self, exp, executor, n_shards):
        dets, sa = exp.dets[5:6], exp.sa[5:6]
        ref = _reduce(exp, exp.wss, dets=dets, sa=sa)
        res = _reduce(exp, exp.wss, executor, dets=dets, sa=sa,
                      n_shards=n_shards)
        _assert_identical(res, ref)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_zero_solid_angles(self, exp, executor):
        sa = np.zeros_like(exp.sa)
        ref = _reduce(exp, exp.wss, sa=sa)
        assert not ref.mdnorm.signal.any()
        res = _reduce(exp, exp.wss, executor, sa=sa, n_shards=3)
        _assert_identical(res, ref)


class TestLazyBinMDWindows:
    @pytest.fixture(scope="class")
    def chunked(self, exp, tmp_path_factory):
        """Each run saved at chunk sizes 1, 7, n and n + 3."""
        base = tmp_path_factory.mktemp("shard_launches")
        layouts = {}
        for label in ("1", "7", "n", "n+3"):
            paths = []
            for i, ws in enumerate(exp.wss):
                n = ws.n_events
                chunk = {"1": 1, "7": 7, "n": n, "n+3": n + 3}[label]
                path = str(base / f"c{label}_r{i}.md.h5")
                save_md(path, ws, chunk_events=chunk, codec="zlib")
                paths.append(path)
            layouts[label] = paths
        return layouts

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("label", ("1", "7", "n", "n+3"))
    def test_chunk_sizes(self, exp, reference, chunked, executor, label):
        assert reference.binmd.signal.sum() > 0
        paths = chunked[label]
        res = _reduce(
            exp, exp.wss, executor, n_shards=2,
            loader=lambda i: load_md(paths[i], memory_budget=4096))
        _assert_identical(res, reference)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_empty_run(self, exp, tmp_path, executor):
        empty = dataclasses.replace(exp.wss[1], events=EventTable.empty())
        wss = [exp.wss[0], empty, exp.wss[2]]
        paths = []
        for i, ws in enumerate(wss):
            paths.append(str(tmp_path / f"r{i}.md.h5"))
            save_md(paths[-1], ws, chunk_events=16)
        ref = _reduce(exp, wss)
        res = _reduce(exp, wss, executor, n_shards=3,
                      loader=lambda i: load_md(paths[i], memory_budget=2048))
        _assert_identical(res, ref)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_budget_below_one_decoded_chunk(self, exp, tmp_path, executor):
        """A 16-event chunk decodes to 5 x 128 B; under a 200 B budget
        every window still reads one whole chunk, the floor."""
        budget = 200
        paths, tables = [], []
        for i, ws in enumerate(exp.wss):
            paths.append(str(tmp_path / f"r{i}.md.h5"))
            save_md(paths[-1], ws, chunk_events=16, codec="shuffle-zlib")

        def loader(i):
            ws = load_md(paths[i], memory_budget=budget)
            tables.append(ws.events)
            return ws

        ref = _reduce(exp, exp.wss)
        res = _reduce(exp, exp.wss, executor, n_shards=2, loader=loader)
        _assert_identical(res, ref)
        assert tables
        for table in tables:
            stats = table.tile_stats
            assert stats.peak_resident_bytes == 5 * 16 * 8
            # one window per chunk, each of its five streams decoded once
            assert stats.misses == 5 * len(table.chunk_ranges())
            assert stats.decoded_bytes == 5 * 8 * table.n_events

    @pytest.mark.parametrize("budget", (30, 1 << 20))
    @pytest.mark.parametrize("executor,n_shards",
                             (("static", 1), ("static", 3), ("stealing", 3)))
    def test_every_stream_decoded_once(self, exp, reference, tmp_path,
                                       executor, n_shards, budget):
        """A full out-of-core reduction decodes each BinMD chunk stream
        exactly once, whatever the executor, shard count or budget (30 B
        is below one 40 B row): a cache of decoded chunks would never
        hit.  Every run ends in a short chunk."""
        paths, tables = [], []
        for i, ws in enumerate(exp.wss):
            assert ws.n_events % 16
            paths.append(str(tmp_path / f"r{i}.md.h5"))
            save_md(paths[-1], ws, chunk_events=16, codec="zlib")

        def loader(i):
            ws = load_md(paths[i], memory_budget=budget)
            tables.append(ws.events)
            return ws

        res = _reduce(exp, exp.wss, executor, n_shards=n_shards, loader=loader)
        _assert_identical(res, reference)
        assert len(tables) == len(exp.wss)
        for table in tables:
            stats = table.tile_stats
            assert stats.hits == 0
            assert stats.misses == 5 * len(table.chunk_ranges())
            assert stats.decoded_bytes == 5 * 8 * table.n_events
            table.close()

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_events_on_bin_edges(self, exp, tmp_path, executor):
        """With ``2 pi UB = I`` and an identity grid basis every op is a
        signed permutation, so integer Q lands exactly on bin edges
        (the grid's edges are the integers -5 ... 5)."""
        grid = HKLGrid(basis=np.eye(3), minimum=(-5.0, -5.0, -5.0),
                       maximum=(5.0, 5.0, 5.0), bins=(10, 10, 10))
        rng = np.random.default_rng(31)
        wss, paths = [], []
        for i in range(3):
            q = rng.integers(-6, 7, size=(60, 3)).astype(np.float64)
            events = EventTable.from_columns(
                signal=rng.uniform(0.5, 2.0, 60), q_sample=q)
            wss.append(dataclasses.replace(
                exp.wss[i], events=events, ub_matrix=np.eye(3) / TWO_PI))
            paths.append(str(tmp_path / f"r{i}.md.h5"))
            save_md(paths[-1], wss[-1], chunk_events=7)
        ref = _reduce(exp, wss, grid=grid)
        assert ref.binmd.signal.sum() > 0
        for loader in (None, lambda i: load_md(paths[i], memory_budget=600)):
            res = _reduce(exp, wss, executor, grid=grid, n_shards=3,
                          loader=loader)
            _assert_identical(res, ref)


class TestRecordingHist3:
    GRID = HKLGrid(basis=np.eye(3), minimum=(-1.0, -1.0, -1.0),
                   maximum=(1.0, 1.0, 1.0), bins=(4, 4, 2))

    def _deposits(self, seed, n=200):
        """In-grid ``(flat, weight, err_sq)`` arrays; few bins, so the
        per-bin sums depend on the order they are added in."""
        rng = np.random.default_rng(seed)
        flat, inside = self.GRID.bin_index(rng.uniform(-1.3, 1.3, (n, 3)))
        w = rng.uniform(0.1, 2.0, n)[inside]
        return flat[inside], w, w * rng.uniform(0.5, 2.0, w.size)

    def test_push_flat_matches_hist3(self):
        flat, w, e = self._deposits(1)
        real = Hist3(self.GRID, track_errors=True)
        real.push_flat(flat, w, e)
        rec = RecordingHist3(self.GRID, True)
        rec.push_flat(flat, w, e)
        replayed = Hist3(self.GRID, track_errors=True)
        replay_deposits(replayed, [rec.harvest()])
        assert np.array_equal(replayed.signal, real.signal)
        assert np.array_equal(replayed.error_sq, real.error_sq)

    def test_multi_part_log_keeps_call_order(self):
        """Several batch deposits harvest into one log, concatenated in
        call order: replaying it equals the same calls on a Hist3."""
        flat, w, e = self._deposits(2)
        cuts = (0, 1, 9, 60, flat.size)
        real = Hist3(self.GRID, track_errors=True)
        rec = RecordingHist3(self.GRID, True)
        for a, b in zip(cuts[:-1], cuts[1:]):
            real.push_flat(flat[a:b], w[a:b], e[a:b])
            rec.push_flat(flat[a:b], w[a:b], e[a:b])
        idx, weights, err = rec.harvest()
        assert np.array_equal(idx, flat) and np.array_equal(weights, w)
        assert np.array_equal(err, e)
        replayed = Hist3(self.GRID, track_errors=True)
        replay_deposits(replayed, [(idx, weights, err)])
        assert np.array_equal(replayed.signal, real.signal)
        assert np.array_equal(replayed.error_sq, real.error_sq)

    def test_logs_replayed_in_order_equal_one_log(self):
        """Cut the deposit stream anywhere, one recorder per piece,
        replay the pieces in ascending order: the per-bin float fold is
        the uncut fold, bit for bit."""
        flat, w, e = self._deposits(3)
        whole = Hist3(self.GRID, track_errors=True)
        whole.push_flat(flat, w, e)
        for cut in (1, 3, 7, 50, flat.size - 1):
            logs = []
            for a in range(0, flat.size, cut):
                rec = RecordingHist3(self.GRID, True)
                rec.push_flat(flat[a:a + cut], w[a:a + cut], e[a:a + cut])
                logs.append(rec.harvest())
            replayed = Hist3(self.GRID, track_errors=True)
            replay_deposits(replayed, logs)
            assert np.array_equal(replayed.signal, whole.signal), cut
            assert np.array_equal(replayed.error_sq, whole.error_sq), cut

    def test_err_sq_tracked_and_untracked(self):
        flat, w, e = self._deposits(4)
        untracked = RecordingHist3(self.GRID, False)
        untracked.push_flat(flat, w, e)
        untracked.push_flat(flat, w)
        assert untracked.harvest()[2] is None
        # tracked without err_sq records zeros, so every part lines up
        tracked = RecordingHist3(self.GRID, True)
        tracked.push_flat(flat, w)
        tracked.push_flat(flat, w, e)
        idx, weights, err = tracked.harvest()
        assert idx.size == weights.size == err.size == 2 * flat.size
        assert not err[:flat.size].any()
        assert np.array_equal(err[flat.size:], e)
        hist = Hist3(self.GRID)
        replay_deposits(hist, [untracked.harvest()])
        real = Hist3(self.GRID)
        real.push_flat(flat, w)
        real.push_flat(flat, w)
        assert np.array_equal(hist.signal, real.signal)

    @pytest.mark.parametrize("track_errors", (False, True))
    def test_empty_harvest_replays_as_noop(self, track_errors):
        rec = RecordingHist3(self.GRID, track_errors)
        rec.push_flat(np.empty(0, dtype=np.int64), np.empty(0))
        idx, w, e = rec.harvest()
        assert idx.size == w.size == 0
        assert (e is None) is not track_errors
        hist = Hist3(self.GRID, track_errors=True)
        replay_deposits(hist, [(idx, w, e)])
        assert not hist.signal.any() and not hist.error_sq.any()
