"""Unit tests for the MDNorm kernel pair and its pre-pass."""

import numpy as np
import pytest

from repro.core.cross_section import sharded_mdnorm
from repro.core.geom_cache import DISABLED, KIND_GEOMETRY, GeomCache
from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.core.intersections import LiveTrajectories, sorted_crossings_batch
from repro.core.mdnorm import max_intersections, mdnorm, prefetch_geometry
from repro.core.sharding import ShardConfig
from repro.nexus.corrections import FluxSpectrum
from repro.util.validation import ValidationError

BACKENDS = ("serial", "threads", "vectorized")


@pytest.fixture()
def grid():
    return HKLGrid(
        basis=np.eye(3), minimum=(-2.0, -2.0, -0.5), maximum=(2.0, 2.0, 0.5),
        bins=(16, 16, 1),
    )


@pytest.fixture()
def flux():
    k = np.linspace(1.0, 12.0, 64)
    return FluxSpectrum(momentum=k, density=np.ones(64))


def _detectors(n=50, seed=0):
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    d[:, 2] = np.abs(d[:, 2]) * 0.5  # keep away from pure forward scattering
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return d


IDENT = np.eye(3)[None, :, :]
BAND = (2.0, 9.0)


class TestMaxIntersections:
    def test_cpu_and_device_agree(self, grid):
        dets = _detectors()
        for backend in BACKENDS:
            out = max_intersections(grid, IDENT, dets, BAND, backend=backend)
            assert out == max_intersections(grid, IDENT, dets, BAND, backend="serial")

    def test_bound_is_sufficient(self, grid, flux):
        """mdnorm with the pre-pass width must not overflow."""
        dets = _detectors(80)
        width = max_intersections(grid, IDENT, dets, BAND, backend="vectorized")
        h = Hist3(grid)
        mdnorm(h, IDENT, dets, np.ones(80), flux, BAND, backend="vectorized",
               width=width)

    def test_within_paper_bound(self, grid):
        dets = _detectors()
        out = max_intersections(grid, IDENT, dets, BAND)
        assert out <= grid.max_plane_crossings


class TestCorrectness:
    def test_backends_agree_exactly(self, grid, flux):
        dets = _detectors(60)
        solid = np.random.default_rng(1).random(60)
        ref = None
        for backend in BACKENDS:
            h = Hist3(grid)
            mdnorm(h, IDENT, dets, solid, flux, BAND, backend=backend)
            if ref is None:
                ref = h.signal.copy()
            else:
                assert np.allclose(h.signal, ref, rtol=1e-10, atol=1e-15), backend

    def test_sort_impls_agree(self, grid, flux):
        """Both sorts give the same ascending rows: bit-identical."""
        for args in ((IDENT, _detectors(60), np.ones(60), flux),
                     _adversarial_inputs()):
            hists = []
            for sort_impl in ("comb", "library"):
                h = Hist3(grid)
                mdnorm(h, *args, BAND, backend="vectorized",
                       sort_impl=sort_impl, cache=DISABLED)
                hists.append(h.signal)
            assert hists[0].sum() > 0
            assert np.array_equal(*hists)

    def test_scatter_impls_agree(self, grid, flux):
        dets = _detectors(60)
        a = Hist3(grid)
        mdnorm(a, IDENT, dets, np.ones(60), flux, BAND, backend="vectorized",
               scatter_impl="atomic")
        b = Hist3(grid)
        mdnorm(b, IDENT, dets, np.ones(60), flux, BAND, backend="vectorized",
               scatter_impl="buffered")
        assert np.allclose(a.signal, b.signal)

    def test_tile_rows_invariance(self, grid, flux):
        dets = _detectors(60)
        a = Hist3(grid)
        mdnorm(a, IDENT, dets, np.ones(60), flux, BAND, backend="vectorized",
               tile_rows=7)
        b = Hist3(grid)
        mdnorm(b, IDENT, dets, np.ones(60), flux, BAND, backend="vectorized")
        assert np.allclose(a.signal, b.signal)

    def test_total_equals_flux_times_solid_angle(self, grid, flux):
        """Conservation: the summed normalization equals
        sum_det solid_angle * integral phi over the in-box k-window
        (uniform flux makes this exactly computable)."""
        from repro.core.intersections import k_window, trajectory_directions

        dets = _detectors(40, seed=2)
        solid = np.random.default_rng(3).random(40)
        h = Hist3(grid)
        mdnorm(h, IDENT, dets, solid, flux, BAND, backend="vectorized")
        directions = trajectory_directions(IDENT, dets)
        lo, hi = k_window(directions, grid, *BAND)
        lengths = np.clip(hi - lo, 0.0, None)[0]
        density = flux.total / (flux.k_max - flux.k_min)
        expected = float(np.sum(solid * lengths * density))
        assert h.total() == pytest.approx(expected, rel=1e-9)

    def test_charge_scales_linearly(self, grid, flux):
        dets = _detectors(30)
        a = Hist3(grid)
        mdnorm(a, IDENT, dets, np.ones(30), flux, BAND, charge=1.0,
               backend="vectorized")
        b = Hist3(grid)
        mdnorm(b, IDENT, dets, np.ones(30), flux, BAND, charge=2.5,
               backend="vectorized")
        assert np.allclose(b.signal, 2.5 * a.signal)

    def test_zero_solid_angles_give_zero(self, grid, flux):
        dets = _detectors(20)
        h = Hist3(grid)
        mdnorm(h, IDENT, dets, np.zeros(20), flux, BAND, backend="vectorized")
        assert h.total() == 0.0

    def test_symmetry_ops_accumulate(self, grid, flux):
        """+-identity: the inverted trajectories add their own weight."""
        dets = _detectors(30)
        one = Hist3(grid)
        mdnorm(one, IDENT, dets, np.ones(30), flux, BAND, backend="vectorized")
        two = Hist3(grid)
        ops = np.stack([np.eye(3), -np.eye(3)])
        mdnorm(two, ops, dets, np.ones(30), flux, BAND, backend="vectorized")
        assert two.total() == pytest.approx(2 * one.total(), rel=1e-9)

    def test_band_outside_flux_table_contributes_clamped(self, grid):
        """A zero-flux band produces zero normalization."""
        k = np.linspace(5.0, 6.0, 16)
        flux = FluxSpectrum(momentum=k, density=np.ones(16))
        dets = _detectors(10)
        h = Hist3(grid)
        # trajectories only live at k < 2 in the box; the flux table is
        # zero-measure there (clamped cumulative)
        mdnorm(h, IDENT, dets, np.ones(10), flux, (0.1, 0.5),
               backend="vectorized")
        assert h.total() == pytest.approx(0.0, abs=1e-12)


class TestValidation:
    def test_transform_shape(self, grid, flux):
        with pytest.raises(ValidationError, match="transforms"):
            mdnorm(Hist3(grid), np.eye(3), _detectors(5), np.ones(5), flux, BAND)

    def test_solid_angle_length(self, grid, flux):
        with pytest.raises(ValidationError, match="solid_angles"):
            mdnorm(Hist3(grid), IDENT, _detectors(5), np.ones(4), flux, BAND)

    def test_bad_sort_impl(self, grid, flux):
        with pytest.raises(ValidationError, match="sort_impl"):
            mdnorm(Hist3(grid), IDENT, _detectors(5), np.ones(5), flux, BAND,
                   sort_impl="quantum")

    def test_det_direction_shape(self, grid, flux):
        with pytest.raises(ValidationError, match="det_directions"):
            mdnorm(Hist3(grid), IDENT, np.ones(5), np.ones(5), flux, BAND)


# ---------------------------------------------------------------------------
# the compacted cold path and the compacted deposit plan
# ---------------------------------------------------------------------------

def _adversarial_detectors():
    """Unit detector directions whose trajectories ``D = z_hat - d_hat``
    (identity op) hit the cases the segment compaction must get right.

    * ``D_x == D_y``: every x-plane crossing coincides with a y-plane
      crossing (grid corners), so sorted rows hold duplicate ``k``;
    * ``D_x = 0.125``: ``k_lo = 2`` lands exactly on the x = 0.25 plane;
    * nearly forward: the whole window stays inside one bin (a live row
      with no crossings at all);
    * exactly forward: ``D = 0`` is parallel to every grid plane, so the
      whole band deposits into the bin at the origin;
    * a NaN component: parallel on that axis, never binned inside;
    * backward: the trajectory never enters the grid box;
    * a random spread for everything in between.
    """
    rows = []
    for a in (0.05, 0.1, 0.125, 0.3):
        rows.append((-a, -a, np.sqrt(1.0 - 2.0 * a * a)))   # corners
        rows.append((a, -a, np.sqrt(1.0 - 2.0 * a * a)))
    rows.append((-0.125, 0.0, np.sqrt(1.0 - 0.125 ** 2)))  # k_lo on a plane
    rows.append((0.0, -0.125, np.sqrt(1.0 - 0.125 ** 2)))
    rows.append((-0.01, 0.0, np.sqrt(1.0 - 1e-4)))         # no crossings
    rows.append((0.0, 0.0, 1.0))                           # D = 0
    rows.append((np.nan, 0.0, 1.0))                        # NaN component
    rows.append((0.0, 0.0, -1.0))                          # never inside
    return np.vstack([np.array(rows), _detectors(40, seed=5)])


def _adversarial_inputs(band=BAND):
    dets = _adversarial_detectors()
    solid = np.random.default_rng(3).random(len(dets)) + 0.5
    solid[[1, 9, 20]] = 0.0                                # zero solid angle
    rng = np.random.default_rng(4)
    # irregular knots, two of them exactly on the band edges (and one at
    # 0.0 when the band reaches below it)
    edges = [*band, 0.0] if band[0] < 0.0 else list(band)
    k = np.sort(np.concatenate([rng.uniform(1.0, 12.0, 43), edges]))
    density = rng.random(k.size) + 0.1
    density[(k > 4.0) & (k < 6.0)] = 0.0                  # flat cumulative flux
    ops = np.stack([np.eye(3), np.eye(3)[[1, 0, 2]], -np.eye(3),
                    np.linalg.qr(rng.normal(size=(3, 3)))[0]])
    return ops, dets, solid, FluxSpectrum(momentum=k, density=density)


class TestCompactedSegments:
    """Cold MDNorm interpolates and bins only the segments that can
    deposit, and the deposit plan stores only those inside the grid."""

    @staticmethod
    def _sorted_rows(grid, band, oracle):
        """The sorted crossing rows of the live lanes cold MDNorm keeps,
        from the full-array geometry chain."""
        ops, dets, solid, _ = _adversarial_inputs(band)
        geom = oracle(ops, dets, grid, *band)
        width = geom.pop("width")
        traj = LiveTrajectories(n_ops=len(ops), n_det=len(dets), **geom)
        traj = traj[solid[traj.rows % len(dets)] != 0.0]
        assert width == max_intersections(grid, ops, dets, band)
        return sorted_crossings_batch(traj, grid, width)

    def test_bin_index_sees_only_real_segments(self, grid, monkeypatch,
                                               full_array_geometry):
        """Only the real segments reach the binning, one 1-D column per
        axis.  On a grid off the origin, a trajectory can enter the box
        after the band starts, so a row can end below where the next
        one starts: the segment between them is not real either."""
        ops, dets, solid, flux = _adversarial_inputs()
        calls = []
        real_bin_columns = HKLGrid.bin_columns

        def counting(self, *columns):
            calls.extend(column.shape for column in columns)
            return real_bin_columns(self, *columns)

        monkeypatch.setattr(HKLGrid, "bin_columns", counting)
        off_origin = HKLGrid(basis=np.eye(3), minimum=(0.25, -2.0, -0.5),
                             maximum=(2.0, 2.0, 0.5), bins=(7, 16, 1))
        for g, origin_inside in ((grid, True), (off_origin, False)):
            calls.clear()
            cache = GeomCache()
            mdnorm(Hist3(g), ops, dets, solid, flux, BAND,
                   backend="vectorized", cache=cache)

            padded = self._sorted_rows(g, BAND, full_array_geometry)
            n_real = int(np.count_nonzero(padded[:, 1:] > padded[:, :-1]))
            assert n_real < padded.shape[0] * (padded.shape[1] - 1)
            assert (padded[:-1, -1] < padded[1:, 0]).any() != origin_inside
            assert all(len(shape) == 1 for shape in calls)
            assert sum(shape[0] for shape in calls[::3]) == n_real
            assert calls[1::3] == calls[::3] == calls[2::3]

            (key,) = [k for k in cache.keys() if k[0] == KIND_GEOMETRY]
            plan = cache.peek(key).deposit
            assert plan is not None
            assert plan.seg_flux.size <= n_real
            assert plan.flat_idx.size == plan.seg_flux.size == plan.row_ptr[-1]
            assert plan.n_rows == padded.shape[0]

    #: (band, tile_rows): the reference band; a band from 0.0, so rows
    #: start at a 0.0 breakpoint that is also a flux knot; a band from
    #: -1.0, so planes through the origin cross at -0.0 and 0.0 in one
    #: row.  Three-row tiles split the ops' rows across tiles.
    CASES = ((BAND, 13), ((0.0, 9.0), 3), ((-1.0, 9.0), 3))

    @staticmethod
    def _variants(grid, scatter_impl, sort_impl, band, tile_rows):
        ops, dets, solid, flux = _adversarial_inputs(band)
        args = (ops, dets, solid, flux, band)

        def run(**kw):
            h = Hist3(grid)
            mdnorm(h, *args, charge=1.7, tile_rows=tile_rows,
                   scatter_impl=scatter_impl, sort_impl=sort_impl, **kw)
            return h

        cache = GeomCache()
        out = {"cold_collect": run(backend="vectorized", cache=cache)}
        (key,) = [k for k in cache.keys() if k[0] == KIND_GEOMETRY]
        assert cache.peek(key).deposit is not None
        out["warm"] = run(backend="vectorized", cache=cache)
        out["cold_uncached"] = run(backend="vectorized", cache=DISABLED)
        out["serial"] = run(backend="serial", cache=DISABLED)
        sharded = Hist3(grid)
        sharded_mdnorm(sharded, *args, charge=1.7, sort_impl=sort_impl,
                       cache=DISABLED, shards=ShardConfig(n_shards=2))
        out["shards_2"] = sharded
        return out

    def test_adversarial_rows_are_present(self, grid, full_array_geometry):
        """The cases the bit-identity test relies on really occur: a
        row whose last real segment ends in the buffer's last column,
        0.0 breakpoints from a band starting there, and rows holding
        both -0.0 and 0.0."""
        for band, _ in self.CASES:
            rows = self._sorted_rows(grid, band, full_array_geometry)
            assert (rows[:, -1] > rows[:, -2]).any(), band
        zero = self._sorted_rows(grid, (0.0, 9.0), full_array_geometry) == 0.0
        assert zero[:, 0].any()
        rows = self._sorted_rows(grid, (-1.0, 9.0), full_array_geometry)
        neg = (rows == 0.0) & np.signbit(rows)
        pos = (rows == 0.0) & ~np.signbit(rows)
        assert (neg.any(axis=1) & pos.any(axis=1)).any()

    @pytest.mark.parametrize("sort_impl", ("comb", "library"))
    @pytest.mark.parametrize("scatter_impl", ("atomic", "buffered"))
    def test_adversarial_paths_bit_identical(self, grid, scatter_impl,
                                             sort_impl):
        """The cached variants (cold collecting, warm, cold uncached)
        agree bit for bit in both scatter implementations; the element
        path and the shard replay, which add deposits one at a time,
        join them under the atomic one."""
        for band, tile_rows in self.CASES:
            hists = self._variants(grid, scatter_impl, sort_impl, band,
                                   tile_rows)
            names = ["cold_collect", "warm", "cold_uncached"]
            if scatter_impl == "atomic":
                names += ["serial", "shards_2"]
            ref = hists[names[0]].signal
            assert ref.sum() > 0
            for name in names[1:]:
                assert np.array_equal(hists[name].signal, ref), (band, name)


# ---------------------------------------------------------------------------
# thin-axis-first liveness and ranges searched once, on every path
# ---------------------------------------------------------------------------

#: thin axis H (off-centre, straddling 0), a 2-bin off-centre thin L,
#: a one-bin L slab that misses 0, and a box no trajectory reaches
THIN_GRIDS = {
    "thin-H": HKLGrid(basis=np.eye(3), minimum=(-0.3, -2.0, -1.5),
                      maximum=(0.6, 2.0, 1.5), bins=(1, 12, 9)),
    "two-bin": HKLGrid(basis=np.eye(3), minimum=(-2.0, -2.0, -0.4),
                       maximum=(2.0, 2.0, 0.7), bins=(9, 10, 2)),
    "off-zero": HKLGrid(basis=np.eye(3), minimum=(-2.0, -2.0, 0.1),
                        maximum=(2.0, 2.0, 0.6), bins=(8, 8, 1)),
    "no-live": HKLGrid(basis=np.eye(3), minimum=(-1.0, -1.0, 40.0),
                       maximum=(1.0, 1.0, 41.0), bins=(4, 4, 1)),
}


def _stolen(grid, args, n_ranks, seed):
    """MDNorm as the stealing executor runs it: 7 planned ranges taken
    in a shuffled order by ``n_ranks`` threads, replayed in plan order."""
    import random
    import threading

    from repro.core.sharding import (
        execute_shard_range,
        mdnorm_shard_context,
        replay_shard_logs,
    )

    hist = Hist3(grid)
    ctx = mdnorm_shard_context(hist, *args, n_shards=7, charge=1.7,
                               cache=DISABLED)
    todo = list(range(ctx.n_ranges))
    random.Random(seed).shuffle(todo)
    logs, lock = {}, threading.Lock()

    def rank():
        while True:
            with lock:
                if not todo:
                    return
                index = todo.pop()
            logs[index] = execute_shard_range(ctx, index)

    threads = [threading.Thread(target=rank) for _ in range(n_ranks)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    assert not any(t.is_alive() for t in threads)
    replay_shard_logs(ctx, [logs[i] for i in range(ctx.n_ranges)])
    return hist


class TestThinFirstPaths:
    """The pre-pass width equals the full-array chain's on every back
    end, and every executor deposits the in-memory bits."""

    @pytest.mark.parametrize("name", sorted(THIN_GRIDS))
    @pytest.mark.parametrize("band", ((2.0, 9.0), (0.0, 9.0), (-1.0, 9.0)))
    def test_widths_and_bits(self, name, band, full_array_geometry):
        g = THIN_GRIDS[name]
        ops, dets, solid, flux = _adversarial_inputs(band)
        args = (ops, dets, solid, flux, band)
        want = full_array_geometry(ops, dets, g, *band)["width"]
        for backend in BACKENDS:
            assert max_intersections(g, ops, dets, band,
                                     backend=backend) == want, backend
        assert max_intersections(g, ops, dets, band, backend="vectorized",
                                 use_extended_reduce=True) == want

        def run(backend):
            h = Hist3(g)
            mdnorm(h, *args, charge=1.7, backend=backend, cache=DISABLED)
            return h.signal

        ref = run("vectorized")
        assert (ref.sum() > 0) == (name != "no-live")
        assert np.array_equal(run("serial"), ref)
        for n_shards in (1, 2, 3, 7):
            h = Hist3(g)
            sharded_mdnorm(h, *args, charge=1.7, cache=DISABLED,
                           shards=ShardConfig(n_shards=n_shards))
            assert np.array_equal(h.signal, ref), n_shards
        for n_ranks in (2, 3, 4):
            assert np.array_equal(_stolen(g, args, n_ranks, n_ranks).signal,
                                  ref), n_ranks

    def test_cached_entry_is_compacted(self, full_array_geometry):
        """The cache stores the live rows with their ranges: a warm hit
        with a cached width searches nothing and deposits the same bits."""
        g = THIN_GRIDS["two-bin"]
        ops, dets, solid, flux = _adversarial_inputs()
        cache = GeomCache()
        cold = Hist3(g)
        mdnorm(cold, ops, dets, solid, flux, BAND, cache=cache,
               backend="vectorized")
        (key,) = [k for k in cache.keys() if k[0] == KIND_GEOMETRY]
        entry = cache.peek(key)
        want = full_array_geometry(ops, dets, g, *BAND)
        assert np.array_equal(entry.trajectories.rows, want["rows"])
        assert np.array_equal(entry.trajectories.count, want["count"])
        assert entry.width == want["width"]
        assert entry.trajectories.nbytes < 40 * len(ops) * len(dets)
        # prefetch_geometry builds the same entry
        prefetched = GeomCache()
        assert prefetch_geometry(g, ops, dets, BAND, solid, flux,
                                 cache=prefetched)
        twin = prefetched.peek(key)
        assert twin.width == entry.width
        for name in ("rows", "directions", "k_lo", "k_hi", "first", "count"):
            a, b = getattr(twin.trajectories, name), getattr(entry.trajectories, name)
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), name
        entry.deposit = None  # force the cold body over the cached rows
        again = Hist3(g)
        mdnorm(again, ops, dets, solid, flux, BAND, cache=cache,
               backend="vectorized")
        assert np.array_equal(again.signal, cold.signal)
