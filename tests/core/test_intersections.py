"""Unit + property tests for trajectory/grid intersection geometry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid import HKLGrid
from repro.core.intersections import (
    PARALLEL_EPS,
    count_crossings_batch,
    count_crossings_scalar,
    fill_crossings_batch,
    fill_crossings_scalar,
    k_window,
    trajectory_directions,
)


@pytest.fixture()
def grid():
    return HKLGrid(
        basis=np.eye(3), minimum=(-2.0, -2.0, -1.0), maximum=(2.0, 2.0, 1.0),
        bins=(8, 8, 4),
    )


class TestTrajectoryDirections:
    def test_formula(self):
        transforms = np.array([np.eye(3), 2.0 * np.eye(3)])
        dets = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        d = trajectory_directions(transforms, dets)
        assert d.shape == (2, 2, 3)
        # forward scattering: z - z = 0
        assert np.allclose(d[0, 0], 0.0)
        # 90 degrees: z - x
        assert np.allclose(d[0, 1], [-1.0, 0.0, 1.0])
        assert np.allclose(d[1, 1], [-2.0, 0.0, 2.0])

    def test_does_not_mutate_input(self):
        dets = np.array([[1.0, 0.0, 0.0]])
        before = dets.copy()
        trajectory_directions(np.eye(3)[None], dets)
        assert np.array_equal(dets, before)

    def test_bit_equal_to_three_term_python_formula(self):
        """Each component is ``(t0*q0 + t1*q1) + t2*q2`` in Python
        floats with ``q = z_hat - d_hat``, bit for bit, including signed
        zeros, NaN and infinite components."""
        rng = np.random.default_rng(33)
        transforms = rng.normal(size=(4, 3, 3))
        transforms[1, 0] = [0.0, -0.0, 0.0]
        transforms[2, 1, 2] = np.inf
        transforms[3, 2, 0] = np.nan
        dets = rng.normal(size=(40, 3))
        dets[0] = [0.0, -0.0, 1.0]
        dets[1] = [-0.0, 0.0, -0.0]
        dets[2] = [np.nan, 0.0, 0.5]
        dets[3] = [np.inf, -np.inf, 0.0]
        dets[4] = [0.0, 0.0, np.inf]
        with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf
            got = trajectory_directions(transforms, dets)
        assert got.shape == (4, 40, 3) and got.flags.c_contiguous
        want = np.empty_like(got)
        for o, t in enumerate(transforms.tolist()):
            for d, (x, y, z) in enumerate(dets.tolist()):
                q0, q1, q2 = -x, -y, -z + 1.0
                for i in range(3):
                    want[o, d, i] = (t[i][0] * q0 + t[i][1] * q1) + t[i][2] * q2
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert nan.any() and np.isinf(want).any()
        assert (want == 0.0).any() and np.signbit(want[want == 0.0]).any()
        assert np.array_equal(got.view(np.uint64)[~nan],
                              want.view(np.uint64)[~nan])


class TestKWindow:
    def test_trajectory_through_box(self, grid):
        # direction (1,0,0): inside for k*1 in [-2, 2] -> k in [2, 2] given band
        d = np.array([[1.0, 0.0, 0.0]])
        lo, hi = k_window(d, grid, 1.0, 5.0)
        assert lo[0] == pytest.approx(1.0)
        assert hi[0] == pytest.approx(2.0)

    def test_trajectory_missing_box(self, grid):
        # direction purely +x with k >= 3 starts outside
        d = np.array([[1.0, 0.0, 0.0]])
        lo, hi = k_window(d, grid, 3.0, 5.0)
        assert not hi[0] > lo[0]

    def test_negative_direction(self, grid):
        d = np.array([[-1.0, 0.0, 0.0]])
        lo, hi = k_window(d, grid, 1.0, 5.0)
        assert lo[0] == pytest.approx(1.0)
        assert hi[0] == pytest.approx(2.0)

    def test_parallel_dimension_inside(self, grid):
        # d_z = 0 and the box straddles 0 in z -> unconstrained by z
        d = np.array([[0.5, 0.0, 0.0]])
        lo, hi = k_window(d, grid, 1.0, 3.0)
        assert hi[0] > lo[0]

    def test_parallel_dimension_outside(self):
        g = HKLGrid(basis=np.eye(3), minimum=(0.5, -1, -1), maximum=(2, 1, 1),
                    bins=(2, 2, 2))
        # d_x = 0 but box x-range excludes 0 -> never inside
        d = np.array([[0.0, 1.0, 0.0]])
        lo, hi = k_window(d, g, 0.1, 10.0)
        assert not hi[0] > lo[0]

    def test_batch_shape(self, grid):
        d = np.random.default_rng(0).normal(size=(3, 4, 3))
        lo, hi = k_window(d, grid, 1.0, 5.0)
        assert lo.shape == (3, 4) and hi.shape == (3, 4)

    @staticmethod
    def _nested_where(d, grid, k_min, k_max):
        """The sign-select form k_window replaced, kept as its oracle."""
        lo = np.full(d.shape[:-1], float(k_min))
        hi = np.full(d.shape[:-1], float(k_max))
        for axis in range(3):
            di = d[..., axis]
            box_lo, box_hi = grid.minimum[axis], grid.maximum[axis]
            pos = di > PARALLEL_EPS
            neg = di < -PARALLEL_EPS
            para = ~(pos | neg)
            with np.errstate(divide="ignore", invalid="ignore"):
                a = np.where(pos, box_lo / di,
                             np.where(neg, box_hi / di, -np.inf))
                b = np.where(pos, box_hi / di,
                             np.where(neg, box_lo / di, np.inf))
            outside_para = para & ~((box_lo <= 0.0) & (0.0 <= box_hi))
            lo = np.maximum(lo, a)
            hi = np.minimum(hi, b)
            hi = np.where(outside_para, lo - 1.0, hi)
        return lo, hi

    @pytest.mark.filterwarnings("error")
    def test_matches_nested_where_form_bit_for_bit(self, grid):
        """Min/max of the two quotients equals the sign select on every
        component, as int64 bit patterns: random ones, and 0, -0,
        +-PARALLEL_EPS, one ulp beyond it, +-inf and NaN in every
        combination, on boxes that straddle 0, touch it and miss it,
        for bands starting above, at and below 0."""
        eps = PARALLEL_EPS
        beyond = np.nextafter(eps, 1.0)
        special = (0.0, -0.0, eps, -eps, beyond, -beyond, np.inf, -np.inf,
                   np.nan, 0.75, -1.5)
        mesh = np.stack(np.meshgrid(special, special, special,
                                    indexing="ij"), axis=-1).reshape(-1, 3)
        rng = np.random.default_rng(11)
        d = np.vstack([mesh, rng.normal(size=(2000, 3))])
        grids = (grid,
                 HKLGrid(basis=np.eye(3), minimum=(0.0, 0.5, -1.0),
                         maximum=(2.0, 2.0, 0.0), bins=(4, 3, 2)),
                 HKLGrid(basis=np.eye(3), minimum=(-3.0, -2.0, 0.25),
                         maximum=(-1.0, 2.0, 1.0), bins=(4, 3, 2)))
        for g in grids:
            for band in ((1.0, 5.0), (0.0, 5.0), (-2.0, 5.0)):
                got = k_window(d, g, *band)
                want = self._nested_where(d, g, *band)
                for x, y in zip(got, want):
                    assert np.array_equal(x.view(np.int64), y.view(np.int64))


class TestCounting:
    def test_known_crossing_count(self, grid):
        """Direction (1,0,0), k in [1, 2): crosses x-edges in (1, 2)."""
        d = np.array([1.0, 0.0, 0.0])
        n = count_crossings_scalar(d, grid, 1.0, 2.0)
        # x edges at 1.5 (and 2.0 is excluded as the endpoint); edges are
        # -2,-1.5,...,2 with width 0.5
        edges_inside = [e for e in np.linspace(-2, 2, 9) if 1.0 < e < 2.0]
        assert n == len(edges_inside)

    def test_empty_window(self, grid):
        assert count_crossings_scalar(np.ones(3), grid, 2.0, 1.0) == 0

    def test_scalar_matches_batch(self, grid):
        rng = np.random.default_rng(7)
        d = rng.normal(size=(40, 3))
        lo, hi = k_window(d, grid, 0.5, 8.0)
        batch = count_crossings_batch(d, grid, lo, hi)
        for i in range(40):
            assert batch[i] == count_crossings_scalar(d[i], grid, lo[i], hi[i])


def _count_every_row(directions, grid, k_lo, k_hi):
    """Oracle: the pre-pass searching every row, dead ones included."""
    d = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
    lo = np.asarray(k_lo, dtype=np.float64).reshape(-1)
    hi = np.asarray(k_hi, dtype=np.float64).reshape(-1)
    counts = np.zeros(d.shape[0], dtype=np.int64)
    valid = hi > lo
    for axis in range(3):
        di = d[:, axis]
        edges = grid.edges[axis]
        nonpar = np.abs(di) > PARALLEL_EPS
        a = np.minimum(lo * di, hi * di)
        b = np.maximum(lo * di, hi * di)
        s = np.searchsorted(edges, a, side="right")
        t = np.searchsorted(edges, b, side="left")
        counts += np.where(valid & nonpar, np.maximum(t - s, 0), 0)
    return counts


class TestLiveRowCounting:
    """The pre-pass searches only live rows; its counts equal a search
    over every row exactly."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_rows(self, grid, seed):
        rng = np.random.default_rng(seed)
        d = rng.normal(size=(7, 50, 3))
        lo, hi = k_window(d, grid, 0.5, 8.0)
        assert np.array_equal(count_crossings_batch(d, grid, lo, hi),
                              _count_every_row(d, grid, lo, hi))

    def test_adversarial_rows(self, grid):
        edges = grid.edges
        d = np.array([
            [0.0, 0.0, 0.0],                    # parallel to every axis
            [PARALLEL_EPS / 2, 1.0, 0.0],       # below the parallel cut
            [1.0, 0.0, 0.0],                    # on y and z planes
            [1.0, 1.0, 1.0],                    # window ends on planes
            [0.5, -0.25, 0.125],                # ordinary
            [1.0, 0.0, 0.0],                    # empty window (hi == lo)
            [1.0, 0.0, 0.0],                    # inverted window
            [1.0, 1.0, 0.0],                    # NaN window
        ])
        lo = np.array([0.5, 0.5, float(edges[0][1]), 1.0, 0.5, 1.0, 2.0,
                       np.nan])
        hi = np.array([4.0, 4.0, float(edges[0][-2]), 2.0, 4.0, 1.0, 1.0,
                       3.0])
        got = count_crossings_batch(d, grid, lo, hi)
        assert np.array_equal(got, _count_every_row(d, grid, lo, hi))
        assert got[0] == 0 and got[5] == got[6] == got[7] == 0

    def test_no_live_rows(self, grid):
        d = np.ones((3, 3))
        lo, hi = np.full(3, 2.0), np.full(3, 1.0)
        got = count_crossings_batch(d, grid, lo, hi)
        assert got.dtype == np.int64 and np.array_equal(got, np.zeros(3))


class TestFilling:
    def _check_row(self, row, count, lo, hi):
        assert row[0] == lo
        assert row[count - 1] == hi
        inner = row[1 : count - 1]
        assert np.all(inner > lo) and np.all(inner < hi)

    def test_scalar_fill_contents(self, grid):
        d = np.array([0.7, -0.3, 0.1])
        lo, hi = k_window(d[None, :], grid, 0.5, 8.0)
        lo, hi = float(lo[0]), float(hi[0])
        buf = np.empty(grid.max_plane_crossings)
        n = fill_crossings_scalar(buf, d, grid, lo, hi)
        assert n == count_crossings_scalar(d, grid, lo, hi) + 2
        self._check_row(buf, n, lo, hi)

    def test_scalar_fill_empty_window(self, grid):
        buf = np.empty(8)
        assert fill_crossings_scalar(buf, np.ones(3), grid, 2.0, 1.0) == 0

    def test_batch_fill_matches_scalar(self, grid):
        rng = np.random.default_rng(3)
        d = rng.normal(size=(30, 3))
        lo, hi = k_window(d, grid, 0.5, 8.0)
        counts = count_crossings_batch(d, grid, lo, hi)
        width = int(counts.max()) + 2
        padded = fill_crossings_batch(d, grid, lo, hi, width)
        buf = np.empty(grid.max_plane_crossings)
        for i in range(30):
            if not hi[i] > lo[i]:
                # empty window rows are all k_lo (zero-length segments)
                assert np.allclose(padded[i], lo[i])
                continue
            n = fill_crossings_scalar(buf, d[i], grid, lo[i], hi[i])
            assert np.allclose(np.sort(padded[i][: n]), np.sort(buf[:n]))
            # padding beyond the live region is k_hi
            assert np.allclose(padded[i][n:], hi[i])

    def test_batch_width_too_small_raises(self, grid):
        d = np.array([[0.31, 0.17, 0.05]])
        lo, hi = k_window(d, grid, 0.5, 9.0)
        if count_crossings_batch(d, grid, lo, hi)[0] > 0:
            with pytest.raises(ValueError, match="width"):
                fill_crossings_batch(d, grid, lo, hi, 2)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_all_crossings_found_property(self, seed):
        """Between consecutive sorted intersection values the bin index
        along each dimension must be constant (no crossing was missed)."""
        g = HKLGrid(basis=np.eye(3), minimum=(-2, -2, -1), maximum=(2, 2, 1),
                    bins=(6, 6, 3))
        rng = np.random.default_rng(seed)
        d = rng.normal(size=3)
        lo, hi = k_window(d[None, :], g, 0.5, 9.0)
        lo, hi = float(lo[0]), float(hi[0])
        if not hi > lo:
            return
        buf = np.empty(g.max_plane_crossings)
        n = fill_crossings_scalar(buf, d, g, lo, hi)
        ks = np.sort(buf[:n])
        widths = g.widths
        mins = np.array(g.minimum)
        for a, b in zip(ks[:-1], ks[1:]):
            if b - a < 1e-12:
                continue
            # sample three points inside the segment: same bin everywhere
            samples = np.array([a + t * (b - a) for t in (0.25, 0.5, 0.75)])
            coords = samples[:, None] * d[None, :]
            idx = np.floor((coords - mins) / widths)
            assert np.all(idx == idx[0]), f"crossing missed in segment ({a}, {b})"
