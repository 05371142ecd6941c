"""Unit + property tests for trajectory/grid intersection geometry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid import HKLGrid
from repro.core.intersections import (
    PARALLEL_EPS,
    LiveTrajectories,
    count_crossings_scalar,
    crossing_ranges,
    fill_crossings_batch,
    fill_crossings_scalar,
    k_window,
    live_trajectories,
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
        traj = _live_rows(d, grid, lo, hi)
        assert 0 < traj.n_rows < 40
        batch = np.zeros(40, dtype=np.int64)
        batch[traj.rows] = traj.crossings()
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
    """The crossing ranges are searched on live rows only; their counts
    equal a search over every row exactly, and every dead row counts 0
    there."""

    @staticmethod
    def _check(d, grid, lo, hi):
        d = d.reshape(-1, 3)
        lo, hi = lo.reshape(-1), hi.reshape(-1)
        traj = _live_rows(d, grid, lo, hi)
        every = _count_every_row(d, grid, lo, hi)
        assert np.array_equal(traj.crossings(), every[traj.rows])
        dead = np.ones(len(d), dtype=bool)
        dead[traj.rows] = False
        assert not every[dead].any()
        return traj

    @pytest.mark.parametrize("seed", range(5))
    def test_random_rows(self, grid, seed):
        rng = np.random.default_rng(seed)
        d = rng.normal(size=(7, 50, 3))
        lo, hi = k_window(d, grid, 0.5, 8.0)
        traj = self._check(d, grid, lo, hi)
        assert 0 < traj.n_rows < 350

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
        traj = self._check(d, grid, lo, hi)
        assert np.array_equal(traj.rows, [0, 1, 2, 3, 4])
        assert traj.crossings()[0] == 0

    def test_no_live_rows(self, grid):
        d = np.ones((3, 3))
        lo, hi = np.full(3, 2.0), np.full(3, 1.0)
        first, count = crossing_ranges(np.ones((3, 0)), grid, lo[:0], hi[:0])
        assert first.dtype == count.dtype == np.int64
        assert first.shape == count.shape == (3, 0)
        assert self._check(d, grid, lo, hi).n_rows == 0


def _live_rows(d, grid, lo, hi):
    """The rows of ``d`` with ``hi > lo`` and their crossing ranges."""
    rows = np.flatnonzero(hi > lo)
    columns = np.ascontiguousarray(d[rows].T)
    first, count = crossing_ranges(columns, grid, lo[rows], hi[rows])
    return LiveTrajectories(n_ops=1, n_det=len(d), rows=rows,
                            directions=columns, k_lo=lo[rows], k_hi=hi[rows],
                            first=first, count=count)


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
        traj = _live_rows(d, grid, lo, hi)
        assert 0 < traj.n_rows < 30
        width = int(traj.crossings().max()) + 2
        padded = fill_crossings_batch(traj, grid, width)
        buf = np.empty(grid.max_plane_crossings)
        for row, i in zip(padded, traj.rows):
            n = fill_crossings_scalar(buf, d[i], grid, lo[i], hi[i])
            # the same values in the same order: k_lo, then each axis's
            # crossings in ascending edge order
            assert np.array_equal(row[:n - 1], buf[:n - 1])
            # padding beyond the live region is k_hi
            assert np.all(row[n - 1:] == hi[i])

    def test_batch_width_too_small_raises(self, grid):
        d = np.array([[0.31, 0.17, 0.05]])
        lo, hi = k_window(d, grid, 0.5, 9.0)
        traj = _live_rows(d, grid, lo, hi)
        assert traj.crossings()[0] > 0
        with pytest.raises(ValueError, match="width"):
            fill_crossings_batch(traj, grid, 2)

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


# ---------------------------------------------------------------------------
# live trajectories: thin axis first, crossing ranges searched once
# ---------------------------------------------------------------------------

#: thin axis H, its box off-centre but straddling 0
THIN_H = HKLGrid(basis=np.eye(3), minimum=(-0.3, -2.0, -1.5),
                 maximum=(0.6, 2.0, 1.5), bins=(1, 12, 9))
#: a 2-bin thin axis (L), off-centre
TWO_BIN = HKLGrid(basis=np.eye(3), minimum=(-2.0, -2.0, -0.4),
                  maximum=(2.0, 2.0, 0.7), bins=(9, 10, 2))
#: a one-bin L slab that does not straddle 0
OFF_ZERO = HKLGrid(basis=np.eye(3), minimum=(-2.0, -2.0, 0.1),
                   maximum=(2.0, 2.0, 0.6), bins=(8, 8, 1))
BANDS = ((2.0, 9.0), (0.0, 9.0), (-1.0, 9.0))


def _adversarial_ops(thin):
    """Identity; its byte-exact negation; identity with every zero
    negated (its thin row differs from identity's only in zeros' signs);
    an axis swap; a random rotation; NaN and infinite thin-row entries."""
    rng = np.random.default_rng(21)
    eye = np.eye(3)
    signed_zeros = np.where(eye == 0.0, -0.0, eye)
    nan_op, inf_op = eye.copy(), eye.copy()
    nan_op[thin, (thin + 1) % 3] = np.nan
    inf_op[thin, (thin + 2) % 3] = -np.inf
    return np.stack([eye, -eye, signed_zeros, eye[[2, 1, 0]],
                     np.linalg.qr(rng.normal(size=(3, 3)))[0], nan_op,
                     inf_op, -eye])


def _adversarial_dets(thin):
    """Random unit directions plus pixels whose identity-op trajectory
    is exactly parallel to the thin planes (``D[thin] = ±0``), pixels
    that differ only in a zero's sign, and NaN/infinite components."""
    rng = np.random.default_rng(22)
    d = rng.normal(size=(48, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    special = []
    for a, b in ((0.3, -0.2), (0.0, 0.0), (-0.7, 0.4), (0.05, 0.0)):
        row = np.array([a, b, a + b])
        # D = z_hat - d_hat is ±0 on the thin axis: d_thin = 1 for L, 0 for H
        row[thin] = 1.0 if thin == 2 else 0.0
        special += [row, np.where(row == 0.0, -0.0, row)]
    special += [[np.nan, 0.0, 1.0], [np.inf, 0.2, 0.1], [0.1, -np.inf, 0.3],
                [0.0, 0.0, np.inf], [0.2, np.nan, 0.5]]
    return np.vstack([np.array(special), d])


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _assert_same_geometry(got, want):
    assert np.array_equal(got.rows, want["rows"])
    for name in ("directions", "k_lo", "k_hi"):
        assert np.array_equal(_bits(getattr(got, name)), _bits(want[name])), name
    for name in ("first", "count"):
        assert np.array_equal(getattr(got, name), want[name]), name


class TestLiveTrajectories:
    """``live_trajectories`` keeps exactly the rows the full-array chain
    finds live, with the same bits, and the same crossing ranges."""

    @pytest.mark.parametrize("g", (THIN_H, TWO_BIN, OFF_ZERO),
                             ids=("thin-H", "two-bin", "off-zero"))
    @pytest.mark.parametrize("band", BANDS, ids=("band2", "band0", "band-1"))
    def test_matches_full_array_chain(self, g, band, full_array_geometry):
        ops = _adversarial_ops(g.thin_axis)
        dets = _adversarial_dets(g.thin_axis)
        want = full_array_geometry(ops, dets, g, *band)
        with np.errstate(invalid="ignore", over="ignore"):
            got = live_trajectories(ops, dets, g, *band)
        assert (got.n_ops, got.n_det) == (len(ops), len(dets))
        assert 0 < got.n_rows < len(ops) * len(dets)
        _assert_same_geometry(got, want)
        assert int(got.crossings().max()) + 2 == want["width"]

    @pytest.mark.parametrize("g", (THIN_H, TWO_BIN), ids=("thin-H", "two-bin"))
    def test_negated_rows_keep_their_own_window(self, g, full_array_geometry):
        """An op and its byte-exact negation share one thin-axis product
        but not a window: on an off-centre box their live sets differ."""
        dets = _adversarial_dets(g.thin_axis)
        ops = np.stack([np.eye(3), -np.eye(3)])
        with np.errstate(invalid="ignore"):
            got = live_trajectories(ops, dets, g, 0.5, 9.0)
        live_op = got.rows // len(dets)
        plus = set(got.rows[live_op == 0] % len(dets))
        minus = set(got.rows[live_op == 1] % len(dets))
        assert plus and minus and plus != minus
        _assert_same_geometry(got, full_array_geometry(ops, dets, g, 0.5, 9.0))

    def test_parallel_rows_follow_the_box(self, full_array_geometry):
        """Trajectories exactly parallel to the thin planes live only
        where the box straddles 0 on the thin axis."""
        dets = _adversarial_dets(2)[:8]  # D_L = ±0 under the identity
        ident = np.eye(3)[None]
        with np.errstate(invalid="ignore"):
            assert np.all(trajectory_directions(ident, dets)[0, :, 2] == 0.0)
        with np.errstate(invalid="ignore"):
            straddling = live_trajectories(ident, dets, TWO_BIN, 0.5, 9.0)
        assert straddling.n_rows > 0
        _assert_same_geometry(straddling,
                              full_array_geometry(ident, dets, TWO_BIN, 0.5, 9.0))
        with np.errstate(invalid="ignore"):
            assert live_trajectories(ident, dets, OFF_ZERO, 0.5, 9.0).n_rows == 0

    def test_no_live_row(self, full_array_geometry):
        far = HKLGrid(basis=np.eye(3), minimum=(-1.0, -1.0, 5.0),
                      maximum=(1.0, 1.0, 6.0), bins=(4, 4, 1))
        ops, dets = _adversarial_ops(2), _adversarial_dets(2)
        with np.errstate(invalid="ignore", over="ignore"):
            got = live_trajectories(ops, dets, far, 0.1, 0.2)
        assert got.n_rows == 0
        assert got.directions.shape == got.first.shape == (3, 0)
        assert full_array_geometry(ops, dets, far, 0.1, 0.2)["rows"].size == 0
        assert fill_crossings_batch(got, far, 2).shape == (0, 2)

    def test_direction_rows_counter(self):
        """Only thin-axis candidates get their full direction computed."""
        from repro.util.trace import Tracer, use_tracer

        ops, dets = _adversarial_ops(2), _adversarial_dets(2)
        tracer = Tracer()
        with use_tracer(tracer), np.errstate(invalid="ignore", over="ignore"):
            got = live_trajectories(ops, dets, OFF_ZERO, 0.5, 9.0)
        rows = tracer.counters["mdnorm.direction_rows"]
        assert got.n_rows <= rows < len(ops) * len(dets)

    def test_window_slices_by_row_range(self):
        ops, dets = _adversarial_ops(2), _adversarial_dets(2)
        with np.errstate(invalid="ignore", over="ignore"):
            got = live_trajectories(ops, dets, TWO_BIN, 0.5, 9.0)
        n = len(ops) * len(dets)
        for a, b in ((0, n), (0, 7), (7, 100), (n - 3, n), (5, 5)):
            part = got.window(a, b)
            keep = (got.rows >= a) & (got.rows < b)
            assert np.array_equal(part.rows, got.rows[keep])
            assert np.array_equal(_bits(part.directions),
                                  _bits(got.directions[:, keep]))
            assert np.array_equal(part.count, got.count[:, keep])
