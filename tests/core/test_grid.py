"""Unit tests for the HKL binning grid."""

import numpy as np
import pytest

from repro.bench import workloads
from repro.core.grid import HKLGrid
from repro.crystal.goniometer import goniometer_omega_chi_phi
from repro.crystal.lattice import UnitCell
from repro.crystal.symmetry import point_group
from repro.crystal.ub import TWO_PI, UBMatrix
from repro.util import trace as trace_mod
from repro.util.validation import ValidationError


def _element_bins(grid, op, table):
    """``{lane: flat bin}`` of the lanes the element body's scalar
    arithmetic bins inside the grid."""
    rows = [[float(v) for v in row] for row in op]
    out = {}
    for i, (x, y, z) in enumerate(table.tolist()):
        b = grid.flat_bin(*(r[0] * x + r[1] * y + r[2] * z for r in rows))
        if b >= 0:
            out[i] = b
    return out


def _bin_transformed_checked(grid, ops, table):
    """``bin_transformed`` of ``table``'s Q under ``ops``, asserted to
    equal the element body's bins op by op, lanes ascending; returns
    the number of thinnest-axis product passes it made."""
    tracer = trace_mod.Tracer()
    with trace_mod.use_tracer(tracer):
        results = grid.bin_transformed(ops, *table.T)
    assert len(results) == len(ops)
    for op, (flat, lanes) in zip(ops, results):
        expected = _element_bins(grid, op, table)
        assert lanes.tolist() == sorted(expected)
        assert flat.tolist() == [expected[i] for i in sorted(expected)]
    return tracer.counters["binmd.slab_products"]


@pytest.fixture()
def simple_grid():
    return HKLGrid(
        basis=np.eye(3),
        minimum=(-2.0, -2.0, -1.0),
        maximum=(2.0, 2.0, 1.0),
        bins=(4, 4, 2),
    )


class TestGeometry:
    def test_widths(self, simple_grid):
        assert np.allclose(simple_grid.widths, [1.0, 1.0, 1.0])

    def test_edges(self, simple_grid):
        e0, e1, e2 = simple_grid.edges
        assert np.allclose(e0, [-2, -1, 0, 1, 2])
        assert np.allclose(e2, [-1, 0, 1])

    def test_n_bins_total(self, simple_grid):
        assert simple_grid.n_bins_total == 32

    def test_max_plane_crossings_bound(self, simple_grid):
        # at most (bins_i + 1) edges per dim + 2 endpoints
        assert simple_grid.max_plane_crossings == 4 + 4 + 2 + 3 + 2

    def test_validation(self):
        with pytest.raises(ValidationError, match="empty"):
            HKLGrid(basis=np.eye(3), minimum=(0, 0, 0), maximum=(0, 1, 1), bins=(1, 1, 1))
        with pytest.raises(ValidationError, match=">= 1"):
            HKLGrid(basis=np.eye(3), minimum=(0, 0, 0), maximum=(1, 1, 1), bins=(0, 1, 1))
        with pytest.raises(ValidationError, match="linearly dependent"):
            HKLGrid(
                basis=np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]]).T,
                minimum=(0, 0, 0), maximum=(1, 1, 1), bins=(1, 1, 1),
            )


class TestBinIndex:
    def test_inside_points(self, simple_grid):
        flat, inside = simple_grid.bin_index(np.array([[-1.5, -1.5, -0.5]]))
        assert inside[0]
        assert flat[0] == 0  # corner bin

    def test_flat_index_layout(self, simple_grid):
        # c-order: i0 * (4*2) + i1 * 2 + i2
        flat, inside = simple_grid.bin_index(np.array([[0.5, -1.5, 0.5]]))
        assert inside[0]
        assert flat[0] == 2 * 8 + 0 * 2 + 1

    def test_outside_points_masked(self, simple_grid):
        coords = np.array([[5.0, 0.0, 0.0], [0.0, -3.0, 0.0], [0.0, 0.0, 2.0]])
        _, inside = simple_grid.bin_index(coords)
        assert not inside.any()

    def test_upper_boundary_excluded(self, simple_grid):
        """Matches Hist3.push floor semantics: c == max is outside."""
        _, inside = simple_grid.bin_index(np.array([[2.0, 0.0, 0.0]]))
        assert not inside[0]

    def test_lower_boundary_included(self, simple_grid):
        _, inside = simple_grid.bin_index(np.array([[-2.0, -2.0, -1.0]]))
        assert inside[0]

    def test_nd_batch_shape(self, simple_grid):
        coords = np.zeros((3, 5, 3))
        flat, inside = simple_grid.bin_index(coords)
        assert flat.shape == (3, 5)
        assert inside.shape == (3, 5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", range(5))
    def test_flat_bin_agrees_with_bin_index(self, seed):
        """One rule, two forms: on edges, a few ulps off them, exactly at
        the grid corners and on non-finite or huge coordinates, the
        scalar and the batch binning give the same bin (or both say
        outside) without a warning."""
        grid = HKLGrid(basis=np.eye(3), minimum=(-2.0, -1.5, -1.0),
                       maximum=(2.0, 1.5, 0.7), bins=(5, 3, 2))
        rng = np.random.default_rng(seed)
        n = 400
        edge = rng.integers(0, np.array(grid.bins) + 1, size=(n, 3))
        coords = np.array(grid.minimum) + edge * grid.widths
        coords += rng.integers(-3, 4, size=(n, 3)) * np.spacing(coords)
        special = (np.nan, np.inf, -np.inf, 1e300, -1e300)
        for axis in range(3):
            for value in special:
                point = np.array(grid.minimum)
                point[axis] = value
                coords = np.vstack([coords, point])
        coords = np.vstack([coords, grid.minimum, grid.maximum])

        flat, inside = grid.bin_index(coords)
        scalar = [grid.flat_bin(*point) for point in coords]
        assert np.array_equal(np.where(inside, flat, -1), scalar)
        assert ((flat >= 0) & (flat < grid.n_bins_total)).all()
        assert not inside[n:-2].any()  # every special point is outside
        assert inside[-2] and flat[-2] == 0 and not inside[-1]

    @pytest.mark.filterwarnings("error")
    def test_bin_columns_agree_with_bin_index(self):
        """The column form MDNorm bins with gives bin_index's and the
        scalar rule's bins on bin edges, the grid maximum, NaN, +-inf
        and +-1e308 (whose quotients overflow), and overwrites only the
        columns it is given."""
        grid = HKLGrid(basis=np.eye(3), minimum=(-2.0, -1.5, -1.0),
                       maximum=(2.0, 1.5, 0.7), bins=(5, 3, 2))
        values = [np.concatenate([edges, [np.nan, np.inf, -np.inf, 1e308,
                                          -1e308]])
                  for edges in grid.edges]
        coords = np.stack(np.meshgrid(*values, indexing="ij"),
                          axis=-1).reshape(-1, 3)
        columns = [np.array(coords[:, axis]) for axis in range(3)]
        flat, inside = grid.bin_columns(*columns)
        want_flat, want_inside = grid.bin_index(coords)
        assert np.array_equal(inside, want_inside)
        assert np.array_equal(flat, want_flat)
        scalar = [grid.flat_bin(*point) for point in coords]
        assert np.array_equal(np.where(inside, flat, -1), scalar)
        assert 0 < inside.sum() < len(coords)
        assert not any(np.array_equal(c, coords[:, axis])
                       for axis, c in enumerate(columns))
        before = coords.copy()
        grid.bin_index(coords)
        assert np.array_equal(coords, before, equal_nan=True)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", range(5))
    def test_bin_transformed_agrees_with_element_arithmetic(self, seed):
        """Under a general (rounding) transform, the axis-first batch
        form keeps exactly the lanes the element body's scalar
        arithmetic bins inside, in ascending order, with the same bins;
        the thin axis in the middle exercises the rejection order."""
        grid = HKLGrid(basis=np.eye(3), minimum=(-2.0, -1.5, -1.0),
                       maximum=(2.0, 1.5, 0.7), bins=(5, 1, 3))
        rng = np.random.default_rng(seed)
        op, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        n = 500
        edge = rng.integers(0, np.array(grid.bins) + 1, size=(n, 3))
        coords = np.array(grid.minimum) + edge * grid.widths
        q = coords @ np.linalg.inv(op).T
        q += rng.integers(-3, 4, size=(n, 3)) * np.spacing(q)
        q[: n // 10] = rng.choice([np.nan, np.inf, -np.inf, 1e300, -1e300],
                                  size=(n // 10, 3))
        table = np.asfortranarray(rng.permutation(q))

        assert _bin_transformed_checked(grid, op[None], table) == 1
        assert 0 < len(_element_bins(grid, op, table)) < n


class TestSharedRows:
    """One ``bin_transformed`` call bins every op: ops whose thinnest-axis
    rows are byte-identical or exact negations share one product pass,
    and every op still gets the element body's bins exactly."""

    GRIDS = {
        "thin_middle": HKLGrid(basis=np.eye(3), minimum=(-2.0, -1.5, -1.0),
                               maximum=(2.0, 1.5, 0.7), bins=(5, 1, 3)),
        "thin_min_zero": HKLGrid(basis=np.eye(3), minimum=(-2.0, 0.0, -1.0),
                                 maximum=(2.0, 0.8, 0.7), bins=(5, 1, 3)),
    }

    @staticmethod
    def _ops(rng, first):
        """``a``; a byte-identical row; ``-a``; an exactly negated row;
        a row negated but for one zero's sign; ``a`` again."""
        a, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        a[first, 2] = 0.0
        rest = [axis for axis in range(3) if axis != first]
        same = a.copy()
        same[rest] = a[rest[::-1]]
        negated = a.copy()
        negated[first] = -a[first]
        zero_sign = -a
        zero_sign[first, 2] = 0.0
        assert zero_sign[first].tobytes() != (-a[first]).tobytes()
        return np.stack([a, same, -a, negated, zero_sign, a])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", sorted(GRIDS))
    @pytest.mark.parametrize("seed", range(3))
    def test_shared_rows_agree_with_element_arithmetic(self, name, seed):
        """Q on bin edges a few ulps either way, NaN, +-inf, +-1e300 and
        signed zeros (whose thin-axis products are exact zeros of either
        sign; on the ``thin_min_zero`` grid they land inside)."""
        grid = self.GRIDS[name]
        rng = np.random.default_rng(seed)
        ops = self._ops(rng, first=1)
        n = 600
        edge = rng.integers(0, np.array(grid.bins) + 1, size=(n, 3))
        coords = np.array(grid.minimum) + edge * grid.widths
        q = coords @ np.linalg.inv(ops[0]).T
        q += rng.integers(-3, 4, size=(n, 3)) * np.spacing(q)
        specials = [np.nan, np.inf, -np.inf, 1e300, -1e300, 0.0, -0.0]
        q[: n // 6] = rng.choice(specials, size=(n // 6, 3))
        q[n // 6 : n // 3] = rng.choice([0.0, -0.0], size=(n // 6, 3))
        table = np.asfortranarray(rng.permutation(q))

        assert _bin_transformed_checked(grid, ops, table) == 2
        for op in ops:
            assert 0 < len(_element_bins(grid, op, table)) < n

    @pytest.mark.parametrize("make, passes", [
        (workloads.benzil_corelli, 1), (workloads.bixbyite_topaz, 3)])
    def test_paper_transforms_share_rows(self, make, passes):
        """Benzil's 6 and Bixbyite's 24 BinMD transforms need 1 and 3
        product passes per tile."""
        spec = make(scale=0.001, n_files=1)
        structure = workloads._make_structure(spec)
        grid = workloads._make_grid(spec)
        ub = UBMatrix.from_u_vectors(structure.cell, [0.0, 0.0, 1.0],
                                     [1.0, 0.0, 0.0])
        ops = grid.transforms_for(ub, point_group(structure.point_group_symbol))
        assert len(ops) == spec.paper.symmetry_ops
        rng = np.random.default_rng(5)
        coords = rng.uniform(grid.minimum, grid.maximum, size=(200, 3))
        table = np.asfortranarray(coords @ np.linalg.inv(ops[0]).T)
        assert _bin_transformed_checked(grid, ops, table) == passes


class TestProjection:
    def test_benzil_basis_maps_110_to_first_axis(self):
        grid = HKLGrid.benzil_grid(bins=(10, 10, 1))
        c = grid.projection @ np.array([1.0, 1.0, 0.0])
        assert np.allclose(c, [1.0, 0.0, 0.0])
        c2 = grid.projection @ np.array([1.0, -1.0, 0.0])
        assert np.allclose(c2, [0.0, 1.0, 0.0])

    def test_bixbyite_grid_is_identity_projection(self):
        grid = HKLGrid.bixbyite_grid(bins=(10, 10, 1))
        assert np.allclose(grid.projection, np.eye(3))

    def test_paper_bin_counts_default(self):
        assert HKLGrid.benzil_grid().bins == (603, 603, 1)
        assert HKLGrid.bixbyite_grid().bins == (601, 601, 1)


class TestTransforms:
    cell = UnitCell(4.0, 4.0, 4.0)

    def test_identity_case_maps_q_to_hkl(self):
        ub = UBMatrix(cell=self.cell)
        grid = HKLGrid.bixbyite_grid(bins=(10, 10, 1))
        t = grid.transforms_for(ub)
        assert t.shape == (1, 3, 3)
        q = ub.hkl_to_q_sample([1.0, 2.0, -1.0])
        assert np.allclose(t[0] @ q, [1.0, 2.0, -1.0])

    def test_symmetry_op_count(self):
        ub = UBMatrix(cell=self.cell)
        grid = HKLGrid.bixbyite_grid(bins=(4, 4, 1))
        t = grid.transforms_for(ub, point_group("m-3"))
        assert t.shape == (24, 3, 3)

    def test_goniometer_composition(self):
        ub = UBMatrix(cell=self.cell)
        grid = HKLGrid.bixbyite_grid(bins=(4, 4, 1))
        r = goniometer_omega_chi_phi(37.0)
        t = grid.transforms_for(ub, goniometer=r)
        q_sample = ub.hkl_to_q_sample([2.0, 0.0, 1.0])
        q_lab = r @ q_sample
        assert np.allclose(t[0] @ q_lab, [2.0, 0.0, 1.0])

    def test_projection_composition(self):
        """Benzil's [H,H,0] basis: hkl (1,1,0) lands at grid coord (1,0,0)."""
        ub = UBMatrix(cell=self.cell)
        grid = HKLGrid.benzil_grid(bins=(10, 10, 1))
        t = grid.transforms_for(ub)
        q = ub.hkl_to_q_sample([1.0, 1.0, 0.0])
        assert np.allclose(t[0] @ q, [1.0, 0.0, 0.0])

    def test_accepts_raw_matrix(self):
        grid = HKLGrid.bixbyite_grid(bins=(4, 4, 1))
        raw = 0.25 * np.eye(3)
        t = grid.transforms_for(raw)
        assert np.allclose(t[0], np.linalg.inv(TWO_PI * raw))
