"""Unit tests for the BinMD kernel pair."""

import math

import numpy as np
import pytest

from repro.core.binmd import bin_events
from repro.core.geom_cache import DISABLED, GeomCache
from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.core.sharding import ShardConfig, sharded_binmd
from repro.nexus.events import EventTable
from repro.util.validation import ValidationError

BACKENDS = ("serial", "threads", "vectorized")


@pytest.fixture()
def grid():
    return HKLGrid(
        basis=np.eye(3), minimum=(-3.0, -3.0, -1.0), maximum=(3.0, 3.0, 1.0),
        bins=(12, 12, 2),
    )


def _events(n=400, seed=0, spread=3.5):
    rng = np.random.default_rng(seed)
    return EventTable.from_columns(
        signal=rng.random(n) + 0.5,
        q_sample=rng.uniform(-spread, spread, size=(n, 3)),
    )


IDENT = np.eye(3)[None, :, :]
FLIP = np.stack([np.eye(3), -np.eye(3)])


class TestCorrectness:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_identity_transform_totals(self, grid, backend):
        events = _events(spread=0.9)  # everything inside the grid
        h = Hist3(grid)
        bin_events(h, events, IDENT, backend=backend)
        assert h.total() == pytest.approx(events.total_signal())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_outside_events_dropped(self, grid, backend):
        events = EventTable.from_columns(
            signal=np.ones(2),
            q_sample=np.array([[10.0, 0.0, 0.0], [0.0, 0.0, 0.5]]),
        )
        h = Hist3(grid)
        bin_events(h, events, IDENT, backend=backend)
        assert h.total() == 1.0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_symmetry_doubles_signal(self, grid, backend):
        """With +-identity ops every inside event lands twice."""
        events = _events(spread=0.9)
        h = Hist3(grid)
        bin_events(h, events, FLIP, backend=backend)
        assert h.total() == pytest.approx(2 * events.total_signal())

    def test_backends_agree_exactly(self, grid):
        events = _events(n=700, seed=3)
        reference = None
        for backend in BACKENDS:
            h = Hist3(grid, track_errors=True)
            bin_events(h, events, FLIP, backend=backend)
            if reference is None:
                reference = h
            else:
                assert np.allclose(h.signal, reference.signal)
                assert np.allclose(h.error_sq, reference.error_sq)

    def test_inversion_symmetry_mirrors_histogram(self, grid):
        events = _events(n=300, seed=5, spread=2.0)
        h_plus = Hist3(grid)
        bin_events(h_plus, events, IDENT, backend="vectorized")
        h_minus = Hist3(grid)
        bin_events(h_minus, events, -IDENT, backend="vectorized")
        # inverted events = histogram flipped in all axes... compare totals
        assert h_minus.total() == pytest.approx(h_plus.total(), rel=0.2)

    def test_accumulates_across_calls(self, grid):
        events = _events(spread=0.9)
        h = Hist3(grid)
        bin_events(h, events, IDENT, backend="vectorized")
        bin_events(h, events, IDENT, backend="vectorized")
        assert h.total() == pytest.approx(2 * events.total_signal())

    def test_error_sq_tracked(self, grid):
        events = _events(spread=0.9)
        h = Hist3(grid, track_errors=True)
        bin_events(h, events, IDENT, backend="vectorized")
        assert h.error_sq.sum() == pytest.approx(events.error_sq.sum())


class TestTilingAndScatter:
    def test_tile_size_does_not_change_result(self, grid):
        events = _events(n=500)
        a = Hist3(grid)
        bin_events(a, events, FLIP, backend="vectorized", tile=64)
        b = Hist3(grid)
        bin_events(b, events, FLIP, backend="vectorized", tile=1 << 20)
        assert np.allclose(a.signal, b.signal)

    def test_scatter_impls_agree(self, grid):
        events = _events(n=500, seed=9)
        a = Hist3(grid)
        bin_events(a, events, FLIP, backend="vectorized", scatter_impl="atomic")
        b = Hist3(grid)
        bin_events(b, events, FLIP, backend="vectorized", scatter_impl="buffered")
        assert np.allclose(a.signal, b.signal)

    def test_bad_tile_rejected(self, grid):
        with pytest.raises(ValidationError, match="tile"):
            bin_events(Hist3(grid), _events(), IDENT, tile=0)


class TestBinOnce:
    """Cold BinMD bins each (op, tile) exactly once; warm never bins."""

    def test_bin_index_calls(self, grid, monkeypatch):
        calls = []
        real = HKLGrid.bin_index

        def counting(self, coords):
            calls.append(len(coords))
            return real(self, coords)

        monkeypatch.setattr(HKLGrid, "bin_index", counting)
        events, tile = _events(n=500, seed=2), 64
        transforms = np.stack([np.eye(3), -np.eye(3), np.eye(3)[[1, 0, 2]]])
        cache = GeomCache()
        cold = Hist3(grid, track_errors=True)
        bin_events(cold, events, transforms, backend="vectorized", tile=tile,
                   cache=cache)
        assert len(cache) == 1  # the cold pass collected an entry
        assert len(calls) == len(transforms) * math.ceil(500 / tile)
        assert sum(calls) == len(transforms) * 500

        calls.clear()
        warm = Hist3(grid, track_errors=True)
        bin_events(warm, events, transforms, backend="vectorized", tile=tile,
                   cache=cache)
        assert calls == []
        assert np.array_equal(warm.signal, cold.signal)


def _edge_events(grid, *, integer_weights, seed=11, n=600):
    """Events whose grid coordinates (under the signed axis permutations
    used as ops below) sit on bin edges, within +-2e-16 of them, or a
    few ulps off them, plus events outside the grid."""
    rng = np.random.default_rng(seed)
    edge = rng.integers(0, np.array(grid.bins) + 1, size=(n, 3))
    q = np.array(grid.minimum) + edge * grid.widths
    q += rng.choice([-2e-16, -1e-16, 0.0, 1e-16, 2e-16], size=(n, 3))
    ulps = rng.random((n, 3)) < 0.3
    q[ulps] += rng.integers(-2, 3, size=ulps.sum()) * np.spacing(q[ulps])
    q[: n // 10] = rng.choice([-1e300, -7.0, 4.0, 1e300], size=(n // 10, 3))
    if integer_weights:
        signal = rng.integers(1, 9, size=n).astype(np.float64)
        error_sq = rng.integers(1, 5, size=n).astype(np.float64)
    else:
        signal = rng.random(n) + 0.25
        error_sq = rng.random(n)
    return EventTable.from_columns(signal=signal, error_sq=error_sq,
                                   q_sample=rng.permutation(q))


#: signed axis permutations: exact in floating point, so the transformed
#: coordinates keep their edge adjacency under every op
EDGE_OPS = np.stack([np.eye(3), -np.eye(3), np.eye(3)[[1, 0, 2]],
                     -np.eye(3)[[1, 0, 2]]])


class TestAdversarialEdges:
    """Cold (collecting / uncached), warm, the ``serial`` element path and
    two shards give the same histogram bit for bit on bin-edge events."""

    @pytest.fixture()
    def grid(self):
        # widths that are not powers of two, so a rounded and an exact
        # quotient can floor differently next to an edge
        return HKLGrid(basis=np.eye(3), minimum=(-3.0, -3.0, -1.0),
                       maximum=(3.0, 3.0, 1.0), bins=(7, 7, 3))

    def _variants(self, grid, events, scatter_impl):
        def run(**kw):
            h = Hist3(grid, track_errors=True)
            bin_events(h, events, EDGE_OPS, tile=97, scatter_impl=scatter_impl,
                       **kw)
            return h

        cache = GeomCache()
        out = {"cold_collect": run(backend="vectorized", cache=cache)}
        assert len(cache) == 1
        out["warm"] = run(backend="vectorized", cache=cache)
        out["cold_uncached"] = run(backend="vectorized", cache=DISABLED)
        out["serial"] = run(backend="serial", cache=DISABLED)
        sharded = Hist3(grid, track_errors=True)
        sharded_binmd(sharded, events, EDGE_OPS,
                      shards=ShardConfig(n_shards=2))
        out["shards_2"] = sharded
        return out

    @staticmethod
    def _assert_identical(hists, names):
        ref = hists[names[0]]
        assert ref.signal.sum() > 0
        for name in names[1:]:
            assert np.array_equal(hists[name].signal, ref.signal), name
            assert np.array_equal(hists[name].error_sq, ref.error_sq), name

    @pytest.mark.parametrize("scatter_impl", ("atomic", "buffered"))
    def test_integer_weights_all_paths(self, grid, scatter_impl):
        """Integer weights make every fold order exact, so all five paths
        agree in both scatter implementations: only binning can differ."""
        hists = self._variants(grid, _edge_events(grid, integer_weights=True),
                               scatter_impl)
        self._assert_identical(hists, list(hists))

    @pytest.mark.parametrize("scatter_impl", ("atomic", "buffered"))
    def test_float_weights(self, grid, scatter_impl):
        """With float weights the per-bin deposit order matters too: the
        cached variants share it in both implementations, and the
        element and shard paths (which deposit one lane at a time) share
        the atomic one."""
        hists = self._variants(grid, _edge_events(grid, integer_weights=False),
                               scatter_impl)
        names = ["cold_collect", "warm", "cold_uncached"]
        if scatter_impl == "atomic":
            names += ["serial", "shards_2"]
        self._assert_identical(hists, names)


class TestValidation:
    def test_transform_shape(self, grid):
        with pytest.raises(ValidationError, match="transforms"):
            bin_events(Hist3(grid), _events(), np.eye(3))

    def test_accepts_raw_arrays(self, grid):
        raw = _events(spread=0.9).data
        h = Hist3(grid)
        bin_events(h, raw, IDENT, backend="vectorized")
        assert h.total() > 0

    def test_empty_events(self, grid):
        h = Hist3(grid)
        bin_events(h, EventTable.empty(), IDENT, backend="vectorized")
        assert h.total() == 0.0
