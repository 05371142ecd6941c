"""Unit tests for the BinMD kernel pair."""

import math

import numpy as np
import pytest

from repro.core.binmd import _index_dtype, bin_events, binmd_cache_key, binmd_reads
from repro.core.geom_cache import DISABLED, GeomCache
from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.core.md_event_workspace import (
    MDEventWorkspace,
    load_md,
    save_md,
    transpose_events,
)
from repro.core.sharding import ShardConfig, sharded_binmd
from repro.crystal.structures import benzil
from repro.crystal.ub import UBMatrix
from repro.jacc import resolve_backend
from repro.nexus.events import (
    BINMD_COLUMNS,
    COL_ERROR_SQ,
    COL_QX,
    COL_QY,
    COL_QZ,
    COL_SIGNAL,
    WEIGHT_COLUMNS,
    EventTable,
)
from repro.util import trace
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
        assert np.array_equal(a.signal, b.signal)

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
    """Cold BinMD bins each tile exactly once, under every op in one
    call; warm never bins."""

    def test_bin_transformed_calls(self, grid, monkeypatch):
        calls = []
        real = HKLGrid.bin_transformed

        def counting(self, ops, qx, qy, qz):
            calls.append((len(ops), len(qx)))
            return real(self, ops, qx, qy, qz)

        monkeypatch.setattr(HKLGrid, "bin_transformed", counting)
        events, tile = _events(n=500, seed=2), 64
        transforms = np.stack([np.eye(3), -np.eye(3), np.eye(3)[[1, 0, 2]]])
        cache = GeomCache()
        cold = Hist3(grid, track_errors=True)
        bin_events(cold, events, transforms, backend="vectorized", tile=tile,
                   cache=cache)
        assert len(cache) == 1  # the cold pass collected an entry
        assert len(calls) == math.ceil(500 / tile)
        assert all(n_ops == len(transforms) for n_ops, _ in calls)
        assert sum(n for _, n in calls) == 500
        # the entry holds one (flat, event) pair per in-grid lane only
        in_grid = sum(int(grid.bin_index(events.q_sample @ op.T)[1].sum())
                      for op in transforms)
        entry = cache.peek(cache.keys()[0])
        assert 0 < in_grid < len(transforms) * 500
        assert entry.nbytes == in_grid * 2 * entry.itemsize

        calls.clear()
        warm = Hist3(grid, track_errors=True)
        bin_events(warm, events, transforms, backend="vectorized", tile=tile,
                   cache=cache)
        assert calls == []
        assert np.array_equal(warm.signal, cold.signal)
        assert np.array_equal(warm.error_sq, cold.error_sq)


class TestCompactedCache:
    """The BinMD entry stores in-grid lanes only, keyed by Q alone."""

    @staticmethod
    def _run(grid, events, transforms, cache, **kw):
        h = Hist3(grid, track_errors=True)
        bin_events(h, events, transforms, backend="vectorized", cache=cache,
                   **kw)
        return h

    def test_entry_cached_under_a_budget_below_the_dense_size(self, grid):
        """A budget that a dense per-lane entry (9 B x ops x events)
        would exceed still caches the compacted entry, and warm hits."""
        events = _events(n=4000, seed=4, spread=12.0)
        transforms = np.stack([np.eye(3), -np.eye(3), np.eye(3)[[1, 0, 2]],
                               -np.eye(3)[[1, 0, 2]]])
        budget = 16 * 1024
        assert budget < len(transforms) * len(events) * 9
        ref = self._run(grid, events, transforms, DISABLED)
        cache = GeomCache(byte_budget=budget)
        cold = self._run(grid, events, transforms, cache)
        assert cache.stats.inserts == 1
        assert 0 < cache.current_bytes < budget
        warm = self._run(grid, events, transforms, cache)
        assert cache.stats.hits == 1
        for h in (cold, warm):
            assert np.array_equal(h.signal, ref.signal)
            assert np.array_equal(h.error_sq, ref.error_sq)

    def test_weights_share_a_key_q_does_not(self, grid):
        events = _events(n=600, seed=6)
        transforms = FLIP
        cache = GeomCache()
        self._run(grid, events, transforms, cache)
        reweighted = EventTable(events.data.copy())
        rng = np.random.default_rng(7)
        reweighted.data[:, COL_SIGNAL] = rng.random(len(events)) + 2.0
        reweighted.data[:, COL_ERROR_SQ] = rng.random(len(events))
        warm = self._run(grid, reweighted, transforms, cache)
        assert (cache.stats.hits, len(cache)) == (1, 1)
        ref = self._run(grid, reweighted, transforms, DISABLED)
        assert np.array_equal(warm.signal, ref.signal)
        assert np.array_equal(warm.error_sq, ref.error_sq)

        nudged = events.data.copy()
        nudged[0, COL_QY] = np.nextafter(nudged[0, COL_QY], np.inf)
        key = binmd_cache_key(grid, transforms, events)
        assert key in cache
        assert binmd_cache_key(grid, transforms, nudged) != key

    def test_key_is_independent_of_layout(self, grid, tmp_path):
        """A table built from rows, the same table after SaveMD/LoadMD
        and its row-major copy share one key; a one-ulp Q nudge does
        not, and a weight-only change keeps it."""
        events = _events(n=500, seed=12)
        path = str(tmp_path / "run.md.h5")
        save_md(path, MDEventWorkspace(
            events=events, run_number=1, goniometer=np.eye(3),
            proton_charge=1.0, momentum_band=(1.0, 5.0)))
        loaded = load_md(path).events
        assert loaded.q_sample.T.flags.c_contiguous
        rows = transpose_events(events)
        key = binmd_cache_key(grid, FLIP, events)
        assert binmd_cache_key(grid, FLIP, loaded) == key
        assert binmd_cache_key(grid, FLIP, rows) == key
        for col in (COL_QX, COL_QY, COL_QZ):
            nudged = rows.copy()
            nudged[-1, col] = np.nextafter(nudged[-1, col], -np.inf)
            assert binmd_cache_key(grid, FLIP, EventTable(nudged)) != key
        reweighted = rows.copy()
        reweighted[:, COL_SIGNAL] *= 3.0
        reweighted[:, COL_ERROR_SQ] += 1.0
        assert binmd_cache_key(grid, FLIP, EventTable(reweighted)) == key

    def test_split_size_key_is_independent_of_layout(self, grid, tmp_path):
        """A table whose Q block reaches the split size (hashed as two
        leaves on two cores) keeps one key across SaveMD/LoadMD and the
        row-major copy; a one-ulp Q nudge in either half changes it."""
        from repro.util.bytesplit import SPLIT_BYTES

        events = _events(n=90_000, seed=13)
        assert events.q_sample.nbytes >= SPLIT_BYTES
        path = str(tmp_path / "run.md.h5")
        save_md(path, MDEventWorkspace(
            events=events, run_number=1, goniometer=np.eye(3),
            proton_charge=1.0, momentum_band=(1.0, 5.0)))
        loaded = load_md(path).events
        rows = transpose_events(events)
        key = binmd_cache_key(grid, FLIP, events)
        assert binmd_cache_key(grid, FLIP, loaded) == key
        assert binmd_cache_key(grid, FLIP, rows) == key
        for row, col in ((0, COL_QX), (-1, COL_QZ)):
            nudged = rows.copy()
            nudged[row, col] = np.nextafter(nudged[row, col], np.inf)
            assert binmd_cache_key(grid, FLIP, EventTable(nudged)) != key

    def test_no_lane_in_grid(self, grid):
        events = _events(n=300, seed=8)
        events.data[:, COL_QZ] = 5.0  # every event above the L range
        cache = GeomCache()
        cold = self._run(grid, events, FLIP, cache)
        assert cache.stats.inserts == 1
        assert cache.peek(cache.keys()[0]).n_pairs == 0
        warm = self._run(grid, events, FLIP, cache)
        assert cache.stats.hits == 1
        serial = Hist3(grid, track_errors=True)
        bin_events(serial, events, FLIP, backend="serial", cache=DISABLED)
        for h in (cold, warm, serial):
            assert not h.signal.any() and not h.error_sq.any()

    def test_op_span_reports_inside_lanes_and_warm_work(self, grid):
        events = _events(n=500, seed=10)
        cache = GeomCache()
        tracer = trace.Tracer(label="binmd")
        with trace.use_tracer(tracer):
            self._run(grid, events, FLIP, cache)
            self._run(grid, events, FLIP, cache)
            sharded_binmd(Hist3(grid, track_errors=True), events, FLIP,
                          shards=ShardConfig(n_shards=2))
        cold, warm, sharded = [r["attrs"] for r in tracer.records
                               if r["name"] == "binmd"]
        entry = cache.peek(cache.keys()[0])
        assert entry.itemsize == 4
        assert (cold["inside_lanes"] == warm["inside_lanes"]
                == sharded["inside_lanes"] == entry.n_pairs > 0)
        assert warm["cache_hit"] and not cold["cache_hit"]
        # a warm launch reads its pairs (2 x int32) and gathers 2 weights
        assert warm["perf"]["bytes_read"] == entry.n_pairs * (8 + 16)
        assert warm["perf"]["bins_touched"] == entry.n_pairs

    def test_index_dtype_follows_the_input_size(self):
        assert _index_dtype(151 * 151, 10**6) is np.int32
        assert _index_dtype(2**31 - 1, 2**31 - 1) is np.int32
        assert _index_dtype(2**31, 10) is np.int64
        assert _index_dtype(10, 2**31) is np.int64


class TestReads:
    """One rule names the columns a launch reads: the per-run step
    loads what :func:`binmd_reads` names and :func:`bin_events` reads
    what it names, so a table of exactly those columns will do."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_table_of_the_named_columns_will_do(self, grid, backend):
        events = _events(n=500, seed=9)
        ref = Hist3(grid, track_errors=True)
        bin_events(ref, events, FLIP, backend=backend, cache=DISABLED)
        cache = GeomCache()
        key = binmd_cache_key(grid, FLIP, events)
        assert binmd_reads(backend, cache.get(key)) == BINMD_COLUMNS
        bin_events(Hist3(grid, track_errors=True), events, FLIP,
                   backend="vectorized", cache=cache)
        entry = cache.get(key)
        assert entry is not None
        reads = binmd_reads(backend, entry)
        batch = resolve_backend(backend).body == "batch"
        assert reads == (WEIGHT_COLUMNS if batch else BINMD_COLUMNS)
        table = EventTable.from_read_columns(
            {c: events.column(c) for c in reads})
        h = Hist3(grid, track_errors=True)
        bin_events(h, table, FLIP, backend=backend, cache=cache,
                   lookup=(key, entry))
        assert np.array_equal(h.signal.view(np.int64), ref.signal.view(np.int64))
        assert np.array_equal(h.error_sq.view(np.int64),
                              ref.error_sq.view(np.int64))


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


def _general_edge_case(seed=17, n=900):
    """A Benzil grid under the 321 point group's transforms (not signed
    permutations), with events whose coordinates under one random op
    sit within a few ulps of a bin edge, plus outside and non-finite
    events."""
    structure = benzil()
    grid = HKLGrid.benzil_grid(bins=(7, 7, 3), extent=1.5, l_half_width=0.4)
    ub = UBMatrix.from_u_vectors(structure.cell, [0.0, 0.0, 1.0],
                                 [1.0, 0.0, 0.0])
    transforms = grid.transforms_for(ub, structure.point_group)
    rng = np.random.default_rng(seed)
    edge = rng.integers(0, np.array(grid.bins) + 1, size=(n, 3))
    coords = np.array(grid.minimum) + edge * grid.widths
    inverse = np.linalg.inv(transforms)[rng.integers(0, len(transforms), n)]
    q = np.einsum("nij,nj->ni", inverse, coords)
    q += rng.integers(-3, 4, size=q.shape) * np.spacing(q)
    q[: n // 10] = rng.choice([-1e300, -9.0, np.nan, 9.0, 1e300],
                              size=(n // 10, 3))
    events = EventTable.from_columns(signal=rng.random(n) + 0.25,
                                     error_sq=rng.random(n),
                                     q_sample=rng.permutation(q))
    return grid, events, transforms


class TestAdversarialEdges:
    """Cold (collecting / uncached), warm, the ``serial`` element path and
    two shards give the same histogram bit for bit on bin-edge events."""

    @pytest.fixture()
    def grid(self):
        # widths that are not powers of two, so a rounded and an exact
        # quotient can floor differently next to an edge
        return HKLGrid(basis=np.eye(3), minimum=(-3.0, -3.0, -1.0),
                       maximum=(3.0, 3.0, 1.0), bins=(7, 7, 3))

    def _variants(self, grid, events, scatter_impl, ops=EDGE_OPS):
        def run(**kw):
            h = Hist3(grid, track_errors=True)
            bin_events(h, events, ops, tile=97, scatter_impl=scatter_impl,
                       **kw)
            return h

        cache = GeomCache()
        out = {"cold_collect": run(backend="vectorized", cache=cache)}
        assert len(cache) == 1
        out["warm"] = run(backend="vectorized", cache=cache)
        out["cold_uncached"] = run(backend="vectorized", cache=DISABLED)
        out["serial"] = run(backend="serial", cache=DISABLED)
        sharded = Hist3(grid, track_errors=True)
        sharded_binmd(sharded, events, ops, shards=ShardConfig(n_shards=2))
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

    def test_general_transforms_float_weights(self):
        """Non-permutation transforms round, so lanes a few ulps from an
        edge bin by the rounded coordinate: the batch body computes it
        with the element body's three-term products, and all five paths
        agree bit for bit."""
        grid, events, ops = _general_edge_case()
        hists = self._variants(grid, events, "atomic", ops=ops)
        self._assert_identical(hists, list(hists))


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


def _edge_rows():
    """Events on bin edges of the grid fixture (width 0.5 in H and
    K, 1.0 in L), the upper edges and the corners included."""
    h = np.arange(-3.0, 3.01, 0.5)
    hh, kk, ll = np.meshgrid(h, h[::3], [-1.0, 0.0, 1.0], indexing="ij")
    n = hh.size
    rows = np.zeros((n, 8))
    rows[:, COL_SIGNAL] = 1.0 + np.arange(n) % 7
    rows[:, COL_ERROR_SQ] = 0.5 + np.arange(n) % 3
    rows[:, COL_QX], rows[:, COL_QY], rows[:, COL_QZ] = (
        hh.ravel(), kk.ravel(), ll.ravel())
    return rows


class TestColumnarTables:
    """Adversarial runs through SaveMD/LoadMD: the cold launch on the
    loaded columns, the warm launch on the same table built from rows
    (a cross-layout cache hit) and the uncached launch on the proxies'
    row-major copy agree bit for bit."""

    CASES = {
        "empty": lambda: np.zeros((0, 8)),
        "one_event": lambda: transpose_events(_events(n=1, spread=0.5)),
        "bin_edges": _edge_rows,
    }

    @pytest.mark.parametrize("scatter_impl", ["atomic", "buffered"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_cold_warm_uncached_agree(self, grid, tmp_path, case,
                                      scatter_impl):
        rows = self.CASES[case]()
        path = str(tmp_path / f"{case}.md.h5")
        save_md(path, MDEventWorkspace(
            events=EventTable(rows), run_number=1, goniometer=np.eye(3),
            proton_charge=1.0, momentum_band=(1.0, 5.0)))
        loaded = load_md(path).events
        assert loaded.cols.shape == (8, len(rows))
        transforms = np.stack([np.eye(3), -np.eye(3), np.eye(3)[[1, 0, 2]]])
        cache = GeomCache()
        runs = [
            TestCompactedCache._run(grid, table, transforms, c,
                                    scatter_impl=scatter_impl)
            for table, c in ((loaded, cache), (EventTable(rows), cache),
                             (transpose_events(loaded), DISABLED))
        ]
        # an empty launch runs no body, so it has no pairs to cache
        expected = (1, 1) if len(rows) else (0, 0)
        assert (cache.stats.inserts, cache.stats.hits) == expected
        cold, warm, uncached = runs
        for h in (warm, uncached):
            assert np.array_equal(h.signal, cold.signal)
            assert np.array_equal(h.error_sq, cold.error_sq)
        assert cold.signal.any() == bool(len(rows))
