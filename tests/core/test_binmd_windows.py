"""Windowed BinMD on adversarial inputs.

A run read as several event windows (``--shards`` ranges in memory,
or an out-of-core table's budget-capped windows) keeps each window's
slab candidates and bins them in one pass; a run read as one window
is binned tile by tile with no candidate step.  Every lane is
binned by the same element-wise expressions as in one pass over the
whole table, so the histogram must equal the in-memory ``vectorized``
one and the ``serial`` element body's, compared here as int64 bit
patterns of signal and error_sq, on:

* Q exactly on slab and bin edges, the upper (exclusive) edge too;
* NaN, +-inf and +-0 Q;
* a run with 0 events, one-event chunks, a budget below one chunk;
* a window with no slab candidates, and a run with none at all;
* ``n_shards`` in {1, 2, 3, 7}.

The static path records and replays nothing: with the shard recorder
and the replay made to raise, out-of-core and sharded BinMD still
complete.
"""

import numpy as np
import pytest

import repro.core.binmd as binmd_mod
import repro.core.sharding as sharding_mod
from repro.core import geom_cache as gc
from repro.core.binmd import bin_events, column_windows, run_windows
from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.core.md_event_workspace import MDEventWorkspace, save_md
from repro.core.sharding import RecordingHist3, ShardConfig, sharded_binmd
from repro.nexus.events import EventTable
from repro.nexus.tiles import LazyEventTable
from repro.util.trace import Tracer, use_tracer

# the serial element body multiplies numpy scalars: 0 * inf warns
pytestmark = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")

#: one bin thick along L: the slab test rejects most lanes
GRID = HKLGrid(basis=np.eye(3), minimum=(-2.0, -2.0, -0.5),
               maximum=(2.0, 2.0, 0.5), bins=(8, 8, 1))
_SWAP_HK = np.eye(3)[[1, 0, 2]]
_L_FROM_K = np.eye(3)[[0, 2, 1]]
_GENERAL = np.array([[0.8, -0.6, 0.0], [0.6, 0.8, 0.0], [0.3, -0.2, 0.9]])
#: distinct thin-axis rows, a byte-exact negated one (-I) and a row
#: that needs real rounding
TRANSFORMS = np.stack([np.eye(3), -np.eye(3), _SWAP_HK, _L_FROM_K, _GENERAL])
ROW_BYTES = 5 * 8  # BinMD's five float64 columns per window row

#: Q values on every H/K bin edge, both L edges (0.5 is outside), the
#: values one ulp either side of them, and the non-finite and signed zeros
_EDGES = np.concatenate([np.linspace(-2.0, 2.0, 9), [-0.5, 0.5]])
_POOL = np.concatenate([
    _EDGES, np.nextafter(_EDGES, np.inf), np.nextafter(_EDGES, -np.inf),
    [0.0, -0.0, np.nan, np.inf, -np.inf, 2.5, -2.5],
])


def _table(n: int, seed: int, *, outside_rows: int = 0) -> np.ndarray:
    """``n`` events whose Q mixes the edge pool with uniform values;
    the first ``outside_rows`` lie outside the slab under every op."""
    rng = np.random.default_rng(seed)
    t = np.zeros((n, 8))
    t[:, 0] = rng.uniform(0.1, 3.0, n)
    t[:, 1] = rng.uniform(0.01, 1.0, n)  # not the signal: gathers differ
    q = rng.uniform(-2.5, 2.5, (n, 3))
    from_pool = rng.random((n, 3)) < 0.6
    q[from_pool] = rng.choice(_POOL, int(from_pool.sum()))
    q[:outside_rows] = 3.0
    t[:, 5:8] = q
    return t


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def _reference(table: np.ndarray, backend: str) -> Hist3:
    hist = Hist3(GRID, track_errors=True)
    bin_events(hist, EventTable(table), TRANSFORMS, backend=backend,
               cache=gc.DISABLED)
    return hist


def _assert_bits(got: Hist3, ref: Hist3) -> None:
    assert np.array_equal(_bits(got.signal), _bits(ref.signal))
    assert np.array_equal(_bits(got.error_sq), _bits(ref.error_sq))


def _save(path: str, table: np.ndarray, chunk: int) -> str:
    ws = MDEventWorkspace(events=EventTable(table), run_number=1,
                          goniometer=np.eye(3), proton_charge=1.0,
                          momentum_band=(0.5, 5.0), ub_matrix=np.eye(3))
    save_md(path, ws, chunk_events=chunk, codec="zlib")
    return path


N_EVENTS = 180
TABLE = _table(N_EVENTS, seed=11)


@pytest.fixture(scope="module")
def reference():
    """The vectorized oracle, asserted equal to the serial element body."""
    ref = _reference(TABLE, "vectorized")
    assert ref.signal.sum() > 0
    _assert_bits(_reference(TABLE, "serial"), ref)
    return ref


@pytest.fixture(scope="module")
def chunked(tmp_path_factory):
    """TABLE saved at one-event, 16-event and 50-event chunks."""
    base = tmp_path_factory.mktemp("binmd_windows")
    return {chunk: _save(str(base / f"run_{chunk}.md.h5"), TABLE, chunk)
            for chunk in (1, 16, 50)}


class TestInMemoryWindows:
    @pytest.mark.parametrize("n_shards", (1, 2, 3, 7))
    def test_sharded(self, reference, n_shards):
        got = Hist3(GRID, track_errors=True)
        sharded_binmd(got, EventTable(TABLE), TRANSFORMS,
                      shards=ShardConfig(n_shards=n_shards))
        _assert_bits(got, reference)

    @pytest.mark.parametrize("tile", (1, 7, 64))
    def test_tiles(self, reference, tile):
        got = Hist3(GRID, track_errors=True)
        bin_events(got, EventTable(TABLE), TRANSFORMS, backend="vectorized",
                   tile=tile, cache=gc.DISABLED)
        _assert_bits(got, reference)

    @pytest.mark.parametrize("n_windows", (2, 7))
    @pytest.mark.parametrize("tile", (1, 7, 64))
    def test_windows_with_tiles(self, reference, n_windows, tile):
        """Slab tests and bins cut into tiles inside several windows."""
        table = EventTable(TABLE)
        got = Hist3(GRID, track_errors=True)
        bin_events(got, table, TRANSFORMS, backend="vectorized", tile=tile,
                   cache=gc.DISABLED,
                   windows=column_windows(table, run_windows(table, n_windows)))
        _assert_bits(got, reference)

    def test_one_window_takes_no_candidate_step(self, reference, monkeypatch):
        """An in-memory run without shards is one window, binned tile
        by tile as a whole: nothing is cut to slab candidates."""
        def refuse(*_args):
            raise AssertionError("one window was cut to slab candidates")

        monkeypatch.setattr(HKLGrid, "slab_candidates", refuse)
        tracer = Tracer()
        got = Hist3(GRID, track_errors=True)
        with use_tracer(tracer):
            bin_events(got, EventTable(TABLE), TRANSFORMS,
                       backend="vectorized", tile=16, cache=gc.DISABLED)
        _assert_bits(got, reference)
        (op,) = [r for r in tracer.records if r.get("name") == "binmd"]
        assert op["attrs"]["n_windows"] == 1
        assert "binmd.slab_candidates" not in tracer.counters

    def test_warm_launch_plans_no_windows(self, reference, monkeypatch):
        cache = gc.GeomCache()
        table = EventTable(TABLE)
        bin_events(Hist3(GRID, track_errors=True), table, TRANSFORMS,
                   backend="vectorized", cache=cache)

        def refuse(*_args, **_kwargs):
            raise AssertionError("a warm launch planned windows")

        monkeypatch.setattr(binmd_mod, "column_windows", refuse)
        monkeypatch.setattr(binmd_mod, "run_windows", refuse)
        warm = Hist3(GRID, track_errors=True)
        bin_events(warm, table, TRANSFORMS, backend="vectorized", cache=cache)
        _assert_bits(warm, reference)

    def test_row_major_table(self, reference):
        """Strided Q columns of an ``(n, 8)`` array, several windows."""
        got = Hist3(GRID, track_errors=True)
        sharded_binmd(got, TABLE, TRANSFORMS, shards=ShardConfig(n_shards=3))
        _assert_bits(got, reference)


class TestOutOfCoreWindows:
    #: window budgets: below one chunk, one chunk, three chunks, none
    BUDGETS = ("below", 1, 3, None)

    @staticmethod
    def _budget(chunk, budget):
        if budget is None:
            return None
        if budget == "below":
            return max(1, chunk * ROW_BYTES - 1)
        return budget * chunk * ROW_BYTES

    @pytest.mark.parametrize("n_shards", (None, 1, 2, 3, 7))
    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("chunk", (1, 16, 50))
    def test_matrix(self, reference, chunked, chunk, budget, n_shards):
        limit = self._budget(chunk, budget)
        lazy = LazyEventTable(chunked[chunk], memory_budget=limit)
        try:
            got = Hist3(GRID, track_errors=True)
            if n_shards is None:
                # the unsharded out-of-core path: bin_events' own windows
                bin_events(got, lazy, TRANSFORMS)
            else:
                sharded_binmd(got, lazy, TRANSFORMS,
                              shards=ShardConfig(n_shards=n_shards))
            _assert_bits(got, reference)
            stats = lazy.tile_stats
            # each BinMD stream decoded once, no window over the budget
            # (one chunk is the floor)
            assert stats.decoded_bytes == N_EVENTS * ROW_BYTES
            assert stats.peak_resident_bytes <= max(
                limit or N_EVENTS * ROW_BYTES, chunk * ROW_BYTES)
        finally:
            lazy.close()


class TestEmptyWindows:
    def test_window_without_slab_candidates(self, tmp_path):
        """The first chunk lies outside the slab under every op: its
        window keeps no candidates, the others still bin."""
        table = _table(96, seed=5, outside_rows=32)
        ref = _reference(table, "vectorized")
        assert ref.signal.sum() > 0
        _assert_bits(_reference(table, "serial"), ref)
        lazy = LazyEventTable(_save(str(tmp_path / "r.md.h5"), table, 32),
                              memory_budget=32 * ROW_BYTES)
        tracer = Tracer()
        kept = []
        real = HKLGrid.slab_candidates

        def spy(self, *args):
            lanes = real(self, *args)
            kept.append(lanes.size)
            return lanes

        try:
            with use_tracer(tracer), pytest.MonkeyPatch.context() as mp:
                mp.setattr(HKLGrid, "slab_candidates", spy)
                got = Hist3(GRID, track_errors=True)
                sharded_binmd(got, lazy, TRANSFORMS,
                              shards=ShardConfig(n_shards=2))
        finally:
            lazy.close()
        assert len(kept) == 3 and kept[0] == 0 and min(kept[1:]) > 0
        assert tracer.counters["binmd.slab_candidates"] == sum(kept)
        _assert_bits(got, ref)

    @pytest.mark.parametrize("n_shards", (1, 3))
    def test_no_candidates_in_the_run(self, n_shards):
        table = _table(40, seed=3, outside_rows=40)
        got = Hist3(GRID, track_errors=True)
        sharded_binmd(got, EventTable(table), TRANSFORMS,
                      shards=ShardConfig(n_shards=n_shards))
        assert not got.signal.any() and not got.error_sq.any()
        _assert_bits(got, _reference(table, "serial"))

    @pytest.mark.parametrize("n_shards", (1, 2, 3, 7))
    def test_zero_events(self, n_shards):
        empty = np.zeros((0, 8))
        ref = _reference(empty, "vectorized")
        _assert_bits(_reference(empty, "serial"), ref)
        got = Hist3(GRID, track_errors=True)
        sharded_binmd(got, EventTable(empty), TRANSFORMS,
                      shards=ShardConfig(n_shards=n_shards))
        _assert_bits(got, ref)
        assert not got.signal.any()

    def test_zero_events_out_of_core(self, tmp_path):
        lazy = LazyEventTable(_save(str(tmp_path / "empty.md.h5"),
                                    np.zeros((0, 8)), 4), memory_budget=64)
        try:
            got = Hist3(GRID, track_errors=True)
            bin_events(got, lazy, TRANSFORMS)
            for n_shards in (1, 2, 3, 7):
                sharded_binmd(got, lazy, TRANSFORMS,
                              shards=ShardConfig(n_shards=n_shards))
        finally:
            lazy.close()
        assert not got.signal.any() and not got.error_sq.any()


class TestStaticPathRecordsNothing:
    """The static windowed BinMD makes one deposit call: no recorder,
    no replay."""

    @pytest.fixture()
    def no_replay(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("static BinMD recorded or replayed")

        monkeypatch.setattr(sharding_mod, "replay_deposits", refuse)
        monkeypatch.setattr(RecordingHist3, "push_flat", refuse)

    @pytest.mark.parametrize("n_shards", (1, 2, 7))
    def test_sharded_binmd(self, reference, chunked, no_replay, n_shards):
        got = Hist3(GRID, track_errors=True)
        sharded_binmd(got, EventTable(TABLE), TRANSFORMS,
                      shards=ShardConfig(n_shards=n_shards))
        _assert_bits(got, reference)
        lazy = LazyEventTable(chunked[16], memory_budget=16 * ROW_BYTES)
        try:
            got = Hist3(GRID, track_errors=True)
            sharded_binmd(got, lazy, TRANSFORMS,
                          shards=ShardConfig(n_shards=n_shards))
        finally:
            lazy.close()
        _assert_bits(got, reference)

    def test_the_tripwire_is_live(self, no_replay):
        with pytest.raises(AssertionError, match="recorded or replayed"):
            RecordingHist3(GRID, True).push_flat(np.zeros(1, int), np.ones(1))


class TestWindowedTrace:
    def test_op_span_names_the_engine_and_counts_windows(self, chunked):
        budget = 16 * ROW_BYTES
        lazy = LazyEventTable(chunked[16], memory_budget=budget)
        tracer = Tracer()
        try:
            with use_tracer(tracer):
                sharded_binmd(Hist3(GRID, track_errors=True), lazy,
                              TRANSFORMS, shards=ShardConfig(n_shards=2),
                              run=4)
        finally:
            lazy.close()
        n_windows = -(-N_EVENTS // 16)  # one chunk per window
        spans = [r for r in tracer.records if r.get("type", "span") == "span"]
        (op,) = [r for r in spans if r["name"] == "binmd"]
        assert op["attrs"]["backend"] == "vectorized"
        assert op["attrs"]["n_windows"] == n_windows
        (fanout,) = [r for r in spans if r["name"] == "binmd.shards"]
        assert fanout["attrs"]["n_shards"] == n_windows
        assert fanout["attrs"]["run"] == 4
        tasks = [r for r in spans if r["name"] == "shard:binmd"]
        assert [r["attrs"]["shard"] for r in tasks] == list(range(n_windows))
        assert tracer.counters["binmd.shard_tasks"] == n_windows
        assert 0 < tracer.counters["binmd.slab_candidates"] < N_EVENTS
        kernels = [r for r in spans if r["name"] == "kernel:bin_events"]
        assert len(kernels) == 1  # one launch for the run


def test_table_rows_hit_every_adversarial_value():
    """The fixture really holds edges, non-finite and signed-zero Q."""
    q = TABLE[:, 5:8]
    assert np.isnan(q).any() and np.isposinf(q).any() and np.isneginf(q).any()
    zeros = q[q == 0.0]
    assert np.signbit(zeros).any() and (~np.signbit(zeros)).any()
    assert (q[:, 2] == 0.5).any() and (q[:, 2] == -0.5).any()
    assert (q[:, :2] == 2.0).any() and (q[:, :2] == -2.0).any()
