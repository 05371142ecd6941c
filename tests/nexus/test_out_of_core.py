"""Out-of-core conformance suite (ISSUE 6 satellite a).

The contract under test: chunked storage and the tile manager are an
*I/O* detail, never a *numerics* detail.  A reduction that only ever
sees bounded event windows — any chunk size, any codec, any memory
budget (including budgets forcing a >= 4x spill), any shard count —
must produce histograms **bit-identical**
(``np.array_equal``, not allclose) to the in-memory reduction of the
same table.

The 50-seed matrix below drives every (chunk size x codec x budget x
shard count) combination, with the process pool made to raise,
through ``sharded_binmd`` on a
``LazyEventTable`` and compares against the ``vectorized``
``bin_events`` on the materialized :class:`EventTable` (shards run the
same batch body).  Full-pipeline cases do the same
through ``compute_cross_section``.  Golden-file cases pin v1 (whole
payload) / v2 (chunked) container back-compat: v1 files read bit for
bit, and a v1 -> v2 rewrite round-trips the table exactly.
"""

import os
import pathlib

import numpy as np
import pytest

from repro.core.binmd import bin_events
from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.core.md_event_workspace import (
    MDEventWorkspace,
    load_md,
    save_md,
)
from repro.core.sharding import ShardConfig, sharded_binmd
from repro.nexus.events import BINMD_COLUMNS, COLUMN_NAMES, EventTable
from repro.nexus import h5lite
from repro.nexus.h5lite import CHUNK_CODECS, CorruptFileError, File
from repro.nexus.tiles import (
    EVENT_COLUMNS_PATH,
    EVENT_TABLE_PATH,
    LazyEventTable,
    TileError,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

ROW_BYTES = 8 * 8  # 8 float64 columns

# the conformance matrix axes; each seed selects one combination (and
# its own random table), so 50 seeds sweep every axis several times
CHUNK_SIZES = (64, 113, 256, 500, 1024)
CODECS = CHUNK_CODECS  # ("none", "zlib", "shuffle-zlib")
BUDGET_CHUNKS = (1, 2, 4, None)  # budget as a chunk multiple; None = unbounded
N_SEEDS = 50


def _combo(seed: int):
    return dict(
        chunk=CHUNK_SIZES[seed % len(CHUNK_SIZES)],
        codec=CODECS[seed % len(CODECS)],
        budget_chunks=BUDGET_CHUNKS[seed % len(BUDGET_CHUNKS)],
        shards=1 + seed % 5,
    )


def _random_table(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(1000 + seed)
    t = np.zeros((n, 8))
    t[:, 0] = rng.uniform(0.05, 3.0, n)  # signal
    t[:, 1] = t[:, 0]  # Poisson: var == counts
    t[:, 3] = rng.integers(0, 200, n)  # detector id
    t[:, 5:8] = rng.uniform(-4.0, 4.0, (n, 3))  # Q_sample
    return t


def _workspace(table: np.ndarray) -> MDEventWorkspace:
    return MDEventWorkspace(
        events=EventTable(table),
        run_number=7,
        goniometer=np.eye(3),
        proton_charge=1.0,
        momentum_band=(0.5, 5.0),
        ub_matrix=np.eye(3),
    )


def _binmd_window_equals(lazy, table, a, b) -> bool:
    """``lazy.binmd_window(a, b)`` is BinMD's five columns of
    ``table[a:b]``, each unit-stride."""
    got = lazy.binmd_window(a, b)
    return len(got) == len(BINMD_COLUMNS) and all(
        col.flags.c_contiguous and np.array_equal(col, table[a:b, c])
        for col, c in zip(got, BINMD_COLUMNS))


GRID = HKLGrid(basis=np.eye(3), minimum=(-5, -5, -5), maximum=(5, 5, 5),
               bins=(12, 12, 12))
TRANSFORMS = np.eye(3)[None, :, :]


# ---------------------------------------------------------------------------
# the 50-seed differential matrix
# ---------------------------------------------------------------------------

class TestOutOfCoreBitIdentity:
    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_matrix(self, tmp_path, forbid_pool, seed):
        c = _combo(seed)
        forbid_pool()
        n = 1200 + 37 * seed
        table = _random_table(seed, n)
        path = str(tmp_path / "run.md.h5")
        save_md(path, _workspace(table), chunk_events=c["chunk"],
                codec=c["codec"])

        ref = Hist3(GRID, track_errors=True)
        bin_events(ref, EventTable(table), TRANSFORMS, backend="vectorized")

        budget = (None if c["budget_chunks"] is None
                  else c["budget_chunks"] * c["chunk"] * ROW_BYTES)
        lazy = LazyEventTable(path, memory_budget=budget)
        try:
            got = Hist3(GRID, track_errors=True)
            sharded_binmd(
                got, lazy, TRANSFORMS,
                shards=ShardConfig(n_shards=c["shards"]),
            )
            assert np.array_equal(got.signal, ref.signal), c
            assert np.array_equal(got.error_sq, ref.error_sq), c
            if budget is not None:
                assert lazy.tile_stats.peak_resident_bytes <= budget, c
        finally:
            lazy.close()

    def test_matrix_covers_deep_spill(self):
        """At least one seed in the matrix forces a >= 4x spill."""
        deep = [
            seed for seed in range(N_SEEDS)
            if _combo(seed)["budget_chunks"] is not None
            and (1200 + 37 * seed) * ROW_BYTES
            >= 4 * _combo(seed)["budget_chunks"] * _combo(seed)["chunk"] * ROW_BYTES
        ]
        assert len(deep) >= 10

    @pytest.mark.parametrize("codec", CODECS)
    def test_four_x_spill_explicit(self, tmp_path, codec):
        """Table >= 4x the budget: identical result, residency <= budget."""
        n, chunk = 4000, 250
        table = _random_table(99, n)
        path = str(tmp_path / "run.md.h5")
        save_md(path, _workspace(table), chunk_events=chunk, codec=codec)

        budget = 2 * chunk * ROW_BYTES
        assert n * ROW_BYTES >= 4 * budget

        ref = Hist3(GRID, track_errors=True)
        bin_events(ref, EventTable(table), TRANSFORMS, backend="vectorized")

        lazy = LazyEventTable(path, memory_budget=budget)
        got = Hist3(GRID, track_errors=True)
        sharded_binmd(got, lazy, TRANSFORMS,
                      shards=ShardConfig(n_shards=3))
        assert np.array_equal(got.signal, ref.signal)
        assert np.array_equal(got.error_sq, ref.error_sq)
        stats = lazy.tile_stats
        assert stats.peak_resident_bytes <= budget
        # each BinMD stream decoded once, in at least four windows: the
        # spill actually happened
        assert stats.misses == 5 * len(lazy.chunk_ranges())
        assert stats.decoded_bytes == 5 * 8 * n
        assert stats.decoded_bytes >= 4 * stats.peak_resident_bytes
        lazy.close()

    def test_chunk_size_invariance(self, tmp_path):
        """The histogram is a pure function of the events, not the layout."""
        table = _random_table(5, 3000)
        ref = None
        for chunk in (64, 257, 1024, 4096):
            path = str(tmp_path / f"run_{chunk}.md.h5")
            save_md(path, _workspace(table), chunk_events=chunk)
            lazy = LazyEventTable(path, memory_budget=2 * chunk * ROW_BYTES)
            got = Hist3(GRID, track_errors=True)
            sharded_binmd(got, lazy, TRANSFORMS,
                          shards=ShardConfig(n_shards=2))
            lazy.close()
            if ref is None:
                ref = got
            else:
                assert np.array_equal(got.signal, ref.signal)
                assert np.array_equal(got.error_sq, ref.error_sq)


# ---------------------------------------------------------------------------
# columns zlib cannot halve are stored raw
# ---------------------------------------------------------------------------

def _unit_weight_table(seed: int, n: int) -> np.ndarray:
    """A raw run's shape: unit weights (compressible), random Q (not)."""
    t = _random_table(seed, n)
    t[:, 0] = t[:, 1] = 1.0
    return t


def _stored_codecs(path: str) -> dict:
    with File(path, "r") as f:
        return {name: f.require_dataset(f"{EVENT_COLUMNS_PATH}/{name}").codec
                for name in COLUMN_NAMES}


def _binmd(table_or_lazy) -> Hist3:
    got = Hist3(GRID, track_errors=True)
    if isinstance(table_or_lazy, LazyEventTable):
        sharded_binmd(got, table_or_lazy, TRANSFORMS,
                      shards=ShardConfig(n_shards=2))
    else:
        bin_events(got, EventTable(table_or_lazy), TRANSFORMS,
                   backend="vectorized")
    return got


class TestRawStoredColumns:
    @pytest.mark.parametrize("budget_chunks", BUDGET_CHUNKS)
    @pytest.mark.parametrize("codec", ["zlib", "shuffle-zlib"])
    def test_binmd_bit_identical_under_every_budget(
            self, tmp_path, codec, budget_chunks):
        """Q stored raw next to zlib'd weights: out-of-core BinMD still
        equals the in-memory result bit for bit."""
        chunk = 113
        table = _unit_weight_table(11, 1500)
        path = str(tmp_path / "run.md.h5")
        save_md(path, _workspace(table), chunk_events=chunk, codec=codec)
        stored = _stored_codecs(path)
        assert {stored[q] for q in ("qx", "qy", "qz")} == {"none"}, stored
        assert stored["signal"] == stored["error_sq"] == codec, stored

        budget = (None if budget_chunks is None
                  else budget_chunks * chunk * ROW_BYTES)
        ref = _binmd(table)
        lazy = LazyEventTable(path, memory_budget=budget)
        try:
            got = _binmd(lazy)
            assert np.array_equal(got.signal, ref.signal)
            assert np.array_equal(got.error_sq, ref.error_sq)
            if budget is not None:
                assert lazy.tile_stats.peak_resident_bytes <= budget
        finally:
            lazy.close()

    def test_flipped_byte_in_a_raw_q_chunk_fails_the_binmd(self, tmp_path):
        table = _unit_weight_table(12, 1000)
        path = str(tmp_path / "run.md.h5")
        save_md(path, _workspace(table), chunk_events=128, codec="zlib")
        with File(path, "r") as f:
            qy = f.require_dataset(f"{EVENT_COLUMNS_PATH}/qy")
            assert qy.codec == "none"
            offset = qy._chunk_index[2][0]
        raw = bytearray(pathlib.Path(path).read_bytes())
        raw[offset + 9] ^= 0xFF
        pathlib.Path(path).write_bytes(raw)
        lazy = LazyEventTable(path, memory_budget=2 * 128 * ROW_BYTES)
        try:
            with pytest.raises(CorruptFileError):
                _binmd(lazy)
        finally:
            lazy.close()

    def test_rule_switched_off_loads_bit_identically(
            self, tmp_path, monkeypatch):
        """The same table written with and without the rule: different
        stored codecs, the same decoded bytes and histograms."""
        table = _unit_weight_table(13, 1200)
        new = str(tmp_path / "new.md.h5")
        save_md(new, _workspace(table), chunk_events=100, codec="zlib")
        with monkeypatch.context() as mp:
            mp.setattr(h5lite, "MIN_CODEC_RATIO", 0)
            old = str(tmp_path / "old.md.h5")
            save_md(old, _workspace(table), chunk_events=100, codec="zlib")
        assert set(_stored_codecs(old).values()) == {"zlib"}
        assert _stored_codecs(new)["qx"] == "none"
        ref = _binmd(table)
        for path in (old, new):
            assert np.array_equal(load_md(path).events.data, table)
            lazy = LazyEventTable(path, memory_budget=4 * 100 * ROW_BYTES)
            try:
                got = _binmd(lazy)
                assert np.array_equal(got.signal, ref.signal)
                assert np.array_equal(got.error_sq, ref.error_sq)
            finally:
                lazy.close()


# ---------------------------------------------------------------------------
# the tile manager itself
# ---------------------------------------------------------------------------

class TestTileManager:
    def _chunked(self, tmp_path, n=1000, chunk=128, codec="zlib"):
        path = str(tmp_path / "run.md.h5")
        table = _random_table(0, n)
        save_md(path, _workspace(table), chunk_events=chunk, codec=codec)
        return path, table

    def test_window_equals_slice(self, tmp_path):
        path, table = self._chunked(tmp_path)
        lazy = LazyEventTable(path, memory_budget=4 * 128 * ROW_BYTES)
        for a, b in ((0, 1000), (0, 128), (100, 300), (999, 1000),
                     (128, 256), (500, 500)):
            assert _binmd_window_equals(lazy, table, a, b)
        lazy.close()

    def test_concurrent_windows_through_one_tile_cache(self, tmp_path):
        """Rank threads share a run's table: windows read concurrently
        through its one file handle still come back exact."""
        import sys
        import threading

        path, table = self._chunked(tmp_path, n=1000, chunk=64)
        lazy = LazyEventTable(path, memory_budget=2 * 64 * ROW_BYTES)
        bad, done = [], []

        def reader(seed):
            rng = np.random.default_rng(seed)
            for _ in range(150):
                a = int(rng.integers(0, 1000))
                b = min(1000, a + int(rng.integers(1, 200)))
                if not _binmd_window_equals(lazy, table, a, b):
                    bad.append((a, b))
            done.append(seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(s,))
                       for s in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            lazy.close()
        assert not any(t.is_alive() for t in threads)
        assert sorted(done) == list(range(6)) and bad == []

    def test_decoded_chunks_are_read_only(self, tmp_path):
        path, _ = self._chunked(tmp_path)
        lazy = LazyEventTable(path, memory_budget=None)
        first = lazy.binmd_window(0, 64)  # one chunk: views of its decode
        for col in first:
            with pytest.raises((ValueError, RuntimeError)):
                col[0] = 1.0
        lazy.close()

    def test_materialize_round_trips(self, tmp_path):
        path, table = self._chunked(tmp_path)
        lazy = LazyEventTable(path)
        assert np.array_equal(lazy.materialize().data, table)
        assert np.array_equal(np.asarray(lazy), table)
        assert lazy.n_events == table.shape[0]
        assert len(lazy) == table.shape[0]
        lazy.close()

    def test_rejects_contiguous_dataset(self, tmp_path):
        path = str(tmp_path / "legacy.md.h5")
        save_md(path, _workspace(_random_table(1, 500)))  # legacy layout
        with pytest.raises((TileError, KeyError)):
            LazyEventTable(path).binmd_window(0, 10)

    def test_chunk_weights_count_only_the_streams_binmd_reads(self, tmp_path):
        """The planner's per-chunk I/O weights are the stored bytes of
        the five BinMD streams; the other three are never read."""
        path, _ = self._chunked(tmp_path)
        lazy = LazyEventTable(path)
        with File(path, "r") as f:
            per_column = {
                name: f.require_dataset(
                    f"{EVENT_COLUMNS_PATH}/{name}").chunk_stored_nbytes()
                for name in COLUMN_NAMES}
        read = [COLUMN_NAMES[c] for c in BINMD_COLUMNS]
        assert lazy.chunk_stored_nbytes() == [
            sum(sizes) for sizes in zip(*(per_column[n] for n in read))]
        assert sum(lazy.chunk_stored_nbytes()) < sum(
            sum(sizes) for sizes in per_column.values())
        lazy.close()


# ---------------------------------------------------------------------------
# full pipeline: load_md(memory_budget=...) through compute_cross_section
# ---------------------------------------------------------------------------

class TestFullPipelineOutOfCore:
    @pytest.fixture(scope="class")
    def exp(self, tmp_path_factory):
        from repro.core.cross_section import compute_cross_section
        from repro.core.md_event_workspace import convert_to_md
        from repro.crystal.goniometer import Goniometer
        from repro.crystal.structures import benzil
        from repro.crystal.symmetry import point_group
        from repro.crystal.ub import UBMatrix
        from repro.instruments.corelli import make_corelli
        from repro.instruments.synth import (
            make_flux,
            make_vanadium,
            synthesize_run,
        )

        structure = benzil()
        inst = make_corelli(n_pixels=120)
        ub = UBMatrix.from_u_vectors(structure.cell, [0, 0, 1.0], [1.0, 0, 0])
        grid = HKLGrid.benzil_grid(bins=(13, 13, 1))
        pg = point_group("321")
        flux = make_flux(inst)
        sa = make_vanadium(inst).detector_weights
        wss = []
        for i, om in enumerate((0.0, 55.0, 110.0)):
            run = synthesize_run(
                instrument=inst, structure=structure, ub=ub,
                goniometer=Goniometer(om).rotation, n_events=400,
                rng=np.random.default_rng(8800 + i), run_number=i,
            )
            wss.append(convert_to_md(run, inst, run_index=i))
        md_dir = tmp_path_factory.mktemp("ooc_runs")
        paths = []
        for i, ws in enumerate(wss):
            p = str(md_dir / f"r{i}.md.h5")
            save_md(p, ws, chunk_events=37, codec="shuffle-zlib")
            paths.append(p)

        def compute(loader, **kw):
            kw.setdefault("backend", "vectorized")
            return compute_cross_section(
                loader, len(wss), grid, pg, flux, inst.directions, sa, **kw)

        ref = compute(lambda i: wss[i])
        return dict(paths=paths, compute=compute, ref=ref)

    @pytest.mark.parametrize("shards", [None, 3, 2])
    def test_cross_section_identical(self, exp, forbid_pool, shards):
        forbid_pool()
        budget = 2 * 37 * ROW_BYTES
        tables = []

        def lazy_loader(i):
            ws = load_md(exp["paths"][i], memory_budget=budget)
            tables.append(ws.events)
            return ws

        kw = {}
        if shards is not None:
            kw["shards"] = ShardConfig(n_shards=shards)
        res = exp["compute"](lazy_loader, **kw)
        ref = exp["ref"]
        assert np.array_equal(res.cross_section.signal,
                              ref.cross_section.signal, equal_nan=True)
        assert np.array_equal(res.binmd.signal, ref.binmd.signal)
        assert np.array_equal(res.binmd.error_sq, ref.binmd.error_sq)
        assert np.array_equal(res.mdnorm.signal, ref.mdnorm.signal)
        # every run is read in budget-sized windows, never
        # materialized, and only BinMD's five columns decode, once
        assert len(tables) == 3
        for table in tables:
            assert isinstance(table, LazyEventTable)
            stats = table.tile_stats
            assert stats.decoded_bytes == table.n_events * 5 * 8, stats
            assert 0 < stats.peak_resident_bytes <= budget, stats
            table.close()

    def test_eager_chunked_load_identical(self, exp):
        """Without a budget, chunked files materialize to the same table."""
        res = exp["compute"](lambda i: load_md(exp["paths"][i]))
        ref = exp["ref"]
        assert np.array_equal(res.cross_section.signal,
                              ref.cross_section.signal, equal_nan=True)


# ---------------------------------------------------------------------------
# v1 <-> v2 container back-compat (golden files)
# ---------------------------------------------------------------------------

def _golden_table() -> np.ndarray:
    """Deterministic, integer-valued-float table: platform-stable bits."""
    n = 400
    t = np.zeros((n, 8))
    idx = np.arange(n, dtype=np.float64)
    t[:, 0] = 1.0 + (idx % 7.0)
    t[:, 1] = t[:, 0]
    t[:, 3] = idx % 50.0
    t[:, 5] = (idx % 11.0) - 5.0
    t[:, 6] = (idx % 9.0) - 4.0
    t[:, 7] = (idx % 5.0) - 2.0
    return t


class TestContainerBackCompat:
    def test_golden_v1_reads_bit_for_bit(self):
        path = os.path.join(GOLDEN_DIR, "events_v1.h5")
        with File(path, "r") as f:
            assert f.version == 1
            data = f.read("MDEventWorkspace/event_data")
        assert np.array_equal(np.ascontiguousarray(data.T), _golden_table())

    def test_golden_v2_chunked_reads_bit_for_bit(self):
        path = os.path.join(GOLDEN_DIR, "events_v2_chunked.h5")
        with File(path, "r") as f:
            assert f.version == 2
            ds = f.require_dataset(EVENT_TABLE_PATH)
            assert ds.is_chunked and ds.n_chunks == 4  # 400 events / 128
            data = f.read(EVENT_TABLE_PATH)
        assert np.array_equal(data, _golden_table())

    def test_golden_v1_loads_through_load_md(self):
        ws = load_md(os.path.join(GOLDEN_DIR, "events_v1.h5"))
        assert np.array_equal(ws.events.data, _golden_table())

    def test_golden_v1_to_v2_rewrite_round_trips(self, tmp_path):
        ws = load_md(os.path.join(GOLDEN_DIR, "events_v1.h5"))
        out = str(tmp_path / "rewritten_v2.md.h5")
        save_md(out, ws, chunk_events=64, codec="zlib")
        ws2 = load_md(out)
        assert np.array_equal(ws2.events.data, _golden_table())
        lazy = LazyEventTable(out, memory_budget=64 * ROW_BYTES)
        assert np.array_equal(lazy.materialize().data, _golden_table())
        assert _binmd_window_equals(lazy, _golden_table(), 0, 400)
        lazy.close()

    def test_golden_v2_row_major_loads_eagerly_and_lazily(self):
        """The row-major chunked layout this repo wrote before the
        column streams still loads, bit for bit, both ways."""
        path = os.path.join(GOLDEN_DIR, "events_v2_chunked.h5")
        table = _golden_table()
        with File(path, "r") as f:  # the fixture as written, zlib chunks
            ds = f.require_dataset(EVENT_TABLE_PATH)
            assert ds.codec == "zlib"
            assert ds.chunk_stored_nbytes() == [1024, 1034, 1045, 185]
        assert np.array_equal(load_md(path).events.data, table)
        ws = load_md(path, memory_budget=128 * ROW_BYTES)
        lazy = ws.events
        try:
            assert isinstance(lazy, LazyEventTable) and not lazy.columnar
            assert lazy.row_nbytes == ROW_BYTES  # whole rows decode
            assert np.array_equal(lazy.materialize().data, table)
            for a, b in ((0, 400), (100, 300), (127, 129)):
                assert _binmd_window_equals(lazy, table, a, b)
        finally:
            lazy.close()

    @pytest.mark.parametrize("codec", CODECS)
    def test_row_major_and_column_layouts_reduce_identically(
            self, tmp_path, codec):
        """One table in both chunked layouts: the same histograms, and
        the column layout decodes 5/8 of the bytes."""
        table = _random_table(7, 900)
        old = str(tmp_path / "row_major.md.h5")
        with File(old, "w") as f:
            grp = f.create_group("MDEventWorkspace")
            grp.create_dataset("event_table", data=table, chunk_rows=100,
                               codec=codec)
            grp.create_dataset("run_number", data=np.array(7, dtype=np.int64))
            grp.create_dataset("goniometer", data=np.eye(3))
            grp.create_dataset("proton_charge", data=np.array(1.0))
            grp.create_dataset("momentum_band", data=np.array([0.5, 5.0]))
        new = str(tmp_path / "columns.md.h5")
        save_md(new, _workspace(table), chunk_events=100, codec=codec)
        with File(new, "r") as f:
            assert "event_table" not in f["MDEventWorkspace"]
            assert f[EVENT_COLUMNS_PATH].keys() == set(COLUMN_NAMES)

        ref = Hist3(GRID, track_errors=True)
        bin_events(ref, EventTable(table), TRANSFORMS, backend="vectorized")
        decoded = {}
        for label, path in (("rows", old), ("columns", new)):
            assert np.array_equal(load_md(path).events.data, table)
            lazy = load_md(path, memory_budget=4 * 100 * ROW_BYTES).events
            got = Hist3(GRID, track_errors=True)
            sharded_binmd(got, lazy, TRANSFORMS,
                          shards=ShardConfig(n_shards=2))
            assert np.array_equal(got.signal, ref.signal), label
            assert np.array_equal(got.error_sq, ref.error_sq), label
            decoded[label] = lazy.tile_stats.decoded_bytes
            lazy.close()
        assert decoded["rows"] == table.nbytes
        assert decoded["columns"] * 8 == table.nbytes * 5

    def test_v1_writer_is_still_available(self, tmp_path):
        """New code can still emit v1 containers, byte-deterministically."""
        table = _golden_table()

        def write(path):
            with File(path, "w", version=1) as f:
                grp = f.create_group("MDEventWorkspace")
                grp.create_dataset(
                    "event_data", data=np.ascontiguousarray(table.T),
                    compression="zlib",
                )
                grp.create_dataset("run_number",
                                   data=np.array(3, dtype=np.int64))

        a, b = str(tmp_path / "a.h5"), str(tmp_path / "b.h5")
        write(a)
        write(b)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()
        with File(a, "r") as f:
            assert f.version == 1
            assert np.array_equal(
                f.read("MDEventWorkspace/event_data"), table.T)
