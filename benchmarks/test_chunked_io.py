"""Chunked-container I/O: per-codec decode cost, cold vs warm tiles.

ISSUE 6 moves the event tables onto the v2 chunked container so the
reduction can stream bounded windows instead of materializing whole
tables.  This benchmark prices that choice:

* **cold scan** — every chunk decoded from disk through the
  :class:`~repro.nexus.tiles.TileManager` (all misses), per codec;
* **warm scan** — the same windows again with the decoded chunks
  resident (all hits, zero decodes): the tile cache must make repeat
  access free, which is what the shard executor's re-reads rely on;
* **budgeted scan** — an LRU budget ~4x smaller than the table: the
  scan must still complete (evicting as it goes) with peak decoded
  residency under the budget, the out-of-core acceptance bound.

Each row is labelled with the codec ``save_md`` was asked for.  The
writer stores a column raw when that codec cannot halve it (the random
Q columns under ``zlib``), so the ``stored raw`` column lists, per
row, the columns whose recorded codec is ``none``.

Correctness is asserted always (accounting invariants + the residency
bound + bit-identical reads); timings are reported, never gated.  The
end-to-end out-of-core timing is the ``benzil_ooc_shards`` workload of
``perfbench/run.py``.
"""

import time

import numpy as np
import pytest

from conftest import record_report
from repro.bench.report import format_table
from repro.core.md_event_workspace import load_md, save_md
from repro.nexus.events import COLUMN_NAMES
from repro.nexus.h5lite import CHUNK_CODECS, File
from repro.nexus.tiles import EVENT_COLUMNS_PATH, TileManager

CHUNK_ROWS = 1024


def _columns(f):
    """The eight column datasets of a chunked SaveMD file."""
    return [f.require_dataset(f"{EVENT_COLUMNS_PATH}/{name}")
            for name in COLUMN_NAMES]


@pytest.fixture(scope="module")
def chunked_files(benzil_data, tmp_path_factory):
    """The first Benzil run re-saved chunked, once per codec."""
    tmp = tmp_path_factory.mktemp("chunked_io")
    ws = load_md(benzil_data.md_paths[0])
    paths = {}
    for codec in CHUNK_CODECS:
        path = tmp / f"run_{codec.replace('-', '_')}.h5"
        save_md(path, ws, chunk_events=CHUNK_ROWS, codec=codec)
        paths[codec] = path
    return ws, paths


def _scan(tiles, ds):
    """One full sequential pass of chunk-aligned windows, every column."""
    t0 = time.perf_counter()
    total = 0
    for a, b in ds.chunk_ranges():
        total += tiles.window(a, b)[0].shape[0]
    return time.perf_counter() - t0, total


def test_cold_vs_warm_tile_scan(chunked_files):
    """Warm re-reads decode nothing; the table prices each codec."""
    ws, paths = chunked_files
    raw_mb = ws.events.data.nbytes / 2**20
    rows = []
    for codec, path in paths.items():
        with File(path, "r") as f:
            cols = _columns(f)
            ds = cols[0]
            stored = sum(sum(c.chunk_stored_nbytes()) for c in cols)
            raw_cols = [c.basename for c in cols if c.codec == "none"]
            tiles = TileManager(cols)  # unlimited budget: nothing evicts
            cold_s, n_cold = _scan(tiles, ds)
            warm_s, n_warm = _scan(tiles, ds)
            stats = tiles.stats
            # accounting invariants: one miss per column stream cold,
            # one hit per stream warm, the warm scan decoded zero bytes
            streams = ds.n_chunks * len(cols)
            assert n_cold == n_warm == ws.events.n_events
            assert stats.misses == streams, stats.snapshot()
            assert stats.hits == streams, stats.snapshot()
            assert stats.evictions == 0, stats.snapshot()
            assert stats.decoded_bytes == ws.events.data.nbytes
            rows.append((
                codec,
                "all" if len(raw_cols) == len(cols) else
                ",".join(raw_cols) or "-",
                f"{stored / 2**20:.2f}",
                f"{ws.events.data.nbytes / max(stored, 1):.2f}x",
                f"{cold_s:.4f}",
                f"{raw_mb / max(cold_s, 1e-9):.0f}",
                f"{warm_s:.4f}",
                f"{cold_s / max(warm_s, 1e-9):.1f}x",
            ))
    record_report(
        "chunked_io",
        format_table(
            f"Chunked event I/O ({ws.events.n_events} events, "
            f"{raw_mb:.2f} MB raw, {CHUNK_ROWS}-row chunks)",
            ["codec", "stored raw", "stored MB", "ratio", "cold scan (s)",
             "decode MB/s", "warm scan (s)", "warm speedup"],
            rows,
        ),
    )


@pytest.mark.parametrize("codec", CHUNK_CODECS)
def test_budgeted_scan_bounded_and_identical(chunked_files, codec):
    """A scan through a budget ~4x smaller than the table completes
    with peak residency under the budget and reads the exact bytes."""
    ws, paths = chunked_files
    budget = max(CHUNK_ROWS * 64 * 2, ws.events.data.nbytes // 4)
    with File(paths[codec], "r") as f:
        cols = _columns(f)
        ds = cols[0]
        tiles = TileManager(cols, budget_bytes=budget)
        parts = [np.stack(tiles.window(a, b)) for a, b in ds.chunk_ranges()]
        stats = tiles.stats
    assert np.array_equal(np.concatenate(parts, axis=1), ws.events.cols)
    if ds.nbytes * len(cols) > budget:
        assert stats.evictions > 0, stats.snapshot()
    assert 0 < stats.peak_resident_bytes <= budget, stats.snapshot()
