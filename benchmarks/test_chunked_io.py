"""Chunked-container I/O: per-codec decode cost of a full scan.

The event tables live on the v2 chunked container so the reduction can
stream bounded windows instead of materializing whole tables.  This
benchmark prices that choice:

* **scan** — every chunk-aligned window of the table read through a
  :class:`~repro.nexus.tiles.TileManager`, per codec: each stream is
  decoded exactly once (nothing is kept, so nothing hits);
* **budgeted scan** — BinMD's five columns read in the windows the
  out-of-core planner cuts for a budget ~4x smaller than the table
  (:func:`~repro.mpi.decomposition.lazy_table_ranges`): the scan reads
  the exact bytes, and no window decodes more than the budget, the
  out-of-core acceptance bound.

Each row is labelled with the codec ``save_md`` was asked for.  The
writer stores a column raw when that codec cannot halve it (the random
Q columns under ``zlib``), so the ``stored raw`` column lists, per
row, the columns whose recorded codec is ``none``.

Correctness is asserted always (decode accounting + the window bound
+ bit-identical reads); timings are reported, never gated.  The
end-to-end out-of-core timing is the ``benzil_ooc_shards`` workload of
``perfbench/run.py``.
"""

import time

import numpy as np
import pytest

from conftest import record_report
from repro.bench.report import format_table
from repro.core.md_event_workspace import load_md, save_md
from repro.mpi.decomposition import lazy_table_ranges
from repro.nexus.events import BINMD_COLUMNS, COLUMN_NAMES
from repro.nexus.h5lite import CHUNK_CODECS, File
from repro.nexus.tiles import EVENT_COLUMNS_PATH, LazyEventTable, TileManager

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


def test_tile_scan(chunked_files):
    """One scan decodes every stream once; the table prices each codec."""
    ws, paths = chunked_files
    raw_mb = ws.events.data.nbytes / 2**20
    rows = []
    for codec, path in paths.items():
        with File(path, "r") as f:
            cols = _columns(f)
            ds = cols[0]
            stored = sum(sum(c.chunk_stored_nbytes()) for c in cols)
            raw_cols = [c.basename for c in cols if c.codec == "none"]
            tiles = TileManager(cols)
            t0 = time.perf_counter()
            n_rows = sum(tiles.window(a, b)[0].shape[0]
                         for a, b in ds.chunk_ranges())
            scan_s = time.perf_counter() - t0
            stats = tiles.stats
            assert n_rows == ws.events.n_events
            assert stats.misses == ds.n_chunks * len(cols), stats.snapshot()
            assert stats.hits == 0, stats.snapshot()
            assert stats.decoded_bytes == ws.events.data.nbytes
            rows.append((
                codec,
                "all" if len(raw_cols) == len(cols) else
                ",".join(raw_cols) or "-",
                f"{stored / 2**20:.2f}",
                f"{ws.events.data.nbytes / max(stored, 1):.2f}x",
                f"{scan_s:.4f}",
                f"{raw_mb / max(scan_s, 1e-9):.0f}",
            ))
    record_report(
        "chunked_io",
        format_table(
            f"Chunked event I/O ({ws.events.n_events} events, "
            f"{raw_mb:.2f} MB raw, {CHUNK_ROWS}-row chunks)",
            ["codec", "stored raw", "stored MB", "ratio", "scan (s)",
             "decode MB/s"],
            rows,
        ),
    )


@pytest.mark.parametrize("codec", CHUNK_CODECS)
def test_budgeted_scan_bounded_and_identical(chunked_files, codec):
    """The planner's windows under a budget ~4x smaller than the BinMD
    columns read those columns exactly, each window within the budget."""
    ws, paths = chunked_files
    n = ws.events.n_events
    binmd_nbytes = len(BINMD_COLUMNS) * 8 * n
    budget = max(CHUNK_ROWS * 40 * 2, binmd_nbytes // 4)
    lazy = LazyEventTable(paths[codec], memory_budget=budget)
    try:
        windows = [lazy.binmd_window(a, b)
                   for a, b in lazy_table_ranges(lazy, 1)]
        stats = lazy.tile_stats
    finally:
        lazy.close()
    got = np.concatenate([np.stack(w) for w in windows], axis=1)
    assert np.array_equal(got, ws.events.cols[list(BINMD_COLUMNS)])
    assert stats.decoded_bytes == binmd_nbytes, stats.snapshot()
    assert 0 < stats.peak_resident_bytes <= budget, stats.snapshot()
