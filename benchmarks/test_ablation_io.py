"""I/O ablation: SaveMD storage format vs UpdateEvents cost.

The paper's Bixbyite runs are dominated by loading 206 GB of event
files, and it notes "substantial optimization opportunities might exist
on certain network file systems."  This bench quantifies one such
opportunity in this stack: SaveMD's column streams stored raw vs
requested as zlib (``codec=``; a column zlib cannot halve, such as Q,
is stored raw) — bytes on disk vs load (UpdateEvents) wall-clock.
"""

import os
import tempfile
import time

from conftest import record_report
from repro.bench.report import format_table
from repro.core.md_event_workspace import load_md, save_md


def test_ablation_savemd_compression(benchmark, bixbyite_data):
    ws = load_md(bixbyite_data.md_paths[0])
    tmp = tempfile.mkdtemp(prefix="repro_io_")
    rows = []
    loaded = {}
    for label, codec in (("raw", "none"), ("zlib", "zlib")):
        path = os.path.join(tmp, f"events_{label}.md.h5")
        t0 = time.perf_counter()
        save_md(path, ws, codec=codec)
        save_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        back = load_md(path)
        load_s = time.perf_counter() - t0
        loaded[label] = back
        rows.append(
            (
                label,
                f"{os.path.getsize(path) / 1e6:.2f} MB",
                f"{save_s:.4f}",
                f"{load_s:.4f}",
            )
        )

    # benchmark datapoint: warm repeated loads of the raw layout
    benchmark(load_md, os.path.join(tmp, "events_raw.md.h5"))

    record_report(
        "ablation_io_compression",
        format_table(
            "I/O ablation: SaveMD raw vs zlib (one Bixbyite file, "
            f"{ws.n_events} events)",
            ["format", "size", "save (s)", "UpdateEvents (s)"],
            rows,
        ),
    )

    import numpy as np

    assert np.array_equal(loaded["raw"].events.data, loaded["zlib"].events.data)
    raw_size = os.path.getsize(os.path.join(tmp, "events_raw.md.h5"))
    zlib_size = os.path.getsize(os.path.join(tmp, "events_zlib.md.h5"))
    assert zlib_size < raw_size  # event tables always deflate somewhat
