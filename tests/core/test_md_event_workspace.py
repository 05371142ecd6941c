"""Unit tests for MDEvent conversion and SaveMD/LoadMD."""

import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.core.binmd import binmd_cache_key
from repro.core.geom_cache import digest_array, digest_leaves
from repro.core.grid import HKLGrid
from repro.core.md_event_workspace import (
    ALL_COLUMNS,
    WRITE_ORDER,
    MDEventWorkspace,
    begin_md,
    convert_to_md,
    load_md,
    save_md,
)
from repro.instruments.conversion import momentum_from_q_elastic
from repro.nexus.events import (
    BINMD_COLUMNS,
    COL_DETECTOR_ID,
    COL_GONIOMETER_INDEX,
    COL_Q,
    COL_QX,
    COL_RUN_INDEX,
    COL_SIGNAL,
    COLUMN_NAMES,
    EventTable,
    RunData,
    UnreadColumnError,
)
from repro.nexus import h5lite
from repro.nexus.h5lite import File
from repro.util import bytesplit
from repro.util.validation import ValidationError

SPLIT = bytesplit.SPLIT_BYTES


class TestConvertToMd:
    def test_basic_conversion(self, tiny_experiment):
        run = tiny_experiment.runs[0]
        ws = convert_to_md(run, tiny_experiment.instrument, run_index=4)
        assert ws.n_events == run.n_events
        assert np.all(ws.events.data[:, COL_RUN_INDEX] == 4)
        assert np.array_equal(
            ws.events.data[:, COL_DETECTOR_ID], run.detector_ids.astype(float)
        )
        assert np.array_equal(ws.events.data[:, COL_SIGNAL],
                              run.weights.astype(np.float64))

    def test_q_sample_is_goniometer_corrected(self, tiny_experiment):
        """Rotating Q_sample by the goniometer must give elastic Q_lab."""
        run = tiny_experiment.runs[1]  # omega = 40 deg
        ws = convert_to_md(run, tiny_experiment.instrument)
        q_lab = ws.events.q_sample @ run.goniometer.T
        k = momentum_from_q_elastic(q_lab)
        assert np.all(np.isfinite(k))
        k_lo, k_hi = ws.momentum_band
        assert np.all(k >= k_lo * (1 - 1e-9))
        assert np.all(k <= k_hi * (1 + 1e-9))

    def test_momentum_band_from_wavelength_band(self, tiny_experiment):
        run = tiny_experiment.runs[0]
        ws = convert_to_md(run, tiny_experiment.instrument)
        lam_lo, lam_hi = run.wavelength_band
        assert ws.momentum_band[0] == pytest.approx(2 * np.pi / lam_hi)
        assert ws.momentum_band[1] == pytest.approx(2 * np.pi / lam_lo)

    def test_invalid_pixel_rejected(self, tiny_experiment):
        run = tiny_experiment.runs[0]
        bad = RunData(
            run_number=0,
            detector_ids=np.array([10**6], dtype=np.uint32),
            tof=np.array([1000.0]),
            weights=np.array([1.0], dtype=np.float32),
            goniometer=np.eye(3),
            proton_charge=1.0,
            wavelength_band=run.wavelength_band,
        )
        with pytest.raises(ValidationError, match="references pixel"):
            convert_to_md(bad, tiny_experiment.instrument)


class TestWorkspaceValidation:
    def _ws(self, **over):
        kwargs = dict(
            events=EventTable.empty(),
            run_number=0,
            goniometer=np.eye(3),
            proton_charge=1.0,
            momentum_band=(2.0, 10.0),
        )
        kwargs.update(over)
        return MDEventWorkspace(**kwargs)

    def test_ok(self):
        assert self._ws().n_events == 0

    def test_bad_band(self):
        with pytest.raises(ValidationError, match="momentum_band"):
            self._ws(momentum_band=(10.0, 2.0))

    def test_bad_charge(self):
        with pytest.raises(ValidationError, match="proton_charge"):
            self._ws(proton_charge=-1.0)


def _offsets(path, name):
    """``[offset, stored, crc, rows]`` of each chunk of one column."""
    with File(path, "r") as f:
        return f[f"MDEventWorkspace/event_columns/{name}"]._chunk_index


def _flip(path, offset, mask=0x40):
    raw = bytearray(Path(path).read_bytes())
    raw[offset] ^= mask
    Path(path).write_bytes(raw)


class TestSaveLoad:
    def test_roundtrip(self, tiny_experiment, tmp_path):
        ws = tiny_experiment.workspaces[0]
        path = str(tmp_path / "ws.md.h5")
        save_md(path, ws)
        back = load_md(path)
        assert back.run_number == ws.run_number
        assert back.proton_charge == ws.proton_charge
        assert back.momentum_band == ws.momentum_band
        assert np.allclose(back.goniometer, ws.goniometer)
        assert np.allclose(back.ub_matrix, ws.ub_matrix)
        assert np.array_equal(back.events.data, ws.events.data)

    def test_on_disk_layout_is_transposed(self, tiny_experiment, tmp_path):
        """The file stores the table by column, the table's own layout:
        one raw one-chunk stream per column, BinMD's five first and
        back to back, and the Q digest in the header."""
        ws = tiny_experiment.workspaces[0]
        path = str(tmp_path / "ws.md.h5")
        save_md(path, ws)
        with File(path, "r") as f:
            grp = f["MDEventWorkspace"]
            assert "event_data" not in grp
            columns = grp["event_columns"]
            assert columns.attrs["q_digest"] == digest_array(ws.events.q_rows)
            chunks = []
            for c in WRITE_ORDER:
                ds = columns[COLUMN_NAMES[c]]
                assert ds.shape == (ws.n_events,) and ds.codec == "none"
                assert ds.n_chunks == 1
                chunks += ds._chunk_index
        assert [c[1] for c in chunks] == [8 * ws.n_events] * 8
        for prev, cur in zip(chunks, chunks[1:]):
            assert cur[0] == prev[0] + prev[1]

    @pytest.mark.parametrize("codec", [None, "zlib"])
    def test_loaded_table_is_the_checked_payload(
        self, tiny_experiment, tmp_path, monkeypatch, codec
    ):
        """A read column, of a reduction's load or of ``load_md``, is
        the very bytes its CRC32 checked (stored raw) or inflated from
        them (zlib): float64 and read-only, not copied.  ``load_md``'s
        ``cols`` stacks the eight on first use."""
        ws = tiny_experiment.workspaces[0]
        path = str(tmp_path / "ws.md.h5")
        save_md(path, ws, codec=codec)
        checked = []
        crc32 = zlib.crc32
        decompress = zlib.decompress

        def spy_crc32(data, *args):
            checked.append(data)
            return crc32(data, *args)

        def spy_decompress(data, *args):
            checked.append(decompress(data, *args))
            return checked[-1]

        monkeypatch.setattr(h5lite.zlib, "crc32", spy_crc32)
        monkeypatch.setattr(h5lite.zlib, "decompress", spy_decompress)
        partial = begin_md(path).join(BINMD_COLUMNS).events
        whole = load_md(path).events
        for table, columns in ((partial, BINMD_COLUMNS), (whole, ALL_COLUMNS)):
            for c in columns:
                col = table.column(c)
                assert col.dtype == np.float64 and col.strides == (8,)
                assert not col.flags.writeable
                base = _base(col)
                assert any(base is (b.obj if isinstance(b, memoryview) else b)
                           for b in checked), COLUMN_NAMES[c]
                assert np.array_equal(col, ws.events.column(c))
        full = whole.cols
        assert full.shape == (8, ws.n_events) and not full.flags.writeable
        assert np.array_equal(full, ws.events.cols)

    def test_split_payload_is_the_checked_payload(
        self, large_experiment, monkeypatch
    ):
        """The Q rows of a run of 2 MiB or more are hashed as two
        SHA-256 leaves over views of the very buffer the loaded Q
        columns sit on, and they give the stored digest."""
        hashed = []
        sha256 = bytesplit.sha256

        def spy_sha256(data):
            hashed.append(data)
            return sha256(data)

        monkeypatch.setattr(bytesplit, "sha256", spy_sha256)
        pending = begin_md(large_experiment.md_paths[0])
        pending.start(BINMD_COLUMNS, keyed=True)
        table = pending.join().events
        base = _base(table.column(COL_QX))
        views = [v for v in hashed
                 if isinstance(v, memoryview) and v.obj is base]
        assert len(views) == 2
        assert sum(v.nbytes for v in views) == table.q_rows.nbytes >= SPLIT
        q = large_experiment.workspaces[0].events.q_rows
        assert table.q_digest == digest_array(q)
        assert np.array_equal(table.q_rows, q)

    def test_chunked_eager_load_transposes_once(self, tiny_experiment, tmp_path):
        ws = tiny_experiment.workspaces[0]
        path = str(tmp_path / "ws.md.h5")
        save_md(path, ws, chunk_events=7)
        cols = load_md(path).events.cols
        assert cols.flags.c_contiguous and cols.flags.owndata
        assert np.array_equal(cols, ws.events.cols)

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_runs_roundtrip(self, tmp_path, n):
        rows = np.arange(8.0 * n).reshape(n, 8) + 0.25
        ws = MDEventWorkspace(events=EventTable(rows), run_number=1,
                              goniometer=np.eye(3), proton_charge=1.0,
                              momentum_band=(1.0, 5.0))
        path = str(tmp_path / "tiny.md.h5")
        save_md(path, ws)
        back = load_md(path).events
        assert back.cols.shape == (8, n) and back.n_events == n
        assert np.array_equal(back.data, rows)
        pending = begin_md(path)
        pending.close()
        assert pending.q_digest == digest_array(ws.events.q_rows)

    def test_wrong_shape_rejected(self, tmp_path):
        path = str(tmp_path / "bad.md.h5")
        with File(path, "w") as f:
            grp = f.create_group("MDEventWorkspace")
            grp.create_dataset("event_data", data=np.zeros((5, 7)))
        with pytest.raises(ValidationError, match="event_data"):
            load_md(path)

    def test_row_major_legacy_payload_rejected(self, tiny_experiment, tmp_path):
        """An (n, 8) event_data is not silently adopted as columns."""
        ws = tiny_experiment.workspaces[0]
        path = str(tmp_path / "bad.md.h5")
        with File(path, "w") as f:
            grp = f.create_group("MDEventWorkspace")
            grp.create_dataset("event_data", data=ws.events.data)
        with pytest.raises(ValidationError, match="event_data"):
            load_md(path)

    def test_corrupt_payload_rejected(self, tiny_experiment, tmp_path):
        path = str(tmp_path / "ws.md.h5")
        save_md(path, tiny_experiment.workspaces[0])
        _flip(path, _offsets(path, "signal")[0][0] + 13)
        with pytest.raises(h5lite.CorruptFileError, match="checksum"):
            load_md(path)

    @pytest.mark.parametrize("where", ["start", "end"])
    def test_corrupt_split_payload_rejected(self, large_experiment, tmp_path,
                                            where):
        """A flipped byte at either end of a 2 MiB-or-more read (the
        first stream's first bytes, the last stream's last) is caught."""
        path = str(tmp_path / "ws.md.h5")
        Path(path).write_bytes(Path(large_experiment.md_paths[0]).read_bytes())
        if where == "start":
            offset = _offsets(path, "signal")[0][0] + 13
        else:
            last = _offsets(path, "goniometer_index")[-1]
            offset = last[0] + last[1] - 13
        _flip(path, offset)
        with pytest.raises(h5lite.CorruptFileError, match="checksum"):
            load_md(path)

    def test_truncated_file_rejected(self, tiny_experiment, tmp_path):
        path = str(tmp_path / "ws.md.h5")
        save_md(path, tiny_experiment.workspaces[0])
        cut = _offsets(path, "signal")[0][0] + 64
        raw = Path(path).read_bytes()
        Path(path).write_bytes(raw[:cut])
        with pytest.raises(h5lite.H5LiteError):
            load_md(path)

    def test_roundtrip_without_ub(self, tmp_path):
        ws = MDEventWorkspace(
            events=EventTable.empty(),
            run_number=3,
            goniometer=np.eye(3),
            proton_charge=2.0,
            momentum_band=(1.0, 5.0),
        )
        path = str(tmp_path / "noub.md.h5")
        save_md(path, ws)
        assert load_md(path).ub_matrix is None


def _save_events(path, n, seed=0, **kw):
    """A run of ``n`` random events (eight raw columns of ``8 n``
    bytes each); returns its columns."""
    cols = np.random.default_rng(seed).normal(size=(8, n))
    save_md(path, MDEventWorkspace(
        events=EventTable.from_cols(cols), run_number=1,
        goniometer=np.eye(3), proton_charge=1.0, momentum_band=(1.0, 5.0),
        ub_matrix=np.eye(3)), **kw)
    return cols


def _base(arr):
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return arr.obj if isinstance(arr, memoryview) else arr


class TestBegunLoad:
    """``begin_md`` + ``start`` + ``join``: the columns asked for are
    read, CRC'd and (with Q) hashed on the helper, and the result is
    what ``load_md`` returns for them, bit for bit."""

    @pytest.mark.parametrize("n", [0, 1, SPLIT // 64 - 1, SPLIT // 64,
                                   SPLIT // 64 + 1])
    def test_started_join_equals_load_md(self, tmp_path, bytesplit_helper, n):
        path = str(tmp_path / "run.md.h5")
        cols = _save_events(path, n)
        pending = begin_md(path)
        pending.start(BINMD_COLUMNS, keyed=True)
        table = pending.join().events
        for c in BINMD_COLUMNS:
            col = table.column(c)
            assert col.view(np.int64).tobytes() == cols[c].view(np.int64).tobytes()
            assert not col.flags.writeable
        for c in (COL_RUN_INDEX, COL_DETECTOR_ID, COL_GONIOMETER_INDEX):
            with pytest.raises(UnreadColumnError):
                table.column(c)
        with pytest.raises(UnreadColumnError):
            table.cols
        assert table.q_digest == digest_array(cols[COL_Q])
        full = load_md(path).events
        assert full.q_digest is None  # its Q rows were not hashed
        assert np.array_equal(full.cols, cols)

    @pytest.mark.parametrize("n", [(SPLIT // 24) - 1, SPLIT // 24,
                                   (SPLIT // 24) + 1])
    def test_key_from_leaves_is_the_digest(self, tmp_path, bytesplit_helper, n):
        """The Q rows (24 bytes an event) straddle the split size: the
        stored digest is ``digest_array`` of them, the leaves the join
        hashed give it, and a table's key is the in-memory one."""
        path = str(tmp_path / "run.md.h5")
        cols = _save_events(path, n)
        q = np.ascontiguousarray(cols[COL_Q])
        pending = begin_md(path)
        assert pending.q_digest == digest_array(q)
        assert digest_leaves(q.dtype, q.shape, bytesplit.sha256_halves(
            q.reshape(-1).view(np.uint8))) == pending.q_digest
        pending.start(BINMD_COLUMNS, keyed=True)
        table = pending.join().events
        grid = HKLGrid.benzil_grid(bins=(5, 5, 1))
        ops = np.eye(3)[None]
        assert (binmd_cache_key(grid, ops, table)
                == binmd_cache_key(grid, ops, EventTable.from_cols(cols)))

    @pytest.mark.parametrize("nbytes", [SPLIT - 1, SPLIT, SPLIT + 1])
    def test_payload_job_around_the_split(self, tmp_path, monkeypatch,
                                          bytesplit_helper, nbytes):
        """Byte-exact raw streams around the split size: each stream is
        CRC-checked on its own, in one range below the split size and
        in two halves from it up, over views of the very buffer the
        arrays sit on; the hashed datasets' leaves cut as
        ``sha256_halves`` cuts their bytes joined."""
        rng = np.random.default_rng(3)
        first = np.frombuffer(rng.bytes(nbytes), dtype=np.uint8)
        second = np.frombuffer(rng.bytes(64), dtype=np.uint8)
        path = str(tmp_path / "blob.h5")
        with File(path, "w") as f:
            f.create_dataset("a", data=first, chunk_rows=nbytes)
            f.create_dataset("b", data=second, chunk_rows=64)
        checked = []
        crc32 = zlib.crc32

        def spy_crc32(buf, *args):
            checked.append(buf)
            return crc32(buf, *args)

        monkeypatch.setattr(h5lite.zlib, "crc32", spy_crc32)
        with File(path, "r") as f:
            read = h5lite.PayloadRead([f["a"], f["b"]], hashed=[0, 1])
            assert read.start()
            got = read.join()
        assert got[0].tobytes() == first.tobytes()
        assert got[1].tobytes() == second.tobytes()
        assert read.leaves == bytesplit.sha256_halves(
            np.concatenate([first, second]))
        views = [c.nbytes for c in checked if isinstance(c, memoryview)
                 and c.obj is _base(got[0])]
        halves = [nbytes // 2, nbytes - nbytes // 2]
        assert sorted(views) == sorted(
            (halves if nbytes >= SPLIT else [nbytes]) + [64])

    @pytest.mark.parametrize("stream", ["a", "b"])
    def test_a_flipped_stream_is_named(self, tmp_path, stream):
        """Every stream is checked against its own CRC32, so a bad one
        is named without a second pass; a large stream's two halves
        are joined for its check."""
        path = str(tmp_path / "blob.h5")
        with File(path, "w") as f:
            f.create_dataset("a", data=np.arange(SPLIT // 8, dtype=np.float64),
                             chunk_rows=SPLIT // 8)
            f.create_dataset("b", data=np.arange(100.0), chunk_rows=100)
        with File(path, "r") as f:
            offset = f[stream]._chunk_index[0][0]
        _flip(path, offset + 3, 0x01)
        with File(path, "r") as f:
            read = h5lite.PayloadRead([f["a"], f["b"]])
            with pytest.raises(h5lite.CorruptFileError,
                               match=f"chunk 0 of dataset '/{stream}'"):
                read.join()

    @pytest.mark.parametrize("where", [0, SPLIT // 2 - 1, SPLIT // 2, SPLIT])
    def test_started_join_catches_a_flipped_byte(self, tmp_path,
                                                 bytesplit_helper, where):
        path = str(tmp_path / "run.md.h5")
        _save_events(path, SPLIT // 64 + 1)
        _flip(path, _offsets(path, "signal")[0][0] + where, 0x01)
        pending = begin_md(path)
        pending.start(ALL_COLUMNS)
        with pytest.raises(h5lite.CorruptFileError, match="checksum"):
            pending.join()

    def test_metadata_is_read_at_begin(self, tiny_experiment):
        ws = tiny_experiment.workspaces[0]
        pending = begin_md(tiny_experiment.md_paths[0])
        try:
            assert pending.ws.events is None
            assert np.array_equal(pending.ws.ub_matrix, ws.ub_matrix)
            assert np.array_equal(pending.ws.goniometer, ws.goniometer)
            assert pending.ws.momentum_band == ws.momentum_band
            assert pending.ws.proton_charge == ws.proton_charge
            assert pending.q_digest == digest_array(ws.events.q_rows)
        finally:
            pending.close()

    def test_close_abandons_a_started_job(self, tiny_experiment,
                                          bytesplit_helper):
        pending = begin_md(tiny_experiment.md_paths[0])
        pending.start(BINMD_COLUMNS)
        pending.close()
        pending.close()
        assert pending.ws.events is None

    def test_dropped_load_warns(self, tiny_experiment):
        pending = begin_md(tiny_experiment.md_paths[0])
        with pytest.warns(ResourceWarning, match="never joined or closed"):
            pending.__del__()
        pending.close()
