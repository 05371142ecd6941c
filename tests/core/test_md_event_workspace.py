"""Unit tests for MDEvent conversion and SaveMD/LoadMD."""

import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.core.geom_cache import digest_array, digest_leaves
from repro.core.md_event_workspace import (
    MDEventWorkspace,
    begin_md,
    convert_to_md,
    load_md,
    save_md,
)
from repro.instruments.conversion import momentum_from_q_elastic
from repro.nexus.events import (
    COL_DETECTOR_ID,
    COL_Q,
    COL_RUN_INDEX,
    COL_SIGNAL,
    EventTable,
    RunData,
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
        """The file stores (8, n), the table's own column layout."""
        ws = tiny_experiment.workspaces[0]
        path = str(tmp_path / "ws.md.h5")
        save_md(path, ws)
        with File(path, "r") as f:
            raw = f["MDEventWorkspace/event_data"]
            assert raw.shape == (8, ws.n_events)

    @pytest.mark.parametrize("compression", [None, "zlib"])
    def test_loaded_table_is_the_checked_payload(
        self, tiny_experiment, tmp_path, monkeypatch, compression
    ):
        """The loaded columns are the very bytes the CRC32 checked (or
        inflated from them): contiguous float64, not copied."""
        ws = tiny_experiment.workspaces[0]
        path = str(tmp_path / "ws.md.h5")
        save_md(path, ws, compression=compression)
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
        cols = load_md(path).events.cols
        assert cols.flags.c_contiguous and cols.dtype == np.float64
        assert cols.shape == (8, ws.n_events)
        assert not cols.flags.writeable
        base = cols
        while isinstance(base, np.ndarray):
            base = base.base
        assert any(base is c for c in checked)
        assert np.array_equal(cols, ws.events.cols)

    def test_split_payload_is_the_checked_payload(
        self, large_experiment, monkeypatch
    ):
        """A payload of 2 MiB or more is CRC-checked as two halves: zlib
        sees two views of the very bytes the loaded columns sit on."""
        checked = []
        crc32 = zlib.crc32

        def spy_crc32(data, *args):
            checked.append(data)
            return crc32(data, *args)

        monkeypatch.setattr(h5lite.zlib, "crc32", spy_crc32)
        cols = load_md(large_experiment.md_paths[0]).events.cols
        base = cols
        while isinstance(base, np.ndarray):
            base = base.base
        views = [c for c in checked
                 if isinstance(c, memoryview) and c.obj is base]
        assert len(views) == 2
        assert sum(v.nbytes for v in views) == cols.nbytes
        assert np.array_equal(cols, large_experiment.workspaces[0].events.cols)

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

    def _event_data_offset(self, path):
        with File(path, "r") as f:
            return f["MDEventWorkspace/event_data"]._offset

    def test_corrupt_payload_rejected(self, tiny_experiment, tmp_path):
        path = str(tmp_path / "ws.md.h5")
        save_md(path, tiny_experiment.workspaces[0])
        raw = bytearray(Path(path).read_bytes())
        raw[self._event_data_offset(path) + 13] ^= 0x40
        Path(path).write_bytes(raw)
        with pytest.raises(h5lite.CorruptFileError, match="checksum"):
            load_md(path)

    @pytest.mark.parametrize("where", ["start", "end"])
    def test_corrupt_split_payload_rejected(self, large_experiment, tmp_path,
                                            where):
        """A flipped byte in either half of a payload CRC-checked two
        ways is caught."""
        path = str(tmp_path / "ws.md.h5")
        raw = bytearray(Path(large_experiment.md_paths[0]).read_bytes())
        with File(large_experiment.md_paths[0], "r") as f:
            ds = f["MDEventWorkspace/event_data"]
            offset, nbytes = ds._offset, ds.nbytes
        raw[offset + (13 if where == "start" else nbytes - 13)] ^= 0x40
        Path(path).write_bytes(raw)
        with pytest.raises(h5lite.CorruptFileError, match="checksum"):
            load_md(path)

    def test_truncated_file_rejected(self, tiny_experiment, tmp_path):
        path = str(tmp_path / "ws.md.h5")
        save_md(path, tiny_experiment.workspaces[0])
        cut = self._event_data_offset(path) + 64
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


def _save_events(path, n, seed=0):
    """A run of ``n`` random events (contiguous payload of ``64 n``
    bytes); returns its columns."""
    cols = np.random.default_rng(seed).normal(size=(8, n))
    save_md(path, MDEventWorkspace(
        events=EventTable.from_cols(cols), run_number=1,
        goniometer=np.eye(3), proton_charge=1.0, momentum_band=(1.0, 5.0),
        ub_matrix=np.eye(3)))
    return cols


def _base(arr):
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return arr


class TestBegunLoad:
    """``begin_md`` + ``start`` + ``join``: the payload is read, CRC'd and
    its Q leaves hashed on the helper, and the result is what
    ``load_md`` returns, bit for bit."""

    @pytest.mark.parametrize("n", [0, 1, SPLIT // 64 - 1, SPLIT // 64,
                                   SPLIT // 64 + 1])
    def test_started_join_equals_load_md(self, tmp_path, bytesplit_helper, n):
        path = str(tmp_path / "run.md.h5")
        cols = _save_events(path, n)
        pending = begin_md(path)
        pending.start(key_leaves=True)
        table = pending.join().events
        assert table.cols.view(np.int64).tobytes() == cols.view(np.int64).tobytes()
        assert not table.cols.flags.writeable
        q = table.cols[COL_Q]
        assert table.q_leaves == bytesplit.sha256_halves(
            q.reshape(-1).view(np.uint8))
        assert load_md(path).events.q_leaves is None
        assert np.array_equal(load_md(path).events.cols, table.cols)

    @pytest.mark.parametrize("n", [(SPLIT // 24) - 1, SPLIT // 24,
                                   (SPLIT // 24) + 1])
    def test_key_from_leaves_is_the_digest(self, tmp_path, bytesplit_helper, n):
        """The Q rows (24 bytes an event) straddle the split size."""
        path = str(tmp_path / "run.md.h5")
        _save_events(path, n)
        pending = begin_md(path)
        pending.start(key_leaves=True)
        table = pending.join().events
        q = table.cols[COL_Q]
        assert digest_leaves(q, table.q_leaves) == digest_array(q)

    @pytest.mark.parametrize("nbytes", [SPLIT - 1, SPLIT, SPLIT + 1])
    def test_payload_job_around_the_split(self, tmp_path, monkeypatch,
                                          bytesplit_helper, nbytes):
        """Byte-exact payloads around the split size: the CRC32 runs as
        one range below it and as two from it up, over views of the very
        buffer the array sits on; the leaves cut as ``sha256_halves``."""
        data = np.frombuffer(np.random.default_rng(3).bytes(nbytes),
                             dtype=np.uint8)
        path = str(tmp_path / "blob.h5")
        with File(path, "w") as f:
            f.create_dataset("blob", data=data)
        checked = []
        crc32 = zlib.crc32

        def spy_crc32(buf, *args):
            checked.append(buf)
            return crc32(buf, *args)

        monkeypatch.setattr(h5lite.zlib, "crc32", spy_crc32)
        with File(path, "r") as f:
            read = f["blob"].begin_read()
            assert read.start((1, nbytes))
            got = read.join()
        assert got.tobytes() == data.tobytes()
        assert read.leaves == bytesplit.sha256_halves(data[1:])
        views = [c for c in checked if isinstance(c, memoryview)
                 and c.obj is _base(got)]
        assert len(views) == (2 if nbytes >= SPLIT else 1)
        assert sum(v.nbytes for v in views) == nbytes

    @pytest.mark.parametrize("where", [0, SPLIT // 2 - 1, SPLIT // 2, SPLIT])
    def test_started_join_catches_a_flipped_byte(self, tmp_path,
                                                 bytesplit_helper, where):
        path = str(tmp_path / "run.md.h5")
        _save_events(path, SPLIT // 64 + 1)
        with File(path, "r") as f:
            offset = f["MDEventWorkspace/event_data"]._offset
        raw = bytearray(Path(path).read_bytes())
        raw[offset + where] ^= 0x01
        Path(path).write_bytes(raw)
        pending = begin_md(path)
        pending.start(key_leaves=True)
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
        finally:
            pending.close()

    def test_close_abandons_a_started_job(self, tiny_experiment,
                                          bytesplit_helper):
        pending = begin_md(tiny_experiment.md_paths[0])
        pending.start(key_leaves=True)
        pending.close()
        pending.close()
        assert pending.ws.events is None

    def test_dropped_load_warns(self, tiny_experiment):
        pending = begin_md(tiny_experiment.md_paths[0])
        with pytest.warns(ResourceWarning, match="never joined or closed"):
            pending.__del__()
        pending.close()
