"""Unit tests for the h5lite hierarchical container."""

import pathlib

import numpy as np
import pytest

from repro.nexus import h5lite
from repro.nexus.h5lite import (
    MAGIC,
    CorruptFileError,
    Dataset,
    File,
    Group,
    H5LiteError,
)


@pytest.fixture()
def path(tmp_path):
    return str(tmp_path / "test.h5")


class TestLifecycle:
    def test_write_then_read_roundtrip(self, path):
        data = np.arange(12, dtype=np.float64).reshape(3, 4)
        with File(path, "w") as f:
            f.create_dataset("a/b/c", data=data)
        with File(path, "r") as f:
            assert np.array_equal(f.read("a/b/c"), data)

    def test_invalid_mode_rejected(self, path):
        with pytest.raises(H5LiteError, match="mode"):
            File(path, "a")

    def test_read_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            File(str(tmp_path / "nope.h5"), "r")

    def test_write_after_close_rejected(self, path):
        f = File(path, "w")
        f.close()
        with pytest.raises(H5LiteError, match="not open for writing"):
            f.create_group("g")

    def test_create_on_read_mode_rejected(self, path):
        with File(path, "w") as f:
            f.create_group("g")
        with File(path, "r") as f:
            with pytest.raises(H5LiteError, match="not open for writing"):
                f.create_dataset("x", data=np.zeros(3))

    def test_close_is_idempotent(self, path):
        f = File(path, "w")
        f.close()
        f.close()


class TestGroups:
    def test_nested_group_creation(self, path):
        with File(path, "w") as f:
            g = f.create_group("a/b/c")
            assert g.name == "/a/b/c"
        with File(path, "r") as f:
            assert "a/b/c" in f
            assert isinstance(f["a/b"], Group)

    def test_create_group_idempotent(self, path):
        with File(path, "w") as f:
            g1 = f.create_group("x")
            g2 = f.create_group("x")
            assert g1 is g2

    def test_group_over_dataset_rejected(self, path):
        with File(path, "w") as f:
            f.create_dataset("x", data=np.zeros(2))
            with pytest.raises(H5LiteError, match="not a group"):
                f.create_group("x/y")

    def test_missing_path_keyerror(self, path):
        with File(path, "w") as f:
            f.create_group("a")
        with File(path, "r") as f:
            with pytest.raises(KeyError):
                f["a/missing"]

    def test_iteration_and_keys(self, path):
        with File(path, "w") as f:
            f.create_group("g1")
            f.create_dataset("d1", data=np.zeros(1))
        with File(path, "r") as f:
            assert set(f.keys()) == {"g1", "d1"}
            assert set(iter(f)) == {"g1", "d1"}

    def test_visit_walks_everything(self, path):
        with File(path, "w") as f:
            f.create_dataset("a/b", data=np.zeros(1))
            f.create_dataset("a/c", data=np.zeros(1))
        seen = []
        with File(path, "r") as f:
            f.visit(lambda name, node: seen.append(name))
        assert set(seen) == {"/a", "/a/b", "/a/c"}

    def test_groups_and_datasets_iterators(self, path):
        with File(path, "w") as f:
            f.create_group("g")
            f.create_dataset("d", data=np.zeros(1))
            assert [g.basename for g in f.groups()] == ["g"]
            assert [d.basename for d in f.datasets()] == ["d"]

    def test_require_dataset_type_check(self, path):
        with File(path, "w") as f:
            f.create_group("g")
        with File(path, "r") as f:
            with pytest.raises(H5LiteError, match="expected dataset"):
                f.require_dataset("g")


class TestDatasets:
    @pytest.mark.parametrize(
        "data",
        [
            np.arange(5, dtype=np.int32),
            np.arange(6, dtype=np.float32).reshape(2, 3),
            np.array(3.25),
            np.array(7, dtype=np.int64),
            np.ones((2, 2, 2), dtype=np.uint16),
            np.array([True, False, True]),
        ],
        ids=["i32-1d", "f32-2d", "f64-scalar", "i64-scalar", "u16-3d", "bool"],
    )
    def test_dtype_shape_roundtrip(self, path, data):
        with File(path, "w") as f:
            f.create_dataset("x", data=data)
        with File(path, "r") as f:
            out = f.read("x")
            assert out.dtype == data.dtype
            assert out.shape == data.shape
            assert np.array_equal(out, data)

    def test_unicode_string_roundtrip(self, path):
        with File(path, "w") as f:
            f.create_dataset("name", data=np.array("CORELLI"))
        with File(path, "r") as f:
            assert str(f.read("name")[()]) == "CORELLI"

    def test_duplicate_dataset_rejected(self, path):
        with File(path, "w") as f:
            f.create_dataset("x", data=np.zeros(2))
            with pytest.raises(H5LiteError, match="already exists"):
                f.create_dataset("x", data=np.zeros(2))

    def test_empty_dataset_needs_dtype_and_shape(self, path):
        with File(path, "w") as f:
            with pytest.raises(H5LiteError, match="explicit dtype"):
                f.create_dataset("x")

    def test_append_extends_axis0(self, path):
        with File(path, "w") as f:
            ds = f.create_dataset("x", dtype="<f8", shape=(0, 3))
            ds.append(np.ones((2, 3)))
            ds.append(2 * np.ones((1, 3)))
            assert ds.shape == (3, 3)
        with File(path, "r") as f:
            out = f.read("x")
            assert np.array_equal(out, np.array([[1, 1, 1], [1, 1, 1], [2, 2, 2]]))

    def test_append_shape_mismatch_rejected(self, path):
        with File(path, "w") as f:
            ds = f.create_dataset("x", dtype="<f8", shape=(0, 3))
            with pytest.raises(H5LiteError, match="trailing shape"):
                ds.append(np.ones((2, 4)))
            with pytest.raises(H5LiteError, match="ndim"):
                ds.append(np.ones(3))

    def test_lazy_slice_read(self, path):
        data = np.arange(100, dtype=np.float64).reshape(20, 5)
        with File(path, "w") as f:
            f.create_dataset("x", data=data)
        with File(path, "r") as f:
            ds = f["x"]
            assert isinstance(ds, Dataset)
            # full read first (verifies checksum), then row-range fast path
            assert np.array_equal(ds.read(), data)
            assert np.array_equal(ds[3:7], data[3:7])
            assert np.array_equal(ds[::2], data[::2])
            assert ds[0, 0] == 0.0

    def test_len_and_size(self, path):
        with File(path, "w") as f:
            ds = f.create_dataset("x", data=np.zeros((4, 2)))
            assert len(ds) == 4
            assert ds.size == 8
            assert ds.nbytes == 64
            s = f.create_dataset("scalar", data=np.array(1.0))
            with pytest.raises(TypeError):
                len(s)

    def test_object_arrays_rejected(self, path):
        with File(path, "w") as f:
            with pytest.raises((H5LiteError, ValueError)):
                f.create_dataset("x", data=np.array([object()], dtype=object))


class TestAttributes:
    def test_attr_roundtrip(self, path):
        with File(path, "w") as f:
            g = f.create_group("entry")
            g.attrs["NX_class"] = "NXentry"
            g.attrs["count"] = 42
            g.attrs["ratio"] = 2.5
            g.attrs["flag"] = True
            g.attrs["vec"] = np.array([1.0, 2.0, 3.0])
            ds = f.create_dataset("entry/x", data=np.zeros(2))
            ds.attrs["units"] = "microsecond"
        with File(path, "r") as f:
            g = f["entry"]
            assert g.attrs["NX_class"] == "NXentry"
            assert g.attrs["count"] == 42
            assert g.attrs["ratio"] == 2.5
            assert g.attrs["flag"] is True
            assert np.array_equal(g.attrs["vec"], [1.0, 2.0, 3.0])
            assert f["entry/x"].attrs["units"] == "microsecond"

    def test_attr_api(self, path):
        with File(path, "w") as f:
            g = f.create_group("g")
            g.attrs["a"] = 1
            assert "a" in g.attrs
            assert g.attrs.get("missing", "dflt") == "dflt"
            assert len(g.attrs) == 1
            assert dict(g.attrs.items()) == {"a": 1}

    def test_missing_attr_keyerror(self, path):
        with File(path, "w") as f:
            g = f.create_group("g")
            with pytest.raises(KeyError, match="no attribute"):
                g.attrs["nope"]

    def test_unsupported_attr_type_rejected(self, path):
        with File(path, "w") as f:
            g = f.create_group("g")
            with pytest.raises(H5LiteError, match="unsupported attribute"):
                g.attrs["bad"] = {"dict": 1}


class TestCorruption:
    def _write_simple(self, path):
        with File(path, "w") as f:
            f.create_dataset("x", data=np.arange(64, dtype=np.float64))

    def test_bad_magic_detected(self, path):
        self._write_simple(path)
        raw = bytearray(open(path, "rb").read())
        raw[:8] = b"NOTMAGIC"
        open(path, "wb").write(raw)
        with pytest.raises(H5LiteError, match="bad magic"):
            File(path, "r")

    def test_truncated_file_detected(self, path):
        self._write_simple(path)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[: len(raw) // 2])
        with pytest.raises(H5LiteError):
            File(path, "r")

    def test_payload_corruption_fails_checksum(self, path):
        self._write_simple(path)
        raw = bytearray(open(path, "rb").read())
        raw[40] ^= 0xFF  # flip a payload byte
        open(path, "wb").write(raw)
        with File(path, "r") as f:
            with pytest.raises(H5LiteError, match="checksum"):
                f.read("x")

    def test_header_corruption_detected(self, path):
        self._write_simple(path)
        raw = bytearray(open(path, "rb").read())
        # corrupt inside the JSON header (just before the trailer length)
        raw[-20] ^= 0xFF
        open(path, "wb").write(raw)
        with pytest.raises(H5LiteError):
            File(path, "r")

    def test_magic_constant(self):
        assert MAGIC == b"H5LITE01"


class TestChunkCodecRule:
    """A chunked dataset keeps its requested codec only if the encoded
    chunks total at most 1/MIN_CODEC_RATIO of the raw bytes; otherwise
    every chunk is stored raw and the header records ``none``."""

    def _write(self, path, data, codec, chunk_rows=100):
        with File(path, "w") as f:
            f.create_dataset("x", data=data, chunk_rows=chunk_rows, codec=codec)

    def _stored(self, path):
        """(recorded codec, per-chunk stored bytes, per-chunk raw bytes)."""
        with File(path, "r") as f:
            ds = f.require_dataset("x")
            raw = [(b - a) * ds.row_nbytes for a, b in ds.chunk_ranges()]
            return ds.codec, ds.chunk_stored_nbytes(), raw

    @pytest.mark.parametrize("codec", ["zlib", "shuffle-zlib"])
    def test_random_floats_are_stored_raw(self, path, codec):
        data = np.random.default_rng(3).uniform(-4.0, 4.0, 1000)
        self._write(path, data, codec)
        stored_codec, stored, raw = self._stored(path)
        assert stored_codec == "none"
        assert stored == raw and len(stored) == 10
        with File(path, "r") as f:
            assert np.array_equal(f.read("x"), data)

    @pytest.mark.parametrize("codec", ["zlib", "shuffle-zlib"])
    def test_constant_column_keeps_its_codec(self, path, codec):
        data = np.full(1000, 1.5)
        self._write(path, data, codec)
        stored_codec, stored, raw = self._stored(path)
        assert stored_codec == codec
        assert 2 * sum(stored) <= sum(raw)
        with File(path, "r") as f:
            assert np.array_equal(f.read("x"), data)

    @pytest.mark.parametrize("extra, want", [(0, "zlib"), (1, "none")])
    def test_threshold_is_exactly_half(self, path, monkeypatch, extra, want):
        """Encoded chunks landing exactly on raw/2 keep the codec; one
        byte over stores the column raw."""
        calls = []

        def encode(raw, codec, itemsize):
            calls.append(len(raw))
            last = len(calls) == 10
            return b"\x01" * (len(raw) // 2 + (extra if last else 0))

        monkeypatch.setattr(h5lite, "encode_chunk", encode)
        data = np.arange(1000, dtype=np.float64)
        self._write(path, data, "zlib")
        stored_codec, stored, raw = self._stored(path)
        assert stored_codec == want
        assert sum(raw) == 8000
        if want == "none":
            assert stored == raw
        else:
            assert sum(stored) == 4000

    def test_empty_column(self, path):
        self._write(path, np.empty(0), "zlib")
        with File(path, "r") as f:
            ds = f.require_dataset("x")
            assert ds.n_chunks == 0
            assert f.read("x").shape == (0,)

    def test_one_row_column_is_stored_raw(self, path):
        """DEFLATE's stream overhead exceeds an 8-byte payload."""
        self._write(path, np.array([2.5]), "zlib")
        stored_codec, stored, raw = self._stored(path)
        assert (stored_codec, stored, raw) == ("none", [8], [8])
        with File(path, "r") as f:
            assert np.array_equal(f.read("x"), [2.5])

    def test_flipped_byte_in_a_raw_chunk_fails_its_crc(self, path):
        data = np.random.default_rng(5).uniform(-4.0, 4.0, 1000)
        self._write(path, data, "zlib")
        with File(path, "r") as f:
            ds = f.require_dataset("x")
            assert ds.codec == "none"
            offset = ds._chunk_index[3][0]
        raw = bytearray(pathlib.Path(path).read_bytes())
        raw[offset + 17] ^= 0xFF
        pathlib.Path(path).write_bytes(raw)
        with File(path, "r") as f:
            ds = f.require_dataset("x")
            assert np.array_equal(ds.read_chunk(2), data[200:300])
            with pytest.raises(CorruptFileError):
                ds.read_chunk(3)
            with pytest.raises(CorruptFileError):
                f.read("x")

    def test_rule_switched_off_keeps_the_codec(self, path, monkeypatch):
        monkeypatch.setattr(h5lite, "MIN_CODEC_RATIO", 0)
        data = np.random.default_rng(3).uniform(-4.0, 4.0, 1000)
        self._write(path, data, "zlib")
        stored_codec, stored, raw = self._stored(path)
        assert stored_codec == "zlib" and stored != raw
        with File(path, "r") as f:
            assert np.array_equal(f.read("x"), data)
