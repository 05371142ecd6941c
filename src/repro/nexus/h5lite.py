"""h5lite: a minimal hierarchical binary container with an h5py-like API.

The real workflow stores raw and intermediate data in HDF5.  HDF5 is not
available in this environment, so h5lite implements the subset of the
model the reduction needs, from scratch:

* a tree of **groups**, each holding child groups and **datasets**;
* datasets are n-dimensional typed arrays, stored contiguously in
  C order, read back lazily (``Dataset[...]`` seeks into the file, so a
  40M-event table is not touched until sliced);
* string **attributes** plus scalar/array attributes on groups and
  datasets (NeXus uses attributes for ``NX_class`` tags and units);
* extendable 1-D/2-D datasets during write (event streams append in
  chunks, concatenated on close);
* a CRC32 checksum per dataset, verified on first read, so corrupted
  files fail loudly instead of producing silent garbage;
* **format v2**: large datasets may be stored as independently
  compressed, CRC-checked row **chunks** with a per-chunk index in the
  JSON header — ``Dataset[a:b]`` then decodes only the chunks that
  overlap the selection (hyperslab-style region reads), which is what
  lets the reduction stream bounded event windows instead of
  materializing whole tables (DESIGN.md section 6g).

On-disk layout::

    +------------------+----------------------------------------------+
    | 8 bytes          | magic  b"H5LITE01"                           |
    | 4 bytes  u32 LE  | format version (1 or 2)                      |
    | 8 bytes  u64 LE  | byte offset of the JSON header               |
    | ...              | dataset payloads, 8-byte aligned             |
    |                  |   contiguous: one raw (or deflated) blob     |
    |                  |   chunked (v2): N independent encoded chunks |
    | header           | UTF-8 JSON tree (groups/datasets/attrs,      |
    |                  | per-chunk [offset, stored, crc, rows] index) |
    | 8 bytes  u64 LE  | length of the JSON header (trailer)          |
    +------------------+----------------------------------------------+

The header lives at the *end* so payloads stream to disk as they are
written, like HDF5's contiguous layout; the trailer length makes the
header locatable from EOF.  v1 files (everything contiguous) read back
bit-for-bit through the same code path; a v2 writer produces v1 files
on request (``File(path, "w", version=1)``) for back-compat fixtures.

Chunk codecs (one per dataset; each chunk is encoded and CRC-checked
independently):

* ``"none"`` — raw bytes (CRC only);
* ``"zlib"`` — DEFLATE;
* ``"shuffle-zlib"`` — byte-shuffle transpose (all byte-0s, then all
  byte-1s, ...) before DEFLATE, the classic HDF5/LZ4 trick that groups
  the mostly-constant high bytes of float64 columns for better ratios.

The codec passed to ``create_dataset`` is a request: a dataset whose
encoded chunks would total more than ``1 / MIN_CODEC_RATIO`` of its raw
bytes is stored ``"none"`` instead (like HDF5's optional deflate filter
leaving an incompressible chunk unfiltered), and the header records the
codec actually stored.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import struct
import zlib
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.util import bytesplit as _bytesplit
from repro.util import faults as _faults
from repro.util import trace as _trace
from repro.util.validation import ReproError

MAGIC = b"H5LITE01"
FORMAT_VERSION = 2
#: container versions the reader accepts (v1 files read bit-for-bit)
SUPPORTED_VERSIONS = (1, 2)
_ALIGN = 8

#: chunk codec names accepted by ``create_dataset(codec=...)``
CHUNK_CODECS = ("none", "zlib", "shuffle-zlib")
#: a chunked dataset keeps its requested codec only if that shrinks it
#: at least this many times over; below it the chunks are stored raw
#: (DESIGN.md section 6g)
MIN_CODEC_RATIO = 2

AttrValue = Union[int, float, str, bool, np.ndarray, list]


class H5LiteError(ReproError, OSError):
    """Raised for malformed files, bad modes, and checksum mismatches."""


class CorruptFileError(H5LiteError):
    """A payload or header failed digest/consistency verification.

    The taxonomy the recovery layer keys on: corrupt reads are
    *retryable* (the file may be mid-rewrite, the page cache may have
    been poisoned) and additionally trigger geometry-cache invalidation
    for the affected run, because any derived entries may be tainted.
    """


class TruncatedFileError(CorruptFileError):
    """A read came up short (partial write or truncated transfer)."""


# ---------------------------------------------------------------------------
# chunk codecs
# ---------------------------------------------------------------------------

def _shuffle_bytes(raw: bytes, itemsize: int) -> bytes:
    """Byte-shuffle: regroup element bytes by significance position."""
    if itemsize <= 1 or len(raw) % itemsize:
        return raw
    return np.frombuffer(raw, dtype=np.uint8).reshape(-1, itemsize).T.tobytes()


def _unshuffle_bytes(raw: bytes, itemsize: int) -> bytes:
    if itemsize <= 1 or len(raw) % itemsize:
        return raw
    return np.frombuffer(raw, dtype=np.uint8).reshape(itemsize, -1).T.tobytes()


def encode_chunk(raw: bytes, codec: str, itemsize: int) -> bytes:
    """Encode one chunk payload with ``codec`` (see :data:`CHUNK_CODECS`)."""
    if codec == "none":
        return raw
    if codec == "zlib":
        return zlib.compress(raw)
    if codec == "shuffle-zlib":
        return zlib.compress(_shuffle_bytes(raw, itemsize))
    raise H5LiteError(f"unsupported chunk codec {codec!r}")


def encode_column(
    payload: np.ndarray, rows_per: int, codec: str
) -> Tuple[str, Iterable[Tuple[int, bytes]]]:
    """Cut ``payload`` into ``rows_per``-row chunks and encode them.

    Returns the codec the column is stored with and its ``(rows,
    stored bytes)`` chunks.  The requested ``codec`` is kept only when
    its chunks total at most ``1 / MIN_CODEC_RATIO`` of the raw bytes;
    otherwise every chunk is stored raw (``"none"``), so a reader never
    inflates a stream that DEFLATE could not halve.
    """
    bounds = [(r0, min(r0 + rows_per, payload.shape[0]))
              for r0 in range(0, payload.shape[0], rows_per)]

    def raw(r0: int, r1: int) -> bytes:
        return np.ascontiguousarray(payload[r0:r1]).tobytes(order="C")

    if codec != "none":
        chunks: List[Tuple[int, bytes]] = []
        total = 0
        for r0, r1 in bounds:
            enc = encode_chunk(raw(r0, r1), codec, payload.dtype.itemsize)
            total += len(enc)
            if total * MIN_CODEC_RATIO > payload.nbytes:
                break  # over the bound already: the rest cannot bring it back
            chunks.append((r1 - r0, enc))
        else:
            return codec, chunks
    return "none", ((r1 - r0, raw(r0, r1)) for r0, r1 in bounds)


def decode_chunk(
    stored: bytes, codec: str, itemsize: int, nbytes_out: int, name: str
) -> bytes:
    """Decode one chunk payload, verifying the decoded size."""
    if codec == "none":
        raw = stored
    elif codec in ("zlib", "shuffle-zlib"):
        try:
            raw = zlib.decompress(stored)
        except zlib.error as exc:
            raise CorruptFileError(
                f"corrupt compressed chunk in dataset {name!r}: {exc}"
            ) from exc
        if codec == "shuffle-zlib":
            raw = _unshuffle_bytes(raw, itemsize)
    else:
        raise CorruptFileError(f"dataset {name!r} uses unknown codec {codec!r}")
    if len(raw) != nbytes_out:
        raise CorruptFileError(
            f"decoded chunk size mismatch in dataset {name!r}: "
            f"wanted {nbytes_out} bytes, got {len(raw)}"
        )
    return raw


def _encode_attr(value: AttrValue) -> Any:
    """Encode an attribute value into a JSON-representable object."""
    if isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (list, tuple)):
        value = np.asarray(value)
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in "biuf":
            raise H5LiteError(f"unsupported attribute array dtype {value.dtype}")
        return {
            "__ndarray__": True,
            "dtype": value.dtype.str,
            "shape": list(value.shape),
            "data": value.ravel().tolist(),
        }
    raise H5LiteError(f"unsupported attribute type {type(value).__name__}")


def _decode_attr(value: Any) -> AttrValue:
    if isinstance(value, dict) and value.get("__ndarray__"):
        arr = np.array(value["data"], dtype=np.dtype(value["dtype"]))
        return arr.reshape(value["shape"])
    return value


class AttributeManager:
    """Dict-like attribute access mirroring ``h5py``'s ``.attrs``."""

    def __init__(self, node: "_Node") -> None:
        self._node = node

    def __getitem__(self, key: str) -> AttrValue:
        try:
            return _decode_attr(self._node._attrs[key])
        except KeyError:
            raise KeyError(f"no attribute {key!r} on {self._node.name!r}") from None

    def __setitem__(self, key: str, value: AttrValue) -> None:
        self._node._file._check_writable()
        self._node._attrs[key] = _encode_attr(value)

    def __contains__(self, key: str) -> bool:
        return key in self._node._attrs

    def __iter__(self) -> Iterator[str]:
        return iter(self._node._attrs)

    def __len__(self) -> int:
        return len(self._node._attrs)

    def get(self, key: str, default: Any = None) -> Any:
        return self[key] if key in self else default

    def items(self) -> Iterator[Tuple[str, AttrValue]]:
        for k in self._node._attrs:
            yield k, self[k]


class _Node:
    """Common base of :class:`Group` and :class:`Dataset`."""

    def __init__(self, file: "File", name: str) -> None:
        self._file = file
        self.name = name  # absolute path, '/' rooted
        self._attrs: Dict[str, Any] = {}

    @property
    def attrs(self) -> AttributeManager:
        return AttributeManager(self)

    @property
    def basename(self) -> str:
        return self.name.rsplit("/", 1)[-1] or "/"


class Dataset(_Node):
    """A typed n-dimensional array stored contiguously or chunked.

    While the file is open for writing, data lives in staged in-memory
    blocks (supporting ``append``).  After close/reopen, ``Dataset``
    reads lazily from disk; ``[...]`` with a slice on axis 0
    materializes only the overlapping rows — for chunked datasets by
    decoding exactly the overlapping chunks, for contiguous ones via
    the raw row-range fast path (when integrity was already verified).
    """

    def __init__(
        self,
        file: "File",
        name: str,
        dtype: np.dtype,
        shape: Tuple[int, ...],
        compression: Optional[str] = None,
        chunk_rows: Optional[int] = None,
        codec: Optional[str] = None,
    ):
        super().__init__(file, name)
        self.dtype = np.dtype(dtype)
        self.shape = tuple(int(s) for s in shape)
        if compression not in (None, "zlib"):
            raise H5LiteError(f"unsupported compression {compression!r}")
        self.compression = compression
        self.chunk_rows = None if chunk_rows is None else int(chunk_rows)
        self.codec = codec
        if self.chunk_rows is not None:
            if self.chunk_rows < 1:
                raise H5LiteError(f"chunk_rows must be >= 1, got {chunk_rows}")
            if len(self.shape) < 1:
                raise H5LiteError("scalar datasets cannot be chunked")
            if compression is not None:
                raise H5LiteError(
                    "chunk_rows and whole-payload compression are exclusive; "
                    "use codec= for per-chunk compression"
                )
            self.codec = codec or "none"
            if self.codec not in CHUNK_CODECS:
                raise H5LiteError(f"unsupported chunk codec {codec!r}")
        elif codec is not None:
            raise H5LiteError("codec= requires chunk_rows=")
        # write-side staging
        self._chunks: List[np.ndarray] = []
        # read-side placement (contiguous layout)
        self._offset: Optional[int] = None
        self._stored_nbytes: Optional[int] = None
        self._crc: Optional[int] = None
        self._crc_checked = False
        # read-side placement (chunked layout): per-chunk
        # (offset, stored_nbytes, crc, rows) plus cumulative row bounds
        self._chunk_index: Optional[List[List[int]]] = None
        self._chunk_bounds: Optional[List[int]] = None

    # -- shape helpers -------------------------------------------------
    @property
    def size(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) if self.shape else 1

    @property
    def nbytes(self) -> int:
        return self.size * self.dtype.itemsize

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def row_nbytes(self) -> int:
        """Bytes per axis-0 row (itemsize for 1-D datasets)."""
        items = int(np.prod(self.shape[1:], dtype=np.int64)) if self.ndim > 1 else 1
        return items * self.dtype.itemsize

    def __len__(self) -> int:
        if not self.shape:
            raise TypeError("len() of a scalar dataset")
        return self.shape[0]

    # -- chunk metadata (read side) ------------------------------------
    @property
    def is_chunked(self) -> bool:
        return self._chunk_index is not None or (
            self.chunk_rows is not None and self._offset is None
        )

    @property
    def n_chunks(self) -> int:
        if self._chunk_index is None:
            raise H5LiteError(f"dataset {self.name!r} is not stored chunked")
        return len(self._chunk_index)

    def chunk_bounds(self) -> List[int]:
        """Ascending row boundaries ``[0, r1, ..., n_rows]`` of the
        stored chunks — the alignment targets the shard planner snaps
        to (chunk-aligned shards decode each chunk exactly once)."""
        if self._chunk_bounds is None:
            raise H5LiteError(f"dataset {self.name!r} is not stored chunked")
        return list(self._chunk_bounds)

    def chunk_ranges(self) -> List[Tuple[int, int]]:
        """Per-chunk row ranges ``[(start, stop), ...]``."""
        bounds = self.chunk_bounds()
        return list(zip(bounds[:-1], bounds[1:]))

    def chunk_stored_nbytes(self) -> List[int]:
        """On-disk (encoded) size of each chunk — the I/O weights the
        planner balances when compression ratios are skewed."""
        if self._chunk_index is None:
            raise H5LiteError(f"dataset {self.name!r} is not stored chunked")
        return [entry[1] for entry in self._chunk_index]

    # -- write side ----------------------------------------------------
    def append(self, data: np.ndarray) -> None:
        """Extend along axis 0 (write mode only).

        All appended blocks must share trailing dimensions and be
        convertible to the dataset dtype.
        """
        self._file._check_writable()
        block = np.ascontiguousarray(data, dtype=self.dtype)
        if block.ndim != len(self.shape):
            raise H5LiteError(
                f"append block ndim {block.ndim} != dataset ndim {len(self.shape)}"
            )
        if block.shape[1:] != self.shape[1:]:
            raise H5LiteError(
                f"append block trailing shape {block.shape[1:]} != {self.shape[1:]}"
            )
        self._chunks.append(block)
        self.shape = (self.shape[0] + block.shape[0],) + self.shape[1:]

    def _staged(self) -> np.ndarray:
        if len(self._chunks) == 1:
            return self._chunks[0]
        if not self._chunks:
            return np.empty(self.shape, dtype=self.dtype)
        return np.concatenate(self._chunks, axis=0)

    # -- read side -----------------------------------------------------
    def read_chunk(self, ci: int) -> np.ndarray:
        """Decode chunk ``ci``: seek, CRC-verify, decompress, reshape.

        Every decode verifies the chunk's own CRC (unlike the contiguous
        layout, partial reads stay integrity-checked), raises
        :class:`CorruptFileError` on any mismatch, and — when tracing —
        emits an ``h5lite.decode_chunk`` span with the codec cost model
        attached under profiling.
        """
        if self._chunk_index is None:
            raise H5LiteError(f"dataset {self.name!r} is not stored chunked")
        if not 0 <= ci < len(self._chunk_index):
            raise H5LiteError(
                f"chunk {ci} out of range for dataset {self.name!r} "
                f"({len(self._chunk_index)} chunks)"
            )
        offset, stored, crc, rows = self._chunk_index[ci]
        raw_nbytes = rows * self.row_nbytes
        codec = self.codec or "none"
        tracer = _trace.active_tracer()
        with tracer.span(
            "h5lite.decode_chunk",
            kind="io",
            dataset=self.name,
            chunk=int(ci),
            codec=codec,
            backend=codec,
            rows=int(rows),
            bytes_stored=int(stored),
        ) as sp:
            _faults.fault_point("h5lite.read_chunk", dataset=self.name, chunk=ci)
            fh = self._file._fh
            if fh is None:
                raise H5LiteError(f"file {self._file.path!r} is closed")
            fh.seek(offset)
            enc = fh.read(stored)
            tracer.count("h5lite.bytes_read", len(enc))
            if len(enc) != stored:
                raise TruncatedFileError(
                    f"truncated chunk {ci} of dataset {self.name!r}: "
                    f"wanted {stored} bytes, got {len(enc)}"
                )
            if zlib.crc32(enc) != crc:
                raise CorruptFileError(
                    f"checksum mismatch in chunk {ci} of dataset {self.name!r}"
                )
            raw = decode_chunk(enc, codec, self.dtype.itemsize, raw_nbytes,
                               self.name)
            tracer.count("h5lite.chunks_decoded", 1)
            if tracer.profile:
                from repro.util.perf import chunk_decode_work

                sp.set(perf=chunk_decode_work(codec, stored, raw_nbytes))
        return np.frombuffer(raw, dtype=self.dtype).reshape(
            (rows,) + self.shape[1:]
        )

    def read_rows(self, start: int, stop: int) -> np.ndarray:
        """Region selection: rows ``[start, stop)`` along axis 0.

        For chunked datasets this decodes exactly the overlapping
        chunks; for contiguous ones it uses the raw row-range fast path
        when available and otherwise falls back to a full read.
        """
        if self.ndim < 1:
            raise H5LiteError(f"dataset {self.name!r} is scalar")
        n = self.shape[0]
        start = max(0, min(int(start), n))
        stop = max(start, min(int(stop), n))
        if self._chunk_index is not None:
            if start == stop:
                return np.empty((0,) + self.shape[1:], dtype=self.dtype)
            bounds = self._chunk_bounds
            assert bounds is not None
            parts: List[np.ndarray] = []
            for ci, (c0, c1) in enumerate(zip(bounds[:-1], bounds[1:])):
                if c1 <= start or c0 >= stop:
                    continue
                arr = self.read_chunk(ci)
                parts.append(arr[max(start - c0, 0): min(stop, c1) - c0])
            if len(parts) == 1:
                return parts[0]
            return np.concatenate(parts, axis=0)
        if (
            not self._chunks
            and self._offset is not None
            and self._crc_checked
            and self.compression is None
        ):
            return self._read_rows(start, stop)
        return self._read_all()[start:stop]

    def _read_all(self) -> np.ndarray:
        if self._chunk_index is not None:
            if not self._chunk_index:
                return np.empty(self.shape, dtype=self.dtype)
            return self.read_rows(0, self.shape[0]).reshape(self.shape)
        if self._chunks or self._offset is None:
            return self._staged().reshape(self.shape)
        return self.begin_read().join()

    def begin_read(self) -> "PayloadRead":
        """The first half of reading a contiguous on-disk dataset whole:
        its fault point fires now, its bytes are read and checked by
        :meth:`PayloadRead.join` (see :class:`PayloadRead`)."""
        if self._chunk_index is not None or self._chunks or self._offset is None:
            raise H5LiteError(
                f"dataset {self.name!r} is not a contiguous on-disk payload")
        _faults.fault_point("h5lite.read", dataset=self.name)
        return PayloadRead(self)

    def _read_rows(self, start: int, stop: int) -> np.ndarray:
        """Read a contiguous raw row range [start, stop) along axis 0."""
        row_bytes = self.row_nbytes
        fh = self._file._fh
        assert fh is not None and self._offset is not None
        fh.seek(self._offset + start * row_bytes)
        n = stop - start
        raw = fh.read(n * row_bytes)
        _trace.active_tracer().count("h5lite.bytes_read", len(raw))
        if len(raw) != n * row_bytes:
            raise TruncatedFileError(f"truncated dataset {self.name!r}")
        return np.frombuffer(raw, dtype=self.dtype).reshape((n,) + self.shape[1:])

    def __getitem__(self, key: Any) -> Any:
        # Region fast path: a step-1 slice on axis 0 touches only the
        # overlapping chunks (chunked) or the raw row range (contiguous,
        # only once integrity was verified — partial reads cannot check
        # a whole-payload CRC; per-chunk CRCs have no such restriction).
        if (
            not self._chunks
            and self.ndim >= 1
            and isinstance(key, slice)
            and (
                self._chunk_index is not None
                or (
                    self._offset is not None
                    and self._crc_checked
                    and self.compression is None
                )
            )
        ):
            start, stop, step = key.indices(self.shape[0])
            if step == 1:
                return self.read_rows(start, stop)
        data = self._read_all()
        if isinstance(key, tuple) and key == ():
            return data[()] if self.ndim == 0 else data
        return data[key]

    def read(self) -> np.ndarray:
        """Materialize the full dataset (verifying checksums)."""
        return self._read_all()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        layout = (
            f" chunked[{len(self._chunk_index)}x{self.chunk_rows}:{self.codec}]"
            if self._chunk_index is not None
            else ""
        )
        return (
            f"<h5lite Dataset {self.name!r} shape={self.shape} "
            f"dtype={self.dtype}{layout}>"
        )


class PayloadRead:
    """A contiguous dataset's whole-payload read, begun but not done.

    :meth:`Dataset.begin_read` has fired the read's fault point.
    :meth:`join` reads the stored bytes, checks their length and CRC32
    and returns the array, the checked buffer itself.  In between,
    :meth:`start` may queue the read, the CRC32 (two ranges from
    :data:`~repro.util.bytesplit.SPLIT_BYTES` up, joined with
    ``crc32_combine``) and optionally the two SHA-256 leaves of one
    byte range as a :class:`~repro.util.bytesplit.ByteJob`, so they run
    on the helper while the caller works; :meth:`join` then takes the
    pieces the helper has not started, and sets :attr:`leaves`.  A
    begun read must be joined or closed before its file is.
    """

    def __init__(self, ds: Dataset) -> None:
        self._ds = ds
        self._stored = (ds._stored_nbytes if ds._stored_nbytes is not None
                        else ds.nbytes)
        self._job: Optional[_bytesplit.ByteJob] = None
        self._n_crc = 0
        #: SHA-256 of each half of the leaf range (stored bytes, so
        #: uncompressed payloads only) once joined; None if not hashed
        self.leaves: Optional[Tuple[bytes, bytes]] = None

    @property
    def shape(self) -> Tuple[int, ...]:
        return self._ds.shape

    @property
    def nbytes(self) -> int:
        """Bytes of the array (after inflating a compressed payload)."""
        return self._ds.nbytes

    @property
    def compressed(self) -> bool:
        return self._ds.compression is not None

    def _fh(self) -> io.BufferedIOBase:
        fh = self._ds._file._fh
        if fh is None:
            raise H5LiteError(f"file {self._ds._file.path!r} is closed")
        return fh

    def _read(self) -> bytes:
        """The caller's buffered read (small metadata datasets share
        one buffer fill)."""
        fh = self._fh()
        fh.seek(self._ds._offset)
        return fh.read(self._stored)

    def _pread(self) -> bytes:
        """The helper's read: positioned, so the caller may read other
        datasets of the file meanwhile."""
        fd, offset, n = self._fh().fileno(), int(self._ds._offset), self._stored
        raw = os.pread(fd, n, offset)
        while 0 < len(raw) < n:  # a short read before EOF
            more = os.pread(fd, n - len(raw), offset + len(raw))
            if not more:
                break
            raw += more
        return raw

    def start(self, leaf_range: Optional[Tuple[int, int]] = None) -> bool:
        """Queue the byte job on the helper; False (nothing queued) when
        there is no helper.  ``leaf_range`` is a ``[start, stop)`` byte
        range of the stored payload to hash as two SHA-256 leaves, cut
        where ``sha256_halves`` cuts it."""
        n = self._stored
        if n >= _bytesplit.SPLIT_BYTES:
            cut = n // 2
            pieces = [(zlib.crc32, 0, cut), (zlib.crc32, cut, n)]
        else:
            pieces = [(zlib.crc32, 0, n)]
        self._n_crc = len(pieces)
        if leaf_range is not None:
            a, b = leaf_range
            mid = a + (b - a) // 2
            pieces += [(_bytesplit.sha256, a, mid), (_bytesplit.sha256, mid, b)]
        job = _bytesplit.ByteJob(self._pread, pieces)
        if not job.start():
            return False
        self._job = job
        return True

    def join(self) -> np.ndarray:
        """Read (what the helper has not), check and return the array."""
        ds, n = self._ds, self._stored
        tracer = _trace.active_tracer()
        crc: Optional[int] = None
        leaves: Optional[Tuple[bytes, bytes]] = None
        if self._job is None:
            raw = self._read()
        else:
            job, self._job = self._job, None
            raw, results = job.join()
            tracer.count("nexus.payload_inline", job.inline_pieces)
            if job.helper_bytes:
                tracer.count("bytesplit.helper_bytes", job.helper_bytes)
            crcs = results[:self._n_crc]
            crc = crcs[0] if len(crcs) == 1 else _bytesplit.crc32_combine(
                crcs[0], crcs[1], n - n // 2)
            if len(results) > self._n_crc:
                leaves = (results[-2], results[-1])
        tracer.count("h5lite.bytes_read", len(raw))
        if len(raw) != n:
            raise TruncatedFileError(
                f"truncated dataset {ds.name!r}: wanted {n} bytes, "
                f"got {len(raw)}"
            )
        if not ds._crc_checked and ds._crc is not None:
            if crc is None:
                crc = _bytesplit.crc32(raw)
            if crc != ds._crc:
                raise CorruptFileError(
                    f"checksum mismatch reading dataset {ds.name!r}"
                )
            ds._crc_checked = True
        if ds.compression == "zlib":
            try:
                raw = zlib.decompress(raw)
            except zlib.error as exc:
                raise CorruptFileError(
                    f"corrupt compressed dataset {ds.name!r}: {exc}"
                ) from exc
            if len(raw) != ds.nbytes:
                raise CorruptFileError(
                    f"decompressed size mismatch for dataset {ds.name!r}"
                )
        self.leaves = leaves
        return np.frombuffer(raw, dtype=ds.dtype).reshape(ds.shape)

    def close(self) -> None:
        """Abandon a started read: when this returns the helper no
        longer touches the file.  Idempotent."""
        if self._job is not None:
            self._job.close()
            self._job = None


class Group(_Node):
    """A node holding child groups and datasets, addressable by path."""

    def __init__(self, file: "File", name: str) -> None:
        super().__init__(file, name)
        self._children: "Dict[str, _Node]" = {}

    # -- creation ------------------------------------------------------
    def create_group(self, path: str) -> "Group":
        """Create (or return existing) group, making intermediates."""
        self._file._check_writable()
        node = self
        for part in _split(path):
            child = node._children.get(part)
            if child is None:
                child = Group(self._file, _join(node.name, part))
                node._children[part] = child
            elif not isinstance(child, Group):
                raise H5LiteError(f"{child.name!r} exists and is not a group")
            node = child
        return node

    def create_dataset(
        self,
        path: str,
        data: Optional[np.ndarray] = None,
        *,
        dtype: Optional[Union[str, np.dtype]] = None,
        shape: Optional[Tuple[int, ...]] = None,
        compression: Optional[str] = None,
        chunk_rows: Optional[int] = None,
        codec: Optional[str] = None,
    ) -> Dataset:
        """Create a dataset from ``data``, or empty+extendable with
        ``dtype`` and a ``shape`` whose axis 0 may start at 0.

        ``compression="zlib"`` stores the payload deflated as one blob
        (whole-payload; partial row reads then materialize the full
        array).  ``chunk_rows=N`` (format v2) stores the payload as
        independent row chunks, each encoded with ``codec`` (one of
        :data:`CHUNK_CODECS`) and CRC-checked on decode, so row-range
        reads touch only the overlapping chunks.  ``codec`` is requested,
        not guaranteed: a dataset it cannot shrink by
        :data:`MIN_CODEC_RATIO` is stored ``"none"`` (see
        :func:`encode_column`).
        """
        self._file._check_writable()
        if chunk_rows is not None and self._file.version < 2:
            raise H5LiteError(
                "chunked datasets require format v2 "
                f"(file {self._file.path!r} is being written as "
                f"v{self._file.version})"
            )
        parts = _split(path)
        if not parts:
            raise H5LiteError("dataset path must be non-empty")
        parent = self.create_group("/".join(parts[:-1])) if len(parts) > 1 else self
        name = parts[-1]
        if name in parent._children:
            raise H5LiteError(f"{_join(parent.name, name)!r} already exists")
        extra = dict(compression=compression, chunk_rows=chunk_rows, codec=codec)
        if data is not None:
            arr = np.asarray(data, dtype=dtype)
            if arr.ndim > 0:
                # note: ascontiguousarray would promote 0-d scalars to 1-d
                arr = np.ascontiguousarray(arr)
            if arr.dtype == object:
                raise H5LiteError("object arrays are not storable")
            if arr.dtype.kind == "U":  # store unicode as utf-8 bytes
                encoded = np.char.encode(arr, "utf-8")
                ds = Dataset(self._file, _join(parent.name, name), encoded.dtype,
                             encoded.shape, **extra)
                ds._chunks = [np.ascontiguousarray(encoded)]
                ds._attrs["__utf8__"] = True
            else:
                ds = Dataset(self._file, _join(parent.name, name), arr.dtype,
                             arr.shape, **extra)
                ds._chunks = [arr]
        else:
            if dtype is None or shape is None:
                raise H5LiteError("empty dataset needs explicit dtype and shape")
            ds = Dataset(self._file, _join(parent.name, name), np.dtype(dtype),
                         tuple(shape), **extra)
        parent._children[name] = ds
        return ds

    # -- access --------------------------------------------------------
    def __getitem__(self, path: str) -> Union["Group", Dataset]:
        node: _Node = self
        for part in _split(path):
            if not isinstance(node, Group) or part not in node._children:
                raise KeyError(f"no object {path!r} in {self.name!r}")
            node = node._children[part]
        return node  # type: ignore[return-value]

    def __contains__(self, path: str) -> bool:
        try:
            self[path]
            return True
        except KeyError:
            return False

    def __iter__(self) -> Iterator[str]:
        return iter(self._children)

    def keys(self):
        return self._children.keys()

    def items(self):
        return self._children.items()

    def groups(self) -> Iterator["Group"]:
        for child in self._children.values():
            if isinstance(child, Group):
                yield child

    def datasets(self) -> Iterator[Dataset]:
        for child in self._children.values():
            if isinstance(child, Dataset):
                yield child

    def visit(self, func) -> None:
        """Depth-first traversal calling ``func(path, node)``."""
        for child in self._children.values():
            func(child.name, child)
            if isinstance(child, Group):
                child.visit(func)

    def require_dataset(self, path: str) -> Dataset:
        node = self[path]
        if not isinstance(node, Dataset):
            raise H5LiteError(f"{path!r} is a group, expected dataset")
        return node

    def read(self, path: str) -> np.ndarray:
        """Convenience: materialize the dataset at ``path``."""
        ds = self.require_dataset(path)
        data = ds.read()
        if ds._attrs.get("__utf8__") and data.dtype.kind == "S":
            return np.char.decode(data, "utf-8")
        return data

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<h5lite Group {self.name!r} ({len(self._children)} members)>"


class File(Group):
    """The root group plus file lifecycle.

    Modes: ``"w"`` create/truncate for writing, ``"r"`` read-only.
    Usable as a context manager; write mode serializes on ``close``.
    ``version`` selects the container format written (2 by default;
    1 reproduces the legacy everything-contiguous layout for
    back-compat fixtures and forbids chunked datasets).
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        mode: str = "r",
        *,
        version: int = FORMAT_VERSION,
    ) -> None:
        if mode not in ("r", "w"):
            raise H5LiteError(f"mode must be 'r' or 'w', got {mode!r}")
        if version not in SUPPORTED_VERSIONS:
            raise H5LiteError(f"unsupported h5lite version {version}")
        self.path = os.fspath(path)
        self.mode = mode
        self.version = int(version)
        self._fh: Optional[io.BufferedIOBase] = None
        self._closed = False
        super().__init__(self, "/")
        if mode == "r":
            self._fh = open(self.path, "rb")
            try:
                self._load_header()
            except Exception:
                self._fh.close()
                raise

    # -- lifecycle -------------------------------------------------------
    def _check_writable(self) -> None:
        if self.mode != "w" or self._closed:
            raise H5LiteError(f"file {self.path!r} is not open for writing")

    def close(self) -> None:
        if self._closed:
            return
        if self.mode == "w":
            self._write_out()
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._closed = True

    def __enter__(self) -> "File":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            if not self._closed and self.mode == "r" and self._fh is not None:
                self._fh.close()
        except Exception:
            pass

    # -- serialization -----------------------------------------------------
    def _write_out(self) -> None:
        with open(self.path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", self.version))
            header_off_pos = fh.tell()
            fh.write(struct.pack("<Q", 0))  # patched later

            def place_chunked(node: Dataset, entry: Dict[str, Any]) -> None:
                payload = node._staged().reshape(node.shape)
                rows_per = int(node.chunk_rows)  # type: ignore[arg-type]
                codec, chunks = encode_column(
                    payload, rows_per, node.codec or "none")
                index: List[List[int]] = []
                for rows, enc in chunks:
                    pad = (-fh.tell()) % _ALIGN
                    fh.write(b"\x00" * pad)
                    index.append([fh.tell(), len(enc), zlib.crc32(enc), rows])
                    fh.write(enc)
                entry.update(
                    kind="dataset",
                    dtype=node.dtype.str,
                    shape=list(node.shape),
                    layout="chunked",
                    codec=codec,
                    chunk_rows=rows_per,
                    chunks=index,
                )

            def place(node: _Node) -> Dict[str, Any]:
                entry: Dict[str, Any] = {"attrs": dict(node._attrs)}
                if isinstance(node, Dataset):
                    if node.chunk_rows is not None:
                        place_chunked(node, entry)
                        return entry
                    pad = (-fh.tell()) % _ALIGN
                    fh.write(b"\x00" * pad)
                    offset = fh.tell()
                    payload = node._staged()
                    raw = payload.tobytes(order="C")
                    if node.compression == "zlib":
                        raw = zlib.compress(raw)
                    fh.write(raw)
                    entry.update(
                        kind="dataset",
                        dtype=node.dtype.str,
                        shape=list(node.shape),
                        offset=offset,
                        crc=zlib.crc32(raw),
                        stored_nbytes=len(raw),
                    )
                    if node.compression:
                        entry["compression"] = node.compression
                else:
                    assert isinstance(node, Group)
                    entry["kind"] = "group"
                    entry["children"] = {
                        name: place(child) for name, child in node._children.items()
                    }
                return entry

            tree = place(self)
            header = json.dumps({"version": self.version, "root": tree}).encode("utf-8")
            pad = (-fh.tell()) % _ALIGN
            fh.write(b"\x00" * pad)
            header_off = fh.tell()
            fh.write(header)
            fh.write(struct.pack("<Q", len(header)))
            fh.seek(header_off_pos)
            fh.write(struct.pack("<Q", header_off))

    def _load_header(self) -> None:
        fh = self._fh
        assert fh is not None
        magic = fh.read(8)
        if magic != MAGIC:
            raise H5LiteError(f"{self.path!r} is not an h5lite file (bad magic)")
        (version,) = struct.unpack("<I", fh.read(4))
        if version not in SUPPORTED_VERSIONS:
            raise H5LiteError(f"unsupported h5lite version {version}")
        self.version = int(version)
        (header_off,) = struct.unpack("<Q", fh.read(8))
        fh.seek(0, os.SEEK_END)
        end = fh.tell()
        if header_off + 8 > end:
            raise TruncatedFileError(
                f"{self.path!r} is truncated (header out of range)"
            )
        fh.seek(end - 8)
        (header_len,) = struct.unpack("<Q", fh.read(8))
        if header_off + header_len + 8 != end:
            raise CorruptFileError(
                f"{self.path!r} header bookkeeping is inconsistent"
            )
        fh.seek(header_off)
        try:
            doc = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorruptFileError(f"{self.path!r} header is corrupt: {exc}") from exc

        def build(entry: Dict[str, Any], parent: Group, name: str) -> None:
            if entry["kind"] == "dataset":
                if entry.get("layout") == "chunked":
                    if version < 2:
                        raise CorruptFileError(
                            f"{self.path!r}: v{version} container carries a "
                            "chunked dataset"
                        )
                    ds = Dataset(
                        self,
                        _join(parent.name, name),
                        np.dtype(entry["dtype"]),
                        tuple(entry["shape"]),
                        chunk_rows=int(entry["chunk_rows"]),
                        codec=entry.get("codec", "none"),
                    )
                    # [offset, stored, crc, rows] per chunk, as parsed
                    index = entry["chunks"]
                    bounds = list(itertools.accumulate(
                        [chunk[3] for chunk in index], initial=0))
                    if ds.shape and bounds[-1] != ds.shape[0]:
                        raise CorruptFileError(
                            f"{self.path!r}: chunk index of {ds.name!r} covers "
                            f"{bounds[-1]} rows, shape says {ds.shape[0]}"
                        )
                    ds._chunk_index = index
                    ds._chunk_bounds = bounds
                else:
                    ds = Dataset(
                        self,
                        _join(parent.name, name),
                        np.dtype(entry["dtype"]),
                        tuple(entry["shape"]),
                        compression=entry.get("compression"),
                    )
                    ds._offset = int(entry["offset"])
                    ds._stored_nbytes = entry.get("stored_nbytes")
                    ds._crc = int(entry["crc"])
                ds._attrs = dict(entry.get("attrs", {}))
                parent._children[name] = ds
            else:
                grp = Group(self, _join(parent.name, name))
                grp._attrs = dict(entry.get("attrs", {}))
                parent._children[name] = grp
                for child_name, child in entry.get("children", {}).items():
                    build(child, grp, child_name)

        root = doc["root"]
        self._attrs = dict(root.get("attrs", {}))
        for child_name, child in root.get("children", {}).items():
            build(child, self, child_name)


def _split(path: str) -> List[str]:
    return [p for p in path.strip("/").split("/") if p]


def _join(parent: str, name: str) -> str:
    return (parent.rstrip("/") + "/" + name) if parent != "/" else "/" + name
