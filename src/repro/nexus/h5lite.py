"""h5lite: a minimal hierarchical binary container with an h5py-like API.

The real workflow stores raw and intermediate data in HDF5.  HDF5 is not
available in this environment, so h5lite implements the subset of the
model the reduction needs, from scratch:

* a tree of **groups**, each holding child groups and **datasets**;
* datasets are n-dimensional typed arrays, stored contiguously in
  C order, read back lazily (``Dataset[...]`` seeks into the file, so a
  40M-event table is not touched until sliced; a dataset object is
  built from the parsed header on first access);
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
  materializing whole tables (DESIGN.md section 6g);
* a :class:`PayloadRead` reads the chunk streams of several chunked
  datasets with one positioned read and checks them, optionally on the
  ``bytesplit`` helper thread while the caller works, so a reduction
  reads and checks exactly the columns it consumes.

On-disk layout::

    +------------------+----------------------------------------------+
    | 8 bytes          | magic  b"H5LITE01"                           |
    | 4 bytes  u32 LE  | format version (1 or 2)                      |
    | 8 bytes  u64 LE  | byte offset of the JSON header               |
    | ...              | dataset payloads, 8-byte aligned             |
    |                  |   contiguous: one raw (or deflated) blob     |
    |                  |   chunked (v2): N independent encoded chunks |
    | header           | compact UTF-8 JSON tree (groups/datasets/    |
    |                  | attrs, per-chunk [offset, stored, crc, rows] |
    |                  | index; empty attrs and a chunk_rows the      |
    |                  | first chunk gives are left out)              |
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

import bisect
import functools
import io
import itertools
import json
import math
import os
import struct
import zlib
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, Union)

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


def overlapping_chunks(bounds: Sequence[int], start: int,
                       stop: int) -> Tuple[int, int]:
    """The chunks ``[first, last)`` that rows ``[start, stop)`` overlap,
    given the ascending chunk row ``bounds`` (``[0, r1, ..., n]``); an
    empty range when no row is selected.  Two bisections, so a window
    costs the same however many chunks the dataset has."""
    lo, hi = max(int(start), 0), min(int(stop), bounds[-1])
    if lo >= hi:
        return 0, 0
    return bisect.bisect_right(bounds, lo) - 1, bisect.bisect_left(bounds, hi)


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
        self.shape = tuple(map(int, shape))
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

    @classmethod
    def _from_entry(cls, file: "File", name: str,
                    entry: Dict[str, Any]) -> "Dataset":
        """The dataset a parsed header entry describes.  It sets the
        fields :meth:`__init__` sets without checking them again (the
        header holds what a writer accepted): a run's load builds a
        dozen datasets, and this is a fixed part of its cost."""
        index = entry.get("chunks")  # [offset, stored, crc, rows] per chunk
        ds = cls.__new__(cls)
        ds.__dict__.update(
            _file=file, name=name, _attrs=dict(entry.get("attrs", ())),
            dtype=np.dtype(entry["dtype"]), shape=tuple(entry["shape"]),
            compression=entry.get("compression"), _chunks=[],
            _stored_nbytes=entry.get("stored_nbytes"), _crc_checked=False,
            _chunk_index=index, _chunk_bounds=None)
        if index is None:
            ds.__dict__.update(chunk_rows=None, codec=None,
                               _offset=int(entry["offset"]),
                               _crc=int(entry["crc"]))
        else:
            ds.__dict__.update(
                chunk_rows=int(entry.get("chunk_rows") or index[0][3]),
                codec=entry.get("codec", "none"), _offset=None, _crc=None)
        return ds

    # -- shape helpers -------------------------------------------------
    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def nbytes(self) -> int:
        return self.size * self.dtype.itemsize

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def row_nbytes(self) -> int:
        """Bytes per axis-0 row (itemsize for 1-D datasets)."""
        items = math.prod(self.shape[1:])
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
            for ci in range(*overlapping_chunks(bounds, start, stop)):
                c0, c1 = bounds[ci], bounds[ci + 1]
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
        return self._read_contiguous()

    def _read_contiguous(self) -> np.ndarray:
        """Read a contiguous on-disk dataset whole: fire its fault point,
        check the stored bytes' length and CRC32 (two ways from
        :data:`~repro.util.bytesplit.SPLIT_BYTES` up) and inflate a
        deflated payload.  The array is the checked buffer itself."""
        _faults.fault_point("h5lite.read", dataset=self.name)
        fh = self._file._fh
        if fh is None:
            raise H5LiteError(f"file {self._file.path!r} is closed")
        n = self._stored_nbytes if self._stored_nbytes is not None else self.nbytes
        fh.seek(self._offset)
        raw = fh.read(n)
        _trace.active_tracer().count("h5lite.bytes_read", len(raw))
        if len(raw) != n:
            raise TruncatedFileError(
                f"truncated dataset {self.name!r}: wanted {n} bytes, "
                f"got {len(raw)}"
            )
        if not self._crc_checked and self._crc is not None:
            if _bytesplit.crc32(raw) != self._crc:
                raise CorruptFileError(
                    f"checksum mismatch reading dataset {self.name!r}"
                )
            self._crc_checked = True
        if self.compression == "zlib":
            try:
                raw = zlib.decompress(raw)
            except zlib.error as exc:
                raise CorruptFileError(
                    f"corrupt compressed dataset {self.name!r}: {exc}"
                ) from exc
            if len(raw) != self.nbytes:
                raise CorruptFileError(
                    f"decompressed size mismatch for dataset {self.name!r}"
                )
        return np.frombuffer(raw, dtype=self.dtype).reshape(self.shape)

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


#: a CRC piece of a :class:`PayloadRead` takes consecutive streams up
#: to this many bytes together
PIECE_BYTES = _bytesplit.SPLIT_BYTES // 2


def _crc32s(cuts: Sequence[Tuple[int, int]], view: Any) -> List[int]:
    """The CRC32 of each ``view[a:b]`` for ``(a, b)`` in ``cuts``."""
    return [zlib.crc32(view[a:b]) for a, b in cuts]


def _crc_pieces(streams: Sequence[Tuple[int, int]]) -> List[_bytesplit.Piece]:
    """The CRC pieces of streams given as ``(offset, nbytes)`` in the
    read buffer: consecutive streams up to :data:`PIECE_BYTES` share a
    piece, whose result lists their CRC32s in order; a stream of
    :data:`~repro.util.bytesplit.SPLIT_BYTES` or more is two pieces,
    one per half."""
    parts: List[Tuple[int, int]] = []
    for a, n in streams:
        if n >= _bytesplit.SPLIT_BYTES:
            parts += [(a, a + n // 2), (a + n // 2, a + n)]
        else:
            parts.append((a, a + n))
    groups: List[List[Tuple[int, int]]] = []
    size = 0
    for a, b in parts:
        if not groups or size + b - a > PIECE_BYTES:
            groups.append([])
            size = 0
        groups[-1].append((a, b))
        size += b - a
    pieces: List[_bytesplit.Piece] = []
    for group in groups:
        lo = min(a for a, _ in group)
        cuts = tuple((a - lo, b - lo) for a, b in group)
        pieces.append((functools.partial(_crc32s, cuts), lo,
                       max(b for _, b in group)))
    return pieces


def _leaves(digest: Optional[Callable[[Tuple[bytes, bytes]], Any]],
            view: Any) -> Tuple[Tuple[bytes, bytes], Any]:
    """The two SHA-256 leaves of ``view``, cut where
    :func:`~repro.util.bytesplit.sha256_halves` cuts, and ``digest`` of
    them (None without one)."""
    cut = len(view) // 2
    leaves = (_bytesplit.sha256(view[:cut]), _bytesplit.sha256(view[cut:]))
    return leaves, None if digest is None else digest(leaves)


class PayloadRead:
    """The chunk streams of some chunked datasets of one file, read
    whole and checked: begun but not done.

    Made on the caller, which fires each stream's ``h5lite.read_chunk``
    fault point now.  :meth:`join` reads the byte span that holds every
    stream with one positioned read (a writer that puts the streams
    read together back to back makes that span exactly theirs), checks
    every stream's CRC32 against its own stored one and returns one
    read-only array per dataset: a dataset stored raw in one chunk is a
    view of the read buffer, any other is decoded chunk by chunk.
    ``hashed`` (indices into ``datasets``) names datasets whose decoded
    bytes, concatenated in order, are hashed as two SHA-256 leaves, cut
    where :func:`~repro.util.bytesplit.sha256_halves` cuts them, and
    ``digest`` (if given) maps the leaves to what the caller checks
    them against; :attr:`leaves` and :attr:`digest` hold both once
    joined.

    Between the two, :meth:`start` may queue the work as one
    :class:`~repro.util.bytesplit.ByteJob` on the helper, which runs it
    while the caller works; :meth:`join` then takes the pieces the
    helper has not started.  The pieces are the read, the leaves and
    their digest in one piece when the hashed streams are raw and back
    to back (first, so a caller that joins early takes the CRCs; from
    :data:`~repro.util.bytesplit.SPLIT_BYTES` up a piece per leaf,
    whose digest the join takes), and the CRC32s of consecutive
    streams up to :data:`PIECE_BYTES`
    together (a stream of :data:`~repro.util.bytesplit.SPLIT_BYTES` or
    more as two halves, joined with ``crc32_combine``).  An unstarted
    join of ``SPLIT_BYTES`` or more shares its pieces with the helper
    the same way.  A begun read must be joined or closed before its
    file is.
    """

    def __init__(self, datasets: Sequence[Dataset], hashed: Sequence[int] = (),
                 digest: Optional[Callable[[Tuple[bytes, bytes]], Any]] = None,
                 ) -> None:
        if not datasets:
            raise H5LiteError("a payload read needs at least one dataset")
        #: (dataset index, chunk, [offset, stored, crc, rows]) per stream
        self._streams: List[Tuple[int, int, List[int]]] = []
        for k, ds in enumerate(datasets):
            if ds._chunk_index is None:
                raise H5LiteError(f"dataset {ds.name!r} is not stored chunked")
            for ci, entry in enumerate(ds._chunk_index):
                _faults.fault_point("h5lite.read_chunk", dataset=ds.name, chunk=ci)
                self._streams.append((k, ci, entry))
        self._datasets = list(datasets)
        self._file = self._datasets[0]._file
        entries = [entry for _, _, entry in self._streams]
        self._lo = min((e[0] for e in entries), default=0)
        self._hi = max((e[0] + e[1] for e in entries), default=self._lo)
        self._hashed = list(hashed)
        self._digest = digest
        span = self._raw_span(self._hashed) if self._hashed else None
        self._pieces: List[_bytesplit.Piece] = []
        if span is not None and span[1] - span[0] >= _bytesplit.SPLIT_BYTES:
            a, b = span  # a leaf a piece, so the two can run two ways
            mid = a + (b - a) // 2
            self._pieces += [(_bytesplit.sha256, a, mid), (_bytesplit.sha256, mid, b)]
        elif span is not None:
            self._pieces.append((functools.partial(_leaves, digest), *span))
        self._n_hash = len(self._pieces)
        self._pieces += _crc_pieces([(e[0] - self._lo, e[1]) for e in entries])
        self._job: Optional[_bytesplit.ByteJob] = None
        #: SHA-256 of each half of the hashed datasets' bytes once
        #: joined; None if nothing is hashed
        self.leaves: Optional[Tuple[bytes, bytes]] = None
        #: ``digest(leaves)`` once joined; None without a digest
        self.digest: Any = None

    def _raw_span(self, ks: Sequence[int]) -> Optional[Tuple[int, int]]:
        """The ``[start, stop)`` of datasets ``ks`` in the read buffer
        when they are stored raw, back to back and in order (their
        stored bytes are then their decoded bytes); else None."""
        chunks: List[List[int]] = []
        for k in ks:
            ds = self._datasets[k]
            if (ds.codec or "none") != "none":
                return None
            chunks += ds._chunk_index
        if not chunks:
            return 0, 0
        if any(cur[0] != prev[0] + prev[1] for prev, cur in zip(chunks, chunks[1:])):
            return None
        return chunks[0][0] - self._lo, chunks[-1][0] + chunks[-1][1] - self._lo

    @property
    def nbytes(self) -> int:
        """Bytes the read takes off the file (the span)."""
        return self._hi - self._lo

    def _pread(self) -> bytes:
        """The span, by positioned reads, so the caller may read other
        datasets of the file meanwhile."""
        fh = self._file._fh
        if fh is None:
            raise H5LiteError(f"file {self._file.path!r} is closed")
        fd, offset, n = fh.fileno(), self._lo, self.nbytes
        raw = os.pread(fd, n, offset)
        while 0 < len(raw) < n:  # a short read before EOF
            more = os.pread(fd, n - len(raw), offset + len(raw))
            if not more:
                break
            raw += more
        return raw

    def start(self) -> bool:
        """Queue the byte job on the helper; False (nothing queued) when
        there is no helper."""
        job = _bytesplit.ByteJob(self._pread, self._pieces)
        if not job.start():
            return False
        self._job = job
        return True

    def join(self) -> List[np.ndarray]:
        """Read (what the helper has not), check and return the arrays."""
        tracer = _trace.active_tracer()
        job, self._job = self._job, None
        queued = job is not None
        if job is None:
            job = _bytesplit.ByteJob(self._pread, self._pieces)
            if self.nbytes >= _bytesplit.SPLIT_BYTES:
                job.start()  # two ways: the helper and the caller take turns
        buf, results = job.join()
        if queued:
            tracer.count("nexus.payload_inline", job.inline_pieces)
        if job.helper_bytes:
            tracer.count("bytesplit.helper_bytes", job.helper_bytes)
        tracer.count("h5lite.bytes_read", len(buf))
        if len(buf) != self.nbytes:
            raise TruncatedFileError(
                f"truncated read of {self._file.path!r}: wanted "
                f"{self.nbytes} bytes, got {len(buf)}")
        self._check(results[self._n_hash:])
        tracer.count("h5lite.chunks_decoded", len(self._streams))
        arrays = [self._decode(ds, buf) for ds in self._datasets]
        if self._n_hash == 1:
            self.leaves, self.digest = results[0]
        elif self._n_hash == 2:
            self.leaves = (results[0], results[1])
            if self._digest is not None:
                self.digest = self._digest(self.leaves)
        elif self._hashed:
            self.leaves = _bytesplit.sha256_halves(np.concatenate(
                [arrays[k].reshape(-1).view(np.uint8) for k in self._hashed]))
            if self._digest is not None:
                self.digest = self._digest(self.leaves)
        return arrays

    def _check(self, results: Sequence[List[int]]) -> None:
        """Each stream's CRC32 (``results`` of the CRC pieces, in
        stream order) against its stored one."""
        crcs = itertools.chain.from_iterable(results)
        for k, ci, (_, stored, want, _) in self._streams:
            crc = next(crcs)
            if stored >= _bytesplit.SPLIT_BYTES:
                crc = _bytesplit.crc32_combine(crc, next(crcs), stored - stored // 2)
            if crc != want:
                raise CorruptFileError(
                    f"checksum mismatch in chunk {ci} of dataset "
                    f"{self._datasets[k].name!r}")

    def _decode(self, ds: Dataset, buf: bytes) -> np.ndarray:
        """Dataset ``ds`` from the read buffer: one raw chunk is a view
        of it."""
        index = ds._chunk_index
        assert index is not None
        codec = ds.codec or "none"
        if codec == "none" and len(index) == 1:
            offset, stored, _crc, _rows = index[0]
            arr = np.frombuffer(buf, ds.dtype, stored // ds.dtype.itemsize,
                                offset - self._lo)
            return arr if len(ds.shape) == 1 else arr.reshape(ds.shape)
        if not index:
            empty = np.empty(ds.shape, dtype=ds.dtype)
            empty.flags.writeable = False
            return empty
        view = memoryview(buf)
        parts = []
        for offset, stored, _crc, rows in index:
            a = offset - self._lo
            raw = decode_chunk(view[a:a + stored], codec, ds.dtype.itemsize,
                               rows * ds.row_nbytes, ds.name)
            parts.append(np.frombuffer(raw, dtype=ds.dtype).reshape(
                (rows,) + ds.shape[1:]))
        if len(parts) == 1:
            return parts[0]
        out = np.concatenate(parts, axis=0)
        out.flags.writeable = False
        return out

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
        #: child nodes; a child read from a file's header stays its
        #: parsed entry until first accessed (:meth:`_child`)
        self._children: "Dict[str, Any]" = {}

    def _child(self, name: str) -> "_Node":
        node = self._children[name]
        if isinstance(node, dict):
            node = self._file._build(node, _join(self.name, name))
            self._children[name] = node
        return node

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
        if path in self._children:  # a child's plain name
            return self._child(path)
        node: _Node = self
        for part in _split(path):
            if not isinstance(node, Group) or part not in node._children:
                raise KeyError(f"no object {path!r} in {self.name!r}")
            node = node._child(part)
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
        return [(name, self._child(name)) for name in list(self._children)]

    def groups(self) -> Iterator["Group"]:
        for _, child in self.items():
            if isinstance(child, Group):
                yield child

    def datasets(self) -> Iterator[Dataset]:
        for _, child in self.items():
            if isinstance(child, Dataset):
                yield child

    def visit(self, func) -> None:
        """Depth-first traversal calling ``func(path, node)``."""
        for _, child in self.items():
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
                    codec=codec,
                    chunks=index,
                )
                if not index or index[0][3] != rows_per:
                    entry["chunk_rows"] = rows_per

            def place(node: _Node) -> Dict[str, Any]:
                entry: Dict[str, Any] = (
                    {"attrs": dict(node._attrs)} if node._attrs else {})
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
            header = json.dumps({"version": self.version, "root": tree},
                                separators=(",", ":")).encode("utf-8")
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

        root = doc["root"]
        self._attrs = dict(root.get("attrs", {}))
        self._children = dict(root.get("children", {}))

    def _build(self, entry: Dict[str, Any], name: str) -> _Node:
        """The node of a parsed header entry (built on first access, so
        opening a file does not build the datasets it never touches); a
        group's own children stay entries."""
        if entry["kind"] != "dataset":
            grp = Group(self, name)
            grp._attrs = dict(entry.get("attrs", {}))
            grp._children = dict(entry.get("children", {}))
            return grp
        if "chunks" in entry and self.version < 2:
            raise CorruptFileError(
                f"{self.path!r}: v{self.version} container carries a "
                "chunked dataset"
            )
        ds = Dataset._from_entry(self, name, entry)
        if ds._chunk_index is not None:
            bounds = list(itertools.accumulate(
                [chunk[3] for chunk in ds._chunk_index], initial=0))
            if ds.shape and bounds[-1] != ds.shape[0]:
                raise CorruptFileError(
                    f"{self.path!r}: chunk index of {ds.name!r} covers "
                    f"{bounds[-1]} rows, shape says {ds.shape[0]}"
                )
            ds._chunk_bounds = bounds
        return ds


def _split(path: str) -> List[str]:
    return [p for p in path.strip("/").split("/") if p]


def _join(parent: str, name: str) -> str:
    return (parent.rstrip("/") + "/" + name) if parent != "/" else "/" + name
