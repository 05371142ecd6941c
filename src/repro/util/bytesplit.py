"""Two-way CRC32 and SHA-256 leaves over one helper thread.

``zlib.crc32`` and ``hashlib`` release the GIL, so a buffer of
:data:`SPLIT_BYTES` or more is hashed in two halves at once: a lazily
started helper thread takes the first half, the caller the second.  If
``Future.cancel()`` succeeds (the helper is busy or has not started),
the caller hashes the first half too, so the worst case is the serial
cost.  :func:`crc32` joins its halves with zlib's combine algorithm and
returns exactly ``zlib.crc32(buf)``.  A forked child drops the helper
it inherited; with fewer than two usable cores nothing reaches one.
A tracer counts ``bytesplit.calls``, ``bytesplit.helper_bytes`` (bytes
the helper hashed) and ``bytesplit.inline`` (cancel fallbacks).

The same helper carries a :class:`ByteJob`: a read followed by hashes
of byte ranges of what it read, queued by one caller and joined by it
later, so the bytes are read and checked while the caller computes
something else.
"""

from __future__ import annotations

import functools
import hashlib
import os
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.util import trace as _trace

#: buffers of this many bytes or more are hashed two ways
SPLIT_BYTES = 2 << 20

_POLY = 0xEDB88320
_lock = threading.Lock()
_pool: Optional[ThreadPoolExecutor] = None


def _multmodp(a: int, b: int) -> int:
    """``a * b`` modulo the CRC-32 polynomial (bit-reflected, ``a != 0``)."""
    m = 1 << 31
    p = 0
    while True:
        if a & m:
            p ^= b
            if not a & (m - 1):
                return p
        m >>= 1
        b = (b >> 1) ^ _POLY if b & 1 else b >> 1


def _x2n_table() -> Tuple[int, ...]:
    table = [1 << 30]               # x^1
    for _ in range(31):
        table.append(_multmodp(table[-1], table[-1]))
    return tuple(table)


#: x^(2^n) modulo the polynomial, n = 0..31
_X2N = _x2n_table()


@functools.lru_cache(maxsize=64)
def _x8nmodp(n: int) -> int:
    """x^(8 n) modulo the polynomial: the shift of ``n`` zero bytes."""
    p, k = 1 << 31, 3               # x^0; one byte is 2^3 bits
    while n:
        if n & 1:
            p = _multmodp(_X2N[k & 31], p)
        n >>= 1
        k += 1
    return p


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """CRC32 of ``A + B`` from ``crc32(A)``, ``crc32(B)`` and ``len(B)``."""
    if len2 < 0:
        raise ValueError(f"negative length {len2}")
    return _multmodp(_x8nmodp(len2), crc1) ^ crc2


def _helper() -> Optional[ThreadPoolExecutor]:
    global _pool
    if _pool is None and _cores() >= 2:
        with _lock:
            if _pool is None:
                _pool = ThreadPoolExecutor(1, thread_name_prefix="bytesplit")
    return _pool


def _cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _drop_helper() -> None:
    global _pool, _lock
    _pool, _lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_helper)


def _halves(fn: Callable[[Any], Any], view: Any) -> Tuple[Any, Any]:
    """``(fn(first half), fn(second half))`` of a 1-byte-item buffer."""
    cut = len(view) // 2
    first, second = view[:cut], view[cut:]
    pool = _helper() if len(view) >= SPLIT_BYTES else None
    if pool is None:
        return fn(first), fn(second)
    fut = pool.submit(fn, first)
    tail = fn(second)
    if fut.cancel():
        _trace.active_tracer().count("bytesplit.inline")
        return fn(first), tail
    _trace.active_tracer().count("bytesplit.helper_bytes", cut)
    return fut.result(), tail


def crc32(buf: Any) -> int:
    """Exactly ``zlib.crc32(buf)``; from :data:`SPLIT_BYTES` up it CRCs
    two halves of the buffer, below it the object it was given."""
    _trace.active_tracer().count("bytesplit.calls")
    view = memoryview(buf)
    if view.nbytes < SPLIT_BYTES:
        return zlib.crc32(buf)
    head, tail = _halves(zlib.crc32, view.cast("B"))
    return crc32_combine(head, tail, view.nbytes - view.nbytes // 2)


def sha256(data: Any) -> bytes:
    """SHA-256 digest of a buffer: one leaf."""
    return hashlib.sha256(data).digest()


def sha256_halves(data: Any) -> Tuple[bytes, bytes]:
    """SHA-256 of each half of a 1-D byte buffer (``bytes`` or a uint8
    array); the first half is the shorter one."""
    _trace.active_tracer().count("bytesplit.calls")
    return _halves(sha256, data)


#: one hash of a :class:`ByteJob`: ``fn(view[start:stop])``
Piece = Tuple[Callable[[Any], Any], int, int]


class ByteJob:
    """A read, then GIL-free hashes of byte ranges of what it read.

    :meth:`start` queues the job on the helper, which takes the read
    and then the pieces in order.  :meth:`join` runs on the caller
    every piece the helper has not taken, waits for the one it is
    running and returns the buffer and each piece's result; a piece
    waits for the read.  Without a helper (fewer than two cores, or
    never started) the caller runs everything.  The job calls no
    tracer: ``inline_pieces`` (the read counts as one) and
    ``helper_bytes`` say who ran what once it is joined.
    """

    def __init__(self, read: Callable[[], bytes], pieces: Sequence[Piece]) -> None:
        self._read = read
        self._pieces = list(pieces)
        self._results: List[Any] = [None] * len(self._pieces)
        self._next = 0                  # 0 is the read, k the piece k - 1
        self._lock = threading.Lock()
        self._have_buf = threading.Event()
        self._buf: Optional[bytes] = None
        self._error: Optional[BaseException] = None
        self._future: Any = None
        self.inline_pieces = 0
        self.helper_bytes = 0

    def start(self) -> bool:
        """Queue the job on the helper; False when there is none."""
        pool = _helper()
        if pool is None:
            return False
        self._future = pool.submit(self._work, True)
        return True

    def _take(self) -> Optional[int]:
        with self._lock:
            k = self._next
            if k > len(self._pieces):
                return None
            self._next = k + 1
            return k

    def _work(self, helper: bool) -> None:
        while (k := self._take()) is not None:
            try:
                self._run(k)
            except Exception as exc:  # re-raised by join
                with self._lock:
                    self._error = self._error or exc
            if not helper:
                self.inline_pieces += 1
            elif k:
                _, a, b = self._pieces[k - 1]
                self.helper_bytes += b - a

    def _run(self, k: int) -> None:
        if k == 0:
            try:
                self._buf = self._read()
            finally:
                self._have_buf.set()
            return
        self._have_buf.wait()
        if self._buf is not None:
            fn, a, b = self._pieces[k - 1]
            self._results[k - 1] = fn(memoryview(self._buf)[a:b])

    def _wait_helper(self) -> None:
        if self._future is not None and not self._future.cancel():
            self._future.result()

    def join(self) -> Tuple[bytes, List[Any]]:
        """The buffer and the pieces' results; raises what the read or
        a piece raised."""
        self._work(False)
        self._wait_helper()
        if self._error is not None:
            raise self._error
        assert self._buf is not None
        return self._buf, self._results

    def close(self) -> None:
        """Abandon the job: nothing new starts, and the piece the helper
        is running has finished when this returns."""
        with self._lock:
            self._next = len(self._pieces) + 1
        self._wait_helper()
