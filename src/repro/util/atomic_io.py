"""Crash-safe file and directory publication primitives.

Every durable artifact this package writes — per-run checkpoint deltas,
quarantine records, synthesized benchmark fixtures — must be readable
by a *later* process even if the writing process is killed at an
arbitrary instant.  The rules are the classic ones:

* **write-then-rename**: payloads are written to a temporary sibling
  (same directory, so the rename never crosses a filesystem) and
  published with ``os.replace``, which POSIX guarantees atomic.  A
  reader therefore sees either the old file, the new file, or no file —
  never a torn half-write;
* **fsync before rename**: the temporary file is flushed and fsynced so
  the payload is durable before the name becomes visible;
* **completion sentinels** for multi-file products: a directory of
  fixtures is only trusted once its ``COMPLETE`` marker exists, and the
  marker is written (atomically) strictly after every member file.

This module is the single implementation of those rules; the checkpoint
layer (:mod:`repro.core.checkpoint`) and the benchmark-fixture builder
(:mod:`repro.bench.workloads`) both use it rather than rolling their
own sentinel logic.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Union

PathLike = Union[str, os.PathLike]

#: name of the completion sentinel inside multi-file product directories
COMPLETE_MARKER = "COMPLETE"


def fsync_file(fh) -> None:
    """Flush + fsync an open file object (best effort on odd FS)."""
    fh.flush()
    try:
        os.fsync(fh.fileno())
    except OSError:  # pragma: no cover - e.g. pipes, exotic filesystems
        pass


@contextmanager
def atomic_writer(path: PathLike, mode: str = "wb") -> Iterator[object]:
    """Context manager yielding a temp-file handle published on success.

    ::

        with atomic_writer("out.bin") as fh:
            fh.write(payload)
        # crash anywhere above -> "out.bin" untouched

    On normal exit the temporary is fsynced and ``os.replace``-d onto
    ``path``; on exception it is deleted and ``path`` is untouched.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    fh = os.fdopen(fd, mode)
    try:
        yield fh
        fsync_file(fh)
        fh.close()
        os.replace(tmp, path)
    except BaseException:
        fh.close()
        try:
            os.unlink(tmp)
        except OSError:  # pragma: no cover - already gone
            pass
        raise


@contextmanager
def atomic_path(path: PathLike) -> Iterator[str]:
    """Yield a temporary *path* that is atomically renamed onto ``path``.

    For writers that need a path rather than a handle (e.g.
    :class:`repro.nexus.h5lite.File`, which opens/closes the file
    itself)::

        with atomic_path(final) as tmp:
            with File(tmp, "w") as f:
                ...

    The writer closes the temporary itself, so on success it is
    reopened and fsynced before the rename, as :func:`atomic_writer`
    does with its handle: a file that exists is a complete one.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    os.close(fd)
    try:
        yield tmp
        with open(tmp, "rb") as fh:
            fsync_file(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    """Atomically publish ``data`` at ``path`` (write-then-rename)."""
    with atomic_writer(path, "wb") as fh:
        fh.write(data)


def atomic_write_text(path: PathLike, text: str) -> None:
    """Atomically publish ``text`` (UTF-8) at ``path``."""
    atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# completion sentinels for multi-file product directories
# ---------------------------------------------------------------------------

def sentinel_path(directory: PathLike) -> Path:
    """The ``COMPLETE`` marker path of a product directory."""
    return Path(directory) / COMPLETE_MARKER


def is_complete(directory: PathLike) -> bool:
    """True iff the directory's product set finished publishing."""
    return sentinel_path(directory).exists()


def mark_complete(directory: PathLike, text: str = "") -> Path:
    """Atomically write the ``COMPLETE`` sentinel (call *last*).

    The sentinel must be written only after every member file of the
    product directory has itself been atomically published; this is the
    ordering that makes the whole directory crash-safe.
    """
    marker = sentinel_path(directory)
    atomic_write_text(marker, text if text.endswith("\n") or not text else text + "\n")
    return marker

