"""Byte-size parsing (the K/M/G convention).

One implementation of the ``64K`` / ``2M`` / ``1G`` size grammar for
every surface that accepts a byte budget — the out-of-core
``--memory-budget`` flag of ``repro trace``.  Binary multipliers
(K = 1024) match the tile manager's accounting; an optional trailing
``B`` is tolerated (``64KB`` == ``64K``).
"""

from __future__ import annotations

from repro.util.validation import ReproError

#: binary suffix multipliers, largest first
_SUFFIXES = (("G", 1 << 30), ("M", 1 << 20), ("K", 1 << 10))


class SizeParseError(ReproError, ValueError):
    """An unparseable or non-positive byte-size string."""


def parse_size(text: str) -> int:
    """Parse a byte size with optional K/M/G suffix into an int.

    Accepts plain integers (``65536``), suffixed values (``64K``,
    ``2M``, ``1G``, case-insensitive) and fractional suffixed values
    (``1.5M``); a trailing ``B`` is ignored (``64KB``).  Raises
    :class:`SizeParseError` on malformed or non-positive input.
    """
    raw = str(text).strip().upper().removesuffix("B")
    mult = 1
    for suffix, value in _SUFFIXES:
        if raw.endswith(suffix):
            raw, mult = raw[: -len(suffix)], value
            break
    try:
        value = int(float(raw) * mult)
    except ValueError:
        raise SizeParseError(
            f"invalid size {text!r} (expected e.g. 65536, 64K, 2M, 1G)"
        ) from None
    if value < 1:
        raise SizeParseError(f"size must be positive, got {text!r}")
    return value

