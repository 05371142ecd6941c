"""Byte-size parsing and formatting (the K/M/G convention).

One implementation of the ``64K`` / ``2M`` / ``1G`` size grammar for
every surface that accepts a byte budget — the out-of-core
``--memory-budget`` flag of ``repro trace`` and ``repro perf``.  Binary
multipliers (K = 1024) match the tile manager's accounting; an optional
trailing ``B`` is tolerated (``64KB`` == ``64K``).
"""

from __future__ import annotations

from repro.util.validation import ReproError

#: binary suffix multipliers, largest first (formatting walks this)
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


def format_size(n: int | float) -> str:
    """Render a byte count with the largest exact-enough suffix.

    Exact multiples print without a decimal (``64K``, ``2M``); others
    keep one decimal (``1.5M``); values under 1K print as plain bytes.
    The output round-trips through :func:`parse_size` up to the one
    printed decimal.
    """
    n = float(n)
    if n < 0:
        return f"-{format_size(-n)}"
    for suffix, value in _SUFFIXES:
        if n >= value:
            q = n / value
            if q == int(q):
                return f"{int(q)}{suffix}"
            return f"{q:.1f}{suffix}"
    return f"{int(n)}" if n == int(n) else f"{n:.1f}"
