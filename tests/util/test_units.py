"""Unit tests for the shared byte-size parser."""

import pytest

from repro.util.units import SizeParseError, parse_size


class TestParseSize:
    @pytest.mark.parametrize("text,expected", [
        ("65536", 65536),
        ("64K", 64 * 1024),
        ("64k", 64 * 1024),
        ("64KB", 64 * 1024),
        ("2M", 2 * 1024 * 1024),
        ("2MB", 2 * 1024 * 1024),
        ("1G", 1 << 30),
        ("1.5K", int(1.5 * 1024)),
        (" 128K ", 128 * 1024),
        ("1", 1),
        ("512", 512),
        ("1K", 1024),
        ("1M", 1 << 20),
        ("1.5M", int(1.5 * (1 << 20))),
        ("3G", 3 << 30),
    ])
    def test_accepts(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("text", [
        "", "K", "abc", "1X", "12QB", "-4K", "0", "0.0001",
    ])
    def test_rejects(self, text):
        with pytest.raises(SizeParseError):
            parse_size(text)

    def test_error_is_valueerror_too(self):
        # callers that guard with ValueError (argparse adapters) work
        with pytest.raises(ValueError):
            parse_size("nope")

