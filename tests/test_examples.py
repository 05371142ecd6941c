"""Smoke tests: the shipped examples must run end to end.

Each example is executed in-process via ``runpy`` with the benchmark
data cache pointed at a temp dir, so they exercise the same code paths
a user sees (examples print to stdout; output content is sanity-checked
through capsys).
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


@pytest.fixture(autouse=True)
def bench_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_DATA", str(tmp_path))


def _run(name: str) -> None:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")


class TestExamples:
    def test_quickstart(self, capsys):
        _run("quickstart.py")
        out = capsys.readouterr().out
        assert "MDNorm" in out
        assert "cross-section grid" in out

    def test_portable_kernels(self, capsys):
        _run("portable_kernels.py")
        out = capsys.readouterr().out
        assert "identical to serial" in out
        assert "vectorized" in out

    def test_live_streaming(self, capsys):
        _run("live_streaming.py")
        out = capsys.readouterr().out
        assert "streamed reduction == offline batch reduction" in out

    def test_examples_have_docstrings_and_mains(self):
        """Every example is a runnable, documented script."""
        for path in sorted(EXAMPLES.glob("*.py")):
            src = path.read_text()
            assert src.lstrip().startswith('"""'), f"{path.name} lacks a docstring"
            assert '__main__' in src, f"{path.name} lacks a main guard"
            assert "Run:" in src, f"{path.name} lacks run instructions"
