"""Shared benchmark fixtures: workloads built once, tables collected.

Every benchmark renders a paper-style table; this conftest collects
them and prints the full set in the terminal summary, so
``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` captures
both pytest-benchmark's timing table and the paper-vs-measured blocks.
Rendered tables are also written to ``results/``, but only at each
benchmark's own scale: with ``REPRO_SCALE`` set (the tiny-scale CI
smokes) the tracked tables are left untouched.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List

import pytest

from repro.bench.workloads import benzil_corelli, bixbyite_topaz, build_workload

RESULTS_DIR = Path(__file__).resolve().parents[1] / "results"

_REPORTS: List[str] = []


def record_report(name: str, text: str) -> None:
    """Register a rendered table for the terminal summary, and write it
    to ``results/<name>.txt`` when the benchmark ran at its own scale."""
    _REPORTS.append(text)
    if "REPRO_SCALE" in os.environ:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.write_sep("=", "paper-style reproduction tables")
    for text in _REPORTS:
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)


def _bench_scale(default: float) -> float:
    return float(os.environ.get("REPRO_SCALE", default))


@pytest.fixture(scope="session")
def benzil_data():
    """The Benzil/CORELLI workload at benchmark scale (cached on disk)."""
    spec = benzil_corelli(scale=_bench_scale(0.002))
    data = build_workload(spec)
    print(spec.describe())
    return data


@pytest.fixture(scope="session")
def bixbyite_data():
    """The Bixbyite/TOPAZ workload at benchmark scale (cached on disk)."""
    spec = bixbyite_topaz(scale=_bench_scale(0.002))
    data = build_workload(spec)
    print(spec.describe())
    return data


#: per-implementation file subsets; the slow baselines measure fewer
#: files and the harness extrapolates (reported in every table)
FILES = {
    "benzil": {"garnet": 2, "cpp": 8, "minivates": 8},
    "bixbyite": {"garnet": 1, "cpp": 3, "minivates": 3},
}
