"""Intra-run shard scaling: the second level of the hierarchy, timed.

Algorithm 1 stops scaling at the run count; ISSUE 5's acceptance bar
is that fanning *inside* a run (detector shards for MDNorm, event
shards for BinMD, executed on the node's process pool) buys wall-clock
on a multi-core host:

* correctness (always): the sharded panel's histograms are
  bit-identical to the 1-shard baseline (the in-memory ``vectorized``
  loop, whose batch bodies the shards run) — sharding is an execution
  detail, never a numerics detail;
* performance (multi-core hosts only): the sharded panel is >= 1.5x
  faster than that single-level baseline.  Single-core hosts **skip**
  the speedup assertion (no win is physically possible there) but
  still check the numerics, so the smoke never rots.
"""

import os

import numpy as np
import pytest

from conftest import record_report
from repro.bench.harness import run_sharded_panel
from repro.bench.report import format_table
from repro.jacc.workers import GLOBAL_POOL

MIN_SPEEDUP = 1.5
N_SHARDS = 4
STAGES = ("UpdateEvents", "MDNorm", "BinMD", "Total")


@pytest.fixture(scope="module")
def panel(benzil_data):
    p = run_sharded_panel(benzil_data, n_shards=N_SHARDS)
    yield p
    GLOBAL_POOL.dispose()


def test_sharded_panel_bit_identical(panel):
    """The determinism half of the acceptance bar: every histogram of
    the sharded campaign equals the single-level one bit for bit."""
    base, shard = panel.baseline.result, panel.sharded.result
    assert np.array_equal(shard.cross_section.signal,
                          base.cross_section.signal, equal_nan=True)
    assert np.array_equal(shard.binmd.signal, base.binmd.signal)
    assert np.array_equal(shard.mdnorm.signal, base.mdnorm.signal)


def test_sharded_speedup(panel):
    """The performance half, reported always and asserted only where a
    win is physically possible (>= 2 cores)."""
    rows = [
        (
            stage,
            f"{panel.baseline.timings.seconds(stage):.4f}",
            f"{panel.sharded.timings.seconds(stage):.4f}",
            f"{panel.speedup(stage):.2f}x",
        )
        for stage in STAGES
    ]
    record_report(
        "shard_scaling",
        format_table(
            f"Intra-run shard scaling (Benzil panel, {panel.n_shards} shards"
            f" on {panel.workers} workers vs 1-shard vectorized)",
            ["stage", "1-shard (s)", f"x{panel.n_shards} shards (s)",
             "speedup"],
            rows,
        ),
    )
    cores = os.cpu_count() or 1
    if cores < 2:
        pytest.skip(
            f"single-core host ({cores} CPU): shard fan-out cannot win; "
            "numerics verified, speedup not assertable"
        )
    assert panel.speedup("Total") >= MIN_SPEEDUP, (
        f"sharded panel only {panel.speedup('Total'):.2f}x vs 1-shard "
        f"vectorized (bar: {MIN_SPEEDUP}x on {cores} cores)"
    )
