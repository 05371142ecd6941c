"""Intra-run shards against the single-level loop.

Shard ranges run in process (DESIGN.md §6f): they are the unit of
out-of-core reads and of work stealing, not a parallel level of their
own.  The sharded panel's histograms must be bit-identical to the
1-shard baseline (the in-memory ``vectorized`` loop, whose batch
bodies the shards run) — sharding is an execution detail, never a
numerics detail.
"""

import numpy as np
import pytest

from repro.bench.harness import run_sharded_panel

N_SHARDS = 4


@pytest.fixture(scope="module")
def panel(benzil_data):
    return run_sharded_panel(benzil_data, n_shards=N_SHARDS)


def test_sharded_panel_bit_identical(panel):
    """Every histogram of the sharded campaign equals the single-level
    one bit for bit."""
    base, shard = panel.baseline.result, panel.sharded.result
    assert np.array_equal(shard.cross_section.signal,
                          base.cross_section.signal, equal_nan=True)
    assert np.array_equal(shard.binmd.signal, base.binmd.signal)
    assert np.array_equal(shard.mdnorm.signal, base.mdnorm.signal)
