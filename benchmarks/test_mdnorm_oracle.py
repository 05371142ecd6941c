"""MDNorm oracle on real instrument geometry: batch body vs element body.

perfbench checks each result's BinMD against a NumPy oracle; nothing
there checks MDNorm independently.  This reduces Benzil/CORELLI and
Bixbyite/TOPAZ (2 files each, ``REPRO_SCALE``, default 0.0002) twice:
with ``serial``, whose element body is Listing 1 one trajectory at a
time (fill, comb sort, one interpolation per breakpoint, scalar
binning), and with ``vectorized``, the compacted batch body.  Each run
gets a fresh geometry cache, so both compute every stage cold.  The
MDNorm and BinMD signals must be equal bit for bit.

    PYTHONPATH=src REPRO_SCALE=0.0002 python -m pytest -q benchmarks/test_mdnorm_oracle.py
"""

import os

import numpy as np
import pytest

from repro.bench.workloads import benzil_corelli, bixbyite_topaz, build_workload
from repro.core.geom_cache import GeomCache
from repro.core.workflow import ReductionWorkflow, WorkflowConfig

SAMPLES = {"benzil": benzil_corelli, "bixbyite": bixbyite_topaz}


def _reduce(data, backend):
    return ReductionWorkflow(WorkflowConfig(
        md_paths=data.md_paths, flux_path=data.flux_path,
        vanadium_path=data.vanadium_path, instrument=data.instrument,
        grid=data.grid, point_group=data.point_group, backend=backend,
        geom_cache=GeomCache(),
    )).run()


@pytest.mark.parametrize("sample", sorted(SAMPLES))
def test_batch_body_equals_element_body(sample):
    scale = float(os.environ.get("REPRO_SCALE", 0.0002))
    data = build_workload(SAMPLES[sample](scale=scale, n_files=2))
    element = _reduce(data, "serial")
    batch = _reduce(data, "vectorized")
    assert element.mdnorm.signal.sum() > 0
    assert np.array_equal(batch.mdnorm.signal, element.mdnorm.signal)
    assert np.array_equal(batch.binmd.signal, element.binmd.signal)
