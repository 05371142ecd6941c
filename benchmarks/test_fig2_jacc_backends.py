"""Fig. 2: the JACC portability architecture, measured.

The figure's claim is architectural: one kernel source, many back ends.
The measurable reproduction: the BinMD and MDNorm kernels run unchanged
on every registered back end, produce identical histograms, and the
per-back-end wall-clock quantifies what each execution model costs on
this host.
"""

import numpy as np
import pytest

from conftest import record_report
from repro.bench.report import format_table
from repro.core.binmd import bin_events
from repro.core.hist3 import Hist3
from repro.core.md_event_workspace import load_md
from repro.core.mdnorm import mdnorm
from repro.jacc import available_backends, get_backend

_RESULTS = {}
_TIMES = {}


@pytest.mark.parametrize("backend", ["serial", "threads", "vectorized"])
def test_fig2_backend_portability(benchmark, benzil_data, backend):
    ws = load_md(benzil_data.md_paths[0])
    grid = benzil_data.grid
    pg = benzil_data.point_group
    event_t = grid.transforms_for(ws.ub_matrix, pg)
    traj_t = grid.transforms_for(ws.ub_matrix, pg, goniometer=ws.goniometer)
    from repro.nexus.corrections import read_flux_file, read_vanadium_file

    flux = read_flux_file(benzil_data.flux_path)
    van = read_vanadium_file(benzil_data.vanadium_path)

    def reduce_one():
        binmd_h = Hist3(grid)
        bin_events(binmd_h, ws.events, event_t, backend=backend)
        norm_h = Hist3(grid)
        mdnorm(
            norm_h, traj_t, benzil_data.instrument.directions,
            van.detector_weights, flux, ws.momentum_band, backend=backend,
        )
        return binmd_h, norm_h

    binmd_h, norm_h = benchmark.pedantic(reduce_one, rounds=1, iterations=1)
    _RESULTS[backend] = (binmd_h.signal, norm_h.signal)
    _TIMES[backend] = benchmark.stats.stats.mean

    # the portability contract: the serial bits (int64 patterns) on
    # every back end
    if "serial" in _RESULTS and backend != "serial":
        ref_b, ref_n = _RESULTS["serial"]
        assert np.array_equal(binmd_h.signal.view(np.int64), ref_b.view(np.int64))
        assert np.array_equal(norm_h.signal.view(np.int64), ref_n.view(np.int64))

    if len(_TIMES) == 3:
        kinds = {b: get_backend(b).device_kind for b in _TIMES}
        rows = [
            (b, kinds[b], f"{_TIMES[b]:.4f}", f"{_TIMES['serial'] / _TIMES[b]:.1f}x")
            for b in ("serial", "threads", "vectorized")
        ]
        record_report(
            "fig2_jacc_backends",
            format_table(
                "Fig. 2 analogue: one kernel source on every JACC back end "
                "(one Benzil file, MDNorm + BinMD)",
                ["back end", "kind", "WCT (s)", "vs serial"],
                rows,
            )
            + f"\nregistered back ends: {available_backends()}",
        )
        # the device back end must beat the interpreted reference
        assert _TIMES["vectorized"] < _TIMES["serial"]
