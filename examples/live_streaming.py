"""Near-real-time reduction: watch the cross-section build up live.

The IRI vision the paper closes with — and the ADARA live-streaming
work it cites — is reducing an experiment *while it acquires*, so
scientists can steer or stop a measurement early.  This example replays
a Benzil ensemble as acquisition-sized event batches through
:class:`repro.core.StreamingReduction` and prints the live coverage
after every chunk, then proves the streamed result is identical to the
offline batch reduction.

Run:  python examples/live_streaming.py
"""

import numpy as np

from repro.bench.workloads import benzil_corelli, build_workload
from repro.core import EventStream, StreamingReduction
from repro.core.cross_section import compute_cross_section
from repro.core.md_event_workspace import load_md
from repro.nexus.corrections import read_flux_file, read_vanadium_file
from repro.nexus.schema import read_event_nexus


def main() -> None:
    spec = benzil_corelli(scale=0.001, n_files=4)
    print(spec.describe())
    data = build_workload(spec)
    flux = read_flux_file(data.flux_path)
    vanadium = read_vanadium_file(data.vanadium_path)

    live = StreamingReduction(
        grid=data.grid,
        point_group=data.point_group,
        flux=flux,
        instrument=data.instrument,
        solid_angles=vanadium.detector_weights,
        backend="vectorized",
    )

    print(f"\n{'run':>4} {'batch':>6} {'events seen':>12} "
          f"{'BinMD coverage':>15} {'peak intensity':>15}")
    for path in data.nexus_paths:
        run = read_event_nexus(path)
        live.open_run(run)  # normalization lands immediately (geometry only)
        stream = EventStream(run, batch_size=400)
        for j, batch in enumerate(stream):
            live.consume(batch)
            if j % 2 == 0 or j == stream.n_batches - 1:
                snap = live.snapshot()
                finite = snap.signal[~np.isnan(snap.signal)]
                peak = finite.max() if finite.size else 0.0
                print(f"{run.run_number:>4} {j:>6} {live.events_seen:>12} "
                      f"{live.binmd.nonzero_fraction():>14.1%} {peak:>15.3g}")
        live.close_run(run.run_number)

    # prove the live result equals the offline batch reduction
    reference = compute_cross_section(
        load_run=lambda i: load_md(data.md_paths[i]),
        n_runs=len(data.md_paths),
        grid=data.grid,
        point_group=data.point_group,
        flux=flux,
        det_directions=data.instrument.directions,
        solid_angles=vanadium.detector_weights,
        backend="vectorized",
    )
    assert np.array_equal(live.binmd.signal, reference.binmd.signal)
    assert np.array_equal(live.binmd.error_sq, reference.binmd.error_sq)
    assert np.array_equal(live.mdnorm_hist.signal, reference.mdnorm.signal)
    assert np.array_equal(live.snapshot().signal,
                          reference.cross_section.signal, equal_nan=True)
    print("\nstreamed reduction == offline batch reduction (bit-for-bit)")


if __name__ == "__main__":
    main()
