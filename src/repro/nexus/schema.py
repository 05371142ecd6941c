"""NeXus event-entry schema on top of h5lite.

SNS instruments record one NeXus file per experiment run.  We implement
the subset of the schema the reduction workflow reads::

    /entry                       NX_class="NXentry"
      run_number                 scalar int
      proton_charge              scalar float
      /instrument                NX_class="NXinstrument"
        name                     string
      /sample                    NX_class="NXsample"
        name                     string
        ub_matrix                (3,3) float64   (optional)
      /DASlogs                   NX_class="NXcollection"
        goniometer               (3,3) float64 rotation matrix
        wavelength_band          (2,) float64 Angstrom
      /events                    NX_class="NXevent_data"
        detector_id              (n,) uint32
        time_of_flight           (n,) float64, attrs units="microsecond"
        weight                   (n,) float32

Files written here are what ``UpdateEvents`` (the load stage timed in
Tables III-VI) reads back.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.nexus.events import RunData
from repro.nexus.h5lite import File, H5LiteError


@dataclass(frozen=True)
class NXEntryInfo:
    """Lightweight metadata read without touching the event payload."""

    run_number: int
    n_events: int
    instrument: str
    sample: str
    proton_charge: float


def write_event_nexus(
    path: Union[str, os.PathLike],
    run: RunData,
    *,
    compression: "str | None" = None,
    chunk_events: "int | None" = None,
    codec: str = "zlib",
) -> None:
    """Serialize one run to a NeXus-schema h5lite file.

    ``compression="zlib"`` deflates the event payloads (id/TOF/weight)
    as whole blobs; ``chunk_events=N`` instead stores them as
    independent CRC-checked chunks of ``N`` events (format v2), so
    region reads (:meth:`repro.nexus.h5lite.Dataset.read_rows`) decode
    only the touched windows.  ``codec`` is requested per dataset, not
    guaranteed: a payload it cannot halve is stored raw.
    """
    if chunk_events is not None and compression is not None:
        raise H5LiteError(
            "chunk_events and whole-payload compression are exclusive"
        )
    event_opts = (
        dict(chunk_rows=int(chunk_events), codec=codec)
        if chunk_events is not None
        else dict(compression=compression)
    )
    with File(path, "w") as f:
        entry = f.create_group("entry")
        entry.attrs["NX_class"] = "NXentry"
        entry.create_dataset("run_number", data=np.array(run.run_number, dtype=np.int64))
        entry.create_dataset(
            "proton_charge", data=np.array(run.proton_charge, dtype=np.float64)
        )

        instrument = entry.create_group("instrument")
        instrument.attrs["NX_class"] = "NXinstrument"
        instrument.create_dataset("name", data=np.array(run.instrument or "unknown"))

        sample = entry.create_group("sample")
        sample.attrs["NX_class"] = "NXsample"
        sample.create_dataset("name", data=np.array(run.sample or "unknown"))
        if run.ub_matrix is not None:
            sample.create_dataset("ub_matrix", data=run.ub_matrix)

        logs = entry.create_group("DASlogs")
        logs.attrs["NX_class"] = "NXcollection"
        logs.create_dataset("goniometer", data=run.goniometer)
        logs.create_dataset(
            "wavelength_band", data=np.asarray(run.wavelength_band, dtype=np.float64)
        )

        events = entry.create_group("events")
        events.attrs["NX_class"] = "NXevent_data"
        events.create_dataset("detector_id", data=run.detector_ids, **event_opts)
        tof = events.create_dataset("time_of_flight", data=run.tof, **event_opts)
        tof.attrs["units"] = "microsecond"
        events.create_dataset("weight", data=run.weights, **event_opts)
        if run.pulse_times is not None:
            pulse = events.create_dataset(
                "pulse_time", data=run.pulse_times, **event_opts
            )
            pulse.attrs["units"] = "second"


def read_event_nexus(path: Union[str, os.PathLike]) -> RunData:
    """Load one run back from a NeXus-schema h5lite file."""
    with File(path, "r") as f:
        try:
            entry = f["entry"]
        except KeyError as exc:
            raise H5LiteError(f"{os.fspath(path)!r} has no /entry group") from exc
        ub = None
        if "sample/ub_matrix" in entry:
            ub = entry.read("sample/ub_matrix")
        pulse_times = None
        if "events/pulse_time" in entry:
            pulse_times = entry.read("events/pulse_time")
        band = entry.read("DASlogs/wavelength_band")
        return RunData(
            pulse_times=pulse_times,
            run_number=int(entry.read("run_number")[()]),
            detector_ids=entry.read("events/detector_id"),
            tof=entry.read("events/time_of_flight"),
            weights=entry.read("events/weight"),
            goniometer=entry.read("DASlogs/goniometer"),
            proton_charge=float(entry.read("proton_charge")[()]),
            wavelength_band=(float(band[0]), float(band[1])),
            instrument=str(entry.read("instrument/name")[()]),
            sample=str(entry.read("sample/name")[()]),
            ub_matrix=ub,
        )


def read_entry_info(path: Union[str, os.PathLike]) -> NXEntryInfo:
    """Read run metadata without materializing the event table."""
    with File(path, "r") as f:
        entry = f["entry"]
        det = entry.require_dataset("events/detector_id")
        return NXEntryInfo(
            run_number=int(entry.read("run_number")[()]),
            n_events=int(det.shape[0]),
            instrument=str(entry.read("instrument/name")[()]),
            sample=str(entry.read("sample/name")[()]),
            proton_charge=float(entry.read("proton_charge")[()]),
        )
