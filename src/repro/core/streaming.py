"""Near-real-time streaming reduction.

The paper's motivation ("near-real time data processing" for IRI) and
its related work (ADARA's live streaming into Mantid) describe reducing
an experiment *while it acquires*.  This module implements that on top
of the same kernels:

* :class:`EventStream` replays a run's recorded neutrons in
  acquisition-sized batches (the stand-in for the facility's live
  event stream);
* :class:`StreamingReduction` consumes batches as they arrive:
  - when a run *opens* (metadata known: goniometer, UB, charge, band)
    its MDNorm is computed once into the run's fresh delta —
    normalization depends only on geometry, not on which events have
    arrived yet;
  - each event batch is converted and BinMD-accumulated into the same
    run's BinMD delta;
  - ``close_run`` records the run's sparse delta in the batch
    workflow's run book (:class:`repro.core.cross_section._RunBook`);
  - :meth:`snapshot` returns the live cross-section at any instant, so
    a scientist can watch coverage fill in and stop the measurement
    early — the steering capability the IRI program wants.

Every live output is the batch workflow's one fold
(:func:`repro.core.cross_section._fold_runs`) over the per-run deltas of
every run still standing, closed or open (an open run is sparsified at
each snapshot), in ascending run number.
After every batch of every run has been consumed, the streaming
cross-section therefore equals the batch workflow's bit for bit: the
same per-run deltas go through the same fold.

With a :class:`~repro.core.checkpoint.RecoveryConfig`, ``open_run``,
``consume`` and ``close_run`` retry transient faults with backoff under
the batch loop's run-level retry protocol, and a run whose retries are
exhausted is **quarantined**: its open delta is dropped and its later
batches are discarded, so the snapshot is the fold of the surviving
runs instead of a poisoned stream.  Nothing is ever subtracted.
Checkpointing is not supported: a ``RecoveryConfig`` with a
``checkpoint`` is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.core import geom_cache as _gc
from repro.core.binmd import bin_events
from repro.core.checkpoint import RecoveryConfig, RunDelta
from repro.core.cross_section import _fold_runs, _retry, _RunBook
from repro.core.geom_cache import GeomCache
from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.core.md_event_workspace import convert_to_md
from repro.core.mdnorm import mdnorm
from repro.crystal.symmetry import PointGroup
from repro.instruments.detector import DetectorArray
from repro.nexus.corrections import FluxSpectrum
from repro.nexus.events import RunData
from repro.util import faults as _faults
from repro.util import trace as _trace
from repro.util.validation import ReproError, ValidationError, require

#: the rank every run is recorded under: a stream reduces in one process
_RANK = 0


@dataclass(frozen=True)
class StreamBatch:
    """One acquisition chunk of a run's event stream."""

    run_number: int
    detector_ids: np.ndarray
    tof: np.ndarray
    weights: np.ndarray


class EventStream:
    """Replay a recorded run as acquisition-sized batches."""

    def __init__(self, run: RunData, batch_size: int = 4096) -> None:
        require(batch_size >= 1, "batch_size must be >= 1")
        self.run = run
        self.batch_size = batch_size

    def __iter__(self) -> Iterator[StreamBatch]:
        n = self.run.n_events
        for start in range(0, n, self.batch_size):
            stop = min(start + self.batch_size, n)
            yield StreamBatch(
                run_number=self.run.run_number,
                detector_ids=self.run.detector_ids[start:stop],
                tof=self.run.tof[start:stop],
                weights=self.run.weights[start:stop],
            )

    @property
    def n_batches(self) -> int:
        return -(-self.run.n_events // self.batch_size)


@dataclass
class _OpenRun:
    """A run between ``open_run`` and ``close_run``: its metadata, event
    transforms and growing delta histograms."""

    meta: RunData
    event_transforms: np.ndarray
    binmd: Hist3
    mdnorm: Hist3
    #: most attempts any of the run's retried steps needed so far
    attempts: int


class StreamingReduction:
    """Incremental Algorithm 1: reduce runs while their events arrive."""

    def __init__(
        self,
        grid: HKLGrid,
        point_group: PointGroup,
        flux: FluxSpectrum,
        instrument: DetectorArray,
        solid_angles: np.ndarray,
        *,
        backend: Optional[str] = None,
        geom_cache: Optional[GeomCache] = None,
        recovery: Optional[RecoveryConfig] = None,
    ) -> None:
        self.grid = grid
        self.point_group = point_group
        self.flux = flux
        self.instrument = instrument
        self.solid_angles = np.ascontiguousarray(solid_angles, dtype=np.float64)
        require(self.solid_angles.shape == (instrument.n_pixels,),
                "solid_angles / instrument pixel count mismatch")
        if recovery is not None and recovery.checkpoint is not None:
            raise ValidationError(
                "StreamingReduction does not checkpoint; pass a "
                "RecoveryConfig without checkpoint"
            )
        self.backend = backend
        #: geometry cache reused across every batch (and re-stream) of a
        #: run — the per-run MDNorm geometry is computed at most once
        self.geom_cache = _gc.resolve(geom_cache)
        #: the stream's grid, instrument, solid angles and flux, hashed
        #: once for every run's geometry key
        self._scope = self.geom_cache.reduction_scope(
            grid, instrument.directions, self.solid_angles, flux)
        #: failure policy; None = fail-fast stream
        self.recovery = recovery
        self._book = _RunBook(grid, recovery, self.geom_cache)
        self._open: Dict[int, _OpenRun] = {}
        self._events_seen = 0
        self._runs_opened = 0

    def _step(
        self, site: str, rn: int, body: Callable[[], Any]
    ) -> Optional[Tuple[int, Any]]:
        """``body()`` for run ``rn`` under the batch loop's run-level
        retry protocol: ``(attempts, result)``, or None once the run
        exhausted its retries and was quarantined (its open delta is
        dropped).  The ``site`` fault point fires only in a recovering
        attempt, as ``run`` does in the batch loop."""
        def attempt(attempt_no: int) -> Tuple[int, Any]:
            if self.recovery is not None:
                _faults.fault_point(site, run=rn)
            return attempt_no, body()

        try:
            return _retry(attempt, rn, self.recovery, self.geom_cache,
                          site=f"{site}[{rn}]")
        except _faults.RetryExhaustedError as exc:
            if not (self.recovery and self.recovery.quarantine):
                raise
            self._open.pop(rn, None)
            self._book.quarantine(rn, _RANK, exc)
            return None

    # -- run lifecycle ------------------------------------------------------
    def open_run(self, run_metadata: RunData) -> None:
        """Announce a run: metadata only, events may be empty/ignored.

        Computes the run's full MDNorm delta immediately — the
        normalization is pure geometry and does not wait for events.
        """
        rn = run_metadata.run_number
        if rn in self._open or rn in self._book.dispositions:
            raise ValidationError(f"run {rn} is already open or finished")
        if run_metadata.ub_matrix is None:
            raise ValidationError(f"run {rn} carries no UB matrix")
        self._runs_opened += 1
        with _trace.active_tracer().span(
            "stream.open_run", kind="stream", run=int(rn)
        ):
            event_transforms = self.grid.transforms_for(
                run_metadata.ub_matrix, self.point_group
            )
            traj_transforms = self.grid.transforms_for(
                run_metadata.ub_matrix, self.point_group,
                goniometer=run_metadata.goniometer,
            )
            lam_lo, lam_hi = run_metadata.wavelength_band
            band = (2.0 * np.pi / lam_hi, 2.0 * np.pi / lam_lo)

            def normalize() -> Hist3:
                delta = Hist3(self.grid)
                mdnorm(delta, traj_transforms, self.instrument.directions,
                       self.solid_angles, self.flux, band,
                       charge=run_metadata.proton_charge,
                       backend=self.backend, cache=self.geom_cache,
                       cache_tag=f"run:{rn}")
                return delta

            with self._scope:
                out = self._step("stream.open_run", rn, normalize)
        if out is not None:
            attempts, mdnorm_delta = out
            self._open[rn] = _OpenRun(
                run_metadata, event_transforms,
                Hist3(self.grid, track_errors=True), mdnorm_delta, attempts,
            )

    def consume(self, batch: StreamBatch) -> None:
        """Accumulate one event batch into its run's BinMD delta."""
        rn = batch.run_number
        run = self._open.get(rn)
        n = int(batch.detector_ids.shape[0])
        if run is None:
            if rn in self.quarantined:
                # the run died earlier; its stream keeps arriving
                _trace.active_tracer().count("stream.dropped", n)
                return
            raise ReproError(
                f"batch for run {rn} arrived before open_run"
            )
        if n == 0:
            return
        tracer = _trace.active_tracer()
        with tracer.span("stream.consume", kind="stream", run=int(rn),
                         n_events=n):
            partial = RunData(
                run_number=rn,
                detector_ids=batch.detector_ids,
                tof=batch.tof,
                weights=batch.weights,
                goniometer=run.meta.goniometer,
                proton_charge=run.meta.proton_charge,
                wavelength_band=run.meta.wavelength_band,
                ub_matrix=run.meta.ub_matrix,
            )

            def accumulate() -> Hist3:
                # into a copy, so a failed attempt leaves the delta intact
                delta = run.binmd.copy()
                ws = convert_to_md(partial, self.instrument)
                # per-batch event tables are unique — caching their BinMD
                # indices would only churn the LRU, so opt out explicitly
                bin_events(delta, ws.events, run.event_transforms,
                           backend=self.backend, cache=_gc.DISABLED)
                return delta

            out = self._step("stream.consume", rn, accumulate)
        if out is None:
            return
        attempts, run.binmd = out
        run.attempts = max(run.attempts, attempts)
        tracer.count("stream.events", n)
        self._events_seen += n

    def close_run(self, run_number: int) -> None:
        """Retire a finished run: record its sparse delta in the run book.

        Under recovery the close itself is a fault site (a real stream's
        end-of-run packet can be lost); a close that keeps failing
        quarantines the run like any other exhausted retry.  Closing a
        run that is not open (never opened, or quarantined) is a no-op.
        """
        run = self._open.get(run_number)
        if run is None:
            return
        out = self._step("stream.close_run", run_number, lambda: None)
        if out is None:
            return
        del self._open[run_number]
        self._book.done(run_number, _RANK, run.binmd, run.mdnorm,
                        attempts=max(run.attempts, out[0]))

    # -- live output ------------------------------------------------------
    def _fold(self) -> Tuple[Hist3, Hist3]:
        """The one fold over every standing run's delta (closed or still
        open) in ascending run number."""
        deltas = dict(self._book.runs)
        for rn, run in self._open.items():
            deltas[rn] = RunDelta.from_hists(run.binmd, run.mdnorm)
        return _fold_runs(self.grid, (deltas[rn] for rn in sorted(deltas)))

    def snapshot(self) -> Hist3:
        """The cross-section as of the events consumed so far."""
        binmd, mdnorm_hist = self._fold()
        return binmd.divide(mdnorm_hist)

    @property
    def binmd(self) -> Hist3:
        return self._fold()[0]

    @property
    def mdnorm_hist(self) -> Hist3:
        return self._fold()[1]

    @property
    def events_seen(self) -> int:
        return self._events_seen

    @property
    def quarantined(self) -> Dict[int, str]:
        """Runs evicted by the failure policy: run number -> reason."""
        return {rn: d["reason"] for rn, d in self._book.dispositions.items()
                if d["status"] == "quarantined"}

    @property
    def cache_stats(self) -> dict:
        """Snapshot of the geometry cache's hit/miss/eviction counters."""
        return self.geom_cache.stats.snapshot()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StreamingReduction(runs={self._runs_opened}, "
            f"events={self._events_seen}, "
            f"coverage={self.binmd.nonzero_fraction():.1%})"
        )
