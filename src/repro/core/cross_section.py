"""Algorithm 1: the differential scattering cross-section.

::

    start, end <- range(MPI_Rank, MPI_Size)
    0 <- mdnorm, binmd
    for i = start to end do
        event_data <- LOAD events, rotations, charge, ...
        mdnorm += MDNorm(events)   <- CPU/GPU
        binmd  += BinMD(events)    <- CPU/GPU
    end for
    cross_section <- MPI_Reduce(binmd) / MPI_Reduce(mdnorm)

Each rank owns private histograms; ``Reduce`` combines them on the
root, which performs the guarded division.  Per-stage wall-clock is
accumulated into a :class:`~repro.util.timers.StageTimings` using the
paper's stage names (UpdateEvents / MDNorm / BinMD / Total).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.core import geom_cache as _gc
from repro.core.binmd import bin_events
from repro.core.checkpoint import (
    CheckpointCorruptError,
    RecoveryConfig,
)
from repro.core.geom_cache import GeomCache
from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.core.md_event_workspace import MDEventWorkspace
from repro.core.mdnorm import mdnorm
from repro.core.sharding import (
    ShardConfig,
    resolve_executor,
    sharded_binmd,
    sharded_mdnorm,
)
from repro.crystal.symmetry import PointGroup
from repro.mpi import SUM, Comm, SequentialComm, balanced_rank_runs, rank_range
from repro.nexus.corrections import FluxSpectrum
from repro.util import faults as _faults
from repro.util import monitor as _monitor
from repro.util import trace as _trace
from repro.util import cancel as _cancel
from repro.util.cancel import CancelledError
from repro.util.timers import StageTimings
from repro.util.validation import ValidationError, require


@dataclass
class CrossSectionResult:
    """Outcome of Algorithm 1 on the root rank.

    Non-root ranks receive ``cross_section=None`` but still carry their
    local timings.
    """

    cross_section: Optional[Hist3]
    binmd: Optional[Hist3]
    mdnorm: Optional[Hist3]
    timings: StageTimings
    n_runs: int
    backend: str
    #: implementation-specific diagnostics (e.g. device transfer bytes)
    extras: Optional[dict] = None
    #: True when runs were quarantined — the result is built from the
    #: surviving runs only (recovery mode)
    degraded: bool = False
    #: per-run outcome (recovery mode, root rank): run index ->
    #: ``{"status": done|resumed|quarantined|lost, "attempts", "rank"}``
    dispositions: Optional[Dict[int, Dict[str, Any]]] = None

    @property
    def is_root(self) -> bool:
        return self.cross_section is not None

    @property
    def quarantined_runs(self) -> Tuple[int, ...]:
        if not self.dispositions:
            return ()
        return tuple(sorted(
            i for i, d in self.dispositions.items()
            if d.get("status") == "quarantined"
        ))


def _n_events(ws: MDEventWorkspace) -> int:
    """Raw event count of one run's workspace (monitor accounting).

    Prefers the ``n_events`` surface shared by :class:`EventTable` and
    the out-of-core :class:`~repro.nexus.tiles.LazyEventTable` — the
    ``np.asarray`` fallback would *materialize* a lazy table.
    """
    n = getattr(ws.events, "n_events", None)
    if n is not None:
        return int(n)
    try:
        return int(ws.events.data.shape[0])
    except AttributeError:  # pragma: no cover - bare-array workspaces
        return int(np.asarray(ws.events).shape[0])


def _is_lazy(events: Any) -> bool:
    """Out-of-core event table? (duck-typed on the window/chunk surface
    to avoid importing the nexus tile layer at module import time)."""
    return hasattr(events, "window") and hasattr(events, "chunk_bounds")


#: degenerate fan-out for out-of-core runs reduced without ``--shards``:
#: the shard machinery still cuts the run into budget-capped,
#: chunk-aligned windows (bit-identical for every cut), it just does so
#: in-process with no pool
_OOC_FALLBACK = ShardConfig(n_shards=1, workers=1)


def _rank_block(
    n_runs: int, comm: Comm, run_weights: Optional[Sequence[float]]
) -> Tuple[int, int]:
    """This rank's contiguous run block — weight-balanced when the run
    manifest supplies per-run event counts, classic equal-count block
    otherwise (the two coincide for uniform weights)."""
    if run_weights is None:
        return rank_range(n_runs, comm.rank, comm.size)
    require(len(run_weights) == n_runs,
            f"run_weights has {len(run_weights)} entries for {n_runs} runs")
    return balanced_rank_runs(run_weights, comm.size)[comm.rank]


def _shard_beat(
    monitor: Any, comm: Comm, i: int, stage: str
) -> Optional[Callable[[int, int], None]]:
    """Per-shard heartbeat callback for the live monitor (PR 4), so a
    wedged shard ages a ``run:<i>/<stage>/shard:<s>`` site rather than
    hiding behind the run-level heartbeat."""
    if not monitor.enabled:
        return None

    def beat(s: int, n_shards: int) -> None:
        monitor.heartbeat(
            comm.rank, site=f"run:{i}/{stage}/shard:{s + 1}of{n_shards}"
        )

    return beat


def _run_step(
    load_run: Callable[[int], MDEventWorkspace],
    grid: HKLGrid,
    point_group: PointGroup,
    flux: FluxSpectrum,
    det_directions: np.ndarray,
    solid_angles: np.ndarray,
    *,
    comm: Comm,
    backend: Optional[str],
    sort_impl: str,
    scatter_impl: str,
    timings: StageTimings,
    binmd_impl: Optional[Callable],
    mdnorm_impl: Optional[Callable],
    cache: GeomCache,
    shards: Optional[ShardConfig],
) -> Callable[[int, Hist3, Hist3], MDEventWorkspace]:
    """Algorithm 1's loop body, shared by the fail-fast and recovering
    loops: ``step(i, binmd_hist, mdnorm_hist)`` loads run ``i`` (the
    timed UpdateEvents stage) and accumulates its MDNorm and BinMD into
    the given histograms — through the ``*_impl`` override, the shard
    executor (``shards``, or an out-of-core table), or the in-memory
    kernel — and returns the run's workspace."""
    monitor = _monitor.active_monitor()

    def step(i: int, binmd_hist: Hist3, mdnorm_hist: Hist3) -> MDEventWorkspace:
        with timings.stage("UpdateEvents"):
            ws = load_run(i)
        if ws.ub_matrix is None:
            raise ValidationError(
                f"run index {i} carries no UB matrix; Algorithm 1 needs it"
            )
        event_transforms = grid.transforms_for(ws.ub_matrix, point_group)
        traj_transforms = grid.transforms_for(
            ws.ub_matrix, point_group, goniometer=ws.goniometer
        )
        tag = f"run:{i}"
        if monitor.enabled:
            monitor.heartbeat(comm.rank, site=f"run:{i}/MDNorm")
        with timings.stage("MDNorm"):
            _faults.fault_point("kernel.mdnorm", run=i)
            args = (mdnorm_hist, traj_transforms, det_directions,
                    solid_angles, flux, ws.momentum_band)
            if mdnorm_impl is not None:
                mdnorm_impl(*args, charge=ws.proton_charge)
            elif shards is not None:
                sharded_mdnorm(
                    *args, shards=shards, charge=ws.proton_charge,
                    backend=backend, cache=cache, cache_tag=tag, run=i,
                    on_shard=_shard_beat(monitor, comm, i, "MDNorm"),
                )
            else:
                mdnorm(
                    *args, charge=ws.proton_charge, backend=backend,
                    sort_impl=sort_impl, scatter_impl=scatter_impl,
                    cache=cache, cache_tag=tag,
                )
        if monitor.enabled:
            monitor.heartbeat(comm.rank, site=f"run:{i}/BinMD")
        with timings.stage("BinMD"):
            _faults.fault_point("kernel.binmd", run=i)
            if binmd_impl is not None:
                binmd_impl(binmd_hist, ws.events, event_transforms)
            elif shards is not None or _is_lazy(ws.events):
                sharded_binmd(
                    binmd_hist, ws.events, event_transforms,
                    shards=shards or _OOC_FALLBACK, run=i,
                    on_shard=_shard_beat(monitor, comm, i, "BinMD"),
                )
            else:
                bin_events(
                    binmd_hist, ws.events, event_transforms,
                    backend=backend, scatter_impl=scatter_impl,
                    cache=cache, cache_tag=tag,
                )
        return ws

    return step


def _fold_runs(
    grid: HKLGrid,
    deltas: Iterable[Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]],
) -> Tuple[Hist3, Hist3]:
    """The one fold of per-run deltas ``(binmd signal, binmd error_sq,
    mdnorm signal)``, summed in the order given — ascending run order
    for every caller, so the float association is independent of rank
    layout, crashes, steals and resume points."""
    binmd_total = np.zeros(tuple(grid.bins), dtype=np.float64)
    err_total = np.zeros(tuple(grid.bins), dtype=np.float64)
    mdnorm_total = np.zeros(tuple(grid.bins), dtype=np.float64)
    have_err = True
    for binmd_signal, binmd_error_sq, mdnorm_signal in deltas:
        binmd_total += binmd_signal
        if binmd_error_sq is not None:
            err_total += binmd_error_sq
        else:
            have_err = False
        mdnorm_total += mdnorm_signal
    return (
        Hist3(grid, signal=binmd_total,
              error_sq=err_total if have_err else None),
        Hist3(grid, signal=mdnorm_total),
    )


def _fold_from_checkpoint(ckpt: Any, grid: HKLGrid) -> Tuple[Hist3, Hist3]:
    """Fold every checkpointed run delta in ascending run order and mark
    the campaign complete (the recovering and stealing executors' final
    combine when a checkpoint manager is configured)."""
    out = _fold_runs(grid, (
        (d.binmd_signal, d.binmd_error_sq, d.mdnorm_signal)
        for d in (ckpt.load_run(i, grid) for i in ckpt.completed_runs())
    ))
    ckpt.mark_campaign_complete(
        f"runs={len(ckpt.completed_runs())} "
        f"quarantined={len(ckpt.quarantined_runs())}\n"
    )
    return out


def compute_cross_section(
    load_run: Callable[[int], MDEventWorkspace],
    n_runs: int,
    grid: HKLGrid,
    point_group: PointGroup,
    flux: FluxSpectrum,
    det_directions: np.ndarray,
    solid_angles: np.ndarray,
    *,
    comm: Optional[Comm] = None,
    backend: Optional[str] = None,
    sort_impl: str = "comb",
    scatter_impl: str = "atomic",
    timings: Optional[StageTimings] = None,
    binmd_impl: Optional[Callable] = None,
    mdnorm_impl: Optional[Callable] = None,
    cache: Optional[GeomCache] = None,
    recovery: Optional[RecoveryConfig] = None,
    shards: Optional[ShardConfig] = None,
    run_weights: Optional[Sequence[float]] = None,
    executor: Optional[str] = None,
    schedule: Optional[Any] = None,
) -> CrossSectionResult:
    """Run Algorithm 1.

    Parameters
    ----------
    load_run:
        ``load_run(i) -> MDEventWorkspace`` for run index ``i`` — the
        timed ``UpdateEvents`` stage (usually ``load_md`` on a file).
    n_runs:
        Total number of experiment runs (files).
    grid, point_group, flux:
        Output grid, sample symmetry, incident spectrum.
    det_directions, solid_angles:
        Instrument geometry + vanadium weights for MDNorm.
    comm:
        Simulated MPI communicator; None = single rank.
    backend:
        jacc back end for both kernels; None = process default.
    binmd_impl / mdnorm_impl:
        Alternative kernel implementations with the same signatures as
        :func:`repro.core.binmd.bin_events` (minus ``backend``) and
        :func:`repro.core.mdnorm.mdnorm` — this is how the proxy
        applications plug their optimized kernels into the identical
        Algorithm-1 loop.
    cache:
        Geometry cache shared by the MDNorm/BinMD hot path; None uses
        the process default, :data:`repro.core.geom_cache.DISABLED`
        opts out.  Entries are tagged ``"run:<i>"`` for targeted
        invalidation.  Cache statistics are reported in
        ``result.extras["geom_cache"]`` on the root rank.
    recovery:
        When given, the loop runs under the fault-tolerant protocol
        (see :func:`_compute_cross_section_recovering`): per-run
        retry/backoff, quarantine of runs that exhaust their retry
        budget, checkpoint/resume of per-run deltas, and redistribution
        of a crashed rank's unfinished runs to the survivors.  ``None``
        keeps the historical fail-fast loop byte-for-byte.
    shards:
        When given, each owned run's MDNorm fans out over detector
        shards and its BinMD over event shards on the node-local
        process pool (:func:`repro.core.sharding.sharded_mdnorm` /
        :func:`~repro.core.sharding.sharded_binmd`) — the second level
        of the hierarchical decomposition.  Shards run the kernels'
        batch bodies, so the result is bit-identical to the unsharded
        ``vectorized`` loop for every shard/worker count;
        ``None`` keeps the single-level loop byte-for-byte.  Ignored
        for a stage whose ``*_impl`` override is set (the override owns
        its own parallelism).
    run_weights:
        Optional per-run event weights (from the run manifest).  When
        given, ranks take weight-balanced contiguous run blocks
        (:func:`repro.mpi.balanced_rank_runs`) instead of equal-count
        blocks — the outer level of the 2-D decomposition.
    executor:
        Campaign execution strategy from the registry in
        :mod:`repro.core.sharding`.  ``None``/``"static"`` is the fixed
        rank-block plan below; ``"stealing"`` dispatches to the elastic
        work-stealing executor (:mod:`repro.mpi.stealing`), whose
        result is bit-identical to the static recovering plan for every
        steal schedule.
    schedule:
        Stealing executor only: a
        :class:`repro.util.schedule.ScheduleController` driving steal
        and birth/leave/death decisions (None = seeded default).
    """
    runner = resolve_executor(executor)
    if runner is not None:
        return runner(
            load_run, n_runs, grid, point_group, flux,
            det_directions, solid_angles,
            comm=comm, backend=backend, sort_impl=sort_impl,
            scatter_impl=scatter_impl, timings=timings,
            binmd_impl=binmd_impl, mdnorm_impl=mdnorm_impl,
            cache=cache, recovery=recovery, shards=shards,
            run_weights=run_weights, schedule=schedule,
        )
    if schedule is not None:
        raise ValidationError(
            "schedule is only meaningful with a dynamic executor "
            "(got executor=%r)" % (executor,)
        )
    require(n_runs >= 1, "need at least one run")
    cache = _gc.resolve(cache)
    comm = comm or SequentialComm()
    timings = timings or StageTimings(label=f"cross-section[{backend or 'default'}]")
    step = _run_step(
        load_run, grid, point_group, flux, det_directions, solid_angles,
        comm=comm, backend=backend, sort_impl=sort_impl,
        scatter_impl=scatter_impl, timings=timings, binmd_impl=binmd_impl,
        mdnorm_impl=mdnorm_impl, cache=cache, shards=shards,
    )
    if recovery is not None:
        return _compute_cross_section_recovering(
            step, n_runs, grid, comm=comm, backend=backend, timings=timings,
            cache=cache, recovery=recovery, shards=shards,
            run_weights=run_weights,
        )
    tracer = _trace.active_tracer()

    binmd_hist = Hist3(grid, track_errors=True)
    mdnorm_hist = Hist3(grid)

    start, end = _rank_block(n_runs, comm, run_weights)
    monitor = _monitor.active_monitor()
    if monitor.enabled:
        monitor.start_campaign(n_runs, comm.size)
        monitor.assign_runs(comm.rank, end - start)
    with tracer.span(
        "cross_section",
        kind="algorithm",
        backend=backend or "default",
        n_runs=int(n_runs),
        mpi_rank=int(comm.rank),
        mpi_size=int(comm.size),
        **({"n_shards": int(shards.n_shards)} if shards is not None else {}),
    ), timings.stage("Total"):
        for i in range(start, end):
            with tracer.span("run", kind="run", run=int(i)):
                if monitor.enabled:
                    monitor.heartbeat(
                        comm.rank, site=f"run:{i}/UpdateEvents", run=i
                    )
                ws = step(i, binmd_hist, mdnorm_hist)
                if monitor.enabled:
                    monitor.run_completed(
                        comm.rank, i, events=float(_n_events(ws))
                    )

        # MPI_Reduce of both histograms onto the root
        with tracer.span("mpi_reduce", kind="mpi",
                         mpi_rank=int(comm.rank), mpi_size=int(comm.size)):
            binmd_total = np.empty_like(binmd_hist.signal) if comm.rank == 0 else None
            mdnorm_total = np.empty_like(mdnorm_hist.signal) if comm.rank == 0 else None
            comm.Reduce(binmd_hist.signal, binmd_total, op=SUM, root=0)
            comm.Reduce(mdnorm_hist.signal, mdnorm_total, op=SUM, root=0)

        if comm.rank != 0:
            return CrossSectionResult(
                cross_section=None,
                binmd=None,
                mdnorm=None,
                timings=timings,
                n_runs=n_runs,
                backend=backend or "default",
            )

        binmd_out = Hist3(grid, signal=binmd_total)
        mdnorm_out = Hist3(grid, signal=mdnorm_total)
        cross = binmd_out.divide(mdnorm_out)
    if monitor.enabled:
        monitor.finish_campaign()
    extras = {"geom_cache": cache.stats.snapshot()} if cache.enabled else None
    return CrossSectionResult(
        cross_section=cross,
        binmd=binmd_out,
        mdnorm=mdnorm_out,
        timings=timings,
        n_runs=n_runs,
        backend=backend or "default",
        extras=extras,
    )


# ---------------------------------------------------------------------------
# the fault-tolerant loop (PR 3)
# ---------------------------------------------------------------------------

def _compute_cross_section_recovering(
    step: Callable[[int, Hist3, Hist3], MDEventWorkspace],
    n_runs: int,
    grid: HKLGrid,
    *,
    comm: Comm,
    backend: Optional[str],
    timings: StageTimings,
    cache: GeomCache,
    recovery: RecoveryConfig,
    shards: Optional[ShardConfig],
    run_weights: Optional[Sequence[float]],
) -> CrossSectionResult:
    """Algorithm 1 under the failure model.

    Differences from the fail-fast loop:

    * each run's contribution is computed into **fresh scratch
      histograms** and only added to the rank's running totals on
      success, so a failed attempt never leaves a partial deposit
      (retry safety);
    * each run is wrapped in :func:`repro.util.faults.retry_call` —
      transient failures (I/O, corrupt payloads, kernel errors) are
      retried with backoff, and every retry invalidates the run's
      geometry-cache entries first (a corrupt read may have populated
      the cache from a corrupt source);
    * a run that exhausts its retry budget is **quarantined** (when
      ``recovery.quarantine``): its disposition is durably recorded and
      the campaign completes *degraded* on the survivors;
    * with a checkpoint manager, each completed run's delta is
      persisted; with ``recovery.resume`` completed runs replay from
      disk (digest-verified) instead of recomputing.  The final
      histograms are then rebuilt by summing the per-run deltas in
      **ascending run order** — the float-addition order is therefore
      independent of rank layout, crashes and resume points, which is
      what makes kill-and-resume bit-identical;
    * an injected :class:`~repro.util.faults.RankCrashError` marks the
      rank dead: its unfinished runs are published to the world
      (``Comm.mark_failed``), the survivors' next barrier completes
      with the remaining parties, and the dead rank's backlog is
      redistributed round-robin over the alive ranks.  A second crash
      during the takeover phase is *not* re-redistributed — it fails
      loudly through the runner (double-fault policy).
    """
    tracer = _trace.active_tracer()
    ckpt = recovery.checkpoint

    binmd_hist = Hist3(grid, track_errors=True)
    mdnorm_hist = Hist3(grid)
    dispositions: Dict[int, Dict[str, Any]] = {}
    done_local: set = set()
    monitor = _monitor.active_monitor()
    events_seen: Dict[int, int] = {}

    def compute_delta(i: int) -> Tuple[Hist3, Hist3, int]:
        """One run's contribution in scratch histograms (with retry)."""
        attempts_used = [0]

        def attempt(attempt_no: int) -> Tuple[Hist3, Hist3]:
            attempts_used[0] = attempt_no
            if monitor.enabled:
                # announce the run *before* its fault point so a slow /
                # wedged run ages this heartbeat (stall detection)
                monitor.heartbeat(
                    comm.rank, site=f"run:{i}/UpdateEvents", run=i
                )
            _faults.fault_point("run", run=i)
            scratch_b = Hist3(grid, track_errors=True)
            scratch_m = Hist3(grid)
            ws = step(i, scratch_b, scratch_m)
            events_seen[i] = _n_events(ws)
            return scratch_b, scratch_m

        def on_retry(exc: BaseException, attempt_no: int) -> None:
            # a corrupt read may have seeded the cache from bad bytes
            cache.invalidate(f"run:{i}")

        # deadline propagation: a campaign deadline caps every per-run
        # retry backoff, so retries never sleep past the cancel token
        retry_kwargs: Dict[str, Any] = {}
        if recovery.cancel is not None and recovery.cancel.deadline is not None:
            retry_kwargs["deadline"] = recovery.cancel.deadline
            retry_kwargs["clock"] = recovery.cancel.clock
        scratch_b, scratch_m = _faults.retry_call(
            attempt,
            site=f"run[{i}]",
            policy=recovery.retry,
            retryable=recovery.retryable,
            on_retry=on_retry,
            **retry_kwargs,
        )
        return scratch_b, scratch_m, attempts_used[0]

    def process_run(i: int) -> None:
        """Resume-or-compute run ``i``; quarantine on exhausted retries."""
        with tracer.span("run", kind="run", run=int(i)):
            if ckpt is not None and recovery.resume:
                if ckpt.is_quarantined(i):
                    dispositions[i] = {"status": "quarantined",
                                       "rank": int(comm.rank),
                                       "resumed": True}
                    if monitor.enabled:
                        monitor.record_quarantine(comm.rank, i)
                    done_local.add(i)
                    return
                if ckpt.has_run(i):
                    try:
                        delta = ckpt.load_run(i, grid)
                    except CheckpointCorruptError:
                        tracer.count("checkpoint.corrupt")
                        cache.invalidate(f"run:{i}")
                    else:
                        binmd_hist.signal += delta.binmd_signal
                        if (binmd_hist.error_sq is not None
                                and delta.binmd_error_sq is not None):
                            binmd_hist.error_sq += delta.binmd_error_sq
                        mdnorm_hist.signal += delta.mdnorm_signal
                        rec = ckpt.run_record(i) or {}
                        dispositions[i] = {
                            "status": "resumed",
                            "rank": int(comm.rank),
                            "attempts": int(rec.get("attempts", 1)),
                        }
                        tracer.count("checkpoint.resumed")
                        if monitor.enabled:
                            monitor.record_resume(comm.rank, i)
                        done_local.add(i)
                        return
            try:
                scratch_b, scratch_m, attempts = compute_delta(i)
            except _faults.RetryExhaustedError as exc:
                if not recovery.quarantine:
                    raise
                reason = repr(exc.last)
                if ckpt is not None:
                    ckpt.quarantine_run(i, reason)
                dispositions[i] = {"status": "quarantined",
                                   "rank": int(comm.rank),
                                   "attempts": int(exc.attempts),
                                   "reason": reason}
                tracer.count("quarantine.runs")
                if monitor.enabled:
                    monitor.record_quarantine(comm.rank, i)
                done_local.add(i)
                return
            binmd_hist.add(scratch_b)
            mdnorm_hist.add(scratch_m)
            if ckpt is not None:
                ckpt.save_run(i, scratch_b, scratch_m,
                              attempts=attempts, rank=comm.rank)
            dispositions[i] = {"status": "done", "rank": int(comm.rank),
                               "attempts": int(attempts)}
            if monitor.enabled:
                monitor.run_completed(
                    comm.rank, i, events=float(events_seen.get(i, 0))
                )
            done_local.add(i)

    start, end = _rank_block(n_runs, comm, run_weights)
    my_runs = list(range(start, end))
    if monitor.enabled:
        monitor.start_campaign(n_runs, comm.size)
        monitor.assign_runs(comm.rank, len(my_runs))
    with tracer.span(
        "cross_section",
        kind="algorithm",
        backend=backend or "default",
        n_runs=int(n_runs),
        mpi_rank=int(comm.rank),
        mpi_size=int(comm.size),
        recovery=True,
        **({"n_shards": int(shards.n_shards)} if shards is not None else {}),
    ), timings.stage("Total"), _cancel.cancel_scope(recovery.cancel):
        crashed = False
        for pos, i in enumerate(my_runs):
            # cooperative cancellation between durable units: every run
            # completed so far is already checkpointed, so stopping here
            # leaves the campaign resumable bit-identically
            if recovery.cancel is not None:
                try:
                    recovery.cancel.check(f"campaign (before run {i})")
                except CancelledError:
                    tracer.count("campaign.cancelled")
                    raise
            try:
                process_run(i)
            except _faults.RankCrashError:
                if comm.size == 1:
                    raise  # a lone rank cannot recover from its own death
                # durable work survives; everything else is the backlog
                if ckpt is not None:
                    leftover = [j for j in my_runs if j not in done_local]
                else:
                    leftover = list(my_runs)  # in-memory partials die with us
                comm.mark_failed({"runs": leftover})
                tracer.count("rank.crash")
                if monitor.enabled:
                    monitor.record_crash(comm.rank)
                crashed = True
                break
        if crashed:
            return CrossSectionResult(
                cross_section=None, binmd=None, mdnorm=None,
                timings=timings, n_runs=n_runs,
                backend=backend or "default",
            )

        # -- rendezvous: learn who died, adopt their backlog ---------------
        if comm.size > 1:
            comm.Barrier()
            failed = comm.failed_ranks()
            if failed:
                backlog = sorted({
                    int(r) for info in failed.values()
                    for r in info.get("runs", ())
                })
                alive = comm.alive_ranks()
                pos_in_alive = alive.index(comm.rank)
                takeover = [r for idx, r in enumerate(backlog)
                            if idx % len(alive) == pos_in_alive]
                for i in takeover:
                    if recovery.cancel is not None:
                        try:
                            recovery.cancel.check(
                                f"campaign (before takeover run {i})"
                            )
                        except CancelledError:
                            tracer.count("campaign.cancelled")
                            raise
                    # a crash here is a double fault: fail loudly
                    process_run(i)

        # -- final combine --------------------------------------------------
        alive = comm.alive_ranks()
        eff_root = alive[0]
        merged = _merge_dispositions(comm, dispositions, eff_root)

        if ckpt is not None:
            # every completed run's delta is durable: the effective root
            # rebuilds the totals by summing deltas in ascending run
            # order — bit-identical regardless of rank layout/crashes.
            comm.Barrier()
            if comm.rank != eff_root:
                return CrossSectionResult(
                    cross_section=None, binmd=None, mdnorm=None,
                    timings=timings, n_runs=n_runs,
                    backend=backend or "default",
                )
            binmd_out, mdnorm_out = _fold_from_checkpoint(ckpt, grid)
        else:
            with tracer.span("mpi_reduce", kind="mpi",
                             mpi_rank=int(comm.rank), mpi_size=int(comm.size)):
                is_root = comm.rank == eff_root
                binmd_total = (np.empty_like(binmd_hist.signal)
                               if is_root else None)
                mdnorm_total = (np.empty_like(mdnorm_hist.signal)
                                if is_root else None)
                comm.Reduce(binmd_hist.signal, binmd_total,
                            op=SUM, root=eff_root)
                comm.Reduce(mdnorm_hist.signal, mdnorm_total,
                            op=SUM, root=eff_root)
            if comm.rank != eff_root:
                return CrossSectionResult(
                    cross_section=None, binmd=None, mdnorm=None,
                    timings=timings, n_runs=n_runs,
                    backend=backend or "default",
                )
            binmd_out = Hist3(grid, signal=binmd_total)
            mdnorm_out = Hist3(grid, signal=mdnorm_total)

        cross = binmd_out.divide(mdnorm_out)
    if monitor.enabled:
        monitor.finish_campaign()
    quarantined = sorted(
        i for i, d in merged.items() if d.get("status") == "quarantined"
    )
    extras: Dict[str, Any] = {"recovery": {
        "quarantined": quarantined,
        "failed_ranks": sorted(comm.failed_ranks()),
        "resumed": sorted(
            i for i, d in merged.items() if d.get("status") == "resumed"
        ),
    }}
    if cache.enabled:
        extras["geom_cache"] = cache.stats.snapshot()
    return CrossSectionResult(
        cross_section=cross,
        binmd=binmd_out,
        mdnorm=mdnorm_out,
        timings=timings,
        n_runs=n_runs,
        backend=backend or "default",
        extras=extras,
        degraded=bool(quarantined),
        dispositions=merged,
    )


def _merge_dispositions(
    comm: Comm,
    local: Dict[int, Dict[str, Any]],
    eff_root: int,
) -> Dict[int, Dict[str, Any]]:
    """Allgather + merge per-rank run dispositions (dead ranks excluded)."""
    if comm.size == 1:
        return dict(local)
    gathered = comm.allgather(local)
    merged: Dict[int, Dict[str, Any]] = {}
    for part in gathered:
        if part:
            merged.update(part)
    return merged
