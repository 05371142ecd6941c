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

Each rank computes every one of its runs into fresh delta histograms;
the effective root gathers the deltas and folds them in ascending run
order (the ``Reduce``), then performs the guarded division.  One loop
serves fail-fast and recovering campaigns, and the work-stealing
executor (:mod:`repro.mpi.stealing`) records its runs through the same
book and fold, so the bits never depend on rank count, recovery
setting or executor.  Per-stage wall-clock is accumulated into a
:class:`~repro.util.timers.StageTimings` using the paper's stage names
(UpdateEvents / MDNorm / BinMD / Total).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import geom_cache as _gc
from repro.core.binmd import bin_events, binmd_reads
from repro.core.checkpoint import (
    DELTA_ARRAYS,
    CheckpointCorruptError,
    RecoveryConfig,
    RunDelta,
)
from repro.core.geom_cache import GeomCache
from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.core.md_event_workspace import MDEventWorkspace, PendingMD
from repro.core.mdnorm import mdnorm
from repro.core.sharding import ShardConfig, sharded_binmd, sharded_mdnorm
from repro.crystal.symmetry import PointGroup
from repro.jacc import resolve_backend
from repro.mpi import Comm, SequentialComm, balanced_rank_runs
from repro.nexus.corrections import FluxSpectrum
from repro.nexus.events import BINMD_COLUMNS
from repro.util import faults as _faults
from repro.util import trace as _trace
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


def _rank_blocks(
    n_runs: int, size: int, run_weights: Optional[Sequence[float]]
) -> List[Tuple[int, int]]:
    """Every rank's contiguous run block — weight-balanced when the run
    manifest supplies per-run event counts; uniform weights give the
    classic equal-count blocks."""
    weights = [1.0] * n_runs if run_weights is None else run_weights
    require(len(weights) == n_runs,
            f"run_weights has {len(weights)} entries for {n_runs} runs")
    return balanced_rank_runs(weights, size)


def _check_ub(ws: MDEventWorkspace, i: int) -> None:
    if ws.ub_matrix is None:
        raise ValidationError(
            f"run index {i} carries no UB matrix; Algorithm 1 needs it"
        )


def _load_run(
    load_run: Callable[[int], Any], i: int, timings: StageTimings
) -> MDEventWorkspace:
    """UpdateEvents: load run ``i`` (timed; a begun load is joined at
    once, reading BinMD's columns) and check it carries a UB."""
    with timings.stage("UpdateEvents"):
        ws = load_run(i)
        if isinstance(ws, PendingMD):
            ws = ws.join(BINMD_COLUMNS)
    _check_ub(ws, i)
    return ws


def _retry(
    attempt: Callable[[int], Any],
    i: int,
    recovery: Optional[RecoveryConfig],
    cache: GeomCache,
    *,
    site: Optional[str] = None,
    on_retry: Optional[Callable[[BaseException, int], None]] = None,
) -> Any:
    """``attempt(attempt_no)`` for run ``i`` under the run-level retry
    protocol.  Fail-fast (``recovery=None``) calls it once, unwrapped.
    Every retry first invalidates the run's geometry-cache entries (a
    corrupt read may have seeded them from bad bytes); the retry budget
    is ``recovery.retry``'s attempts, shaped by its backoff."""
    if recovery is None:
        return attempt(1)

    def invalidate(exc: BaseException, attempt_no: int) -> None:
        cache.invalidate(f"run:{i}")
        if on_retry is not None:
            on_retry(exc, attempt_no)

    return _faults.retry_call(
        attempt, site=site or f"run[{i}]", policy=recovery.retry,
        on_retry=invalidate,
    )


def _run_step(
    load_run: Callable[[int], MDEventWorkspace],
    grid: HKLGrid,
    point_group: PointGroup,
    flux: FluxSpectrum,
    det_directions: np.ndarray,
    solid_angles: np.ndarray,
    *,
    backend: Optional[str],
    sort_impl: str,
    scatter_impl: str,
    timings: StageTimings,
    binmd_impl: Optional[Callable],
    mdnorm_impl: Optional[Callable],
    cache: GeomCache,
    shards: Optional[ShardConfig],
) -> Callable[[int, Hist3, Hist3], None]:
    """Algorithm 1's loop body: ``step(i, binmd_hist, mdnorm_hist)``
    loads run ``i`` (the timed UpdateEvents stage) and accumulates its
    MDNorm and BinMD into the given histograms — through the ``*_impl``
    override or the kernels.  With ``shards``, MDNorm runs as recorded
    and replayed row ranges and BinMD as one launch over ``n_shards``
    event windows (:func:`~repro.core.sharding.sharded_binmd`); an
    out-of-core table is read in budget-capped windows either way, and
    BinMD records and replays nothing on this static path.

    When ``load_run`` returns a :class:`PendingMD` (the workflow's
    loader does), its columns are read on the ``bytesplit`` helper
    while MDNorm, which reads no events, runs; the join before BinMD is
    charged to UpdateEvents.  Between the load and MDNorm, outside
    every stage timer, the step builds BinMD's cache key from the Q
    digest stored in the file and makes the run's one lookup (in
    memory, unsharded, cache enabled).  The load reads the columns
    :func:`~repro.core.binmd.binmd_reads` names for the entry found:
    signal and error_sq alone on a hit that the batch body will
    deposit, otherwise BinMD's five columns, whose Q rows the join
    checks against the stored digest when the run looked its key up (a
    key that inserts an entry must describe the rows binned; elsewhere
    each stream's CRC32 is the check).  The entry found is handed to
    BinMD, which looks nothing up again, so no eviction in between can
    turn the hit into a Q read."""
    looks_up = binmd_impl is None and shards is None and cache.enabled

    def step(i: int, binmd_hist: Hist3, mdnorm_hist: Hist3) -> None:
        pending = None
        lookup = None
        try:
            with timings.stage("UpdateEvents"):
                loaded = load_run(i)
            if isinstance(loaded, PendingMD):
                pending = loaded
            ws = loaded if pending is None else pending.ws
            _check_ub(ws, i)
            event_transforms = grid.transforms_for(ws.ub_matrix, point_group)
            if pending is not None:
                columns = BINMD_COLUMNS
                if looks_up and pending.q_digest is not None:
                    key = cache.binmd_key(grid, event_transforms,
                                          pending.q_digest)
                    lookup = (key, cache.get(key))
                    columns = binmd_reads(backend, lookup[1])
                with timings.stage("UpdateEvents"):
                    pending.start(columns, keyed=lookup is not None)
            _mdnorm_step(i, ws, mdnorm_hist)
            if pending is not None:
                with timings.stage("UpdateEvents"), _trace.active_tracer().span(
                        "nexus.join_payload", kind="io", run=int(i)):
                    ws = pending.join()
        finally:
            if pending is not None:
                pending.close()
        _binmd_step(i, ws, event_transforms, binmd_hist, lookup)

    def _mdnorm_step(i: int, ws: MDEventWorkspace, mdnorm_hist: Hist3) -> None:
        traj_transforms = grid.transforms_for(
            ws.ub_matrix, point_group, goniometer=ws.goniometer
        )
        tag = f"run:{i}"
        with timings.stage("MDNorm"):
            _faults.fault_point("kernel.mdnorm", run=i)
            args = (mdnorm_hist, traj_transforms, det_directions,
                    solid_angles, flux, ws.momentum_band)
            if mdnorm_impl is not None:
                mdnorm_impl(*args, charge=ws.proton_charge)
            elif shards is not None:
                sharded_mdnorm(
                    *args, shards=shards, charge=ws.proton_charge,
                    backend=backend, sort_impl=sort_impl, cache=cache,
                    cache_tag=tag, run=i,
                )
            else:
                mdnorm(
                    *args, charge=ws.proton_charge, backend=backend,
                    sort_impl=sort_impl, scatter_impl=scatter_impl,
                    cache=cache, cache_tag=tag,
                )

    def _binmd_step(i: int, ws: MDEventWorkspace, event_transforms: np.ndarray,
                    binmd_hist: Hist3, lookup: Optional[tuple]) -> None:
        tag = f"run:{i}"
        with timings.stage("BinMD"):
            _faults.fault_point("kernel.binmd", run=i)
            if binmd_impl is not None:
                binmd_impl(binmd_hist, ws.events, event_transforms)
            elif shards is not None:
                sharded_binmd(binmd_hist, ws.events, event_transforms,
                              shards=shards, run=i)
            else:
                bin_events(
                    binmd_hist, ws.events, event_transforms,
                    backend=backend, scatter_impl=scatter_impl,
                    cache=cache, cache_tag=tag, lookup=lookup,
                )

    return step


def _fold_runs(grid: HKLGrid, deltas: Iterable[RunDelta]) -> Tuple[Hist3, Hist3]:
    """The one fold of per-run deltas, summed in the order given —
    ascending run order for every caller, so the float association is
    independent of rank layout, executor, crashes, steals and resume
    points.  Each sparse delta is scattered into dense +0.0 totals; a
    bin a run never touched would have added ±0.0, which leaves such a
    total unchanged, so the sums equal the dense fold's bit for bit."""
    totals = {name: np.zeros(tuple(grid.bins), dtype=np.float64)
              for name in DELTA_ARRAYS}
    have_err = True
    for delta in deltas:
        have_err = have_err and "binmd_error_sq" in delta.arrays
        for name, (idx, val) in delta.arrays.items():
            # indices are unique within a run: a plain scatter-add
            totals[name].reshape(-1)[idx] += val
    return (
        Hist3(grid, signal=totals["binmd_signal"],
              error_sq=totals["binmd_error_sq"] if have_err else None),
        Hist3(grid, signal=totals["mdnorm_signal"]),
    )


class _RunBook:
    """One campaign's per-run outcomes: ``runs`` maps a run to its
    sparse :class:`~repro.core.checkpoint.RunDelta`, ``dispositions``
    to its status record (``done|resumed|quarantined``, rank,
    attempts).

    The static loop keeps one book per rank and gathers them on the
    root; the stealing executor's ranks share one.  Either way every
    run is recorded here exactly once — resumed from the checkpoint,
    quarantined, or done (checkpointed first, so a recorded run is
    durable whenever a checkpoint manager is configured).
    """

    def __init__(
        self, grid: HKLGrid, recovery: Optional[RecoveryConfig], cache: GeomCache
    ) -> None:
        self.grid = grid
        self.ckpt = recovery.checkpoint if recovery is not None else None
        self.resuming = bool(recovery is not None and recovery.resume
                             and self.ckpt is not None)
        self.cache = cache
        self.runs: Dict[int, RunDelta] = {}
        self.dispositions: Dict[int, Dict[str, Any]] = {}
        self._lock = threading.Lock()

    def _record(self, i: int, delta: Optional[RunDelta], disposition: Dict[str, Any]) -> None:
        with self._lock:
            if delta is not None:
                self.runs[i] = delta
            self.dispositions[i] = disposition

    def resume(self, i: int, rank: int) -> bool:
        """Take run ``i`` from the checkpoint being resumed; True when
        it needs no compute (replayed or quarantined there).  A corrupt
        delta is recomputed."""
        if not self.resuming:
            return False
        ckpt = self.ckpt
        if ckpt.is_quarantined(i):
            self._record(i, None, {"status": "quarantined", "rank": int(rank),
                                   "resumed": True})
            return True
        if not ckpt.has_run(i):
            return False
        tracer = _trace.active_tracer()
        try:
            d = ckpt.load_run(i, self.grid)
        except CheckpointCorruptError:
            tracer.count("checkpoint.corrupt")
            self.cache.invalidate(f"run:{i}")
            return False
        rec = ckpt.run_record(i) or {}
        self._record(i, d, {"status": "resumed", "rank": int(rank),
                            "attempts": int(rec.get("attempts", 1))})
        tracer.count("checkpoint.resumed")
        return True

    def quarantine(self, i: int, rank: int, exc: _faults.RetryExhaustedError) -> None:
        """Run ``i`` exhausted its retries: durably drop it."""
        reason = repr(exc.last)
        if self.ckpt is not None:
            self.ckpt.quarantine_run(i, reason)
        self._record(i, None, {"status": "quarantined", "rank": int(rank),
                               "attempts": int(exc.attempts), "reason": reason})
        _trace.active_tracer().count("quarantine.runs")

    def done(
        self, i: int, rank: int, binmd: Hist3, mdnorm: Hist3, *,
        attempts: int,
    ) -> None:
        """Run ``i``'s fresh delta histograms are complete."""
        delta = RunDelta.from_hists(binmd, mdnorm)
        if self.ckpt is not None:
            self.ckpt.save_run(i, delta, attempts=attempts, rank=rank)
        self._record(i, delta, {"status": "done", "rank": int(rank),
                                "attempts": int(attempts)})


def _non_root_result(
    timings: StageTimings, n_runs: int, backend: Optional[str]
) -> CrossSectionResult:
    return CrossSectionResult(
        cross_section=None, binmd=None, mdnorm=None,
        timings=timings, n_runs=n_runs, backend=backend or "default",
    )


def _root_result(
    grid: HKLGrid,
    runs: Dict[int, RunDelta],
    dispositions: Optional[Dict[int, Dict[str, Any]]],
    *,
    ckpt: Any,
    comm: Comm,
    cache: GeomCache,
    timings: StageTimings,
    n_runs: int,
    backend: Optional[str],
    extras: Optional[Dict[str, Any]] = None,
) -> CrossSectionResult:
    """The effective root's final combine for every executor: fold the
    gathered per-run deltas in ascending run order and divide.  With a
    checkpoint, the only runs read back from disk are the durable runs
    of a dead rank — in the checkpoint, but in no gathered book; they are
    added to ``dispositions`` as ``done`` under the rank that wrote
    them — and the campaign is then marked complete.  ``dispositions=None`` is
    fail-fast: no recovery report."""
    if ckpt is not None:
        durable = set(ckpt.completed_runs())
        require(set(runs) <= durable,
                f"runs {sorted(set(runs) - durable)} were gathered but are "
                f"not in the checkpoint")
        runs = dict(runs)
        for i in sorted(durable - set(dispositions)):
            runs[i] = ckpt.load_run(i, grid)
            rec = ckpt.run_record(i) or {}
            dispositions[i] = {"status": "done", "rank": rec.get("rank"),
                               "attempts": int(rec.get("attempts", 1))}
    binmd, mdnorm = _fold_runs(grid, (runs[i] for i in sorted(runs)))
    if ckpt is not None:
        ckpt.mark_campaign_complete(
            f"runs={len(ckpt.completed_runs())} "
            f"quarantined={len(ckpt.quarantined_runs())}\n"
        )
    result = CrossSectionResult(
        cross_section=binmd.divide(mdnorm), binmd=binmd, mdnorm=mdnorm,
        timings=timings, n_runs=n_runs, backend=backend or "default",
        dispositions=dispositions,
    )
    extras = dict(extras or {})
    if dispositions is not None:
        result.degraded = bool(result.quarantined_runs)
        extras["recovery"] = {
            "quarantined": list(result.quarantined_runs),
            "failed_ranks": sorted(comm.failed_ranks()),
            "resumed": sorted(i for i, d in dispositions.items()
                              if d.get("status") == "resumed"),
        }
    if cache.enabled:
        extras["geom_cache"] = cache.stats.snapshot()
    result.extras = extras or None
    return result


def check_executor(executor: Optional[str]) -> None:
    """Reject campaign executors other than the static plan and the
    work-stealing executor."""
    if executor not in (None, "static", "stealing"):
        raise ValueError(
            f"unknown executor {executor!r}; available: static, stealing"
        )


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
    sort_impl: str = "library",
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

    Every rank computes each of its runs into fresh delta histograms;
    the effective root folds all runs' deltas in ascending run order.
    The result is therefore bit-identical for every rank count,
    recovery setting, shard count and executor.

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
        When given, each run runs under the fault-tolerant protocol:
        per-run retry/backoff, quarantine of runs that exhaust their
        retry budget, checkpoint/resume of per-run deltas, and
        redistribution of a crashed rank's unfinished runs to the
        survivors.  ``None`` is fail-fast: the same loop
        with one attempt per run, the original exception, no
        quarantine or checkpoint, and a rank crash aborts the world.
    shards:
        When given, each owned run's MDNorm is cut into detector
        shards and its BinMD into event shards, executed in process
        (:func:`repro.core.sharding.sharded_mdnorm` /
        :func:`~repro.core.sharding.sharded_binmd`) — the second level
        of the hierarchical decomposition.  Shards run the kernels'
        batch bodies, so the result is bit-identical to the unsharded
        ``vectorized`` loop for every shard count;
        ``None`` keeps the single-level loop byte-for-byte.  Ignored
        for a stage whose ``*_impl`` override is set (the override owns
        its own parallelism).
    run_weights:
        Optional per-run event weights (from the run manifest).  When
        given, ranks take weight-balanced contiguous run blocks
        (:func:`repro.mpi.balanced_rank_runs`) instead of equal-count
        blocks — the outer level of the 2-D decomposition.
    executor:
        ``None``/``"static"`` is the fixed rank-block plan below;
        ``"stealing"`` dispatches to the elastic work-stealing executor
        (:mod:`repro.mpi.stealing`), which shares this module's run
        bookkeeping and fold.
    schedule:
        Stealing executor only: a
        :class:`repro.util.schedule.ScheduleController` driving steal
        decisions (None = the ``weighted``
        policy, whose steals follow the ranks' timing; a seeded
        ``random`` controller drives arbitrary schedules).
    """
    check_executor(executor)
    if executor == "stealing":
        from repro.mpi.stealing import run_stealing_campaign

        return run_stealing_campaign(
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
        backend=backend, sort_impl=sort_impl,
        scatter_impl=scatter_impl, timings=timings, binmd_impl=binmd_impl,
        mdnorm_impl=mdnorm_impl, cache=cache, shards=shards,
    )
    tracer = _trace.active_tracer()
    book = _RunBook(grid, recovery, cache)

    def process_run(i: int) -> None:
        """Resume-or-compute run ``i``; quarantine on exhausted retries."""
        with tracer.span("run", kind="run", run=int(i)):
            if book.resume(i, comm.rank):
                return

            def attempt(attempt_no: int) -> Tuple[Hist3, Hist3, int]:
                if recovery is not None:
                    _faults.fault_point("run", run=i)
                binmd_delta = Hist3(grid, track_errors=True)
                mdnorm_delta = Hist3(grid)
                step(i, binmd_delta, mdnorm_delta)
                return binmd_delta, mdnorm_delta, attempt_no

            try:
                binmd_delta, mdnorm_delta, attempts = _retry(
                    attempt, i, recovery, cache)
            except _faults.RetryExhaustedError as exc:
                if recovery is None or not recovery.quarantine:
                    raise
                book.quarantine(i, comm.rank, exc)
                return
            book.done(i, comm.rank, binmd_delta, mdnorm_delta,
                      attempts=attempts)

    start, end = _rank_blocks(n_runs, comm.size, run_weights)[comm.rank]
    my_runs = list(range(start, end))
    with tracer.span(
        "cross_section",
        kind="algorithm",
        backend=resolve_backend(backend).name,
        n_runs=int(n_runs),
        mpi_rank=int(comm.rank),
        mpi_size=int(comm.size),
        **({"recovery": True} if recovery is not None else {}),
        **({"n_shards": int(shards.n_shards)} if shards is not None else {}),
    ), timings.stage("Total"), \
            cache.reduction_scope(grid, det_directions, solid_angles, flux):
        for i in my_runs:
            try:
                process_run(i)
            except _faults.RankCrashError:
                if recovery is None or comm.size == 1:
                    raise  # fail-fast, or a lone rank: nobody can take over
                # durable work survives; everything else is the backlog
                # (without a checkpoint, in-memory deltas die with us)
                leftover = [j for j in my_runs if book.ckpt is None
                            or j not in book.dispositions]
                comm.mark_failed({"runs": leftover})
                tracer.count("rank.crash")
                return _non_root_result(timings, n_runs, backend)

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
                for i in backlog[pos_in_alive::len(alive)]:
                    # a crash here is a double fault: fail loudly
                    process_run(i)

        # -- final combine: every rank's runs to the effective root ----------
        eff_root = comm.alive_ranks()[0]
        with tracer.span("mpi_reduce", kind="mpi",
                         mpi_rank=int(comm.rank), mpi_size=int(comm.size)):
            books = comm.gather((book.runs, book.dispositions), root=eff_root)
        if books is None:
            return _non_root_result(timings, n_runs, backend)
        runs: Dict[int, RunDelta] = {}
        dispositions: Dict[int, Dict[str, Any]] = {}
        for part in books:
            if part is not None:  # dead ranks contribute nothing
                runs.update(part[0])
                dispositions.update(part[1])
        result = _root_result(
            grid, runs, dispositions if recovery is not None else None,
            ckpt=book.ckpt, comm=comm, cache=cache, timings=timings,
            n_runs=n_runs, backend=backend,
        )
    return result
