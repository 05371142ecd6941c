"""Elastic work-stealing execution across the rank × shard grid.

The static plan (PR 5) fixes every ``RunShard`` to a rank up front, so
one slow shard — skewed chunk compression, a cold cache, a quarantine
retry storm — idles every other worker.  This executor makes the grid
**elastic**: the campaign's shard tasks live in one shared
:class:`StealQueue`; each rank drains its own planned deque first and,
when the schedule allows, steals from the tail of a victim's deque
(victim selection by remaining *stored-byte* weight from the PR 6
chunk index).  Ranks can join mid-campaign (*birth*: a spawned worker
registers, drains the queue, and its deposits merge through the same
replay), leave cleanly (drain-and-requeue), or die holding work (their
claimed tasks requeue; the queue's claim/complete accounting keeps
execution exactly-once).

Determinism argument (DESIGN.md §6h).  Execution order is deliberately
chaotic — that is the point — so nothing numeric may depend on it:

* a task never touches a histogram; it runs the kernel's batch body
  over its planned contiguous range and *records* the deposit logs,
  through the same :func:`repro.core.sharding.execute_shard_range` the
  static fan-out's shards use;
* when the last task of a run reports, the run's logs are replayed
  **keyed by the shard's planned index** (op-major, planned ranges
  ascending — :func:`repro.core.sharding.replay_shard_logs`) into
  fresh per-run scratch histograms: each run's delta is therefore
  bit-identical to an in-memory ``vectorized`` execution of that run,
  regardless of which ranks executed which shards, in what order, with
  how many steals;
* the effective root folds the per-run deltas in **ascending run
  order** — the one fold of :mod:`repro.core.cross_section`, shared
  with the recovering loop and the checkpoint rebuild, so the
  stealing result is bit-identical to the static recovering execution
  (and to any checkpointed/resumed static campaign) for *every* steal
  schedule.

Checkpoint/resume compatibility: deltas checkpoint per run exactly as
the static loop's do; on ``--resume`` completed runs replay from disk
and every shard of an incomplete run — including shards that were
in-flight (stolen) at the kill — goes back into the queue.

The simulated-MPI caveat applies throughout: ranks are threads of one
process (:mod:`repro.mpi.comm`), so "the shared queue" is literally a
shared object distributed by reference over ``Comm.bcast``, and rank
birth is a thread spawn — stand-ins for an RDMA task pool and
``MPI_Comm_spawn`` on the real machines.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core import geom_cache as _gc
from repro.core.checkpoint import RecoveryConfig
from repro.core.cross_section import (
    CrossSectionResult,
    _fold_from_checkpoint,
    _fold_runs,
    _n_events,
)
from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.core.sharding import (
    ShardConfig,
    ShardContext,
    binmd_ranges,
    binmd_shard_context,
    execute_shard_range,
    mdnorm_ranges,
    mdnorm_shard_context,
    replay_shard_logs,
)
from repro.crystal.symmetry import PointGroup
from repro.mpi.comm import Comm, SequentialComm
from repro.mpi.decomposition import balanced_rank_runs, rank_range
from repro.nexus.corrections import FluxSpectrum
from repro.util import faults as _faults
from repro.util import monitor as _monitor
from repro.util import trace as _trace
from repro.util.schedule import ScheduleController
from repro.util.timers import StageTimings
from repro.util.validation import ValidationError, require

#: idle backoff while peers hold the last claimed tasks
_IDLE_SLEEP_S = 0.0005

_STAGES = ("mdnorm", "binmd")
_STAGE_TITLES = {"mdnorm": "MDNorm", "binmd": "BinMD"}


@dataclass(frozen=True)
class StealTask:
    """One stealable cell: a planned shard of one run-stage."""

    run: int
    stage: str            # "mdnorm" | "binmd"
    index: int            # planned shard index within the stage
    n_ranges: int         # total planned shards of the stage
    owner: int            # rank the static plan assigned the run to
    weight: float         # work estimate (stored bytes / row count)
    plan_uid: Optional[str] = None  # planning span's global uid (trace v3)

    @property
    def key(self) -> Tuple[int, str, int]:
        return (self.run, self.stage, self.index)

    @property
    def label(self) -> str:
        return f"run{self.run}/{self.stage}/shard{self.index}of{self.n_ranges}"


class StealQueue:
    """The shared elastic work queue with exactly-once accounting.

    Per-owner deques: an owner pops its own head (preserving the static
    plan's order when nobody steals); thieves pop a victim's *tail*
    (classic work-stealing, minimizing contention on the owner's next
    task).  Every task moves ``pending → claimed → done`` (or
    ``dropped`` when its run quarantines); a dying or leaving rank's
    claimed and pending tasks requeue, so no task is ever lost and none
    can complete twice — :meth:`complete` is the single bottleneck that
    marks a key done exactly once.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._pending: Dict[int, deque] = {}
        self._claimed: Dict[Tuple[int, str, int], Tuple[int, StealTask]] = {}
        self._done: Set[Tuple[int, str, int]] = set()
        self._dropped: Set[Tuple[int, str, int]] = set()
        self._quarantined_runs: Set[int] = set()
        self._active: Set[int] = set()
        self.total = 0
        self.steals = 0
        self.adoptions = 0

    # -- membership -------------------------------------------------------
    def register_rank(self, rank: int) -> None:
        with self._lock:
            self._active.add(int(rank))
            self._pending.setdefault(int(rank), deque())

    def deregister_rank(self, rank: int) -> None:
        """Clean leave: the rank's remaining deque becomes orphan work."""
        with self._lock:
            self._active.discard(int(rank))

    def release_rank(self, rank: int) -> None:
        """Crash/leave: requeue the rank's claimed tasks, deregister it.

        Claimed tasks go back to the *head* of their owner's deque (they
        were next in plan order); the rank's own pending deque stays
        where it is and becomes adoptable once the rank is inactive.
        """
        with self._lock:
            for key, (holder, task) in list(self._claimed.items()):
                if holder == rank:
                    del self._claimed[key]
                    self._pending.setdefault(task.owner, deque()).appendleft(task)
            self._active.discard(int(rank))

    # -- intake -----------------------------------------------------------
    def add_task(self, task: StealTask) -> None:
        with self._lock:
            self._pending.setdefault(task.owner, deque()).append(task)
            self.total += 1

    # -- views ------------------------------------------------------------
    def own_depth(self, rank: int) -> int:
        with self._lock:
            dq = self._pending.get(rank)
            return len(dq) if dq else 0

    def depth(self) -> int:
        with self._lock:
            return sum(len(dq) for dq in self._pending.values())

    def remaining_weights(self, exclude: int) -> Dict[int, float]:
        """Active ranks (≠ ``exclude``) with queued work → total weight."""
        with self._lock:
            return {
                r: sum(t.weight for t in dq)
                for r, dq in self._pending.items()
                if r != exclude and dq and r in self._active
            }

    def completed_count(self) -> int:
        with self._lock:
            return len(self._done) + len(self._dropped)

    def all_done(self) -> bool:
        with self._lock:
            return (
                not self._claimed
                and not any(self._pending.values())
            )

    # -- claim / complete -------------------------------------------------
    def claim_own(self, rank: int) -> Optional[StealTask]:
        with self._lock:
            dq = self._pending.get(rank)
            if not dq:
                return None
            task = dq.popleft()
            self._claimed[task.key] = (rank, task)
            return task

    def claim_steal(self, thief: int, victim: int) -> Optional[StealTask]:
        with self._lock:
            dq = self._pending.get(victim)
            if not dq:
                return None
            task = dq.pop()
            self._claimed[task.key] = (thief, task)
            self.steals += 1
            return task

    def claim_orphan(self, thief: int) -> Optional[StealTask]:
        """Adopt work whose owner is gone (dead or left) — the liveness
        backstop that no schedule policy can veto."""
        with self._lock:
            for r in sorted(self._pending):
                if r in self._active:
                    continue
                dq = self._pending[r]
                if dq:
                    task = dq.popleft()
                    self._claimed[task.key] = (thief, task)
                    self.adoptions += 1
                    return task
            return None

    def complete(self, rank: int, task: StealTask) -> bool:
        """Mark a claimed task finished; True iff its result counts
        (False: the run quarantined while the task was in flight)."""
        with self._lock:
            self._claimed.pop(task.key, None)
            if task.run in self._quarantined_runs:
                self._dropped.add(task.key)
                return False
            self._done.add(task.key)
            return True

    def drop_run(self, run: int) -> None:
        """Quarantine: purge the run's pending tasks, poison in-flight
        completions (their logs are discarded on arrival)."""
        with self._lock:
            self._quarantined_runs.add(int(run))
            for dq in self._pending.values():
                kept = [t for t in dq if t.run != run]
                if len(kept) != len(dq):
                    for t in dq:
                        if t.run == run:
                            self._dropped.add(t.key)
                    dq.clear()
                    dq.extend(kept)

    def is_quarantined(self, run: int) -> bool:
        with self._lock:
            return int(run) in self._quarantined_runs


class _StealState:
    """Everything the ranks share, built once on the root and broadcast
    (by reference — the simulated world's ranks are threads)."""

    def __init__(
        self,
        *,
        queue: StealQueue,
        controller: ScheduleController,
        grid: HKLGrid,
        n_shards: int,
        world_size: int,
    ) -> None:
        self.queue = queue
        self.controller = controller
        self.grid = grid
        self.n_shards = int(n_shards)
        self.world_size = int(world_size)
        self.lock = threading.RLock()
        self.workspaces: Dict[int, Any] = {}
        self.contexts: Dict[Tuple[int, str], ShardContext] = {}
        self.logs: Dict[Tuple[int, str], Dict[int, List[Any]]] = {}
        self.task_counts: Dict[int, int] = {}       # run -> total tasks
        self.events_per_run: Dict[int, int] = {}
        self.run_attempts: Dict[int, int] = {}
        self.deltas: Dict[int, Tuple[Hist3, Hist3]] = {}
        self.dispositions: Dict[int, Dict[str, Any]] = {}
        self.finished_runs: Set[int] = set()
        self.helpers: List[threading.Thread] = []
        self.next_helper_rank = int(world_size)
        self.births = 0
        self._run_locks: Dict[int, threading.Lock] = {}

    def run_lock(self, run: int) -> threading.Lock:
        with self.lock:
            lk = self._run_locks.get(run)
            if lk is None:
                lk = self._run_locks[run] = threading.Lock()
            return lk


def run_stealing_campaign(
    load_run: Callable[[int], Any],
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
    cache: Optional[Any] = None,
    recovery: Optional[RecoveryConfig] = None,
    shards: Optional[ShardConfig] = None,
    run_weights: Optional[Sequence[float]] = None,
    schedule: Optional[ScheduleController] = None,
) -> CrossSectionResult:
    """Algorithm 1 on the elastic rank × shard grid (see module docs).

    Drop-in signature match for the dispatch in
    :func:`repro.core.cross_section.compute_cross_section` with
    ``executor="stealing"``.  ``shards`` sets the per-run shard count
    (the stealing granularity; default 1 — run-level stealing) and the
    per-task pool width; ``schedule`` is the
    :class:`~repro.util.schedule.ScheduleController` driving steal and
    birth/leave/death decisions (the root rank's instance wins; default
    is the seeded ``weighted`` policy).  ``binmd_impl``/``mdnorm_impl``
    overrides own their parallelism and are not stealable.
    """
    require(n_runs >= 1, "need at least one run")
    if binmd_impl is not None or mdnorm_impl is not None:
        raise ValidationError(
            "the stealing executor records deposit logs through the shard "
            "machinery; kernel *_impl overrides are not stealable — use "
            "executor='static'"
        )
    del sort_impl, scatter_impl  # shards record with the batch defaults
    comm = comm or SequentialComm()
    cache = _gc.resolve(cache)
    shards = shards or ShardConfig(n_shards=1, workers=1)
    timings = timings or StageTimings(
        label=f"cross-section[{backend or 'default'}]"
    )
    tracer = _trace.active_tracer()
    monitor = _monitor.active_monitor()
    ckpt = recovery.checkpoint if recovery is not None else None
    workers = shards.effective_workers

    if monitor.enabled:
        monitor.start_campaign(n_runs, comm.size)

    with tracer.span(
        "cross_section",
        kind="algorithm",
        backend=backend or "default",
        n_runs=int(n_runs),
        mpi_rank=int(comm.rank),
        mpi_size=int(comm.size),
        executor="stealing",
        n_shards=int(shards.n_shards),
    ), timings.stage("Total"):
        # -- plan + share (root builds, everyone receives the reference)
        state: Optional[_StealState] = None
        if comm.rank == 0:
            state = _plan(
                load_run, n_runs, grid, point_group, comm,
                n_det=int(np.asarray(det_directions).shape[0]),
                shards=shards, recovery=recovery, run_weights=run_weights,
                schedule=schedule, timings=timings, cache=cache,
                monitor=monitor,
            )
            if workers > 1:
                # Fork the shard-worker pool now, while every other
                # rank thread is parked at the bcast below: a fork
                # taken mid-kernel on a sibling thread can hand the
                # children locked BLAS/OpenMP state they never escape.
                from repro.jacc.workers import GLOBAL_POOL

                GLOBAL_POOL.executor(workers)
        if comm.size > 1:
            state = comm.bcast(state, root=0)
        assert state is not None
        state.queue.register_rank(comm.rank)
        if monitor.enabled:
            monitor.assign_runs(comm.rank, state.queue.own_depth(comm.rank))

        exec_env = _ExecEnv(
            state=state, grid=grid, point_group=point_group, flux=flux,
            det_directions=det_directions, solid_angles=solid_angles,
            backend=backend, cache=cache, recovery=recovery, ckpt=ckpt,
            workers=workers, timings=timings, monitor=monitor,
            load_run=load_run, comm=comm,
        )

        crashed = False
        try:
            _work_loop(exec_env, comm.rank, helper=False)
        except _faults.RankCrashError:
            if comm.size == 1:
                raise  # a lone rank cannot recover from its own death
            state.queue.release_rank(comm.rank)
            comm.mark_failed({"runs": []})
            tracer.count("rank.crash")
            if monitor.enabled:
                monitor.record_crash(comm.rank)
            crashed = True

        # helper (born) ranks drain with the world; every survivor joins
        # them so a spawner's later death cannot leak a thread
        for t in list(state.helpers):
            t.join()
        if crashed:
            return _non_root_result(timings, n_runs, backend)

        # -- rendezvous + ascending-run fold on the effective root ------
        if comm.size > 1:
            comm.Barrier()
        alive = comm.alive_ranks()
        eff_root = alive[0]
        if comm.rank != eff_root:
            return _non_root_result(timings, n_runs, backend)

        dispositions = dict(state.dispositions)
        if ckpt is not None:
            binmd_out, mdnorm_out = _fold_from_checkpoint(ckpt, grid)
        else:
            binmd_out, mdnorm_out = _fold_runs(grid, (
                (b.signal, b.error_sq, m.signal)
                for b, m in (state.deltas[i] for i in sorted(state.deltas))
            ))
        cross = binmd_out.divide(mdnorm_out)

    if monitor.enabled:
        monitor.finish_campaign()
    quarantined = sorted(
        i for i, d in dispositions.items() if d.get("status") == "quarantined"
    )
    extras: Dict[str, Any] = {
        "stealing": {
            "steals": int(state.queue.steals),
            "adoptions": int(state.queue.adoptions),
            "births": int(state.births),
            "tasks": int(state.queue.total),
            "policy": state.controller.policy,
            "seed": state.controller.seed,
            "schedule_signature": state.controller.schedule_signature(),
        },
        "recovery": {
            "quarantined": quarantined,
            "failed_ranks": sorted(comm.failed_ranks()),
            "resumed": sorted(
                i for i, d in dispositions.items()
                if d.get("status") == "resumed"
            ),
        },
    }
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
        dispositions=dispositions,
    )


# ---------------------------------------------------------------------------
# planning (root rank)
# ---------------------------------------------------------------------------

def _plan(
    load_run: Callable[[int], Any],
    n_runs: int,
    grid: HKLGrid,
    point_group: PointGroup,
    comm: Comm,
    *,
    n_det: int,
    shards: ShardConfig,
    recovery: Optional[RecoveryConfig],
    run_weights: Optional[Sequence[float]],
    schedule: Optional[ScheduleController],
    timings: StageTimings,
    cache: Any,
    monitor: Any,
) -> _StealState:
    """Load run metadata, cut the static plan into stealable tasks.

    The static owner assignment is *identical* to the static executor's
    rank blocks, so a ``no-steal`` schedule executes exactly the static
    plan.  Runs already completed in a resumed checkpoint enqueue
    nothing — including runs whose shards were in-flight at the kill:
    per-run checkpoint granularity means every shard of an incomplete
    run goes back into the queue.
    """
    ckpt = recovery.checkpoint if recovery is not None else None
    resume = bool(recovery is not None and recovery.resume and ckpt is not None)
    if run_weights is not None:
        require(len(run_weights) == n_runs,
                f"run_weights has {len(run_weights)} entries for {n_runs} runs")
        blocks = balanced_rank_runs(run_weights, comm.size)
    else:
        blocks = [rank_range(n_runs, r, comm.size) for r in range(comm.size)]
    owner_of = {}
    for rank, (a, b) in enumerate(blocks):
        for i in range(a, b):
            owner_of[i] = rank

    controller = schedule or ScheduleController(seed=0, policy="weighted")
    state = _StealState(
        queue=StealQueue(), controller=controller, grid=grid,
        n_shards=shards.n_shards, world_size=comm.size,
    )
    for r in range(comm.size):
        state.queue.register_rank(r)

    for i in range(n_runs):
        if resume:
            if ckpt.is_quarantined(i):
                state.queue.drop_run(i)
                state.dispositions[i] = {
                    "status": "quarantined", "rank": int(comm.rank),
                    "resumed": True,
                }
                if monitor.enabled:
                    monitor.record_quarantine(comm.rank, i)
                continue
            if ckpt.has_run(i):
                rec = ckpt.run_record(i) or {}
                state.dispositions[i] = {
                    "status": "resumed", "rank": int(comm.rank),
                    "attempts": int(rec.get("attempts", 1)),
                }
                _trace.active_tracer().count("checkpoint.resumed")
                if monitor.enabled:
                    monitor.record_resume(comm.rank, i)
                continue
        try:
            ws = _load_workspace(
                load_run, i, timings, cache,
                recovery=recovery, monitor=monitor, comm=comm,
            )
        except _faults.RetryExhaustedError as exc:
            if recovery is None or not recovery.quarantine:
                raise
            _quarantine(state, i, repr(exc.last), int(exc.attempts),
                        comm.rank, ckpt, monitor)
            continue
        state.workspaces[i] = ws
        event_transforms = grid.transforms_for(ws.ub_matrix, point_group)
        n_ops = int(np.asarray(event_transforms).shape[0])
        # the shard contexts' own planners, so planned task indices line
        # up with the context ranges built when the tasks execute
        m_ranges, m_weights = mdnorm_ranges(n_det, n_ops, shards.n_shards)
        b_ranges, b_weights = binmd_ranges(ws.events, n_ops, shards.n_shards)
        state.task_counts[i] = len(m_ranges) + len(b_ranges)
        state.events_per_run[i] = _n_events(ws)
        # each enqueue is a planning span whose uid rides the task, so
        # an executing (possibly stolen) span can link back to the
        # exact planning site across ranks
        tracer = _trace.active_tracer()
        for stage, ranges, weights in (
            ("mdnorm", m_ranges, m_weights),
            ("binmd", b_ranges, b_weights),
        ):
            for idx, _rng in enumerate(ranges):
                with tracer.span(
                    f"plan:{stage}", kind="plan_task",
                    run=int(i), shard=int(idx), owner=int(owner_of[i]),
                ) as plan_span:
                    state.queue.add_task(StealTask(
                        run=i, stage=stage, index=idx,
                        n_ranges=len(ranges), owner=owner_of[i],
                        weight=float(weights[idx]),
                        plan_uid=plan_span.uid,
                    ))
    return state


def _load_workspace(
    load_run: Callable[[int], Any],
    i: int,
    timings: StageTimings,
    cache: Any,
    *,
    recovery: Optional[RecoveryConfig],
    monitor: Any,
    comm: Comm,
) -> Any:
    """UpdateEvents with the run-level retry protocol (planning side)."""

    def attempt(attempt_no: int) -> Any:
        if monitor.enabled:
            monitor.heartbeat(comm.rank, site=f"run:{i}/UpdateEvents", run=i)
        with timings.stage("UpdateEvents"):
            ws = load_run(i)
        if ws.ub_matrix is None:
            raise ValidationError(
                f"run index {i} carries no UB matrix; Algorithm 1 needs it"
            )
        return ws

    if recovery is None:
        return attempt(1)

    def on_retry(exc: BaseException, attempt_no: int) -> None:
        cache.invalidate(f"run:{i}")

    return _faults.retry_call(
        attempt,
        site=f"run[{i}]",
        policy=recovery.retry,
        retryable=recovery.retryable,
        on_retry=on_retry,
    )


# ---------------------------------------------------------------------------
# the scheduling loop (every rank, plus born helpers)
# ---------------------------------------------------------------------------

@dataclass
class _ExecEnv:
    """Per-world execution context threaded through the loop helpers."""

    state: _StealState
    grid: HKLGrid
    point_group: PointGroup
    flux: FluxSpectrum
    det_directions: np.ndarray
    solid_angles: np.ndarray
    backend: Optional[str]
    cache: Any
    recovery: Optional[RecoveryConfig]
    ckpt: Any
    workers: int
    timings: StageTimings
    monitor: Any
    load_run: Callable[[int], Any]
    comm: Comm


def _work_loop(env: _ExecEnv, rank: int, *, helper: bool) -> None:
    state = env.state
    q = state.queue
    ctl = state.controller
    tracer = _trace.active_tracer()
    leaving = False
    while True:
        for action in ctl.lifecycle(rank, q.completed_count()):
            if action == "birth":
                _spawn_helper(env)
            elif action == "leave":
                leaving = True
            elif action == "death":
                raise _faults.RankCrashError(
                    "steal.lifecycle", "rank_crash", 0
                )
        if leaving:
            # drain-and-requeue: current task (if any) already finished;
            # the rest of this rank's deque becomes orphan work
            q.deregister_rank(rank)
            tracer.count("steal.leaves")
            return

        victims = q.remaining_weights(exclude=rank)
        own_depth = q.own_depth(rank)
        victim = None
        if own_depth or victims:
            victim = ctl.acquire(rank, own_depth, victims)
        task = None
        stolen = False
        if victim is not None:
            task = q.claim_steal(rank, victim)
            stolen = task is not None
        if task is None:
            task = q.claim_own(rank)
            stolen = False
        if task is None:
            task = q.claim_orphan(rank)
            stolen = task is not None
            victim = None
        if task is None:
            if q.all_done():
                return
            time.sleep(_IDLE_SLEEP_S)
            continue
        try:
            _execute_task(env, rank, task, stolen=stolen, victim=victim)
        except _faults.RankCrashError:
            q.release_rank(rank)
            if helper:
                # a born worker's death is invisible to the world's
                # collectives — its work simply requeues
                tracer.count("steal.helper_deaths")
                return
            raise
        except BaseException:
            # unexpected failure: requeue the claim before propagating,
            # otherwise the task stays claimed-by-a-dead-rank forever
            # and every surviving rank spins on a queue that can never
            # drain
            q.release_rank(rank)
            raise


def _spawn_helper(env: _ExecEnv) -> None:
    """Rank birth: a new worker joins mid-campaign (thread-spawn
    stand-in for ``MPI_Comm_spawn``), registers with the queue, drains
    it alongside everyone else, exits when the queue is dry."""
    state = env.state
    with state.lock:
        new_rank = state.next_helper_rank
        state.next_helper_rank += 1
        state.births += 1
    state.queue.register_rank(new_rank)
    tracer = _trace.active_tracer()
    tracer.count("steal.births")
    spawn_span = tracer.current_span()
    spawn_uid = (spawn_span.uid if spawn_span is not None
                 else _trace.remote_parent())

    def body() -> None:
        with _trace.rank_scope(new_rank), _trace.parent_scope(spawn_uid):
            with tracer.span("rank", kind="rank", rank=int(new_rank),
                             size=int(state.world_size), born=True):
                try:
                    _work_loop(env, new_rank, helper=True)
                finally:
                    state.queue.deregister_rank(new_rank)

    t = threading.Thread(target=body, name=f"steal-born-{new_rank}")
    # start *before* publishing to state.helpers: a concurrently
    # draining rank joins every published helper, and joining a
    # not-yet-started thread raises RuntimeError.  A helper published
    # after a drain's snapshot is still joined by the spawner itself —
    # its own drain loop runs after this function returns.
    t.start()
    with state.lock:
        state.helpers.append(t)


def _execute_task(
    env: _ExecEnv,
    rank: int,
    task: StealTask,
    *,
    stolen: bool,
    victim: Optional[int],
) -> None:
    state = env.state
    q = state.queue
    tracer = _trace.active_tracer()
    if q.is_quarantined(task.run):
        q.complete(rank, task)
        return
    if env.monitor.enabled:
        env.monitor.heartbeat(
            rank,
            site=(f"run:{task.run}/{_STAGE_TITLES[task.stage]}/"
                  f"shard:{task.index + 1}of{task.n_ranges}"),
            run=task.run,
        )
        if stolen and victim is not None:
            env.monitor.record_steal(rank, victim, task.run)
    with tracer.span(
        f"steal:{task.stage}",
        kind="steal" if stolen else "steal_task",
        run=int(task.run),
        shard=int(task.index),
        weight=float(task.weight),
        n_shards=int(task.n_ranges),
        owner=int(task.owner),
        exec_rank=int(rank),
        stolen=bool(stolen),
        **({"victim": int(victim)} if victim is not None else {}),
    ) as sp:
        if stolen:
            tracer.count("steals")
            # causal handoff: the executing rank's span back to the
            # planning rank's task span (cross-rank, so a link record —
            # never a parent edge)
            tracer.link(
                sp.uid, task.plan_uid, kind="steal",
                run=int(task.run), shard=int(task.index),
                exec_rank=int(rank),
                **({"victim": int(victim)} if victim is not None else {}),
            )
        tracer.gauge("steal.queue_depth", float(q.depth()))

        def attempt(attempt_no: int) -> List[Any]:
            with state.lock:
                state.run_attempts[task.run] = max(
                    state.run_attempts.get(task.run, 0), attempt_no
                )
            ctx = _context(env, task.run, task.stage)
            _faults.fault_point("steal.task", rank=rank, run=task.run)
            with env.timings.stage(_STAGE_TITLES[task.stage]):
                return execute_shard_range(
                    ctx, task.index, workers=env.workers, run=task.run
                )

        def on_retry(exc: BaseException, attempt_no: int) -> None:
            env.cache.invalidate(f"run:{task.run}")
            with state.lock:
                # rebuild the context from scratch on the next attempt —
                # a corrupt read may have poisoned it
                state.contexts.pop((task.run, task.stage), None)

        try:
            if env.recovery is None:
                logs = attempt(1)
            else:
                logs = _faults.retry_call(
                    attempt,
                    site=f"steal[{task.label}]",
                    policy=env.recovery.retry,
                    retryable=env.recovery.retryable,
                    on_retry=on_retry,
                )
        except _faults.RetryExhaustedError as exc:
            if env.recovery is None or not env.recovery.quarantine:
                raise
            _quarantine(
                state, task.run, repr(exc.last), int(exc.attempts),
                rank, env.ckpt, env.monitor,
            )
            q.complete(rank, task)
            return

        with state.lock:
            state.logs.setdefault(task.key[:2], {})[task.index] = logs
        if q.complete(rank, task):
            sp.set(completed=True)
            tracer.count(f"{task.stage}.shard_tasks")
            _maybe_finish_run(env, rank, task.run)


def _context(env: _ExecEnv, run: int, stage: str) -> ShardContext:
    """The run-stage's shard context, built once under the run's lock.

    Whichever rank first executes (or steals) a task of the run pays
    for the load + geometry; peers reuse the shared context — the
    captures are thread-safe by construction (see
    :class:`repro.core.sharding.ShardContext`).
    """
    state = env.state
    with state.run_lock(run):
        ctx = state.contexts.get((run, stage))
        if ctx is not None:
            return ctx
        ws = state.workspaces.get(run)
        if ws is None:
            ws = _load_workspace(
                env.load_run, run, env.timings, env.cache,
                recovery=env.recovery, monitor=env.monitor, comm=env.comm,
            )
            with state.lock:
                state.workspaces[run] = ws
        _faults.fault_point("run", run=run)
        if stage == "mdnorm":
            traj_transforms = env.grid.transforms_for(
                ws.ub_matrix, env.point_group, goniometer=ws.goniometer
            )
            _faults.fault_point("kernel.mdnorm", run=run)
            ctx = mdnorm_shard_context(
                Hist3(env.grid), traj_transforms, env.det_directions,
                env.solid_angles, env.flux, ws.momentum_band,
                n_shards=state.n_shards, charge=ws.proton_charge,
                backend=env.backend, cache=env.cache,
                cache_tag=f"run:{run}",
            )
        else:
            event_transforms = env.grid.transforms_for(
                ws.ub_matrix, env.point_group
            )
            _faults.fault_point("kernel.binmd", run=run)
            ctx = binmd_shard_context(
                Hist3(env.grid, track_errors=True), ws.events,
                event_transforms, n_shards=state.n_shards,
            )
        with state.lock:
            state.contexts[(run, stage)] = ctx
        return ctx


def _maybe_finish_run(env: _ExecEnv, rank: int, run: int) -> None:
    """Replay in planned order + fold bookkeeping when the run's last
    task reports.  Guarded so exactly one rank assembles each run."""
    state = env.state
    with state.lock:
        if run in state.finished_runs or state.queue.is_quarantined(run):
            return
        total = state.task_counts.get(run)
        done = sum(
            len(state.logs.get((run, stage), {})) for stage in _STAGES
        )
        if total is None or done < total:
            return
        state.finished_runs.add(run)
        ctx_m = state.contexts[(run, "mdnorm")]
        ctx_b = state.contexts[(run, "binmd")]
        logs_m = state.logs.pop((run, "mdnorm"))
        logs_b = state.logs.pop((run, "binmd"))
        attempts = state.run_attempts.get(run, 1)

    # ordered-deposit replay keyed by the planned index: the delta is
    # bit-identical to a serial execution of this run no matter who
    # executed what, in what order
    replay_shard_logs(ctx_m, [logs_m[s] for s in range(ctx_m.n_ranges)])
    replay_shard_logs(ctx_b, [logs_b[s] for s in range(ctx_b.n_ranges)])
    scratch_m = ctx_m.captures.hist
    scratch_b = ctx_b.captures.hist

    with state.lock:
        state.deltas[run] = (scratch_b, scratch_m)
        state.dispositions[run] = {
            "status": "done", "rank": int(rank), "attempts": int(attempts),
        }
        # release the run's working set (out-of-core hygiene)
        state.workspaces.pop(run, None)
        state.contexts.pop((run, "mdnorm"), None)
        state.contexts.pop((run, "binmd"), None)
    if env.ckpt is not None:
        env.ckpt.save_run(run, scratch_b, scratch_m,
                          attempts=attempts, rank=rank)
    if env.monitor.enabled:
        env.monitor.run_completed(
            rank, run, events=float(state.events_per_run.get(run, 0))
        )


def _quarantine(
    state: _StealState,
    run: int,
    reason: str,
    attempts: int,
    rank: int,
    ckpt: Any,
    monitor: Any,
) -> None:
    state.queue.drop_run(run)
    with state.lock:
        state.logs.pop((run, "mdnorm"), None)
        state.logs.pop((run, "binmd"), None)
        state.contexts.pop((run, "mdnorm"), None)
        state.contexts.pop((run, "binmd"), None)
        state.workspaces.pop(run, None)
        state.dispositions[run] = {
            "status": "quarantined", "rank": int(rank),
            "attempts": int(attempts), "reason": reason,
        }
    if ckpt is not None:
        ckpt.quarantine_run(run, reason)
    _trace.active_tracer().count("quarantine.runs")
    if monitor.enabled:
        monitor.record_quarantine(rank, run)


def _non_root_result(
    timings: StageTimings, n_runs: int, backend: Optional[str]
) -> CrossSectionResult:
    return CrossSectionResult(
        cross_section=None, binmd=None, mdnorm=None,
        timings=timings, n_runs=n_runs, backend=backend or "default",
    )
