"""Elastic work-stealing execution across the rank × shard grid.

The static plan (PR 5) fixes every ``RunShard`` to a rank up front, so
one slow shard — skewed chunk compression, a cold cache, a quarantine
retry storm — idles every other rank.  This executor makes the grid
**elastic**: the campaign's shard tasks live in one shared
:class:`StealQueue`; each rank drains its own planned deque first and,
when the schedule allows, steals from the tail of a victim's deque
(victim selection by remaining *stored-byte* weight from the PR 6
chunk index).  Ranks can join mid-campaign (*birth*: a spawned worker
registers, drains the queue, and its deposits merge through the same
replay), leave cleanly (drain-and-requeue), or die holding work (their
claimed tasks requeue; the queue's claim/complete accounting keeps
execution exactly-once).

This module keeps only the queue and the schedule.  Everything a run
needs besides its shard tasks — the timed load with its UB check and
retry, resume and quarantine, the "run done" record (checkpoint save,
monitor), the rank blocks, and the final fold and result — is the
static loop's own code in :mod:`repro.core.cross_section`.

Determinism argument (DESIGN.md §6h).  Execution order is deliberately
chaotic — that is the point — so nothing numeric may depend on it:

* a task never touches a histogram; it runs the kernel's batch body
  over its planned contiguous range and *records* the deposit logs,
  through the same :func:`repro.core.sharding.execute_shard_range` the
  static executor's shards use, in the thread of the rank that claimed
  it (ranks are the only parallel level, as in the paper);
* when the last task of a run reports, the run's logs are replayed
  **keyed by the shard's planned index** (op-major, planned ranges
  ascending — :func:`repro.core.sharding.replay_shard_logs`) into
  fresh per-run scratch histograms: each run's delta is therefore
  bit-identical to an in-memory ``vectorized`` execution of that run,
  regardless of which ranks executed which shards, in what order, with
  how many steals;
* the effective root folds the per-run deltas in **ascending run
  order** — the one fold every executor uses, so the stealing result
  is bit-identical to the static loop (fail-fast or recovering, any
  rank count, with or without a checkpoint) for *every* steal
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
    _campaign_scope,
    _check_cancel,
    _load_run,
    _n_events,
    _non_root_result,
    _rank_blocks,
    _retry,
    _root_result,
    _RunBook,
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
        book: _RunBook,
        n_shards: int,
        world_size: int,
    ) -> None:
        self.queue = queue
        self.controller = controller
        self.book = book
        self.n_shards = int(n_shards)
        self.world_size = int(world_size)
        self.lock = threading.RLock()
        self.workspaces: Dict[int, Any] = {}
        self.contexts: Dict[Tuple[int, str], ShardContext] = {}
        self.logs: Dict[Tuple[int, str], Dict[int, List[Any]]] = {}
        self.task_counts: Dict[int, int] = {}       # run -> total tasks
        self.events_per_run: Dict[int, int] = {}
        self.run_attempts: Dict[int, int] = {}
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
    sort_impl: str = "library",
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
    (the stealing granularity; default 1 — run-level stealing);
    ``schedule`` is the
    :class:`~repro.util.schedule.ScheduleController` driving steal and
    birth/leave/death decisions (the root rank's instance wins; default
    is the seeded ``weighted`` policy).  ``binmd_impl``/``mdnorm_impl``
    overrides own their parallelism and are not stealable.
    ``recovery.cancel`` is checked before every run load and every task
    claim, and caps every retry backoff.
    """
    require(n_runs >= 1, "need at least one run")
    if binmd_impl is not None or mdnorm_impl is not None:
        raise ValidationError(
            "the stealing executor records deposit logs through the shard "
            "machinery; kernel *_impl overrides are not stealable — use "
            "executor='static'"
        )
    del scatter_impl  # shards record with the batch default scatter
    comm = comm or SequentialComm()
    cache = _gc.resolve(cache)
    shards = shards or ShardConfig(n_shards=1)
    timings = timings or StageTimings(
        label=f"cross-section[{backend or 'default'}]"
    )
    tracer = _trace.active_tracer()
    monitor = _monitor.active_monitor()

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
    ), timings.stage("Total"), _campaign_scope(recovery):
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
        if comm.size > 1:
            state = comm.bcast(state, root=0)
        assert state is not None
        state.queue.register_rank(comm.rank)
        if monitor.enabled:
            monitor.assign_runs(comm.rank, state.queue.own_depth(comm.rank))

        exec_env = _ExecEnv(
            state=state, grid=grid, point_group=point_group, flux=flux,
            det_directions=det_directions, solid_angles=solid_angles,
            backend=backend, sort_impl=sort_impl, cache=cache,
            recovery=recovery, timings=timings,
            monitor=monitor, load_run=load_run,
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
        if comm.rank != comm.alive_ranks()[0]:
            return _non_root_result(timings, n_runs, backend)
        book = state.book
        result = _root_result(
            grid, book.runs, dict(book.dispositions), ckpt=book.ckpt,
            comm=comm, cache=cache, timings=timings, n_runs=n_runs,
            backend=backend, extras={"stealing": {
                "steals": int(state.queue.steals),
                "adoptions": int(state.queue.adoptions),
                "births": int(state.births),
                "tasks": int(state.queue.total),
                "policy": state.controller.policy,
                "seed": state.controller.seed,
                "schedule_signature": state.controller.schedule_signature(),
            }},
        )

    if monitor.enabled:
        monitor.finish_campaign()
    return result


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
    owner_of = {
        i: rank
        for rank, (a, b) in enumerate(_rank_blocks(n_runs, comm.size,
                                                   run_weights))
        for i in range(a, b)
    }
    state = _StealState(
        queue=StealQueue(),
        controller=schedule or ScheduleController(seed=0, policy="weighted"),
        book=_RunBook(grid, recovery, cache), n_shards=shards.n_shards,
        world_size=comm.size,
    )
    for r in range(comm.size):
        state.queue.register_rank(r)

    tracer = _trace.active_tracer()
    cancel = recovery.cancel if recovery is not None else None
    for i in range(n_runs):
        _check_cancel(cancel, f"campaign (before run {i})")
        if state.book.resume(i, comm.rank):
            continue
        try:
            ws = _load_workspace(load_run, i, timings, cache,
                                 recovery=recovery, monitor=monitor,
                                 rank=comm.rank)
        except _faults.RetryExhaustedError as exc:
            if recovery is None or not recovery.quarantine:
                raise
            _quarantine(state, i, exc, comm.rank)
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
    rank: int,
) -> Any:
    """UpdateEvents with the run-level retry protocol (planning side)."""

    def attempt(attempt_no: int) -> Any:
        if monitor.enabled:
            monitor.heartbeat(rank, site=f"run:{i}/UpdateEvents", run=i)
        return _load_run(load_run, i, timings)

    return _retry(attempt, i, recovery, cache)


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
    sort_impl: str
    cache: Any
    recovery: Optional[RecoveryConfig]
    timings: StageTimings
    monitor: Any
    load_run: Callable[[int], Any]


def _work_loop(env: _ExecEnv, rank: int, *, helper: bool) -> None:
    state = env.state
    q = state.queue
    ctl = state.controller
    tracer = _trace.active_tracer()
    cancel = env.recovery.cancel if env.recovery is not None else None
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
        if helper and cancel is not None and cancel.cancelled:
            return  # the world's ranks report the cancellation
        _check_cancel(cancel, "campaign (before task claim)")

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
            ctx = _context(env, rank, task.run, task.stage)
            _faults.fault_point("steal.task", rank=rank, run=task.run)
            with env.timings.stage(_STAGE_TITLES[task.stage]):
                return execute_shard_range(ctx, task.index)

        def drop_context(exc: BaseException, attempt_no: int) -> None:
            with state.lock:
                # rebuild the context from scratch on the next attempt —
                # a corrupt read may have poisoned it
                state.contexts.pop((task.run, task.stage), None)

        try:
            logs = _retry(attempt, task.run, env.recovery, env.cache,
                          site=f"steal[{task.label}]", on_retry=drop_context)
        except _faults.RetryExhaustedError as exc:
            if env.recovery is None or not env.recovery.quarantine:
                raise
            _quarantine(state, task.run, exc, rank)
            q.complete(rank, task)
            return

        with state.lock:
            state.logs.setdefault(task.key[:2], {})[task.index] = logs
        if q.complete(rank, task):
            sp.set(completed=True)
            tracer.count(f"{task.stage}.shard_tasks")
            _maybe_finish_run(env, rank, task.run)


def _context(env: _ExecEnv, rank: int, run: int, stage: str) -> ShardContext:
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
                recovery=env.recovery, monitor=env.monitor, rank=rank,
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
                backend=env.backend, sort_impl=env.sort_impl, cache=env.cache,
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
    _release(state, run)
    state.book.done(run, rank, ctx_b.captures.hist, ctx_m.captures.hist,
                    attempts=attempts,
                    events=state.events_per_run.get(run, 0))


def _quarantine(
    state: _StealState, run: int, exc: _faults.RetryExhaustedError, rank: int
) -> None:
    state.queue.drop_run(run)
    _release(state, run)
    state.book.quarantine(run, rank, exc)


def _release(state: _StealState, run: int) -> None:
    """Drop the run's working set (out-of-core hygiene)."""
    with state.lock:
        state.workspaces.pop(run, None)
        for stage in _STAGES:
            state.contexts.pop((run, stage), None)
            state.logs.pop((run, stage), None)
