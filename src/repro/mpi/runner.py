"""SPMD launcher for the in-process MPI world."""

from __future__ import annotations

import threading
from typing import Any, Callable, List, Optional

from repro.mpi.comm import BarrierTimeoutError, Comm, MPIError, World
from repro.util import trace as _trace


def run_world(
    size: int,
    fn: Callable[..., Any],
    *args: Any,
    barrier_timeout: Optional[float] = None,
    **kwargs: Any,
) -> List[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on ``size`` concurrent ranks.

    ``barrier_timeout`` bounds every collective rendezvous: a rank whose
    peers never arrive (e.g. a peer *returned* dead without aborting, or
    wedged outside the collective) raises
    :class:`~repro.mpi.comm.BarrierTimeoutError` instead of hanging the
    world forever.  ``None`` keeps the historical unbounded wait.

    Returns the per-rank return values in rank order.  Error semantics
    (a deadlock-free analogue of ``MPI_Abort``):

    * a failing rank breaks the shared barrier, unblocking peers stuck
      in collectives (their ``BrokenBarrierError`` is a *consequence*,
      not a cause);
    * after all ranks finish, the first **root-cause** exception by
      rank is re-raised.  Attribution order: a real exception beats a
      barrier timeout beats a broken barrier — a timeout names the rank
      that waited, not the rank that failed, and a broken barrier is
      pure collateral;
    * if only broken-barrier errors remain (every rank aborted inside a
      collective simultaneously), an :class:`MPIError` naming the
      aborting ranks is raised, chained from the first of them.

    Each rank's thread is rank-attributed for tracing: spans opened
    inside ``fn`` carry ``rank=<i>`` and the whole rank body is wrapped
    in a ``rank`` span.  The launch itself is a ``world`` span in the
    calling thread, and every rank thread adopts its uid as the causal
    parent (the trace's ``parent_uid`` — the process-local ``parent_id``
    of a rank span stays None, as spans never cross threads).
    """
    if size < 1:
        raise MPIError(f"world size must be >= 1, got {size}")
    world = World(size, barrier_timeout=barrier_timeout)
    results: List[Any] = [None] * size
    errors: List[BaseException | None] = [None] * size

    tracer = _trace.active_tracer()

    def entry(rank: int, world_uid: Optional[str]) -> None:
        comm = Comm(world, rank)
        with _trace.rank_scope(rank), _trace.parent_scope(world_uid):
            try:
                with tracer.span("rank", kind="rank",
                                 rank=int(rank), size=int(size)):
                    results[rank] = fn(comm, *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors[rank] = exc
                world.barrier.abort()  # unblock peers stuck in collectives

    with tracer.span("world", kind="world", size=int(size)) as world_span:
        threads = [
            threading.Thread(target=entry, args=(rank, world_span.uid),
                             name=f"mpi-rank-{rank}")
            for rank in range(size)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    root_cause = next(
        (e for e in errors
         if e is not None
         and not isinstance(e, (threading.BrokenBarrierError,
                                BarrierTimeoutError))),
        None,
    )
    if root_cause is None:
        root_cause = next(
            (e for e in errors if isinstance(e, BarrierTimeoutError)), None
        )
    if root_cause is not None:
        raise root_cause
    broken_ranks = [r for r, e in enumerate(errors) if e is not None]
    if broken_ranks:
        first = errors[broken_ranks[0]]
        raise MPIError(
            f"ranks {broken_ranks} aborted inside a collective "
            f"(broken barrier) with no root-cause exception"
        ) from first
    return results
