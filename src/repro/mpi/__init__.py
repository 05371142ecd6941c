"""In-process MPI simulator with an mpi4py-style API.

Algorithm 1 of the paper distributes the outermost loop over experiment
runs (files) across MPI ranks; each rank accumulates private MDNorm and
BinMD histograms that are combined with ``MPI_Reduce`` before the final
division.  mpi4py is unavailable offline, so this subpackage provides a
faithful in-process world:

* ranks execute concurrently as threads, each with a :class:`Comm`;
* lowercase methods (``send``/``recv``/``bcast``/``gather``/``reduce``)
  move arbitrary Python objects, uppercase methods (``Reduce``/
  ``Allreduce``/``Bcast``) operate on NumPy buffers without copies on
  the send side — the same two-level API (and the same performance
  guidance) as mpi4py;
* :func:`run_world` launches an SPMD function over ``size`` ranks and
  collects per-rank return values;
* :func:`rank_range` is Algorithm 1's contiguous block decomposition.

Semantics (collective completion, reduction associativity, rank-private
memory) match MPI; wall-clock speedup does not on a single-core host,
which DESIGN.md documents as part of the hardware substitution.
"""

from repro.mpi.comm import (
    BarrierTimeoutError,
    Comm,
    FaultTolerantBarrier,
    MPIError,
    SequentialComm,
)
from repro.mpi.ops import SUM, MAX, MIN, PROD, Op
from repro.mpi.runner import run_world
from repro.mpi.decomposition import (
    balanced_rank_runs,
    budget_max_rows,
    chunk_aligned_event_ranges,
    lazy_table_ranges,
    range_stored_nbytes,
    rank_range,
    shard_ranges,
    weighted_shard_ranges,
)

#: stealing-executor names exported lazily (PEP 562): the module pulls
#: in repro.core.sharding, which imports this package — an eager import
#: here would re-enter the partially initialized package
_LAZY_STEALING = ("StealQueue", "StealTask", "run_stealing_campaign")


def __getattr__(name):
    if name in _LAZY_STEALING:
        from repro.mpi import stealing

        return getattr(stealing, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BarrierTimeoutError",
    "Comm",
    "FaultTolerantBarrier",
    "SequentialComm",
    "MPIError",
    "SUM",
    "MAX",
    "MIN",
    "PROD",
    "Op",
    "run_world",
    "rank_range",
    "shard_ranges",
    "weighted_shard_ranges",
    "balanced_rank_runs",
    "budget_max_rows",
    "chunk_aligned_event_ranges",
    "lazy_table_ranges",
    "range_stored_nbytes",
    "StealQueue",
    "StealTask",
    "run_stealing_campaign",
]
