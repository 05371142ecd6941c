"""Work decomposition over ranks — and, below them, intra-run shards.

Algorithm 1's first line: ``start, end = range(MPI_Rank, MPI_Size)`` —
each rank takes a contiguous block of the experiment's runs.  That
single level caps strong scaling at the run count (36 for Benzil, 22
for Bixbyite in the paper).  The second level added here is a
**hierarchical 2-D decomposition**: runs × intra-run shards.  A rank
that owns a run cuts it into local shards (detector ranges for
MDNorm, event ranges for BinMD), executed in process — the unit of
out-of-core reads and of work stealing *inside* a file.

Everything in this module is pure planning (no execution): given item
counts and optional per-run event weights from the run manifest it
produces contiguous ranges whose union is exact and disjoint.  The
actual sharded execution lives in :mod:`repro.core.sharding`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.mpi.comm import MPIError


def rank_range(n_items: int, rank: int, size: int) -> tuple[int, int]:
    """Contiguous block [start, end) for ``rank`` out of ``size``.

    Remainder items go to the lowest ranks, so block sizes differ by at
    most one; every item is assigned exactly once.
    """
    if n_items < 0:
        raise MPIError(f"n_items must be >= 0, got {n_items}")
    if size < 1 or not (0 <= rank < size):
        raise MPIError(f"invalid rank/size {rank}/{size}")
    base, extra = divmod(n_items, size)
    start = rank * base + min(rank, extra)
    end = start + base + (1 if rank < extra else 0)
    return start, end


def shard_ranges(n_items: int, n_shards: int) -> List[Tuple[int, int]]:
    """Cut ``[0, n_items)`` into ``n_shards`` contiguous ranges.

    Same remainder-to-the-front convention as :func:`rank_range`;
    shards past the item count come back empty rather than erroring, so
    a caller may ask for 7 shards of a 3-item axis and still get a
    partition of constant length (empty shards execute as no-ops).
    """
    if n_items < 0:
        raise MPIError(f"n_items must be >= 0, got {n_items}")
    if n_shards < 1:
        raise MPIError(f"n_shards must be >= 1, got {n_shards}")
    return [rank_range(n_items, s, n_shards) for s in range(n_shards)]


def weighted_shard_ranges(
    weights: Sequence[float], n_shards: int
) -> List[Tuple[int, int]]:
    """Contiguous shards of ``len(weights)`` items balanced by weight.

    Greedy prefix cut: walk the items in order, closing the current
    shard once its accumulated weight reaches the ideal share of the
    remaining weight over the remaining shards.  Deterministic, exact
    partition, and within one item of optimal for the contiguous case —
    the balance the ISSUE asks for when event counts per detector/file
    block are known from the run manifest.
    """
    if n_shards < 1:
        raise MPIError(f"n_shards must be >= 1, got {n_shards}")
    w = [float(x) for x in weights]
    if any(x < 0 for x in w):
        raise MPIError("shard weights must be >= 0")
    n = len(w)
    remaining = sum(w)
    if n and remaining <= 0.0:
        # All-zero weights (empty runs / fully empty chunks): every
        # greedy target is 0, so each leading shard would close after a
        # single item and the tail append would dump everything else
        # into the last shard — a silent mega-shard.  Weight carries no
        # information here; fall back to count-balanced ranges.
        return shard_ranges(n, n_shards)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for s in range(n_shards):
        shards_left = n_shards - s
        # every shard after this one must get at least 0 items; give the
        # tail shards one item each when items are scarce
        if n - start <= shards_left:
            stop = start + (1 if start < n else 0)
        else:
            target = remaining / shards_left
            stop = start
            acc = 0.0
            # take items until reaching the target share, but leave
            # enough items for the remaining shards
            while stop < n - (shards_left - 1) and (acc < target or stop == start):
                acc += w[stop]
                stop += 1
                if acc >= target:
                    break
        ranges.append((start, stop))
        remaining -= sum(w[start:stop])
        start = stop
    # any tail items (possible only via float pathology) go to the last shard
    if start < n:
        last_start, _ = ranges[-1]
        ranges[-1] = (last_start, n)
    return ranges


def chunk_aligned_event_ranges(
    chunk_bounds: Sequence[int],
    n_shards: int,
    *,
    chunk_weights: Optional[Sequence[float]] = None,
    max_rows: Optional[int] = None,
) -> List[Tuple[int, int]]:
    """Contiguous event ranges whose boundaries land on chunk boundaries.

    The out-of-core planner (ISSUE 6): shards of a chunked event table
    must start and end on chunk boundaries so every chunk is decoded by
    exactly one shard (no chunk is decompressed twice, and the I/O
    parallelizes with the shards).  ``chunk_bounds`` is the ascending
    row-boundary list ``[0, r1, ..., n]`` straight from
    :meth:`repro.nexus.h5lite.Dataset.chunk_bounds`.

    The *unit of planning is the chunk*: chunks are cut into
    ``n_shards`` contiguous groups by :func:`weighted_shard_ranges`
    over ``chunk_weights`` (default: decoded rows per chunk; pass the
    stored byte sizes to balance skewed compression ratios).  When
    ``max_rows`` is given, any group whose decoded window would exceed
    it is split further — the memory-budget cap — so the returned list
    may be *longer* than ``n_shards``.  A single chunk larger than
    ``max_rows`` stays whole (one chunk is the irreducible floor of a
    chunk-aligned reader).

    Always an exact partition of ``[0, n)``: contiguous, disjoint,
    ordered, deterministic.
    """
    bounds = [int(b) for b in chunk_bounds]
    if not bounds or bounds[0] != 0:
        raise MPIError("chunk_bounds must start at 0")
    if any(b1 < b0 for b0, b1 in zip(bounds, bounds[1:])):
        raise MPIError("chunk_bounds must be non-decreasing")
    if n_shards < 1:
        raise MPIError(f"n_shards must be >= 1, got {n_shards}")
    if max_rows is not None and max_rows < 1:
        raise MPIError(f"max_rows must be >= 1, got {max_rows}")
    n_chunks = len(bounds) - 1
    rows = [bounds[i + 1] - bounds[i] for i in range(n_chunks)]
    if chunk_weights is None:
        weights: Sequence[float] = [float(r) for r in rows]
    else:
        if len(chunk_weights) != n_chunks:
            raise MPIError(
                f"chunk_weights has {len(chunk_weights)} entries for "
                f"{n_chunks} chunks"
            )
        weights = chunk_weights
    groups = weighted_shard_ranges(weights, n_shards)
    ranges: List[Tuple[int, int]] = []
    for c0, c1 in groups:
        if c0 == c1:
            ranges.append((bounds[c0], bounds[c0]))
            continue
        if max_rows is None:
            ranges.append((bounds[c0], bounds[c1]))
            continue
        # budget cap: greedily regroup this shard's chunks so no window
        # decodes more than max_rows rows (single oversized chunks pass)
        start = c0
        acc = 0
        for c in range(c0, c1):
            if c > start and acc + rows[c] > max_rows:
                ranges.append((bounds[start], bounds[c]))
                start = c
                acc = 0
            acc += rows[c]
        ranges.append((bounds[start], bounds[c1]))
    return ranges


def budget_max_rows(
    memory_budget: Optional[int], row_nbytes: int
) -> Optional[int]:
    """Largest decoded-window row count a byte budget allows (>= 1).

    ``None`` budget means unbounded.  The floor of one row keeps a
    budget smaller than a single row meaningful: the irreducible unit
    of a chunk-aligned reader is one chunk, and the planner's oversized
    single chunks pass through whole anyway.
    """
    if memory_budget is None:
        return None
    if row_nbytes < 1:
        raise MPIError(f"row_nbytes must be >= 1, got {row_nbytes}")
    return max(1, int(memory_budget) // int(row_nbytes))


def lazy_table_ranges(events, n_shards: int) -> List[Tuple[int, int]]:
    """Chunk-aligned shard ranges for an out-of-core event table.

    The single source of the stored-byte weighting and budget row cap
    that every executor plans lazy tables with (the static shard
    executor in :mod:`repro.core.sharding` and the stealing executor in
    :mod:`repro.mpi.stealing` used to carry private copies of this
    arithmetic).  ``events`` is duck-typed on the
    :class:`~repro.nexus.tiles.LazyEventTable` surface: ``chunk_bounds()``,
    ``chunk_stored_nbytes()``, ``memory_budget`` and ``row_nbytes``.
    """
    return chunk_aligned_event_ranges(
        events.chunk_bounds(),
        n_shards,
        chunk_weights=[float(b) for b in events.chunk_stored_nbytes()],
        max_rows=budget_max_rows(events.memory_budget, events.row_nbytes),
    )


def range_stored_nbytes(events, ranges: Sequence[Tuple[int, int]]) -> List[float]:
    """Stored (compressed) bytes overlapping each event range.

    The PR 6 chunk index is the only honest weight for how *expensive*
    a shard of a lazy table is (decode cost tracks compressed bytes,
    not decoded rows, under skewed compression ratios) — the stealing
    executor uses these as victim-selection weights.  Ranges that split
    a chunk charge it pro rata by row overlap; chunk-aligned ranges
    (the planner's output) always charge whole chunks.
    """
    bounds = [int(b) for b in events.chunk_bounds()]
    stored = [float(b) for b in events.chunk_stored_nbytes()]
    out: List[float] = []
    for a, b in ranges:
        total = 0.0
        for c in range(len(stored)):
            c0, c1 = bounds[c], bounds[c + 1]
            rows = c1 - c0
            overlap = min(b, c1) - max(a, c0)
            if rows > 0 and overlap > 0:
                total += stored[c] * (overlap / rows)
        out.append(total)
    return out


def balanced_rank_runs(weights: Sequence[float], size: int) -> List[Tuple[int, int]]:
    """Contiguous run ranges per rank, balanced by per-run event weight.

    The outer level of the 2-D decomposition: like :func:`rank_range`
    but aware that runs are not equally heavy.  With no weights (or all
    equal) it degenerates to the classic block split.
    """
    if size < 1:
        raise MPIError(f"size must be >= 1, got {size}")
    return weighted_shard_ranges(weights, size)


@dataclass(frozen=True)
class RunShard:
    """One cell of the runs × shards decomposition."""

    #: global run index
    run: int
    #: shard index within the run
    shard: int
    #: total shards of this run
    n_shards: int
    #: owning rank (the rank whose run block contains ``run``)
    rank: int

    @property
    def label(self) -> str:
        return f"run{self.run}/shard{self.shard}of{self.n_shards}"


def plan_campaign(
    n_runs: int,
    size: int,
    n_shards: int,
    *,
    run_weights: Optional[Sequence[float]] = None,
) -> Dict[int, List[RunShard]]:
    """The full hierarchical map: rank -> [RunShard, ...].

    Outer level: contiguous run blocks per rank (weight-balanced when
    ``run_weights`` — event counts from the run manifest — are given).
    Inner level: every owned run is cut into ``n_shards`` shards.  The
    plan is pure data; :mod:`repro.core.sharding` executes one run's
    shard list on the node-local pool.
    """
    if n_runs < 0:
        raise MPIError(f"n_runs must be >= 0, got {n_runs}")
    if n_shards < 1:
        raise MPIError(f"n_shards must be >= 1, got {n_shards}")
    if run_weights is not None:
        if len(run_weights) != n_runs:
            raise MPIError(
                f"run_weights has {len(run_weights)} entries for {n_runs} runs"
            )
        blocks = balanced_rank_runs(run_weights, size)
    else:
        blocks = [rank_range(n_runs, r, size) for r in range(size)]
    plan: Dict[int, List[RunShard]] = {}
    for rank, (start, stop) in enumerate(blocks):
        cells: List[RunShard] = []
        for run in range(start, stop):
            for shard in range(n_shards):
                cells.append(
                    RunShard(run=run, shard=shard, n_shards=n_shards, rank=rank)
                )
        plan[rank] = cells
    return plan
