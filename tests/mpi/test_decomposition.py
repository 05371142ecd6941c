"""Unit + property tests for the hierarchical decomposition.

Level 1 is Algorithm 1's rank split over runs (:func:`rank_range`,
weight-aware via :func:`balanced_rank_runs`); level 2 is the intra-run
shard planner (:func:`shard_ranges` / :func:`weighted_shard_ranges`)
below it.  Everything here is pure planning, so the properties are
exact: partitions are contiguous, disjoint, exhaustive, and
deterministic.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import (
    MPIError,
    balanced_rank_runs,
    budget_max_rows,
    chunk_aligned_event_ranges,
    lazy_table_ranges,
    range_stored_nbytes,
    rank_range,
    shard_ranges,
    weighted_shard_ranges,
)


class TestRankRange:
    def test_even_split(self):
        assert [rank_range(8, r, 4) for r in range(4)] == [
            (0, 2), (2, 4), (4, 6), (6, 8),
        ]

    def test_remainder_goes_to_low_ranks(self):
        ranges = [rank_range(10, r, 4) for r in range(4)]
        sizes = [e - s for s, e in ranges]
        assert sizes == [3, 3, 2, 2]

    def test_more_ranks_than_items(self):
        ranges = [rank_range(2, r, 4) for r in range(4)]
        sizes = [e - s for s, e in ranges]
        assert sizes == [1, 1, 0, 0]

    def test_zero_items(self):
        assert rank_range(0, 0, 3) == (0, 0)

    def test_invalid_inputs(self):
        with pytest.raises(MPIError):
            rank_range(-1, 0, 2)
        with pytest.raises(MPIError):
            rank_range(5, 2, 2)
        with pytest.raises(MPIError):
            rank_range(5, 0, 0)

    @given(n=st.integers(0, 500), size=st.integers(1, 32))
    @settings(max_examples=100, deadline=None)
    def test_partition_properties(self, n, size):
        """Every item assigned exactly once; block sizes differ by <= 1."""
        ranges = [rank_range(n, r, size) for r in range(size)]
        covered = [i for s, e in ranges for i in range(s, e)]
        assert covered == list(range(n))
        sizes = [e - s for s, e in ranges]
        assert max(sizes) - min(sizes) <= 1
        # blocks are contiguous and ordered
        for (s1, e1), (s2, _) in zip(ranges, ranges[1:]):
            assert e1 == s2


class TestShardRanges:
    def test_matches_rank_range_convention(self):
        assert shard_ranges(10, 4) == [rank_range(10, s, 4) for s in range(4)]

    def test_more_shards_than_items_yields_empty_tails(self):
        ranges = shard_ranges(3, 7)
        assert len(ranges) == 7
        sizes = [b - a for a, b in ranges]
        assert sizes == [1, 1, 1, 0, 0, 0, 0]

    def test_zero_items(self):
        assert shard_ranges(0, 3) == [(0, 0), (0, 0), (0, 0)]

    def test_invalid_inputs(self):
        with pytest.raises(MPIError):
            shard_ranges(-1, 2)
        with pytest.raises(MPIError):
            shard_ranges(5, 0)

    @given(n=st.integers(0, 500), shards=st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_partition_properties(self, n, shards):
        """Constant-length partition: contiguous, exact, ordered,
        sizes within 1 — empty shards allowed past the item count."""
        ranges = shard_ranges(n, shards)
        assert len(ranges) == shards
        covered = [i for a, b in ranges for i in range(a, b)]
        assert covered == list(range(n))
        sizes = [b - a for a, b in ranges]
        assert max(sizes) - min(sizes) <= 1


class TestWeightedShardRanges:
    def test_uniform_weights_match_block_split(self):
        assert weighted_shard_ranges([1.0] * 12, 4) == shard_ranges(12, 4)

    def test_heavy_head_gets_small_shard(self):
        # one item carries ~all the weight: it should sit alone
        ranges = weighted_shard_ranges([100.0, 1.0, 1.0, 1.0, 1.0], 2)
        assert ranges[0] == (0, 1)
        assert ranges[1] == (1, 5)

    def test_balances_within_one_item(self):
        weights = [5.0, 1.0, 1.0, 1.0, 1.0, 1.0, 5.0, 1.0]
        ranges = weighted_shard_ranges(weights, 3)
        loads = [sum(weights[a:b]) for a, b in ranges]
        # contiguous optimum here is ~5.33 per shard; each load is
        # within one max item of that
        assert max(loads) <= (sum(weights) / 3) + max(weights)

    def test_negative_weights_rejected(self):
        with pytest.raises(MPIError, match=">= 0"):
            weighted_shard_ranges([1.0, -0.5], 2)
        with pytest.raises(MPIError, match="n_shards"):
            weighted_shard_ranges([1.0], 0)

    @given(
        weights=st.lists(st.floats(0.0, 1e6, allow_nan=False), max_size=60),
        shards=st.integers(1, 12),
    )
    @settings(max_examples=150, deadline=None)
    def test_partition_properties(self, weights, shards):
        """Always a constant-length contiguous exact partition, for any
        weight profile (zeros, spikes, empty input)."""
        ranges = weighted_shard_ranges(weights, shards)
        assert len(ranges) == shards
        covered = [i for a, b in ranges for i in range(a, b)]
        assert covered == list(range(len(weights)))
        assert ranges == weighted_shard_ranges(weights, shards)  # deterministic

    @given(
        weights=st.lists(st.floats(0.1, 100.0, allow_nan=False),
                         min_size=1, max_size=60),
        shards=st.integers(1, 12),
    )
    @settings(max_examples=150, deadline=None)
    def test_no_shard_exceeds_ideal_plus_one_item(self, weights, shards):
        """The greedy prefix cut's quality bound: a shard overshoots the
        ideal share by at most its own last item."""
        ranges = weighted_shard_ranges(weights, shards)
        ideal = sum(weights) / shards
        for a, b in ranges:
            if b - a > 1:
                assert sum(weights[a:b]) <= ideal + max(weights[a:b]) + 1e-9


class TestBalancedRankRuns:
    def test_degenerates_to_block_split_when_uniform(self):
        blocks = balanced_rank_runs([1.0] * 8, 4)
        assert blocks == [rank_range(8, r, 4) for r in range(4)]

    def test_heavy_runs_narrow_their_rank(self):
        # run 0 is as heavy as all others combined: rank 0 takes it alone
        blocks = balanced_rank_runs([7.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], 2)
        assert blocks[0] == (0, 1)
        assert blocks[1] == (1, 8)

    def test_invalid_size(self):
        with pytest.raises(MPIError, match="size"):
            balanced_rank_runs([1.0], 0)


class TestChunkAlignedEventRanges:
    """ISSUE 6: the out-of-core planner — shard boundaries land on chunk
    boundaries, stored-byte weights balance skewed compression, and the
    memory-budget cap re-splits groups without ever splitting a chunk."""

    def test_simple_alignment(self):
        # 4 chunks of 10 rows, 2 shards -> the cut lands on row 20
        assert chunk_aligned_event_ranges([0, 10, 20, 30, 40], 2) == [
            (0, 20), (20, 40),
        ]

    def test_boundaries_are_chunk_boundaries(self):
        bounds = [0, 7, 19, 19, 40, 55]
        for n_shards in (1, 2, 3, 5, 9):
            for a, b in chunk_aligned_event_ranges(bounds, n_shards):
                assert a in bounds and b in bounds

    def test_more_shards_than_chunks(self):
        ranges = chunk_aligned_event_ranges([0, 10, 20], 5)
        covered = [r for r in ranges if r[0] < r[1]]
        assert covered == [(0, 10), (10, 20)]

    def test_max_rows_resplits_groups(self):
        # one shard over 6 x 10-row chunks, capped at 25 rows per window
        ranges = chunk_aligned_event_ranges(
            [0, 10, 20, 30, 40, 50, 60], 1, max_rows=25)
        assert ranges == [(0, 20), (20, 40), (40, 60)]
        for a, b in ranges:
            assert b - a <= 25

    def test_single_oversized_chunk_stays_whole(self):
        # a 100-row chunk cannot be split below the chunk floor
        ranges = chunk_aligned_event_ranges([0, 100, 110], 1, max_rows=30)
        assert ranges == [(0, 100), (100, 110)]

    def test_skewed_compression_weights_balance_bytes(self):
        # 8 chunks, equal rows, but the first compresses 50x worse:
        # byte-weighted planning gives it a shard of its own
        bounds = list(range(0, 90, 10))
        weights = [500.0] + [10.0] * 7
        ranges = chunk_aligned_event_ranges(bounds, 2, chunk_weights=weights)
        assert ranges[0] == (0, 10)
        assert ranges[-1][1] == 80

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(MPIError, match="chunk_weights"):
            chunk_aligned_event_ranges([0, 10, 20], 2, chunk_weights=[1.0])

    def test_invalid_inputs(self):
        with pytest.raises(MPIError):
            chunk_aligned_event_ranges([], 1)
        with pytest.raises(MPIError):
            chunk_aligned_event_ranges([5, 10], 1)  # must start at 0
        with pytest.raises(MPIError):
            chunk_aligned_event_ranges([0, 10, 5], 1)  # decreasing
        with pytest.raises(MPIError):
            chunk_aligned_event_ranges([0, 10], 0)
        with pytest.raises(MPIError):
            chunk_aligned_event_ranges([0, 10], 1, max_rows=0)

    @given(
        rows=st.lists(st.integers(0, 50), min_size=0, max_size=30),
        n_shards=st.integers(1, 8),
        max_rows=st.one_of(st.none(), st.integers(1, 100)),
    )
    @settings(max_examples=200, deadline=None)
    def test_partition_properties(self, rows, n_shards, max_rows):
        bounds = [0]
        for r in rows:
            bounds.append(bounds[-1] + r)
        ranges = chunk_aligned_event_ranges(
            bounds, n_shards, max_rows=max_rows)
        # exact ordered partition of [0, n)
        covered = [i for a, b in ranges for i in range(a, b)]
        assert covered == list(range(bounds[-1]))
        bound_set = set(bounds)
        for a, b in ranges:
            assert a <= b
            # every boundary is a chunk boundary
            assert a in bound_set and b in bound_set
            if max_rows is not None and b - a > max_rows:
                # only an indivisible single chunk may exceed the cap
                inner = [x for x in bounds if a < x < b]
                assert inner == []
        if max_rows is None:
            assert len(ranges) == n_shards

    @given(
        rows=st.lists(st.integers(1, 40), min_size=1, max_size=20),
        weights=st.data(),
        n_shards=st.integers(1, 6),
    )
    @settings(max_examples=100, deadline=None)
    def test_weighted_partition_and_determinism(self, rows, weights, n_shards):
        bounds = [0]
        for r in rows:
            bounds.append(bounds[-1] + r)
        w = weights.draw(st.lists(
            st.floats(0.0, 1e6, allow_nan=False),
            min_size=len(rows), max_size=len(rows),
        ))
        a = chunk_aligned_event_ranges(bounds, n_shards, chunk_weights=w)
        b = chunk_aligned_event_ranges(bounds, n_shards, chunk_weights=w)
        assert a == b  # deterministic
        covered = [i for s, e in a for i in range(s, e)]
        assert covered == list(range(bounds[-1]))

    @given(
        rows=st.lists(st.integers(1, 40), min_size=1, max_size=20),
        n_shards=st.integers(1, 6),
    )
    @settings(max_examples=100, deadline=None)
    def test_group_weight_balance(self, rows, n_shards):
        """Default (row) weights inherit weighted_shard_ranges' balance
        bound: no group exceeds ideal + the largest single chunk."""
        bounds = [0]
        for r in rows:
            bounds.append(bounds[-1] + r)
        ranges = chunk_aligned_event_ranges(bounds, n_shards)
        total = bounds[-1]
        ideal = total / n_shards
        assert max(b - a for a, b in ranges) <= ideal + max(rows)


class TestZeroWeightFallback:
    """Regression: all-zero weights must not degenerate to a mega-shard.

    The greedy prefix cut's target share is 0 when every weight is 0,
    so each leading shard used to close after one item and the tail
    append dumped everything else into the *last* shard — silently
    serializing an empty-run campaign onto one worker.
    """

    def test_all_zero_weights_fall_back_to_count_split(self):
        assert weighted_shard_ranges([0.0] * 12, 4) == shard_ranges(12, 4)

    def test_all_zero_weights_no_mega_shard(self):
        ranges = weighted_shard_ranges([0.0] * 10, 3)
        sizes = [b - a for a, b in ranges]
        # count-balanced: 4/3/3 — NOT the old 1/1/8 degeneration
        assert sizes == [4, 3, 3]
        assert max(sizes) <= -(-10 // 3)

    def test_zero_weight_chunks_through_chunk_aligned_planner(self):
        """The PR 6 planner inherits the fix: stored-byte weights of
        empty chunks are all zero."""
        bounds = [0, 10, 20, 30, 40, 50, 60]
        ranges = chunk_aligned_event_ranges(
            bounds, 3, chunk_weights=[0.0] * 6)
        sizes = [b - a for a, b in ranges]
        assert sizes == [20, 20, 20]

    def test_single_nonzero_weight_still_weighted(self):
        """The fallback triggers only for the genuinely degenerate
        all-zero profile, not merely mostly-zero ones."""
        ranges = weighted_shard_ranges([0.0, 0.0, 5.0, 0.0], 2)
        # the heavy item must not share a shard with every other item
        assert ranges[0][1] <= 3

    @given(
        n=st.integers(0, 60),
        shards=st.integers(1, 12),
    )
    @settings(max_examples=100, deadline=None)
    def test_zero_weights_match_count_split_everywhere(self, n, shards):
        assert weighted_shard_ranges([0.0] * n, shards) == shard_ranges(n, shards)


class _FakeLazyTable:
    """Duck-typed LazyEventTable surface for the planning helpers."""

    def __init__(self, bounds, stored, memory_budget=None, row_nbytes=24):
        self._bounds = list(bounds)
        self._stored = list(stored)
        self.memory_budget = memory_budget
        self.row_nbytes = row_nbytes

    def chunk_bounds(self):
        return list(self._bounds)

    def chunk_stored_nbytes(self):
        return list(self._stored)


class TestLazyTablePlanningHelpers:
    """Units for the deduplicated shard-weight estimation (satellite f):
    one helper now serves the static executor, the stealing executor
    and the out-of-core planner."""

    def test_budget_max_rows_none_budget(self):
        assert budget_max_rows(None, 24) is None

    def test_budget_max_rows_floor_division(self):
        assert budget_max_rows(1000, 24) == 41

    def test_budget_max_rows_floor_of_one(self):
        assert budget_max_rows(5, 24) == 1

    def test_budget_max_rows_invalid_row_size(self):
        with pytest.raises(MPIError, match="row_nbytes"):
            budget_max_rows(1000, 0)

    def test_lazy_table_ranges_weights_by_stored_bytes(self):
        # equal rows, skewed compression: the heavy chunk sits alone
        events = _FakeLazyTable([0, 10, 20, 30], [1000.0, 10.0, 10.0])
        assert lazy_table_ranges(events, 2) == [(0, 10), (10, 30)]

    def test_lazy_table_ranges_applies_budget_cap(self):
        events = _FakeLazyTable(
            [0, 10, 20, 30, 40], [10.0] * 4,
            memory_budget=20 * 24, row_nbytes=24,
        )
        ranges = lazy_table_ranges(events, 1)
        assert all(b - a <= 20 for a, b in ranges)
        covered = [i for a, b in ranges for i in range(a, b)]
        assert covered == list(range(40))

    def test_lazy_table_ranges_empty_chunks_balance_by_count(self):
        """Zero stored bytes everywhere (satellite a, through the
        helper): falls back to a count-balanced cut."""
        events = _FakeLazyTable([0, 10, 20, 30, 40], [0.0] * 4)
        assert lazy_table_ranges(events, 2) == [(0, 20), (20, 40)]

    def test_range_stored_nbytes_whole_chunks(self):
        events = _FakeLazyTable([0, 10, 20, 30], [100.0, 50.0, 25.0])
        assert range_stored_nbytes(events, [(0, 10), (10, 30)]) == [100.0, 75.0]

    def test_range_stored_nbytes_pro_rata_split(self):
        events = _FakeLazyTable([0, 10], [100.0])
        assert range_stored_nbytes(events, [(0, 5), (5, 10)]) == [50.0, 50.0]

    def test_range_stored_nbytes_empty_range(self):
        events = _FakeLazyTable([0, 10], [100.0])
        assert range_stored_nbytes(events, [(3, 3)]) == [0.0]
