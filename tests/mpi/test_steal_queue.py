"""Unit contract of the stealing executor's shared queue.

``StealQueue`` is the one place exactly-once execution is decided:
tasks move ``pending -> claimed -> done`` (or ``dropped`` when their
run quarantines), and a dead rank's claims requeue.  These tests drive
it directly, one call at a time, with no rank threads: the integration
suites (``tests/integration/test_stealing.py``,
``tests/mpi/test_fault_tolerance.py``) cover the same accounting under
real interleavings.
"""

from repro.mpi.stealing import StealQueue, StealTask


def _task(run, index, owner, stage="binmd", n_ranges=3):
    return StealTask(run=run, stage=stage, index=index, n_ranges=n_ranges,
                     owner=owner, weight=1.0 + index)


def _queue(n_ranks=2, tasks_per_rank=3):
    """Rank ``r`` owns run ``r``, cut into ``tasks_per_rank`` tasks."""
    q = StealQueue()
    for r in range(n_ranks):
        q.register_rank(r)
    for r in range(n_ranks):
        for i in range(tasks_per_rank):
            q.add_task(_task(r, i, owner=r, n_ranges=tasks_per_rank))
    return q


def _drain(q, rank):
    out = []
    while True:
        task = q.claim_own(rank)
        if task is None:
            return out
        out.append(task)


class TestRelease:
    def test_claimed_task_goes_back_to_the_head_in_plan_order(self):
        """The work loop holds one claim at a time: a crash puts it
        back where it was planned, ahead of the rest of the deque."""
        q = _queue()
        assert q.claim_own(0).index == 0
        q.release_rank(0)
        assert [t.index for t in _drain(q, 0)] == [0, 1, 2]

    def test_stolen_claims_go_back_to_the_owner(self):
        q = _queue()
        stolen = q.claim_steal(1, victim=0)
        assert stolen.index == 2 and q.steals == 1  # the victim's tail
        q.release_rank(1)
        assert q.own_depth(0) == 3
        assert q.own_depth(1) == 3  # rank 1's own deque is untouched

    def test_released_rank_is_hidden_from_victims(self):
        q = _queue(n_ranks=3)
        assert set(q.remaining_weights(exclude=0)) == {1, 2}
        q.release_rank(1)
        assert set(q.remaining_weights(exclude=0)) == {2}

    def test_orphaned_deque_is_adopted(self):
        q = _queue()
        q.claim_own(1)
        q.release_rank(1)
        # only a dead rank's deque is adoptable, head first
        assert q.claim_orphan(0).key == (1, "binmd", 0)
        assert q.adoptions == 1
        assert [q.claim_orphan(0).index for _ in range(2)] == [1, 2]
        assert q.claim_orphan(0) is None
        assert q.adoptions == 3

    def test_live_owner_is_never_adopted_from(self):
        q = _queue()
        assert q.claim_orphan(0) is None
        assert q.adoptions == 0


class TestCompletion:
    def test_complete_marks_a_key_done_once(self):
        """A completed task is neither pending nor claimed: no path
        hands it out again."""
        q = _queue(n_ranks=2, tasks_per_rank=1)
        task = q.claim_own(0)
        assert q.complete(task)
        q.release_rank(0)  # nothing claimed left to requeue
        assert q.claim_own(0) is None
        assert q.claim_orphan(1) is None
        assert q.claim_steal(1, victim=0) is None
        assert q.complete(q.claim_own(1))
        assert q.all_done()

    def test_quarantined_run_completes_as_dropped(self):
        q = _queue()
        in_flight = q.claim_own(0)
        q.drop_run(0)
        assert q.is_quarantined(0)
        assert q.own_depth(0) == 0  # pending tasks purged
        assert not q.complete(in_flight)
        assert q.own_depth(1) == 3  # other runs are untouched

    def test_all_done_waits_for_pending_and_claimed(self):
        q = _queue(n_ranks=1, tasks_per_rank=2)
        assert not q.all_done()
        a, b = q.claim_own(0), q.claim_own(0)
        assert not q.all_done()  # both claimed, none complete
        q.complete(a)
        assert not q.all_done()
        q.complete(b)
        assert q.all_done()

    def test_empty_queue_is_done(self):
        q = StealQueue()
        q.register_rank(0)
        assert q.all_done()
        assert q.claim_own(0) is None
