"""Unit contract of the seedable steal-schedule controller.

The integration fuzzing lives in ``tests/integration/test_stealing.py``;
this file pins the controller itself: policy validation and the
seeded per-rank decision streams.
"""

import pytest

from repro.util.schedule import POLICIES, ScheduleController, ScheduleError


class TestConstruction:
    def test_known_policies(self):
        for policy in POLICIES:
            assert ScheduleController(seed=1, policy=policy).policy == policy

    def test_unknown_policy_rejected(self):
        with pytest.raises(ScheduleError, match="unknown policy"):
            ScheduleController(policy="chaotic-good")

    @pytest.mark.parametrize("p", (-0.1, 1.5))
    def test_p_steal_range_enforced(self, p):
        with pytest.raises(ScheduleError, match="p_steal"):
            ScheduleController(policy="random", p_steal=p)


class TestAcquire:
    def test_no_steal_never_steals(self):
        ctl = ScheduleController(seed=3, policy="no-steal")
        for k in range(20):
            assert ctl.acquire(0, 0, {1: 100.0, 2: 50.0}) is None

    def test_weighted_steals_only_when_idle(self):
        ctl = ScheduleController(seed=3, policy="weighted")
        assert ctl.acquire(0, own_depth=4, victims={1: 100.0}) is None
        assert ctl.acquire(0, own_depth=0, victims={1: 100.0}) == 1

    def test_weighted_picks_heaviest_victim(self):
        ctl = ScheduleController(seed=3, policy="weighted")
        assert ctl.acquire(0, 0, {1: 10.0, 2: 90.0, 3: 50.0}) == 2

    def test_random_full_p_steal_always_steals_when_possible(self):
        ctl = ScheduleController(seed=3, policy="random", p_steal=1.0)
        for k in range(20):
            victim = ctl.acquire(0, own_depth=3, victims={1: 1.0, 2: 2.0})
            assert victim in (1, 2)

    def test_no_victims_means_own_queue(self):
        for policy in POLICIES:
            ctl = ScheduleController(seed=3, policy=policy)
            assert ctl.acquire(0, own_depth=2, victims={}) is None

    def test_random_stream_is_per_rank_deterministic(self):
        """The same (seed, rank, k) prefix yields the same decisions,
        independent of what other ranks drew in between."""
        victims = {1: 1.0, 2: 2.0, 3: 3.0}

        def draw(ctl, rank, n):
            return [ctl.acquire(rank, 1, victims) for _ in range(n)]

        a = ScheduleController(seed=11, policy="random")
        b = ScheduleController(seed=11, policy="random")
        seq_a = draw(a, 0, 10)
        draw(b, 7, 5)  # interleave another rank's stream
        assert draw(b, 0, 10) == seq_a

    def test_different_seeds_differ(self):
        victims = {r: float(r) for r in range(1, 6)}
        a = [ScheduleController(seed=1, policy="random").acquire(0, 1, victims)
             for _ in range(1)]
        draws = {
            seed: tuple(
                ScheduleController(seed=seed, policy="random").acquire(
                    0, 1, dict(victims))
                for _ in range(8)
            )
            for seed in range(6)
        }
        assert len(set(draws.values())) > 1
        del a
