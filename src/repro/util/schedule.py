"""Seedable steal-schedule controller.

The stealing executor (:mod:`repro.mpi.stealing`) asks this controller
one question, every time a rank is about to take its next task:
:meth:`ScheduleController.acquire` — *steal from whom, or pop my own
queue?*  Rank death is not the schedule's business: it comes from the
fault plan (the ``steal.task`` site, :mod:`repro.util.faults`).

Determinism framing, in :mod:`repro.util.faults` style: every rank
draws from its own seeded LCG stream, so *decisions* are a pure
function of ``(seed, rank, per-rank call number, queue state)``.  The
wall-clock interleaving of rank threads is **not** reproducible — and
that is the point: the executor's ordered-deposit replay must make the
reduced histograms bit-identical for *any* schedule this controller
emits.

Policies
--------
``weighted``
    Steal only when idle; victim = the rank with the most remaining
    queued weight (stored chunk bytes for lazy tables).  The production
    default; draws no random numbers.
``random``
    Seeded coin: steal with probability ``p_steal`` even when busy
    (always when idle); victim drawn uniformly from the non-empty
    queues.  ``p_steal=1.0`` steals whenever a victim exists — the
    most scrambled execution order.  The fuzzer's workhorse.
``no-steal``
    Never steal: degenerates to the static plan (the executor must
    then be bit-identical to static *trivially* — a calibration leg).
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.util.faults import _LCG, _stream_seed

POLICIES = ("weighted", "random", "no-steal")


class ScheduleError(ValueError):
    """Malformed schedule configuration."""


class ScheduleController:
    """Seeded per-rank steal-decision streams.

    Parameters
    ----------
    seed:
        Root seed of the per-rank decision streams.
    policy:
        One of :data:`POLICIES`.
    p_steal:
        ``random`` policy only: probability of stealing while the
        rank's own queue is non-empty.
    """

    def __init__(
        self,
        seed: int = 0,
        policy: str = "weighted",
        *,
        p_steal: float = 0.5,
    ) -> None:
        if policy not in POLICIES:
            raise ScheduleError(
                f"unknown policy {policy!r}; expected one of {POLICIES}"
            )
        if not 0.0 <= float(p_steal) <= 1.0:
            raise ScheduleError(f"p_steal must be in [0, 1], got {p_steal}")
        self.seed = int(seed)
        self.policy = policy
        self.p_steal = float(p_steal)
        self._lock = threading.Lock()
        self._streams: Dict[int, _LCG] = {}

    def _stream(self, rank: int) -> _LCG:
        lcg = self._streams.get(rank)
        if lcg is None:
            lcg = self._streams[rank] = _LCG(
                _stream_seed(self.seed, "steal.acquire", rank)
            )
        return lcg

    def acquire(
        self,
        rank: int,
        own_depth: int,
        victims: Dict[int, float],
    ) -> Optional[int]:
        """Decide rank's next task source.

        ``victims`` maps *other* active ranks with non-empty queues to
        their remaining queued weight.  Returns a victim rank to steal
        from, or ``None`` to pop the rank's own queue (the executor
        falls back to orphan adoption on its own — liveness is its
        job, not the schedule's).
        """
        with self._lock:
            return self._pick(rank, own_depth, victims)

    def _pick(
        self, rank: int, own_depth: int, victims: Dict[int, float]
    ) -> Optional[int]:
        if not victims or self.policy == "no-steal":
            return None
        if self.policy == "weighted":
            if own_depth:
                return None
            return max(sorted(victims), key=lambda r: victims[r])
        # random: steal when idle, coin-flip while busy
        lcg = self._stream(rank)
        if own_depth > 0 and lcg.uniform() >= self.p_steal:
            return None
        ordered = sorted(victims)
        return ordered[int(lcg.uniform() * len(ordered)) % len(ordered)]
