"""Wall-clock timing for reduction stages.

The paper reports per-stage wall-clock times (WCT): ``UpdateEvents``
(loading the event table), ``MDNorm``, ``BinMD``, their sum, and the
total workflow time, separately for the first JIT-compiled call and for
warm calls.  :class:`StageTimings` is the accumulator every driver in
this package fills in; the benchmark harness renders them into the
paper's table rows.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from repro.util import trace as _trace


class Timer:
    """A restartable stopwatch measuring wall-clock seconds.

    ``Timer`` accumulates across multiple ``start``/``stop`` cycles so a
    stage that runs once per file (e.g. ``MDNorm`` over 36 runs) reports
    the sum over all runs, matching how the paper accounts stage WCT.
    """

    __slots__ = ("elapsed", "ncalls", "_t0")

    def __init__(self) -> None:
        self.elapsed: float = 0.0
        self.ncalls: int = 0
        self._t0: Optional[float] = None

    def start(self) -> "Timer":
        if self._t0 is not None:
            raise RuntimeError("Timer already running")
        self._t0 = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._t0 is None:
            raise RuntimeError("Timer not running")
        dt = time.perf_counter() - self._t0
        self._t0 = None
        self.elapsed += dt
        self.ncalls += 1
        return dt

    @property
    def running(self) -> bool:
        return self._t0 is not None

    def reset(self) -> None:
        self.elapsed = 0.0
        self.ncalls = 0
        self._t0 = None

    @contextmanager
    def timing(self) -> Iterator["Timer"]:
        self.start()
        try:
            yield self
        finally:
            self.stop()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "running" if self.running else "stopped"
        return f"Timer(elapsed={self.elapsed:.6f}s, ncalls={self.ncalls}, {state})"


#: Stage names used across the package, in the order the paper's tables
#: print them.
CANONICAL_STAGES = ("UpdateEvents", "MDNorm", "BinMD", "MDNorm + BinMD", "Total")


@dataclass
class StageTimings:
    """Named per-stage wall-clock accumulator.

    Stages are created lazily; ``MDNorm + BinMD`` is derived, not stored.
    The optional ``first_call`` map keeps the first-invocation time per
    stage separately so JIT-inclusive vs warm ("no JIT") numbers can both
    be reported, as in Tables III-VI.
    """

    label: str = ""
    stages: "OrderedDict[str, Timer]" = field(default_factory=OrderedDict)
    first_call: Dict[str, float] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def timer(self, stage: str) -> Timer:
        with self._lock:
            t = self.stages.get(stage)
            if t is None:
                t = self.stages[stage] = Timer()
            return t

    @contextmanager
    def stage(self, name: str) -> Iterator[Timer]:
        """Time one stage invocation (and emit a trace span for it).

        ``StageTimings`` is a *view over spans*: the stage opens a span
        on the active tracer (``kind="stage"``, ``timings=<label>``)
        and the timer accumulates exactly the span's duration — one
        clock read per edge, shared by both — so totals derived from
        the trace (:func:`repro.util.trace.stage_timings_from_records`)
        equal this accumulator bit for bit.  With tracing disabled the
        span is a timestamp-only stub and behaviour is unchanged.

        Concurrent entries on the same stage are allowed — rank threads
        of one simulated world may share one accumulator (the stealing
        executor on a caller-supplied ``timings``), so two threads can
        be inside e.g. ``MDNorm`` at once.  Each entry contributes its
        own span duration (``elapsed`` sums call durations, which under
        overlap can exceed wall time, same as summing over runs).
        """
        t = self.timer(name)
        tracer = _trace.active_tracer()
        sp = tracer.begin(name, kind="stage", timings=self.label)
        with self._lock:
            # mark the timer running (in perf_counter coordinates, so a
            # stray manual stop() still behaves sanely); the first
            # concurrent entry owns the running flag
            owns_flag = not t.running
            if owns_flag:
                t._t0 = sp.t0 + tracer._epoch
        try:
            yield t
        finally:
            tracer.end(sp)
            dt = sp.duration
            with self._lock:
                if owns_flag:
                    t._t0 = None
                t.elapsed += dt
                t.ncalls += 1
                self.first_call.setdefault(name, dt)

    def seconds(self, stage: str) -> float:
        """Total accumulated seconds for ``stage`` (0.0 if never run)."""
        if stage == "MDNorm + BinMD":
            return self.seconds("MDNorm") + self.seconds("BinMD")
        t = self.stages.get(stage)
        return 0.0 if t is None else t.elapsed

    def warm_seconds(self, stage: str) -> float:
        """Accumulated seconds excluding each stage's first call.

        This is the paper's "no JIT" column: the first invocation pays
        kernel specialization, later ones do not.  For a stage that ran
        once, the warm time is 0 (there is no warm sample).
        """
        if stage == "MDNorm + BinMD":
            return self.warm_seconds("MDNorm") + self.warm_seconds("BinMD")
        t = self.stages.get(stage)
        if t is None:
            return 0.0
        return t.elapsed - self.first_call.get(stage, 0.0)

    def mean_warm_seconds(self, stage: str) -> float:
        """Per-call warm time, averaged over the non-first calls."""
        if stage == "MDNorm + BinMD":
            return self.mean_warm_seconds("MDNorm") + self.mean_warm_seconds("BinMD")
        t = self.stages.get(stage)
        if t is None or t.ncalls <= 1:
            return 0.0
        return (t.elapsed - self.first_call.get(stage, 0.0)) / (t.ncalls - 1)

    def merge(self, other: "StageTimings") -> "StageTimings":
        """Accumulate another run's timings into this one (sum of stages)."""
        for name, timer in other.stages.items():
            mine = self.timer(name)
            mine.elapsed += timer.elapsed
            mine.ncalls += timer.ncalls
            if name not in self.first_call and name in other.first_call:
                self.first_call[name] = other.first_call[name]
        return self

    def as_row(self, stages: Optional[List[str]] = None) -> "OrderedDict[str, float]":
        out: "OrderedDict[str, float]" = OrderedDict()
        for name in stages or list(self.stages) + ["MDNorm + BinMD"]:
            out[name] = self.seconds(name)
        return out

    def summary(self) -> str:
        lines = [f"StageTimings({self.label or 'unnamed'})"]
        names = [s for s in CANONICAL_STAGES if s in self.stages or s == "MDNorm + BinMD"]
        names += [s for s in self.stages if s not in names]
        for name in names:
            lines.append(
                f"  {name:<16s} {self.seconds(name):10.4f} s"
                f"  (warm {self.warm_seconds(name):10.4f} s)"
            )
        return "\n".join(lines)


@contextmanager
def timed(callback: Callable[[float], None]) -> Iterator[None]:
    """Time a block and hand the elapsed seconds to ``callback``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        callback(time.perf_counter() - t0)
