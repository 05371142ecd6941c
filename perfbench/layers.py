"""Outside-in layer timing for the traced benchmark run.

Every layer is timed by wrapping its public entry point at the name its
caller looks up (``repro.core.cross_section.bin_events``, not
``repro.core.binmd.bin_events``), so nothing under ``src/`` changes.
A wrapper records two *transitions* on its thread: on entry the thread's
innermost layer becomes the wrapped one, on exit it falls back to the
enclosing wrapper's layer (or to none).

:func:`attribute` turns the transitions of one reduction into self
times by sweeping wall-clock time from the reduction's start to its
end.  Each instant goes to the innermost layer of every thread that is
inside a wrapper, split equally between such threads, or to
``cross_section.unattributed_s`` when no thread is.  On one thread this
is the usual self time (span duration minus the time its nested spans
cover); with the two rank threads of the stealing executor it is each
layer's share of the wall clock.  Either way the self times plus the
remainder equal the reduction's wall-clock time.

Pool workers are forked after the wrappers are installed, so they carry
them too.  A worker cannot append to the parent's transition list; it
adds its self times and counts to its own row of an anonymous shared
mapping instead (the :data:`POOL_SLOTS`).  Worker time is not part of
the wall-clock sweep: the parent's ``sharding.*`` call that waited for
it is charged.
"""

from __future__ import annotations

import functools
import importlib
import math
import mmap
import multiprocessing
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: wall-clock self-time metric of each layer, keyed by layer name
SELF_METRICS = {
    "nexus.load_md": "nexus.load_md_s",
    "nexus.decode_chunk": "nexus.decode_chunk_s",
    "nexus.read_window": "nexus.read_window_s",
    "grid.bin_index": "grid.bin_index_s",
    "hist3.push_many": "hist3.push_many_s",
    "hist3.divide": "hist3.divide_s",
    "binmd": "binmd.self_s",
    "mdnorm": "mdnorm.self_s",
    "jacc.parallel_for": "jacc.parallel_for_s",
    "jacc.replay_deposits": "jacc.replay_deposits_s",
    "geom_cache.digest": "geom_cache.digest_s",
    "sharding.binmd": "sharding.binmd_s",
    "sharding.mdnorm": "sharding.mdnorm_s",
    "mpi.reduce": "mpi.reduce_s",
    "mpi.barrier": "mpi.barrier_wait_s",
    "checkpoint.save_run": "checkpoint.save_run_s",
    "checkpoint.load_run": "checkpoint.load_run_s",
}

UNATTRIBUTED = "cross_section.unattributed_s"

#: quantities a pool worker can report back (summed over workers)
POOL_SLOTS = (
    "nexus.pool_decode_chunk_s",
    "nexus.pool_read_window_s",
    "nexus.chunks_decoded",
    "nexus.bytes_decoded",
    "nexus.decode_bytes_computed",
    "nexus.decode_flops_computed",
)
#: rows of the shared mapping; a worker writes row ``n % POOL_ROWS`` of
#: its process name ``ForkProcess-<n>``, so each live worker owns a row
POOL_ROWS = 16


class Recorder:
    """Transitions and counts of the traced reductions.

    Create it, :meth:`install` the wrappers, then bracket each traced
    reduction with :meth:`begin` / :meth:`end`.  Installed wrappers
    record nothing outside that bracket, and :meth:`uninstall` restores
    the originals in this process; forked pool workers keep the
    wrappers they were forked with.
    """

    def __init__(self) -> None:
        self.on = False
        self.transitions: List[Tuple[float, int, Optional[str]]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.tile_managers: set = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pid = os.getpid()
        # an anonymous mapping is shared with forked children; one writer
        # per row, and the parent reads only between reductions
        self._pool = np.frombuffer(
            mmap.mmap(-1, 8 * POOL_ROWS * len(POOL_SLOTS)), dtype=np.float64
        ).reshape(POOL_ROWS, len(POOL_SLOTS))
        self._pool_at_begin = self._pool.sum(axis=0)
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------
    def begin(self) -> None:
        self.transitions = []
        self.counts = defaultdict(float)
        self.tile_managers = set()
        self._pool_at_begin = self._pool.sum(axis=0)
        self.on = True

    def end(self) -> Dict[str, float]:
        """Stop recording; the counts of the reduction, pool slots included."""
        self.on = False
        delta = self._pool.sum(axis=0) - self._pool_at_begin
        for name, value in zip(POOL_SLOTS, delta):
            self.counts[name] += float(value)
        return dict(self.counts)

    def add(self, name: str, value: float) -> None:
        if os.getpid() == self._pid:
            with self._lock:  # rank threads count concurrently
                self.counts[name] += value
        elif name in POOL_SLOTS:
            worker = multiprocessing.current_process().name
            row = int(worker.rpartition("-")[2]) % POOL_ROWS
            self._pool[row, POOL_SLOTS.index(name)] += value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, layer: "Layer") -> Callable:
        rec = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != rec._pid:
                return rec._pool_call(fn, layer, args, kwargs)
            if not rec.on:
                return fn(*args, **kwargs)
            token = layer.before(args, kwargs) if layer.before else None
            if layer.name is None:  # count-only hook
                out = fn(*args, **kwargs)
            else:
                name = layer.name(args) if callable(layer.name) else layer.name
                stack = rec._stack()
                tid = threading.get_ident()
                stack.append(name)
                rec.transitions.append((time.perf_counter(), tid, name))
                try:
                    out = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    rec.transitions.append(
                        (time.perf_counter(), tid, stack[-1] if stack else None)
                    )
            if layer.after:
                layer.after(rec, token, out, args, kwargs)
            return out

        return wrapper

    def _pool_call(self, fn: Callable, layer: "Layer", args: tuple,
                   kwargs: dict) -> Any:
        """A wrapper running inside a forked pool worker: classic
        per-process self time, reported through the shared slots."""
        if layer.name is None or not isinstance(layer.name, str):
            return fn(*args, **kwargs)
        stack = self._stack()
        frame = [0.0]  # time covered by nested wrappers
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dur
            slot = layer.name.replace("nexus.", "nexus.pool_") + "_s"
            self.add(slot, dur - frame[0])
        if layer.after:
            layer.after(self, None, out, args, kwargs)
        return out

    # -- patching ------------------------------------------------------------
    def install(self, layers: Sequence["Layer"]) -> None:
        for layer in layers:
            for target in layer.targets:
                owner_path, _, attr = target.rpartition(".")
                owner = _resolve(owner_path)
                original = owner.__dict__[attr]
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, layer))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _resolve(path: str) -> Any:
    """A module or a class inside a module, from its dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


@dataclass(frozen=True)
class Layer:
    """One wrapped layer: where to patch it and what it counts.

    ``name`` is the layer a call is charged to (a function of the
    positional arguments when one entry point serves two layers), or
    None for a hook that only counts.  ``before(args, kwargs)`` runs
    before the call and hands its result to ``after(recorder, token,
    out, args, kwargs)``, which runs once the call has returned.
    """

    name: Any
    targets: Tuple[str, ...]
    before: Optional[Callable[..., Any]] = None
    after: Optional[Callable[..., None]] = None


def attribute(
    transitions: Sequence[Tuple[float, int, Optional[str]]],
    start: float,
    stop: float,
) -> Dict[str, float]:
    """Wall-clock self time per layer over ``[start, stop]``, plus the
    unattributed remainder; the values sum to ``stop - start``."""
    current: Dict[int, str] = {}
    totals: Dict[str, float] = defaultdict(float)
    last = start

    def spend(until: float) -> None:
        dt = until - last
        if dt <= 0.0:
            return
        if not current:
            totals[UNATTRIBUTED] += dt
            return
        share = dt / len(current)
        for layer in current.values():
            totals[SELF_METRICS[layer]] += share

    for t, tid, layer in sorted(transitions, key=lambda tr: tr[0]):
        t = min(max(t, last), stop)
        spend(t)
        last = t
        if layer is None:
            current.pop(tid, None)
        else:
            current[tid] = layer
    spend(stop)
    return dict(totals)


# ---------------------------------------------------------------------------
# the layers of Algorithm 1
# ---------------------------------------------------------------------------

def _points(coords: Any) -> float:
    shape = getattr(coords, "shape", ())
    return float(math.prod(shape[:-1])) if len(shape) > 1 else 0.0


def _add_work(rec: Recorder, prefix: str, work: Dict[str, float]) -> None:
    rec.add(f"{prefix}.bytes_computed", work["bytes_read"] + work["bytes_written"])
    rec.add(f"{prefix}.flops_computed", work["flops"])


def _binmd_lanes(rec: Recorder, n_ops: int, n_events: int, *,
                 track_errors: bool, cache_hit: bool) -> None:
    from repro.util.perf import binmd_work

    rec.add("binmd.lanes", float(n_ops) * float(n_events))
    _add_work(rec, "binmd", binmd_work(
        n_ops, n_events, track_errors=track_errors, cache_hit=cache_hit))


def _geometry_entry(cache: Any, tag: Optional[str]) -> Any:
    """The cached MDNorm geometry entry carrying ``tag`` (or None)."""
    from repro.core.geom_cache import KIND_GEOMETRY

    if cache is None or not getattr(cache, "enabled", False):
        return None
    for key in cache.keys():
        if key[0] != KIND_GEOMETRY:
            continue
        entry = cache.peek(key)
        if entry is not None and entry.tag == tag:
            return entry
    return None


def _mdnorm_rows(rec: Recorder, n_ops: int, n_det: int, width: Optional[int],
                 warm_plan: bool) -> None:
    from repro.util.perf import mdnorm_work

    rec.add("mdnorm.rows", float(n_ops) * float(n_det))
    if width is not None:
        _add_work(rec, "mdnorm", mdnorm_work(n_ops, n_det, width,
                                             warm_plan=warm_plan))


def _mdnorm_shape(args: tuple) -> Tuple[int, int]:
    transforms, det_directions = args[1], args[2]
    return len(transforms), len(det_directions)


def _mdnorm_before(args: tuple, kwargs: dict) -> bool:
    entry = _geometry_entry(kwargs.get("cache"), kwargs.get("cache_tag"))
    return entry is not None and entry.deposit is not None


def _mdnorm_after(rec: Recorder, warm_plan: Any, out: Any, args: tuple,
                  kwargs: dict) -> None:
    n_ops, n_det = _mdnorm_shape(args)
    entry = _geometry_entry(kwargs.get("cache"), kwargs.get("cache_tag"))
    width = None
    if entry is not None and entry.width is not None:
        width = min(int(entry.width), args[0].grid.max_plane_crossings)
    _mdnorm_rows(rec, n_ops, n_det, width, bool(warm_plan))


def _sharded_mdnorm_after(rec: Recorder, token: Any, out: Any, args: tuple,
                          kwargs: dict) -> None:
    from repro.mpi.decomposition import shard_ranges

    _mdnorm_after(rec, False, out, args, kwargs)
    n_det = _mdnorm_shape(args)[1]
    rec.add("sharding.shard_tasks",
            len(shard_ranges(n_det, kwargs["shards"].n_shards)))


def _n_events(events: Any) -> int:
    n = getattr(events, "n_events", None)
    if n is not None:
        return int(n)
    data = getattr(events, "data", events)
    return int(len(data))


def _bin_events_before(args: tuple, kwargs: dict) -> int:
    cache = kwargs.get("cache")
    return cache.stats.hits if cache is not None else 0


def _bin_events_after(rec: Recorder, hits_before: int, out: Any, args: tuple,
                      kwargs: dict) -> None:
    cache = kwargs.get("cache")
    hit = cache is not None and cache.stats.hits > hits_before
    _binmd_lanes(rec, len(args[2]), _n_events(args[1]),
                 track_errors=args[0].error_sq is not None, cache_hit=hit)


def _sharded_binmd_after(rec: Recorder, token: Any, out: Any, args: tuple,
                         kwargs: dict) -> None:
    from repro.mpi.decomposition import lazy_table_ranges

    hist, events, transforms = args[:3]
    _binmd_lanes(rec, len(transforms), _n_events(events),
                 track_errors=hist.error_sq is not None, cache_hit=False)
    n_shards = kwargs["shards"].n_shards
    if hasattr(events, "chunk_bounds"):
        n_shards = len(lazy_table_ranges(events, n_shards))
    rec.add("sharding.shard_tasks", n_shards)


def _range_layer(args: tuple) -> str:
    return f"sharding.{args[0].op_name}"


def _range_after(rec: Recorder, token: Any, out: Any, args: tuple,
                 kwargs: dict) -> None:
    ctx, index = args[0], args[1]
    rec.add("sharding.shard_tasks", 1)
    if ctx.op_name == "binmd":
        a, b = ctx.ranges[index]
        _binmd_lanes(rec, ctx.n_outer, b - a, track_errors=ctx.track_errors,
                     cache_hit=False)


def _mdnorm_context_after(rec: Recorder, token: Any, ctx: Any, args: tuple,
                          kwargs: dict) -> None:
    n_ops, n_det = _mdnorm_shape(args)
    _mdnorm_rows(rec, n_ops, n_det, ctx.captures.scratch.width, False)


def _decode_after(rec: Recorder, token: Any, raw: Any, args: tuple,
                  kwargs: dict) -> None:
    from repro.util.perf import chunk_decode_work

    stored, codec = args[0], args[1]
    rec.add("nexus.chunks_decoded", 1)
    rec.add("nexus.bytes_decoded", len(raw))
    work = chunk_decode_work(codec, len(stored), len(raw))
    rec.add("nexus.decode_bytes_computed",
            work["bytes_read"] + work["bytes_written"])
    rec.add("nexus.decode_flops_computed", work["flops"])


def _tile_window_after(rec: Recorder, token: Any, out: Any, args: tuple,
                       kwargs: dict) -> None:
    rec.tile_managers.add(args[0])


def _digest_after(rec: Recorder, token: Any, out: Any, args: tuple,
                  kwargs: dict) -> None:
    rec.add("geom_cache.digest_calls", 1)
    rec.add("geom_cache.digest_bytes", getattr(args[0], "nbytes", 0))


def _count(metric: str) -> Callable[..., None]:
    def after(rec: Recorder, token: Any, out: Any, args: tuple,
              kwargs: dict) -> None:
        rec.add(metric, 1)
    return after


def _points_after(metric: str) -> Callable[..., None]:
    def after(rec: Recorder, token: Any, out: Any, args: tuple,
              kwargs: dict) -> None:
        rec.add(metric, _points(args[1]))
    return after


def _save_run_after(rec: Recorder, token: Any, out: Any, args: tuple,
                    kwargs: dict) -> None:
    manager, run = args[0], args[1]
    record = manager.run_record(run) or {}
    path = os.path.join(manager.directory, record.get("file", ""))
    if os.path.isfile(path):
        rec.add("checkpoint.bytes_written", os.path.getsize(path))
    if os.path.isfile(manager.manifest_path):
        rec.add("checkpoint.bytes_written", os.path.getsize(manager.manifest_path))


LAYERS: Tuple[Layer, ...] = (
    Layer("nexus.load_md", ("repro.core.workflow.load_md",),
          after=_count("nexus.load_md_calls")),
    Layer("nexus.decode_chunk", ("repro.nexus.h5lite.decode_chunk",),
          after=_decode_after),
    Layer("nexus.read_window", ("repro.core.sharding.read_window",)),
    Layer(None, ("repro.nexus.tiles.TileManager.window",),
          after=_tile_window_after),
    Layer("grid.bin_index", ("repro.core.grid.HKLGrid.bin_index",),
          after=_points_after("grid.bin_index_points")),
    Layer("hist3.push_many", ("repro.core.hist3.Hist3.push_many",),
          after=_points_after("hist3.push_many_points")),
    Layer("hist3.divide", ("repro.core.hist3.Hist3.divide",)),
    Layer("binmd", ("repro.core.cross_section.bin_events",),
          before=_bin_events_before, after=_bin_events_after),
    Layer("binmd", ("repro.mpi.stealing.binmd_shard_context",)),
    Layer("mdnorm", ("repro.core.cross_section.mdnorm",),
          before=_mdnorm_before, after=_mdnorm_after),
    Layer("mdnorm", ("repro.mpi.stealing.mdnorm_shard_context",),
          after=_mdnorm_context_after),
    Layer("jacc.parallel_for", ("repro.core.binmd.parallel_for",
                                "repro.core.mdnorm.parallel_for"),
          after=_count("jacc.parallel_for_calls")),
    Layer("jacc.replay_deposits", ("repro.core.sharding.replay_deposits",)),
    Layer("geom_cache.digest", ("repro.core.geom_cache.digest_array",),
          after=_digest_after),
    Layer("sharding.binmd", ("repro.core.cross_section.sharded_binmd",),
          after=_sharded_binmd_after),
    Layer("sharding.mdnorm", ("repro.core.cross_section.sharded_mdnorm",),
          after=_sharded_mdnorm_after),
    Layer(_range_layer, ("repro.mpi.stealing.execute_shard_range",),
          after=_range_after),
    Layer("mpi.reduce", ("repro.mpi.comm.Comm.Reduce",)),
    Layer("mpi.barrier", ("repro.mpi.comm.Comm.Barrier",)),
    Layer("checkpoint.save_run",
          ("repro.core.checkpoint.CheckpointManager.save_run",),
          after=_save_run_after),
    Layer("checkpoint.load_run",
          ("repro.core.checkpoint.CheckpointManager.load_run",)),
)
