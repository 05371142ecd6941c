#!/usr/bin/env python3
"""Algorithm 1 end to end: the paper's stage table, one workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload benzil_cold --seed 1 --seconds 10 --trace 0

The run synthesizes the workload's inputs from ``--seed`` into a
directory of its own, computes and validates a reference reduction,
sets the workflow up, then reduces back to back for ``--seconds`` as a
closed-loop client (one process, at most two busy cores) and checks
every result.  With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced reductions and
prints the per-layer metrics of the traced ones (see README.md).  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: set-ups per run, at least this many and for at least this long;
#: setup_s is their median
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
#: reductions measured even when --seconds has run out
MIN_REDUCTIONS = 3
#: one calibration: a Python loop of this many steps, then a sort of
#: this many doubles (see HostSpeed)
CALIBRATION_LOOP = 40_000
CALIBRATION_SORT = 50_000
#: seconds a calibration takes at the reference host speed
REFERENCE_CALIBRATION_S = 0.0025
#: calibration time as a share of the measured time
CALIBRATION_SHARE = 0.05

END_TO_END = (
    ("total_s", "s"),
    ("update_events_s", "s"),
    ("mdnorm_s", "s"),
    ("binmd_s", "s"),
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "1"),
)

PER_LAYER = (
    ("nexus.load_md_s", "s"),
    ("nexus.load_md_calls", "count"),
    ("nexus.decode_chunk_s", "s"),
    ("nexus.read_window_s", "s"),
    ("nexus.pool_decode_chunk_s", "s"),
    ("nexus.pool_read_window_s", "s"),
    ("nexus.chunks_decoded", "count"),
    ("nexus.bytes_decoded", "B"),
    ("nexus.decode_bytes_computed", "B"),
    ("nexus.decode_flops_computed", "flop"),
    ("nexus.tile_hit_ratio", "1"),
    ("grid.bin_index_s", "s"),
    ("grid.bin_index_points", "count"),
    ("hist3.push_many_s", "s"),
    ("hist3.push_many_points", "count"),
    ("hist3.divide_s", "s"),
    ("binmd.self_s", "s"),
    ("binmd.lanes", "count"),
    ("binmd.bytes_computed", "B"),
    ("binmd.flops_computed", "flop"),
    ("mdnorm.self_s", "s"),
    ("mdnorm.rows", "count"),
    ("mdnorm.bytes_computed", "B"),
    ("mdnorm.flops_computed", "flop"),
    ("jacc.parallel_for_s", "s"),
    ("jacc.parallel_for_calls", "count"),
    ("jacc.replay_deposits_s", "s"),
    ("geom_cache.digest_s", "s"),
    ("geom_cache.digest_bytes", "B"),
    ("geom_cache.digest_calls", "count"),
    ("geom_cache.hit_ratio", "1"),
    ("geom_cache.inserted_bytes", "B"),
    ("geom_cache.evictions", "count"),
    ("sharding.binmd_s", "s"),
    ("sharding.mdnorm_s", "s"),
    ("sharding.shard_tasks", "count"),
    ("mpi.reduce_s", "s"),
    ("mpi.barrier_wait_s", "s"),
    ("mpi.steals", "count"),
    ("mpi.steal_tasks", "count"),
    ("checkpoint.save_run_s", "s"),
    ("checkpoint.load_run_s", "s"),
    ("checkpoint.bytes_written", "B"),
    ("cross_section.unattributed_s", "s"),
    ("trace.total_s", "s"),
    ("trace.overhead_ratio", "1"),
    ("check.mdnorm_bins_differ", "count"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=None,
                   help="override the workload's event/detector scale "
                        "(smoke tests only)")
    return p.parse_args(argv)


class Tally:
    """Attempted and failed reductions, plus the MDNorm bit-difference."""

    def __init__(self, reference) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.mdnorm_bins_differ = 0

    def reduce(self, runner):
        """One reduction, checked; None when it raised."""
        from perfbench.check import compare

        self.attempted += 1
        try:
            red = runner.reduce()
        except Exception:  # a failed reduction is counted, the loop goes on
            self.failed += 1
            traceback.print_exc()
            return None
        check = compare(red.result, self.reference)
        self.mdnorm_bins_differ = max(self.mdnorm_bins_differ,
                                      check.mdnorm_bins_differ)
        if not check.ok:
            self.failed += 1
            print(f"perfbench: reduction {self.attempted} failed the check "
                  f"on {check.reason}", file=sys.stderr)
        return red


class HostSpeed:
    """Calibrations interleaved with the measured work.

    The speed of a shared host's CPUs drifts by up to a fifth over
    seconds to minutes, each CPU on its own (README.md).  One
    calibration times a fixed piece of work of both kinds a reduction is
    made of: a Python loop and a NumPy sort.  A reduction that keeps one
    core busy is calibrated on the CPU this thread is on; one that keeps
    every core busy (pool workers, rank threads) on each CPU in turn.
    :attr:`factor` scales a run's timings to the reference host speed,
    at which a calibration takes :data:`REFERENCE_CALIBRATION_S`.
    """

    def __init__(self, every_cpu: bool) -> None:
        import numpy as np

        self._np = np
        self._data = np.random.default_rng(0).random(CALIBRATION_SORT)
        self.cpus = sorted(os.sched_getaffinity(0)) if every_cpu else [None]
        self.samples = {cpu: [] for cpu in self.cpus}

    def _time(self, cpu) -> None:
        t0 = time.perf_counter()
        x = 0
        for i in range(CALIBRATION_LOOP):
            x += i
        self._np.sort(self._data)
        self.samples[cpu].append(time.perf_counter() - t0)

    def once(self) -> None:
        if self.cpus == [None]:
            self._time(None)
            return
        home = os.sched_getaffinity(0)  # of this thread only
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                self._time(cpu)
        finally:
            os.sched_setaffinity(0, home)

    def sample(self, seconds: float) -> None:
        """Calibrate once, then again until ``seconds`` have passed."""
        deadline = time.perf_counter() + seconds
        self.once()
        while time.perf_counter() < deadline:
            self.once()

    @property
    def calibrations(self) -> int:
        return sum(len(s) for s in self.samples.values())

    @property
    def factor(self) -> float:
        mean = statistics.fmean(statistics.median(s) for s in self.samples.values())
        return REFERENCE_CALIBRATION_S / mean


def measure(runner, tally, seconds, speed):
    """trace 0: repeated set-ups, then untraced reductions until time,
    each after calibrations for a share of the time it took before."""
    setups = []
    last = 0.0
    deadline = time.perf_counter() + SETUP_SECONDS
    while len(setups) < SETUP_REPEATS or time.perf_counter() < deadline:
        speed.sample(CALIBRATION_SHARE * last)
        t0 = time.perf_counter()
        runner.setup()
        last = time.perf_counter() - t0
        setups.append(last)
    samples = defaultdict(list)
    deadline = time.perf_counter() + seconds
    while tally.attempted < MIN_REDUCTIONS or time.perf_counter() < deadline:
        speed.sample(CALIBRATION_SHARE * last)
        red = tally.reduce(runner)
        if red is None:
            continue
        last = red.total_s
        samples["total_s"].append(red.total_s)
        for metric, stage in (("update_events_s", "UpdateEvents"),
                              ("mdnorm_s", "MDNorm"), ("binmd_s", "BinMD")):
            samples[metric].append(red.timings.seconds(stage))
    return setups, samples


def _cache_state(cache):
    if cache is None:
        return {"hits": 0, "misses": 0, "evictions": 0, "bytes": 0}
    s = cache.stats
    return {"hits": s.hits, "misses": s.misses, "evictions": s.evictions,
            "bytes": cache.current_bytes}


def trace(runner, tally, seconds):
    """trace 1: one set-up, then untraced and traced reductions in turn."""
    from perfbench.layers import LAYERS, Recorder, attribute

    rec = Recorder()
    rec.install(LAYERS)  # pool workers fork during set-up and keep these
    try:
        runner.setup()
    finally:
        rec.uninstall()
    sums = defaultdict(float)
    totals = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    while tally.attempted < 2 * MIN_REDUCTIONS or time.perf_counter() < deadline:
        traced = tally.attempted % 2 == 1
        before = _cache_state(runner.shared_cache)
        if traced:
            rec.install(LAYERS)
            rec.begin()
        try:
            red = tally.reduce(runner)
        finally:
            if traced:
                counts = rec.end()
                rec.uninstall()
        if red is None:
            continue
        totals[traced].append(red.total_s)
        if not traced:
            continue
        for name, value in attribute(rec.transitions, red.start, red.stop).items():
            sums[name] += value
        for name, value in counts.items():
            sums[name] += value
        after = _cache_state(red.cache)
        for key in after:
            sums[f"cache.{key}"] += after[key] - before[key]
        for tiles in rec.tile_managers:
            sums["tiles.hits"] += tiles.stats.hits
            sums["tiles.misses"] += tiles.stats.misses
        stealing = (red.result.extras or {}).get("stealing", {})
        sums["mpi.steals"] += stealing.get("steals", 0)
        sums["mpi.steal_tasks"] += stealing.get("tasks", 0)

    n = len(totals[True])
    values = {name: sums[name] / n for name, _ in PER_LAYER}
    values["trace.total_s"] = statistics.fmean(totals[True])
    values["trace.overhead_ratio"] = (statistics.median(totals[True])
                                      / statistics.median(totals[False]))
    values["check.mdnorm_bins_differ"] = tally.mdnorm_bins_differ
    values["geom_cache.hit_ratio"] = _ratio(sums["cache.hits"], sums["cache.misses"])
    values["geom_cache.inserted_bytes"] = sums["cache.bytes"] / n
    values["geom_cache.evictions"] = sums["cache.evictions"] / n
    values["nexus.tile_hit_ratio"] = _ratio(sums["tiles.hits"], sums["tiles.misses"])
    return values, {"traced": n, "untraced": len(totals[False])}


def _ratio(hits, misses):
    return hits / (hits + misses) if hits + misses else 0.0


def start_resource_tracker():
    """Start multiprocessing's resource tracker here, before any pool
    worker forks.  The workers then share this one; a worker forked
    earlier would spawn a tracker of its own, which outlives it."""
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()


def stop_resource_tracker():
    """Stop the resource tracker and wait for it to end; left alone it
    ends only after this process has."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # run the finally blocks that clean up


def peak_rss_mb():
    """Peak RSS of this process plus its largest reaped pool worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.check import OracleMismatch, make_reference
    from perfbench.workloads import WORKLOADS, Runner, describe, lanes, synthesize

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, _terminate)
    workdir = ROOT / "perfbench" / ".work" / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = None
    try:
        start_resource_tracker()
        t0 = time.perf_counter()
        data = synthesize(workload, args.seed, workdir / "data", args.scale)
        record = describe(workload, data)
        record["synth_s"] = time.perf_counter() - t0
        runner = Runner(workload, data, workdir)
        reference_ok = True
        try:
            reference = make_reference(runner.reference_result(), data.md_paths,
                                       data.grid, data.point_group)
        except OracleMismatch as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            reference_ok = False
            reference = exc.reference
        tally = Tally(reference)
        if args.trace:
            values, counts = trace(runner, tally, args.seconds)
            units = PER_LAYER
        else:
            speed = HostSpeed(every_cpu=workload.pool_workers > 1
                              or workload.ranks > 1)
            setups, samples = measure(runner, tally, args.seconds, speed)
            counts = {"reductions": len(samples["total_s"]),
                      "setups": len(setups),
                      "calibrations": speed.calibrations}
            raw = {k: statistics.median(v) for k, v in samples.items()}
            raw["setup_s"] = statistics.median(setups)
            record["raw_s"] = raw
            record["host_speed_factor"] = speed.factor
            values = {k: v * speed.factor for k, v in raw.items()}
            values["events_per_s"] = lanes(data) / values["total_s"]
            values["success_ratio"] = (tally.attempted - tally.failed) / tally.attempted
            units = END_TO_END
    finally:
        if runner is not None:
            runner.close()
        stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        values["peak_rss_mb"] = peak_rss_mb()
    record["samples"] = counts
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": reference_ok and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
