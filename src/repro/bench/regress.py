"""Continuous benchmark capture + regression detection.

The ROADMAP's north star ("as fast as the hardware allows") is
unfalsifiable unless every change's performance trajectory is captured
and compared: this module serializes each benchmark-panel run into a
schema-versioned ``BENCH_<workload>.json`` trajectory file and tests
the current run against the recorded history with a robust threshold.

**Capture** (:class:`BenchRecorder`): each entry holds the machine
fingerprint, git SHA, scale/file configuration, and per-stage medians
over ``repeats`` (>= 5 by default) with the inter-quartile range.
Entries are *appended, never overwritten* — the file is the ordered
performance history of the repo on that machine — and written
atomically (:mod:`repro.util.atomic_io`), so a crashed recorder never
corrupts the trajectory.

**Detection** (:func:`check_against` / ``repro perf check``): a stage
regresses iff its current median exceeds

    ``baseline_median + k * baseline_IQR``   (robust noise band)

**and**

    ``min_ratio * baseline_median``          (relative floor)

with both knobs configurable (``k`` = :data:`DEFAULT_K`, ``min_ratio``
= :data:`DEFAULT_MIN_RATIO`).  The double test makes the gate robust to
both noisy stages (large IQR widens the band) and near-zero stages (the
relative floor ignores microsecond jitter).  Baselines are computed
only from entries whose machine fingerprint matches the current host;
when none match (first run on a new machine, or a fresh repo) the check
**bootstraps**: it passes and the caller records the first entry.

The CI ``perf-gate`` job runs the Benzil smoke panel 5x, records, and
checks against the committed trajectory; a 2x slowdown anywhere in
MDNorm/BinMD/UpdateEvents fails the gate (the injected-slowdown test in
``tests/bench/test_regress.py`` proves it).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.util import atomic_io
from repro.util.validation import ReproError, require

#: schema version of BENCH_*.json trajectory files
BENCH_SCHEMA = 1

#: stages captured per entry (per-run medians over the repeats)
BENCH_STAGES = ("UpdateEvents", "MDNorm", "BinMD", "MDNorm + BinMD", "Total")

#: default robust-threshold width (median + k * IQR)
DEFAULT_K = 3.0

#: default relative floor: a stage must be at least this factor slower
#: than the baseline median before it can regress (guards near-zero
#: stages whose IQR is microseconds)
DEFAULT_MIN_RATIO = 1.25

#: minimum repeats for a recorded entry (the IQR needs quartiles)
MIN_REPEATS = 3


class RegressError(ReproError):
    """Malformed trajectory file or an impossible check request."""


# ---------------------------------------------------------------------------
# machine / revision identity
# ---------------------------------------------------------------------------

def machine_fingerprint() -> str:
    """A stable identity of this host for baseline filtering.

    Absolute wall-clock is only comparable on like hardware; entries
    recorded on other machines are excluded from the baseline.  The
    fingerprint deliberately ignores OS patch level and Python micro
    version — those move without changing throughput class.
    """
    return "-".join([
        platform.system().lower() or "unknown",
        platform.machine() or "unknown",
        f"cpu{os.cpu_count() or 0}",
        f"py{platform.python_version_tuple()[0]}.{platform.python_version_tuple()[1]}",
    ])


def current_git_sha(cwd: Optional[str] = None) -> str:
    """The repo HEAD SHA, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd or str(Path(__file__).resolve().parents[3]),
            capture_output=True, text=True, timeout=10,
        )
        sha = out.stdout.strip()
        return sha if out.returncode == 0 and sha else "unknown"
    except (OSError, subprocess.SubprocessError):  # pragma: no cover
        return "unknown"


# ---------------------------------------------------------------------------
# sample statistics
# ---------------------------------------------------------------------------

def robust_stats(samples: Sequence[float]) -> Dict[str, float]:
    """Median + IQR (and the raw samples' extrema) of one stage."""
    xs = sorted(float(s) for s in samples)
    require(len(xs) >= 1, "need at least one sample")
    med = statistics.median(xs)
    if len(xs) >= 2:
        q = statistics.quantiles(xs, n=4, method="inclusive")
        iqr = q[2] - q[0]
    else:
        iqr = 0.0
    return {
        "median": med,
        "iqr": iqr,
        "min": xs[0],
        "max": xs[-1],
        "n": float(len(xs)),
    }


def stage_samples_from_timings(timings_list: Sequence[Any]) -> Dict[str, List[float]]:
    """Per-stage second samples from a list of ``StageTimings``."""
    out: Dict[str, List[float]] = {stage: [] for stage in BENCH_STAGES}
    for timings in timings_list:
        for stage in BENCH_STAGES:
            out[stage].append(float(timings.seconds(stage)))
    return out


def collect_panel_samples(
    data: Any,
    *,
    repeats: int = 5,
    files: Optional[int] = None,
    backend: str = "vectorized",
    shards: Optional[int] = None,
    memory_budget: Optional[int] = None,
    executor: Optional[str] = None,
    steal_seed: int = 0,
) -> Dict[str, List[float]]:
    """Run the core reduction ``repeats`` times and collect per-stage
    wall-clock samples.

    Every repeat constructs a **fresh geometry cache** so each sample
    measures the same (cold) code path — the warm path has its own
    benchmark (``benchmarks/test_cache_warm_path.py``) and mixing the
    two would bimodalize the distribution the IQR test relies on.

    ``shards`` times the hierarchical intra-run shard ranges instead
    of the single-level loop — the sharded trajectory
    (``BENCH_benzil_shards.json``) is recorded with it so the
    regression gate watches the shard path separately.

    ``executor="stealing"`` routes every repeat through the elastic
    work-stealing executor with the given ``steal_seed`` — the
    stealing trajectory (``BENCH_benzil_stealing.json``) gates that
    dispatch path the same way.
    """
    from repro.bench.harness import _subset
    from repro.core.geom_cache import GeomCache
    from repro.core.workflow import ReductionWorkflow, WorkflowConfig
    from repro.util.timers import StageTimings

    require(repeats >= 1, "repeats must be >= 1")
    _, md_paths, _ = _subset(data, files)
    timings_list = []
    for rep in range(repeats):
        cfg = WorkflowConfig(
            md_paths=md_paths,
            flux_path=data.flux_path,
            vanadium_path=data.vanadium_path,
            instrument=data.instrument,
            grid=data.grid,
            point_group=data.point_group,
            backend=backend,
            geom_cache=GeomCache(),
            shards=shards,
            memory_budget=memory_budget,
            executor=executor,
            steal_seed=steal_seed,
        )
        timings = StageTimings(label=f"repeat{rep}")
        ReductionWorkflow(cfg).run(timings=timings)
        timings_list.append(timings)
    return stage_samples_from_timings(timings_list)


# ---------------------------------------------------------------------------
# the trajectory file
# ---------------------------------------------------------------------------

class BenchRecorder:
    """Append-only recorder of benchmark entries for one workload.

    ``BENCH_<workload>.json`` layout (``schema`` = :data:`BENCH_SCHEMA`)::

        {
          "schema": 1,
          "workload": "benzil_smoke",
          "entries": [
            {
              "recorded_unix": 1722945600.0,
              "git_sha": "...",
              "fingerprint": "linux-x86_64-cpu8-py3.11",
              "repeats": 5,
              "config": {"scale": ..., "files": ..., "backend": ...},
              "stages": {
                "MDNorm": {"median": ..., "iqr": ..., "min": ...,
                            "max": ..., "n": 5.0},
                ...
              }
            }, ...
          ]
        }
    """

    def __init__(self, path: str | Path, workload: str) -> None:
        self.path = Path(path)
        self.workload = str(workload)

    # -- I/O --------------------------------------------------------------
    def load(self) -> Dict[str, Any]:
        """The trajectory document (an empty skeleton if absent)."""
        if not self.path.exists():
            return {"schema": BENCH_SCHEMA, "workload": self.workload,
                    "entries": []}
        try:
            doc = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise RegressError(f"{self.path}: unreadable trajectory: {exc}")
        if doc.get("schema") != BENCH_SCHEMA:
            raise RegressError(
                f"{self.path}: schema {doc.get('schema')!r} != {BENCH_SCHEMA}"
            )
        if doc.get("workload") != self.workload:
            raise RegressError(
                f"{self.path}: records workload {doc.get('workload')!r}, "
                f"expected {self.workload!r}"
            )
        if not isinstance(doc.get("entries"), list):
            raise RegressError(f"{self.path}: 'entries' is not a list")
        return doc

    @property
    def entries(self) -> List[Dict[str, Any]]:
        return self.load()["entries"]

    def record(
        self,
        samples: Dict[str, Sequence[float]],
        *,
        config: Optional[Dict[str, Any]] = None,
        git_sha: Optional[str] = None,
        fingerprint: Optional[str] = None,
        recorded_unix: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Append one entry built from raw per-stage samples.

        Existing entries are never modified or dropped; the write is
        atomic.  Returns the appended entry.
        """
        repeats = {len(v) for v in samples.values() if len(v) > 0}
        require(bool(repeats), "samples must not be empty")
        n_repeats = min(repeats)
        if n_repeats < MIN_REPEATS:
            raise RegressError(
                f"need >= {MIN_REPEATS} repeats per stage for a "
                f"recordable IQR (got {n_repeats})"
            )
        doc = self.load()
        entry = {
            "recorded_unix": float(
                recorded_unix if recorded_unix is not None else time.time()
            ),
            "git_sha": git_sha if git_sha is not None else current_git_sha(),
            "fingerprint": (
                fingerprint if fingerprint is not None else machine_fingerprint()
            ),
            "repeats": int(n_repeats),
            "config": dict(config or {}),
            "stages": {
                stage: robust_stats(vals)
                for stage, vals in samples.items() if len(vals) > 0
            },
        }
        doc["entries"].append(entry)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_io.atomic_write_text(
            self.path, json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
        return entry

    def matching_entries(
        self, fingerprint: Optional[str] = None, *, any_fingerprint: bool = False
    ) -> List[Dict[str, Any]]:
        """Entries comparable to this host (or all, when opted in)."""
        entries = self.entries
        if any_fingerprint:
            return entries
        fp = fingerprint if fingerprint is not None else machine_fingerprint()
        return [e for e in entries if e.get("fingerprint") == fp]


# ---------------------------------------------------------------------------
# the regression check
# ---------------------------------------------------------------------------

@dataclass
class StageVerdict:
    """One stage's check against its recorded baseline."""

    stage: str
    current_median: float
    baseline_median: float
    baseline_iqr: float
    threshold: float
    ratio: float
    regressed: bool

    def row(self) -> str:
        flag = "REGRESSED" if self.regressed else "ok"
        return (f"  {self.stage:<18s} {self.current_median:12.6f} "
                f"{self.baseline_median:12.6f} {self.baseline_iqr:12.6f} "
                f"{self.threshold:12.6f} {self.ratio:8.3f}x  {flag}")


@dataclass
class RegressionReport:
    """The outcome of one ``repro perf check``."""

    workload: str
    k: float
    min_ratio: float
    fingerprint: str
    n_baseline_entries: int
    bootstrapped: bool
    verdicts: List[StageVerdict] = field(default_factory=list)

    @property
    def regressed(self) -> bool:
        return any(v.regressed for v in self.verdicts)

    @property
    def exit_code(self) -> int:
        return 1 if self.regressed else 0

    def text(self) -> str:
        lines = [
            f"perf check: workload {self.workload} "
            f"(k={self.k:g}, min_ratio={self.min_ratio:g}, "
            f"fingerprint {self.fingerprint})"
        ]
        if self.bootstrapped:
            lines.append(
                "  no comparable baseline entries — bootstrap pass "
                "(record this run to seed the trajectory)"
            )
            return "\n".join(lines)
        lines.append(f"  baseline: {self.n_baseline_entries} entries")
        lines.append(f"  {'stage':<18s} {'current (s)':>12s} {'base (s)':>12s} "
                     f"{'IQR (s)':>12s} {'threshold':>12s} {'ratio':>9s}")
        for v in self.verdicts:
            lines.append(v.row())
        lines.append("RESULT: " + ("REGRESSION DETECTED" if self.regressed
                                   else "no regression"))
        return "\n".join(lines)


def baseline_stats(
    entries: Sequence[Dict[str, Any]], stage: str
) -> Optional[Dict[str, float]]:
    """The robust baseline of one stage over matching entries.

    The baseline *median* is the median of the recorded entry medians
    (so one anomalous recording cannot shift the gate) and the baseline
    *IQR* is the median of the recorded IQRs (the typical run-to-run
    noise band on this machine).
    """
    meds = [float(e["stages"][stage]["median"])
            for e in entries if stage in e.get("stages", {})]
    iqrs = [float(e["stages"][stage]["iqr"])
            for e in entries if stage in e.get("stages", {})]
    if not meds:
        return None
    return {
        "median": statistics.median(meds),
        "iqr": statistics.median(iqrs),
        "n": float(len(meds)),
    }


def check_against(
    recorder: BenchRecorder,
    samples: Dict[str, Sequence[float]],
    *,
    k: float = DEFAULT_K,
    min_ratio: float = DEFAULT_MIN_RATIO,
    stages: Sequence[str] = ("UpdateEvents", "MDNorm", "BinMD", "Total"),
    fingerprint: Optional[str] = None,
    any_fingerprint: bool = False,
) -> RegressionReport:
    """Test current per-stage samples against the recorded trajectory.

    A stage regresses iff ``current_median > baseline_median + k * IQR``
    **and** ``current_median > min_ratio * baseline_median``.  With no
    comparable baseline entries the report bootstraps (passes) so a
    fresh machine or repo can seed its first entry.
    """
    require(k >= 0.0, "k must be >= 0")
    require(min_ratio >= 1.0, "min_ratio must be >= 1")
    fp = fingerprint if fingerprint is not None else machine_fingerprint()
    entries = recorder.matching_entries(fp, any_fingerprint=any_fingerprint)
    report = RegressionReport(
        workload=recorder.workload, k=k, min_ratio=min_ratio,
        fingerprint="any" if any_fingerprint else fp,
        n_baseline_entries=len(entries),
        bootstrapped=not entries,
    )
    if not entries:
        return report
    for stage in stages:
        vals = samples.get(stage)
        if not vals:
            continue
        base = baseline_stats(entries, stage)
        if base is None:
            continue
        cur = statistics.median([float(v) for v in vals])
        threshold = base["median"] + k * base["iqr"]
        ratio = cur / base["median"] if base["median"] > 0.0 else float("inf")
        regressed = cur > threshold and cur > min_ratio * base["median"]
        report.verdicts.append(StageVerdict(
            stage=stage,
            current_median=cur,
            baseline_median=base["median"],
            baseline_iqr=base["iqr"],
            threshold=threshold,
            ratio=ratio,
            regressed=regressed,
        ))
    return report


def default_bench_path(workload: str, directory: Optional[str] = None) -> Path:
    """``benchmarks/BENCH_<workload>.json`` in the repo checkout."""
    base = Path(directory) if directory else \
        Path(__file__).resolve().parents[3] / "benchmarks"
    return base / f"BENCH_{workload}.json"
