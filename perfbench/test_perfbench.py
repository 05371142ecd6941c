"""The benchmark's own tests: tiny smokes of every workload, the metric
contract of BENCHMARK.json, the correctness check and the exact-sum
attribution.

Run from the root of the repository::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench.check import Reference, compare
from perfbench.layers import SELF_METRICS, UNATTRIBUTED, attribute

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
#: small enough for a smoke, large enough that every layer runs
SMOKE_SCALE = "0.0003"


def run_benchmark(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "0.5", "--trace", str(trace),
         "--scale", SMOKE_SCALE],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def smoke(request):
    name = request.param
    return name, run_benchmark(name, 0), run_benchmark(name, 1)


def test_every_metric_is_printed_with_its_unit(smoke):
    _, plain, traced = smoke
    for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        for metric in result["metrics"].values():
            assert math.isfinite(metric["value"])


def test_end_to_end_metrics_are_never_zero(smoke):
    _, plain, _ = smoke
    for name, metric in plain["metrics"].items():
        assert metric["value"] > 0, name


def test_self_times_sum_to_traced_total(smoke):
    _, _, traced = smoke
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    parts = sum(m[name] for name in SELF_METRICS.values()) + m[UNATTRIBUTED]
    assert parts == pytest.approx(m["trace.total_s"], rel=1e-9)
    assert all(m[name] >= 0 for name in SELF_METRICS.values())


def test_bypassed_layers_read_zero(smoke):
    name, _, traced = smoke
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    if name == "benzil_cold":
        assert m["nexus.chunks_decoded"] == 0
        assert m["sharding.shard_tasks"] == 0
        assert m["geom_cache.hit_ratio"] < 1.0
    if name == "bixbyite_warm":
        assert m["geom_cache.hit_ratio"] == 1.0
        assert m["geom_cache.inserted_bytes"] == 0
    if name == "benzil_ooc_shards":
        assert m["nexus.chunks_decoded"] > 0
        assert m["sharding.shard_tasks"] > 0
    if name == "benzil_stealing_ckpt":
        assert m["mpi.steal_tasks"] > 0
        assert m["checkpoint.bytes_written"] > 0


def _result(binmd, mdnorm, error_sq=None):
    return SimpleNamespace(
        binmd=SimpleNamespace(signal=binmd, error_sq=error_sq),
        mdnorm=SimpleNamespace(signal=mdnorm),
    )


def test_one_perturbed_bin_fails_the_check():
    rng = np.random.default_rng(0)
    binmd, err, mdnorm = (rng.random((151, 151, 1)) for _ in range(3))
    ref = Reference(binmd.copy(), err.copy(), mdnorm.copy())
    assert compare(_result(binmd, mdnorm, err), ref).ok

    def bump(a):
        out = a.copy()
        out[75, 75, 0] += 1e-9 * np.abs(a).max()
        return out

    cases = {
        "binmd.signal": (bump(binmd), mdnorm, err),
        "binmd.error_sq": (binmd, mdnorm, bump(err)),
        "mdnorm.signal": (binmd, bump(mdnorm), err),
    }
    for reason, args in cases.items():
        check = compare(_result(*args), ref)
        assert not check.ok and check.reason == reason

    tiny = mdnorm.copy()
    tiny[0, 0, 0] = np.nextafter(tiny[0, 0, 0], 2.0)
    check = compare(_result(binmd, tiny), ref)
    assert check.ok and check.mdnorm_bins_differ == 1


def test_attribution_sums_to_wall_clock_across_threads():
    # thread 1: binmd [1, 5] with a nested bin_index [2, 3];
    # thread 2: mdnorm [4, 7]; nothing runs in [0, 1] or [7, 8]
    transitions = [
        (1.0, 1, "binmd"), (2.0, 1, "grid.bin_index"), (3.0, 1, "binmd"),
        (5.0, 1, None), (4.0, 2, "mdnorm"), (7.0, 2, None),
    ]
    got = attribute(transitions, 0.0, 8.0)
    assert sum(got.values()) == pytest.approx(8.0)
    assert got[UNATTRIBUTED] == pytest.approx(2.0)
    assert got["grid.bin_index_s"] == pytest.approx(1.0)
    assert got["binmd.self_s"] == pytest.approx(2.5)   # [1,2] [3,4] + half of [4,5]
    assert got["mdnorm.self_s"] == pytest.approx(2.5)  # half of [4,5] + [5,7]


def _session_members(sid: int) -> list:
    members = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text()
        except (OSError, ValueError):  # not a process, or it just ended
            continue
        if int(stat.rpartition(")")[2].split()[3]) == sid:
            members.append(int(entry.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_no_process_outlives_a_run():
    # the pooled workload forks workers and starts the resource tracker
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "benzil_ooc_shards",
         "--seed", "5", "--seconds", "0.5", "--trace", "0",
         "--scale", SMOKE_SCALE],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    out, err = proc.communicate(timeout=600)
    assert proc.returncode == 0, err
    assert _session_members(proc.pid) == []
    assert "resource_tracker" not in err
    record = json.loads(out.strip().splitlines()[-2].split(" ", 1)[1])
    assert record["host_speed_factor"] > 0


def test_run_without_sources_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
