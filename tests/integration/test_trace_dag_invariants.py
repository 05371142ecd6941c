"""Merged-DAG invariants under adversarial elastic schedules.

Satellite of the causal-tracing PR: 50 seeded stealing campaigns across
world sizes {2, 3, 4} each write per-rank trace files, which must merge
back into ONE validating causal DAG per campaign — a single rooted
tree, every planned shard cell completing exactly once, every steal
link resolving to a real planning span, and a critical path no longer
than the measured wall-clock that contains it.
"""

import time
from typing import List

import numpy as np
import pytest

from repro.core.checkpoint import RecoveryConfig
from repro.core.md_event_workspace import convert_to_md, load_md, save_md
from repro.core.grid import HKLGrid
from repro.core.sharding import ShardConfig
from repro.crystal.goniometer import Goniometer
from repro.crystal.structures import benzil
from repro.crystal.symmetry import point_group
from repro.crystal.ub import UBMatrix
from repro.instruments.corelli import make_corelli
from repro.instruments.synth import make_flux, make_vanadium, synthesize_run
from repro.mpi import run_world
from repro.mpi.stealing import run_stealing_campaign
from repro.util import trace as trace_mod
from repro.util import tracedag
from repro.util.faults import RetryPolicy
from repro.util.schedule import ScheduleController

N_RUNS = 3
N_SHARDS = 2
N_SEEDS = 50
POLICY = RetryPolicy(max_attempts=3, base_delay_s=0.0)


@pytest.fixture(scope="module")
def exp(tmp_path_factory):
    base = tmp_path_factory.mktemp("dagfuzz")
    structure = benzil()
    instrument = make_corelli(n_pixels=24)
    ub = UBMatrix.from_u_vectors(structure.cell, [0.0, 0.0, 1.0],
                                 [1.0, 0.0, 0.0])
    grid = HKLGrid.benzil_grid(bins=(7, 7, 1))
    pg = point_group("321")
    flux = make_flux(instrument)
    vanadium = make_vanadium(instrument)
    md_paths: List[str] = []
    for i, omega in enumerate((0.0, 40.0, 80.0)):
        run = synthesize_run(
            instrument=instrument, structure=structure, ub=ub,
            goniometer=Goniometer(omega).rotation, n_events=60,
            rng=np.random.default_rng(7100 + i), run_number=i,
        )
        ws = convert_to_md(run, instrument, run_index=i)
        path = str(base / f"run_{i}.md.h5")
        save_md(path, ws)
        md_paths.append(path)
    return {
        "md_paths": md_paths,
        "kw": dict(
            n_runs=N_RUNS, grid=grid, point_group=pg, flux=flux,
            det_directions=instrument.directions,
            solid_angles=vanadium.detector_weights,
        ),
    }


def _traced_campaign(exp, seed, size, tmp_path):
    """One stealing campaign under a fresh campaign tracer; returns
    (merged DAG, wall seconds)."""
    tracer = trace_mod.Tracer(
        label=f"fuzz-{seed}",
        campaign_id=trace_mod.new_campaign_id(f"dagfuzz:{seed}:{size}"),
    )
    schedule = ScheduleController(seed=seed, policy="random", p_steal=1.0)

    def loader(i):
        return load_md(exp["md_paths"][i])

    def body(comm):
        return run_stealing_campaign(
            loader, comm=comm, recovery=RecoveryConfig(retry=POLICY),
            shards=ShardConfig(n_shards=N_SHARDS),
            schedule=schedule, **exp["kw"]
        )

    t_start = time.monotonic()
    with trace_mod.use_tracer(tracer):
        with tracer.span("campaign", kind="campaign", seed=int(seed)):
            results = run_world(size, body, barrier_timeout=60.0)
    wall = time.monotonic() - t_start
    roots = [r for r in results if r is not None
             and r.cross_section is not None]
    assert len(roots) == 1
    out = tmp_path / f"seed{seed}"
    tracer.write_jsonl_dir(str(out))
    return tracedag.merge_dir(str(out)), wall


def _assert_dag_invariants(dag, wall, *, seed, size):
    label = f"seed={seed} size={size}"
    report = dag.validate()

    # one rooted tree per campaign
    assert report["ok"], label
    assert report["roots"] == ["campaign"], label

    # every planned shard cell completes exactly once (validate already
    # rejects duplicates; here: none missing either)
    completed = {
        (n["attrs"]["run"], n["name"], n["attrs"]["shard"])
        for n in dag.spans.values()
        if n.get("kind") in ("steal", "steal_task")
        and n["attrs"].get("completed")
    }
    expected = {
        (run, f"steal:{stage}", shard)
        for run in range(N_RUNS)
        for stage in ("mdnorm", "binmd")
        for shard in range(N_SHARDS)
    }
    assert completed == expected, label

    # steal links tie the executing span to the real planning span
    steal_links = [l for l in dag.links if l["kind"] == "steal"]
    for link in steal_links:
        src, dst = dag.spans[link["src"]], dag.spans[link["dst"]]
        assert src.get("kind") == "steal", label
        assert dst.get("kind") == "plan_task", label
        assert (src["attrs"]["run"], src["attrs"]["shard"]) == \
            (dst["attrs"]["run"], dst["attrs"]["shard"]), label
    # random with p_steal=1.0 on >= 2 ranks must actually steal
    assert steal_links, label

    # critical path: a real root-to-leaf chain, no longer than the
    # wall-clock that contains the campaign
    chain = dag.critical_chain()
    assert chain[0]["name"] == "campaign", label
    assert len(chain) >= 2, label
    assert dag.critical_seconds() <= wall + 1e-6, label


@pytest.mark.parametrize("batch", range(5))
def test_fifty_seeded_campaigns_merge_into_valid_dags(
    exp, tmp_path, batch
):
    """10 seeds per batch x 5 batches = the 50-seed sweep, world size
    cycling {2, 3, 4} with the seed."""
    for seed in range(batch * 10, batch * 10 + 10):
        size = seed % 3 + 2
        dag, wall = _traced_campaign(exp, seed, size, tmp_path)
        _assert_dag_invariants(dag, wall, seed=seed, size=size)
