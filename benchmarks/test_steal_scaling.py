"""Elastic work-stealing vs the static plan on a skewed campaign.

When the run weights are skewed enough that one rank's static block
holds nearly all the stored bytes, the idle rank must actually steal,
and the steal schedule must stay invisible in every histogram.

The runs are stored chunked and read out of core under a budget of one
decoded chunk, so every BinMD shard task is one chunk window: the heavy
run carries ``HEAVY_EVENTS / CHUNK_EVENTS`` of them against a light
run's ``LIGHT_EVENTS / CHUNK_EVENTS``, at every scale.  Its extra work
is then whole tasks, which no thread interleaving hides — with in-memory runs
a task's fixed cost dwarfs its per-event cost at small scales, the
heavy run costs what a light one does, and whether a rank idles long
enough to steal is decided by thread switching alone.

Both legs run on the *same* substrate — ``run_stealing_campaign`` with
``ShardConfig(n_shards=4)`` over two ranks — and differ only in the
schedule policy:

* baseline: ``no-steal``, which degenerates to exactly the static
  owner-block plan (proven by the conformance suite in
  ``tests/integration/test_stealing.py``);
* contender: ``weighted``, where the idle rank steals the heavy run's
  shard tasks off its owner's queue tail.

Every task runs in the thread of the rank that claimed it; this smoke
checks bit-identity and that steals happened.
"""

import os

import numpy as np
import pytest

N_SHARDS = 4
SCALE = float(os.environ.get("REPRO_SCALE", 0.002))

#: events in the one heavy run vs each of the three light runs; at the
#: default scale the heavy run is ~97% of the campaign's stored bytes
HEAVY_EVENTS = max(400, int(6_000_000 * SCALE))
LIGHT_EVENTS = max(40, HEAVY_EVENTS // 40)
N_PIXELS = max(24, int(200_000 * SCALE))
#: events per stored chunk; the tile budget holds one chunk of BinMD's
#: five float64 columns, so every BinMD task is one chunk window
CHUNK_EVENTS = 25
MEMORY_BUDGET = CHUNK_EVENTS * 5 * 8


@pytest.fixture(scope="module")
def skewed(tmp_path_factory):
    """One heavy run + three light runs: the worst case for a static
    owner-block plan, the best case for shard-level stealing."""
    from repro.core.grid import HKLGrid
    from repro.core.md_event_workspace import convert_to_md, load_md, save_md
    from repro.crystal.goniometer import Goniometer
    from repro.crystal.structures import benzil
    from repro.crystal.symmetry import point_group
    from repro.crystal.ub import UBMatrix
    from repro.instruments.corelli import make_corelli
    from repro.instruments.synth import (
        make_flux,
        make_vanadium,
        synthesize_run,
    )

    base = tmp_path_factory.mktemp("steal_bench")
    structure = benzil()
    instrument = make_corelli(n_pixels=N_PIXELS)
    ub = UBMatrix.from_u_vectors(structure.cell, [0.0, 0.0, 1.0],
                                 [1.0, 0.0, 0.0])
    paths = []
    for i, omega in enumerate((0.0, 30.0, 60.0, 90.0)):
        n_events = HEAVY_EVENTS if i == 0 else LIGHT_EVENTS
        run = synthesize_run(
            instrument=instrument, structure=structure, ub=ub,
            goniometer=Goniometer(omega).rotation, n_events=n_events,
            rng=np.random.default_rng(8800 + i), run_number=i,
        )
        path = str(base / f"run_{i}.md.h5")
        save_md(path, convert_to_md(run, instrument, run_index=i),
                chunk_events=CHUNK_EVENTS, codec="zlib")
        paths.append(path)
    data = dict(
        loader=lambda i: load_md(paths[i], memory_budget=MEMORY_BUDGET),
        kw=dict(
            n_runs=4,
            grid=HKLGrid.benzil_grid(bins=(21, 21, 1)),
            point_group=point_group("321"),
            flux=make_flux(instrument),
            det_directions=instrument.directions,
            solid_angles=make_vanadium(instrument).detector_weights,
        ),
    )
    return data


def _campaign(data, policy, seed):
    from repro.core.sharding import ShardConfig
    from repro.mpi import run_world
    from repro.mpi.stealing import run_stealing_campaign
    from repro.util.schedule import ScheduleController

    schedule = ScheduleController(seed=seed, policy=policy)

    def body(comm):
        return run_stealing_campaign(
            data["loader"], comm=comm,
            shards=ShardConfig(n_shards=N_SHARDS),
            schedule=schedule, **data["kw"])

    out = run_world(2, body, barrier_timeout=600.0)
    roots = [r for r in out
             if r is not None and r.cross_section is not None]
    assert len(roots) == 1
    return roots[0]


@pytest.fixture(scope="module")
def legs(skewed):
    return {
        "static": _campaign(skewed, "no-steal", seed=0),
        "stealing": _campaign(skewed, "weighted", seed=42),
    }


def test_stealing_bit_identical_to_static(legs):
    """The determinism half: the steal schedule must be invisible in
    every histogram, bit for bit."""
    static, steal = legs["static"], legs["stealing"]
    assert np.array_equal(steal.binmd.signal, static.binmd.signal)
    assert np.array_equal(steal.binmd.error_sq, static.binmd.error_sq)
    assert np.array_equal(steal.mdnorm.signal, static.mdnorm.signal)
    assert np.array_equal(steal.cross_section.signal,
                          static.cross_section.signal, equal_nan=True)


def test_stealing_actually_stole(legs):
    """The weighted leg must have moved work off the heavy rank —
    otherwise the bit-identity test above compares two static plans."""
    static, steal = legs["static"], legs["stealing"]
    assert static.extras["stealing"]["steals"] == 0
    assert steal.extras["stealing"]["steals"] > 0
