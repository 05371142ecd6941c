"""Reduction plans: file-driven configuration of a reduction.

Garnet drives the production reduction from per-experiment *reduction
files* (the paper's artifact description: "The CORELLI and TOPAZ
reduction files were modified to match the parameters used in the
proxies").  This module is that layer for this package: a JSON document
describing the inputs, the output grid, the symmetry and the execution
engine, loadable into any of the three implementations.

Example plan::

    {
      "runs": ["run_0000.md.h5", "run_0001.md.h5"],
      "flux": "flux.h5",
      "vanadium": "vanadium.h5",
      "instrument": "instrument.h5",
      "point_group": "321",
      "grid": {
        "projections": [[1, 1, 0], [1, -1, 0], [0, 0, 1]],
        "minimum": [-6.0, -6.0, -0.5],
        "maximum": [6.0, 6.0, 0.5],
        "bins": [151, 151, 1]
      },
      "implementation": "minivates",
      "backend_options": {"sort_impl": "library", "scatter_impl": "atomic"}
    }

Relative paths resolve against the plan file's directory, so a dataset
directory plus one plan file is a complete, portable reduction job.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.core.cross_section import CrossSectionResult
from repro.core.geom_cache import GeomCache
from repro.core.grid import HKLGrid
from repro.core.workflow import ReductionWorkflow, WorkflowConfig
from repro.crystal.symmetry import point_group
from repro.instruments.idf import read_instrument
from repro.util.validation import ValidationError, require

IMPLEMENTATIONS = ("core", "minivates", "cpp")


@dataclass
class ReductionPlan:
    """A parsed, path-resolved reduction plan."""

    runs: List[str]
    flux: str
    vanadium: str
    instrument: str
    point_group_symbol: str
    grid: HKLGrid
    implementation: str = "core"
    backend_options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require(len(self.runs) >= 1, "plan needs at least one run")
        require(self.implementation in IMPLEMENTATIONS,
                f"implementation must be one of {IMPLEMENTATIONS}")
        point_group(self.point_group_symbol)  # validate eagerly


def _resolve(base: Path, path: str) -> str:
    p = Path(path)
    return str(p if p.is_absolute() else base / p)


def load_plan(path: Union[str, os.PathLike]) -> ReductionPlan:
    """Parse and validate a plan file; relative paths resolve against it."""
    plan_path = Path(os.fspath(path))
    try:
        doc = json.loads(plan_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read plan {plan_path}: {exc}") from exc
    base = plan_path.resolve().parent

    for key in ("runs", "flux", "vanadium", "instrument", "point_group", "grid"):
        if key not in doc:
            raise ValidationError(f"plan is missing required key {key!r}")
    g = doc["grid"]
    for key in ("projections", "minimum", "maximum", "bins"):
        if key not in g:
            raise ValidationError(f"plan grid is missing {key!r}")
    projections = np.asarray(g["projections"], dtype=np.float64)
    if projections.shape != (3, 3):
        raise ValidationError("grid projections must be three 3-vectors")
    grid = HKLGrid(
        basis=projections.T,  # rows in the plan are basis vectors
        minimum=tuple(g["minimum"]),
        maximum=tuple(g["maximum"]),
        bins=tuple(g["bins"]),
        names=tuple(
            g.get("names", [str(list(v)) for v in g["projections"]])
        ),
    )
    return ReductionPlan(
        runs=[_resolve(base, r) for r in doc["runs"]],
        flux=_resolve(base, doc["flux"]),
        vanadium=_resolve(base, doc["vanadium"]),
        instrument=_resolve(base, doc["instrument"]),
        point_group_symbol=str(doc["point_group"]),
        grid=grid,
        implementation=doc.get("implementation", "core"),
        backend_options=dict(doc.get("backend_options", {})),
    )


def save_plan(path: Union[str, os.PathLike], plan: ReductionPlan) -> None:
    """Serialize a plan back to JSON (paths written as given)."""
    doc = {
        "runs": list(plan.runs),
        "flux": plan.flux,
        "vanadium": plan.vanadium,
        "instrument": plan.instrument,
        "point_group": plan.point_group_symbol,
        "grid": {
            "projections": plan.grid.basis.T.tolist(),
            "minimum": list(plan.grid.minimum),
            "maximum": list(plan.grid.maximum),
            "bins": list(plan.grid.bins),
            "names": list(plan.grid.names),
        },
        "implementation": plan.implementation,
        "backend_options": plan.backend_options,
    }
    Path(os.fspath(path)).write_text(json.dumps(doc, indent=2) + "\n")


def run_plan(
    plan: ReductionPlan,
    *,
    comm=None,
    cache: Optional[GeomCache] = None,
    prefetch: bool = False,
) -> CrossSectionResult:
    """Execute a plan with its chosen implementation.

    Parameters
    ----------
    cache:
        Geometry cache shared across plan executions (cross-panel
        reuse); None uses the process default.  Plans may instead set
        ``backend_options["geom_cache_bytes"]`` to get a plan-private
        cache of that budget.  ``backend_options["shards"]`` (plus
        optional ``"run_weights"``) turns on the hierarchical
        intra-run shard ranges — core implementation only.
    prefetch:
        Warm the cache (trajectory geometry + pre-pass + flux table for
        every run) before reducing — only meaningful for the ``core``
        implementation.
    """
    instrument = read_instrument(plan.instrument)
    pg = point_group(plan.point_group_symbol)
    opts = dict(plan.backend_options)
    budget = opts.pop("geom_cache_bytes", None)
    if budget is not None and cache is None:
        cache = GeomCache(byte_budget=int(budget))
    if plan.implementation != "core":
        # the proxies own their parallelism; intra-run sharding is the
        # core loop's second decomposition level
        bad = [k for k in ("shards", "shard_workers", "run_weights")
               if k in opts]
        if bad:
            raise ValidationError(
                f"backend_options {bad} require implementation='core' "
                f"(got {plan.implementation!r})"
            )

    if plan.implementation == "minivates":
        from repro.proxy.minivates import MiniVatesConfig, MiniVatesWorkflow

        cfg = MiniVatesConfig(
            md_paths=plan.runs,
            flux_path=plan.flux,
            vanadium_path=plan.vanadium,
            instrument=instrument,
            grid=plan.grid,
            point_group=pg,
            geom_cache=cache,
            **opts,
        )
        return MiniVatesWorkflow(cfg).run(comm=comm)
    if plan.implementation == "cpp":
        from repro.proxy.cpp_proxy import CppProxyConfig, CppProxyWorkflow

        cfg = CppProxyConfig(
            md_paths=plan.runs,
            flux_path=plan.flux,
            vanadium_path=plan.vanadium,
            instrument=instrument,
            grid=plan.grid,
            point_group=pg,
            **opts,
        )
        return CppProxyWorkflow(cfg).run(comm=comm)

    cfg = WorkflowConfig(
        md_paths=plan.runs,
        flux_path=plan.flux,
        vanadium_path=plan.vanadium,
        instrument=instrument,
        grid=plan.grid,
        point_group=pg,
        geom_cache=cache,
        **opts,
    )
    workflow = ReductionWorkflow(cfg)
    if prefetch:
        workflow.prefetch_geometry()
    return workflow.run(comm=comm)
