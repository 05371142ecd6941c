"""The paper's primary contribution: the cross-section reduction core.

Implements Mantid's ``MDNorm`` (trajectory normalization) and ``BinMD``
(event histogramming) as performance-portable kernels on the
:mod:`repro.jacc` layer, plus the Algorithm-1 driver that combines them
over MPI into the differential scattering cross-section
``sum(BinMD) / sum(MDNorm)``.

Module map (one file per algorithmic piece, mirroring the paper's
decomposition of the "monolithic closed-box" Mantid workflow):

* :mod:`repro.core.grid` — the output (H, K, L) histogram grid with its
  projection basis (Benzil bins along [H,H] / [H,-H] / [L]);
* :mod:`repro.core.hist3` — the 3-D thread-safe histogram (Hist3 /
  MDHistoWorkspace analogue) with atomic accumulation;
* :mod:`repro.core.md_event_workspace` — MDEvent storage + the
  raw-event -> Q_sample conversion and the SaveMD/LoadMD files the
  proxies load (the timed ``UpdateEvents`` stage);
* :mod:`repro.core.combsort` — the allocation-free in-kernel sort
  (scalar and lane-parallel variants);
* :mod:`repro.core.intersections` — trajectory/grid-plane intersection
  geometry;
* :mod:`repro.core.binmd` — BinMD kernels (scalar + batch);
* :mod:`repro.core.mdnorm` — MDNorm kernels (scalar + batch), including
  the max-intersections pre-pass;
* :mod:`repro.core.cross_section` — Algorithm 1 over a communicator;
* :mod:`repro.core.workflow` — file-driven end-to-end reduction with
  per-stage timing;
* :mod:`repro.core.geom_cache` — the memoized geometry/flux cache
  behind the MDNorm/BinMD hot path (LRU byte budget, content-digest
  keys, hit/miss counters).
"""

from repro.core.grid import HKLGrid
from repro.core.hist3 import Hist3
from repro.core.md_event_workspace import (
    MDEventWorkspace,
    convert_to_md,
    save_md,
    load_md,
)
from repro.core.combsort import comb_sort, comb_sort_rows
from repro.core.geom_cache import (
    DISABLED,
    CacheStats,
    GeomCache,
    default_cache,
    set_default_cache,
)
from repro.core.binmd import bin_events
from repro.core.mdnorm import mdnorm, max_intersections
from repro.core.cross_section import CrossSectionResult, compute_cross_section
from repro.core.workflow import ReductionWorkflow, WorkflowConfig
from repro.core.streaming import EventStream, StreamBatch, StreamingReduction
from repro.core.rebin import InMemoryReducer
from repro.core.peaks import PeakList, find_peaks, match_to_reflections
from repro.core.output import load_reduced, save_reduced
from repro.core.plan import ReductionPlan, load_plan, run_plan, save_plan
from repro.core.render import ascii_map, render_hist

__all__ = [
    "HKLGrid",
    "Hist3",
    "MDEventWorkspace",
    "convert_to_md",
    "save_md",
    "load_md",
    "comb_sort",
    "comb_sort_rows",
    "bin_events",
    "mdnorm",
    "max_intersections",
    "GeomCache",
    "CacheStats",
    "DISABLED",
    "default_cache",
    "set_default_cache",
    "CrossSectionResult",
    "compute_cross_section",
    "ReductionWorkflow",
    "WorkflowConfig",
    "EventStream",
    "StreamBatch",
    "StreamingReduction",
    "InMemoryReducer",
    "PeakList",
    "find_peaks",
    "match_to_reflections",
    "save_reduced",
    "load_reduced",
    "ReductionPlan",
    "load_plan",
    "run_plan",
    "save_plan",
    "ascii_map",
    "render_hist",
]
