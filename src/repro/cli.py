"""``repro-reduce`` / ``repro``: command-line entry points.

``repro-reduce`` (also ``repro reduce``) synthesizes (or reuses) a
workload and runs a chosen implementation of the cross-section
reduction, printing the paper-style stage timings.  ``repro trace``
runs a reduction under the structured tracer and writes the JSON-lines
trace (optionally a Chrome-trace file), then prints the paper-style
WCT summary derived from the trace alone.

Examples::

    repro-reduce --workload benzil --impl minivates --scale 0.001
    repro-reduce --workload bixbyite --impl garnet --files 2
    repro-reduce --workload benzil --impl all --files 6
    repro trace --workload benzil --impl core --ranks 2 \\
        --out trace.jsonl --chrome trace_chrome.json --validate
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import List, Optional

from repro.bench.harness import (
    A100_PROFILE,
    MI100_PROFILE,
    MeasuredRun,
    assert_results_match,
    run_cpp_proxy,
    run_garnet,
    run_minivates,
)
from repro.bench.workloads import benzil_corelli, bixbyite_topaz, build_workload
from repro.jacc import available_backends


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-reduce",
        description="Run the cross-section reduction on a synthetic workload.",
    )
    p.add_argument("--workload", choices=("benzil", "bixbyite"), default="benzil",
                   help="use case: Benzil/CORELLI or Bixbyite/TOPAZ")
    p.add_argument("--impl", choices=("garnet", "cpp", "minivates", "all"),
                   default="minivates", help="implementation to run")
    p.add_argument("--scale", type=float, default=None,
                   help="event/detector scale vs the paper (default REPRO_SCALE or 0.002)")
    p.add_argument("--files", type=int, default=None,
                   help="number of run files to synthesize/measure")
    p.add_argument("--device-profile", choices=("a100", "mi100"), default="a100",
                   help="MiniVATES device profile")
    p.add_argument("--check", action="store_true",
                   help="with --impl all: assert all implementations agree")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="also write timings and histogram statistics as JSON")
    p.add_argument("--peaks", type=int, default=0, metavar="N",
                   help="report the N strongest peaks of the cross-section")
    p.add_argument("--save", metavar="PATH", default=None,
                   help="write the reduced cross-section (with provenance) "
                        "to a reduced-data file")
    p.add_argument("--render", action="store_true",
                   help="render the cross-section slice as ASCII art")
    p.add_argument("--plan", metavar="PLAN_JSON", default=None,
                   help="run a reduction plan file instead of a synthetic "
                        "workload (ignores --workload/--impl/--scale/--files)")
    _add_oocore_flags(p, with_budget=False)
    _add_recovery_flags(p)
    return p


def _parse_size(text: str) -> int:
    """Byte sizes with optional K/M/G suffix: ``65536``, ``64K``, ``2M``."""
    from repro.util.units import SizeParseError, parse_size

    try:
        return parse_size(text)
    except SizeParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_chunk_events(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid chunk size {text!r} (expected a positive integer)"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"chunk size must be >= 1 event, got {text!r}"
        )
    return value


def _add_oocore_flags(
    p: argparse.ArgumentParser, *, with_budget: bool = True
) -> None:
    g = p.add_argument_group("out-of-core storage")
    g.add_argument("--chunk-events", type=_parse_chunk_events, default=None,
                   metavar="N",
                   help="store the synthesized run files in chunks of N "
                        "events, one independently compressed, CRC-checked "
                        "stream per column per chunk (h5lite format v2), "
                        "instead of one contiguous payload; changes the "
                        "workload cache key")
    if with_budget:
        g.add_argument("--memory-budget", type=_parse_size, default=None,
                       metavar="BYTES",
                       help="decoded-chunk tile-cache budget per run "
                            "(suffixes K/M/G); the core workflow then "
                            "reduces each run out of core through bounded "
                            "event windows instead of materializing the "
                            "table (requires --chunk-events run files; "
                            "--impl core only)")


def _add_shard_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("intra-run sharding (--impl core)")
    g.add_argument("--shards", type=int, default=None, metavar="N",
                   help="cut each run's MDNorm into N ranges of its "
                        "(op, detector) rows and its BinMD into N event "
                        "ranges, run in process; each range is one "
                        "batch-body launch, and the results "
                        "match in-memory vectorized bit for bit, for "
                        "every N")
    g.add_argument("--executor", choices=("static", "stealing"),
                   default=None,
                   help="campaign executor: the fixed rank-block plan "
                        "(static, default) or elastic work-stealing over "
                        "the rank x shard grid (bit-identical results "
                        "for every steal schedule)")


def _add_recovery_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("resilience")
    g.add_argument("--faults", metavar="PLAN_JSON", default=None,
                   help="inject faults per this JSON fault plan "
                        "(see repro.util.faults.FaultPlan)")
    g.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                   help="persist per-run deltas under DIR/<impl> so an "
                        "interrupted campaign can --resume")
    g.add_argument("--resume", action="store_true",
                   help="resume from --checkpoint-dir (completed runs "
                        "replay from disk, bit-identically)")


def _fault_plan_context(args):
    """``use_fault_plan`` context for ``--faults`` (no-op without it)."""
    if not getattr(args, "faults", None):
        return contextlib.nullcontext(), None
    from repro.util import faults as faults_mod

    plan = faults_mod.FaultPlan.from_file(args.faults)
    return faults_mod.use_fault_plan(plan), plan


def _recovery_for(args, impl: str, data):
    """Build the RecoveryConfig the resilience flags ask for (or None)."""
    if not (getattr(args, "faults", None) or getattr(args, "checkpoint_dir", None)
            or getattr(args, "resume", False)):
        return None
    from repro.core.checkpoint import (
        CheckpointManager,
        RecoveryConfig,
        campaign_digest,
    )

    if args.resume and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir")
    ckpt = None
    if args.checkpoint_dir:
        digest = campaign_digest(
            impl=impl,
            workload=data.spec.key,
            n_files=len(data.md_paths),
            grid_bins=list(data.grid.bins),
        )
        ckpt = CheckpointManager(os.path.join(args.checkpoint_dir, impl),
                                 config_digest=digest)
    return RecoveryConfig(checkpoint=ckpt, resume=bool(args.resume))


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)

    if args.plan:
        from repro.core.plan import load_plan, run_plan

        plan = load_plan(args.plan)
        print(f"running plan {args.plan} "
              f"({len(plan.runs)} runs, impl={plan.implementation})")
        result = run_plan(plan)
        print(result.timings.summary())
        if result.cross_section is not None:
            print(f"cross-section: {result.cross_section!r}")
        if args.save and result.cross_section is not None:
            from repro.core.output import save_reduced

            save_reduced(args.save, result, notes=f"plan {args.plan}")
            print(f"wrote reduced data to {args.save}")
        return 0

    make_spec = benzil_corelli if args.workload == "benzil" else bixbyite_topaz
    spec = make_spec(scale=args.scale, n_files=args.files,
                     chunk_events=args.chunk_events)
    print(spec.describe())
    data = build_workload(spec)
    profile = A100_PROFILE if args.device_profile == "a100" else MI100_PROFILE

    fault_ctx, fault_plan = _fault_plan_context(args)
    runs: List[MeasuredRun] = []
    with fault_ctx:
        if args.impl in ("garnet", "all"):
            if args.impl == "garnet" and (args.faults or args.checkpoint_dir):
                print("note: the garnet baseline runs without the recovery "
                      "layer (--faults/--checkpoint-dir ignored)")
            runs.append(run_garnet(data))
        if args.impl in ("cpp", "all"):
            runs.append(run_cpp_proxy(
                data, recovery=_recovery_for(args, "cpp", data)))
        if args.impl in ("minivates", "all"):
            runs.append(run_minivates(
                data, profile=profile,
                recovery=_recovery_for(args, "minivates", data)))

    for run in runs:
        print()
        print(f"== {run.label} ==")
        print(run.timings.summary())
        if run.result.cross_section is not None:
            print(f"cross-section: {run.result.cross_section!r}")
        if run.result.degraded:
            print(f"DEGRADED: quarantined runs {run.result.quarantined_runs}")
        rec_info = (run.result.extras or {}).get("recovery")
        if rec_info:
            print(f"recovery: {rec_info}")
        if run.extras:
            print(f"device stats: {run.extras}")
    if fault_plan is not None:
        print(f"\nfault plan {fault_plan.label or args.faults}: "
              f"{fault_plan.stats()}")

    if args.peaks > 0 and runs and runs[-1].result.cross_section is not None:
        from repro.core.peaks import find_peaks

        peaks = find_peaks(runs[-1].result.binmd).strongest(args.peaks)
        print(f"\nstrongest {peaks.n_peaks} peaks (H, K, L -> intensity):")
        for hkl, intensity in zip(peaks.hkl, peaks.intensity):
            print(f"  ({hkl[0]:+6.2f}, {hkl[1]:+6.2f}, {hkl[2]:+6.2f})"
                  f"  ->  {intensity:.4g}")

    if args.render and runs and runs[-1].result.binmd is not None:
        from repro.core.render import render_hist

        print()
        print(render_hist(runs[-1].result.binmd))

    if args.save and runs and runs[-1].result.cross_section is not None:
        from repro.core.output import save_reduced

        save_reduced(args.save, runs[-1].result,
                     notes=f"repro-reduce {args.workload}/{args.impl}")
        print(f"\nwrote reduced data to {args.save}")

    if args.check and len(runs) > 1:
        for other in runs[1:]:
            assert_results_match(runs[0], other)
        print("\nall implementations produced identical histograms")

    if args.json:
        import json

        payload = {
            "workload": spec.describe(),
            "runs": [
                {
                    "label": run.label,
                    "files_measured": run.files_measured,
                    "stages_s": {
                        stage: run.timings.seconds(stage)
                        for stage in ("UpdateEvents", "MDNorm", "BinMD",
                                      "MDNorm + BinMD", "Total")
                    },
                    "binmd_total": run.result.binmd.total(),
                    "mdnorm_total": run.result.mdnorm.total(),
                    "coverage": run.result.binmd.nonzero_fraction(),
                    "extras": run.extras,
                }
                for run in runs
            ],
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"\nwrote {args.json}")
    return 0


def _trace_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro trace",
        description="Run a reduction under the structured tracer and "
                    "export the trace.",
    )
    p.add_argument("--workload", choices=("benzil", "bixbyite"), default="benzil",
                   help="use case: Benzil/CORELLI or Bixbyite/TOPAZ")
    p.add_argument("--impl", choices=("core", "garnet", "cpp", "minivates"),
                   default="core", help="implementation to trace")
    p.add_argument("--scale", type=float, default=None,
                   help="event/detector scale vs the paper (default REPRO_SCALE or 0.002)")
    p.add_argument("--files", type=int, default=None,
                   help="number of run files to synthesize/measure")
    p.add_argument("--backend", default=None, choices=available_backends(),
                   help="jacc back end for --impl core")
    p.add_argument("--ranks", type=int, default=1,
                   help="simulated MPI world size (core/cpp/minivates)")
    _add_shard_flags(p)
    _add_oocore_flags(p)
    p.add_argument("--out", metavar="PATH", default="trace.jsonl",
                   help="JSON-lines trace output path")
    p.add_argument("--out-dir", metavar="DIR", default=None,
                   help="also write one trace file per rank stream under "
                        "DIR (the real-MPI layout `repro trace merge` "
                        "stitches back together)")
    p.add_argument("--chrome", metavar="PATH", default=None,
                   help="also write a chrome://tracing / Perfetto file")
    p.add_argument("--label", default=None, help="trace label (meta record)")
    p.add_argument("--validate", action="store_true",
                   help="validate the written file against the schema")
    p.add_argument("--summary", dest="summary", action="store_true",
                   default=True, help="print the WCT summary (default)")
    p.add_argument("--no-summary", dest="summary", action="store_false")
    _add_recovery_flags(p)
    return p


def _run_impl(
    impl: str,
    data,
    *,
    backend: Optional[str] = None,
    recovery=None,
    comm=None,
    shards: Optional[int] = None,
    memory_budget: Optional[int] = None,
    executor: Optional[str] = None,
) -> None:
    """Run one implementation of the reduction on a built workload."""
    if shards is not None and impl != "core":
        raise SystemExit(
            f"--shards applies to --impl core only (got {impl!r}); "
            f"the proxies own their parallelism"
        )
    if memory_budget is not None and impl != "core":
        raise SystemExit(
            f"--memory-budget applies to --impl core only (got {impl!r}); "
            f"the proxies materialize the event table"
        )
    if executor not in (None, "static") and impl != "core":
        raise SystemExit(
            f"--executor applies to --impl core only (got {impl!r}); "
            f"the proxies own their campaign loop"
        )
    if impl == "core":
        from repro.core.workflow import ReductionWorkflow, WorkflowConfig

        cfg = WorkflowConfig(
            md_paths=data.md_paths,
            flux_path=data.flux_path,
            vanadium_path=data.vanadium_path,
            instrument=data.instrument,
            grid=data.grid,
            point_group=data.point_group,
            backend=backend,
            recovery=recovery,
            shards=shards,
            memory_budget=memory_budget,
            executor=executor,
        )
        ReductionWorkflow(cfg).run(comm)
    elif impl == "cpp":
        from repro.proxy.cpp_proxy import CppProxyConfig, CppProxyWorkflow

        cfg = CppProxyConfig(
            md_paths=data.md_paths,
            flux_path=data.flux_path,
            vanadium_path=data.vanadium_path,
            instrument=data.instrument,
            grid=data.grid,
            point_group=data.point_group,
            recovery=recovery,
        )
        CppProxyWorkflow(cfg).run(comm)
    elif impl == "minivates":
        from repro.proxy.minivates import MiniVatesConfig, MiniVatesWorkflow

        cfg = MiniVatesConfig(
            md_paths=data.md_paths,
            flux_path=data.flux_path,
            vanadium_path=data.vanadium_path,
            instrument=data.instrument,
            grid=data.grid,
            point_group=data.point_group,
            recovery=recovery,
        )
        MiniVatesWorkflow(cfg).run(comm)
    else:  # garnet (no simulated-MPI support: multiprocess model)
        from repro.bench.harness import run_garnet

        run_garnet(data)


def trace_main(argv: Optional[List[str]] = None) -> int:
    """``repro trace``: one traced reduction -> JSON-lines (+ summary).

    ``repro trace summary`` (first positional token) instead summarizes
    or diffs previously written trace files without running anything.
    """
    from repro.bench.workloads import benzil_corelli, bixbyite_topaz, build_workload
    from repro.util import trace as trace_mod

    argv = list(sys.argv[1:] if argv is None else argv)
    offline = {"summary": trace_summary_main, "merge": trace_merge_main,
               "crit": trace_crit_main, "chrome": trace_chrome_main}
    if argv and argv[0] in offline:
        return _trace_errors_as_one_line(f"repro trace {argv[0]}",
                                         offline[argv[0]], argv[1:])
    args = _trace_parser().parse_args(argv)
    if args.memory_budget is not None and args.chunk_events is None:
        raise SystemExit("--memory-budget requires --chunk-events run files")
    make_spec = benzil_corelli if args.workload == "benzil" else bixbyite_topaz
    spec = make_spec(scale=args.scale, n_files=args.files,
                     chunk_events=args.chunk_events)
    print(spec.describe())
    data = build_workload(spec)

    # campaign id: stable config digest + per-invocation nonce, shared
    # by every per-rank trace file this run writes
    config_digest = (f"{args.workload}:{args.impl}:{args.backend or '-'}"
                     f":ranks={args.ranks}:shards={args.shards}")
    tracer = trace_mod.Tracer(
        label=args.label or f"{args.workload}/{args.impl}",
        campaign_id=trace_mod.new_campaign_id(config_digest),
    )

    recovery = (None if args.impl == "garnet"
                else _recovery_for(args, args.impl, data))

    def run_one(comm=None) -> None:
        _run_impl(args.impl, data, backend=args.backend,
                  recovery=recovery, comm=comm,
                  shards=args.shards, memory_budget=args.memory_budget,
                  executor=args.executor)

    fault_ctx, fault_plan = _fault_plan_context(args)
    with trace_mod.use_tracer(tracer), fault_ctx:
        # one campaign root: every span of the invocation (pre/post
        # work, the world, all ranks) descends from it, so the merged
        # DAG is a single rooted tree
        with tracer.span("campaign", kind="campaign",
                         workload=args.workload, impl=args.impl,
                         ranks=int(args.ranks)):
            if args.ranks > 1 and args.impl != "garnet":
                from repro.mpi.runner import run_world

                run_world(args.ranks, run_one)
            else:
                run_one()
    if fault_plan is not None:
        print(f"fault plan {fault_plan.label or args.faults}: "
              f"{fault_plan.stats()}")

    n = tracer.write_jsonl(args.out)
    print(f"\nwrote {n} records to {args.out}")
    if args.out_dir:
        paths = tracer.write_jsonl_dir(args.out_dir)
        print(f"wrote {len(paths)} per-rank trace files to {args.out_dir} "
              f"(merge with `repro trace merge {args.out_dir}`)")
    if args.chrome:
        n_events = tracer.write_chrome_trace(args.chrome)
        print(f"wrote {n_events} trace events to {args.chrome} "
              f"(load in chrome://tracing or ui.perfetto.dev)")
    if args.validate:
        from repro.util.trace import validate_file

        inventory = validate_file(args.out)
        print(f"validated {args.out}: schema {inventory['schema']}, "
              f"{inventory['n_spans']} spans, ranks {inventory['ranks']}, "
              f"{len(inventory['counters'])} counters")
    if args.summary:
        print()
        print(tracer.summary())
    return 0


def _trace_errors_as_one_line(prog: str, run, arg) -> int:
    """``run(arg)``, with an unreadable path (an ``OSError``) or an
    invalid trace file (a :class:`~repro.util.trace.TraceError`)
    reported as one ``prog: message`` line on stderr and exit status 1
    instead of a traceback."""
    from repro.util.trace import TraceError

    try:
        return run(arg)
    except (OSError, TraceError) as exc:
        print(f"{prog}: {exc}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# repro trace summary
# ---------------------------------------------------------------------------

def _trace_summary_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro trace summary",
        description="Summarize (or diff) previously written JSON-lines "
                    "trace files without running anything.",
    )
    p.add_argument("files", nargs="*", metavar="TRACE",
                   help="trace files and/or directories of *.jsonl to "
                        "report on (WCT table, kernels, shard fan-out, "
                        "stealing, recovery, counters/gauges)")
    p.add_argument("--compare", nargs=2, metavar=("A_JSONL", "B_JSONL"),
                   default=None,
                   help="differential WCT + per-kernel throughput report "
                        "(ratios are B over A; < 1 means B is faster)")
    return p


def trace_summary_main(argv: Optional[List[str]] = None) -> int:
    """``repro trace summary``: offline trace summaries and diffs."""
    from repro.util import trace as trace_mod

    args = _trace_summary_parser().parse_args(argv)
    if args.compare:
        from repro.util.perf import compare_traces

        path_a, path_b = args.compare
        _, rec_a = trace_mod.load_file(path_a)
        _, rec_b = trace_mod.load_file(path_b)
        print(compare_traces(rec_a, rec_b, label_a=path_a, label_b=path_b))
        return 0
    if not args.files:
        print("repro trace summary: give trace files or --compare A B",
              file=sys.stderr)
        return 2
    for i, path in enumerate(_expand_trace_paths(args.files)):
        meta, records = trace_mod.load_file(path)
        if i:
            print()
        print(trace_mod.summary_from_records(
            records, label=str(meta.get("label", ""))))
    return 0


# ---------------------------------------------------------------------------
# repro trace merge / crit / chrome  (the campaign DAG tooling)
# ---------------------------------------------------------------------------

def _expand_trace_paths(paths: List[str]) -> List[str]:
    """Trace file arguments, with directories expanded to their
    ``*.jsonl`` members (the ``--out-dir`` / per-rank layout)."""
    import glob as _glob

    from repro.util.trace import TraceError

    out: List[str] = []
    for p in paths:
        if os.path.isdir(p):
            members = sorted(_glob.glob(os.path.join(p, "*.jsonl")))
            if not members:
                raise TraceError(f"{p}: no *.jsonl trace files")
            out.extend(members)
        else:
            out.append(p)
    return out


def _merge_dag(paths: List[str]):
    from repro.util import tracedag

    return tracedag.merge_files(_expand_trace_paths(paths))


def trace_merge_main(argv: Optional[List[str]] = None) -> int:
    """``repro trace merge``: stitch per-process trace files into one
    validated causal DAG."""
    p = argparse.ArgumentParser(
        prog="repro trace merge",
        description="Merge per-rank/per-process JSON-lines trace files "
                    "into one campaign DAG and check its invariants.",
    )
    p.add_argument("paths", nargs="+", metavar="TRACE",
                   help="trace files and/or directories of *.jsonl")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the merged DAG document (JSON)")
    p.add_argument("--no-spans", action="store_true",
                   help="omit the span table from --out (summary only)")
    args = p.parse_args(argv)
    from repro.util import tracedag

    dag = _merge_dag(args.paths)
    report = dag.validate()
    print(f"campaign {report['campaign_id']}: "
          f"{report['n_files']} files, {report['n_spans']} spans, "
          f"{report['n_links']} links "
          f"({report['n_steal_links']} steal), "
          f"ranks {report['ranks']}")
    print(f"roots: {report['roots']}")
    print("DAG invariants: OK" if report["ok"] else "DAG invariants: FAIL")
    if args.out:
        tracedag.write_dag(args.out, dag,
                           include_spans=not args.no_spans)
        print(f"wrote merged DAG to {args.out}")
    return 0 if report["ok"] else 1


def trace_crit_main(argv: Optional[List[str]] = None) -> int:
    """``repro trace crit``: critical path + anomaly report of a merged
    campaign trace."""
    p = argparse.ArgumentParser(
        prog="repro trace crit",
        description="Critical-path / where-did-the-time-go report over "
                    "merged trace files.",
    )
    p.add_argument("paths", nargs="+", metavar="TRACE",
                   help="trace files and/or directories of *.jsonl")
    p.add_argument("--k", type=float, default=3.0,
                   help="anomaly threshold: median + k*IQR over sibling "
                        "spans (default 3.0)")
    p.add_argument("--min-ratio", type=float, default=1.5,
                   help="anomaly floor: flag only spans slower than "
                        "min-ratio * group median (default 1.5)")
    p.add_argument("--min-group", type=int, default=4,
                   help="minimum sibling group size to judge (default 4)")
    args = p.parse_args(argv)
    dag = _merge_dag(args.paths)
    dag.validate()
    print(dag.crit_report(k=args.k, min_ratio=args.min_ratio,
                          min_group=args.min_group))
    return 0


def trace_chrome_main(argv: Optional[List[str]] = None) -> int:
    """``repro trace chrome``: one Perfetto file from many per-process
    trace files (pid/tid rows namespaced by (rank, pid))."""
    p = argparse.ArgumentParser(
        prog="repro trace chrome",
        description="Merge per-process trace files into one "
                    "chrome://tracing / Perfetto JSON file.",
    )
    p.add_argument("paths", nargs="+", metavar="TRACE",
                   help="trace files and/or directories of *.jsonl")
    p.add_argument("--out", metavar="PATH", default="trace_chrome.json",
                   help="output path (default trace_chrome.json)")
    args = p.parse_args(argv)
    from repro.util import trace as trace_mod

    traces = [trace_mod.load_file(path)
              for path in _expand_trace_paths(args.paths)]
    n = trace_mod.write_chrome_trace(args.out, traces)
    print(f"wrote {n} trace events to {args.out} "
          f"(load in chrome://tracing or ui.perfetto.dev)")
    return 0


def repro_main(argv: Optional[List[str]] = None) -> int:
    """``repro <subcommand>``: the umbrella entry point.

    Subcommands: ``reduce`` (the classic ``repro-reduce`` CLI),
    ``trace`` (traced reduction + JSON-lines/Chrome export; ``trace
    summary|merge|crit|chrome`` for the offline trace report, the
    merged campaign DAG, its critical path and a merged Perfetto
    export).  The benchmark is ``perfbench/run.py``.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: repro {reduce,trace} [options]\n"
              "  reduce  run a reduction and print stage timings\n"
              "  trace   run a traced reduction and export the trace\n"
              "          (trace summary|merge|crit|chrome: the offline\n"
              "          trace report, campaign-DAG merge, critical\n"
              "          path, merged Perfetto export)\n"
              "run `repro <subcommand> --help` for options")
        return 0 if argv else 2
    cmd, rest = argv[0], argv[1:]
    if cmd == "reduce":
        return main(rest)
    if cmd == "trace":
        return trace_main(rest)
    print(f"repro: unknown subcommand {cmd!r} (expected reduce|trace)",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
