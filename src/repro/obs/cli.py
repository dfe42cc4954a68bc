"""``python -m repro.obs`` / ``repro-obs`` — observe, record, compare.

Subcommands::

    repro-obs run --scheme GAg --workload eqntott [--ledger [DIR]]
    repro-obs history [--scheme S] [--workload W] [--limit N]
    repro-obs compare latest~1 latest
    repro-obs regress [--tolerance F] [--throughput-drop F] [--strict]
    repro-obs export-bench [--out BENCH_YYYYMMDD.json]
    repro-obs sweep gag-8 pag-8 gshare-8 --workers 4 --follow
    repro-obs sweep gag-8 pag-8 --trace-out results/sweep-trace.json
    repro-obs trace export results/sweep-spans.jsonl --out trace.json
    repro-obs trace summary results/sweep-spans.jsonl
    repro-obs metrics [--ledger DIR] [--out metrics.prom]
    repro-obs characterize --workload eqntott [--scheme S ...] [--max-k K]
    repro-obs attribute --scheme gag-12 --workload eqntott [--top N]

The original flat form (``python -m repro.obs --scheme GAg --workload
eqntott``) still works and means ``run`` — existing scripts and the
``make obs-demo`` target parse unchanged.

``run`` text output is the perf-style report of
:func:`repro.obs.report.format_report`; JSON output is the
schema-stable :meth:`RunReport.to_dict` payload (``schema:
"repro.obs/1"``). ``--ledger`` appends the run to the persistent run
ledger (:mod:`repro.obs.ledger`), where ``history`` / ``compare`` /
``regress`` audit it later. ``sweep --follow`` renders live per-worker
heartbeats (:mod:`repro.obs.live`) as a single status line on stderr.

``sweep --trace-out`` / ``--spans`` span-trace the whole sweep
(:mod:`repro.obs.spans`) and write a Perfetto-loadable Chrome trace /
a native spans JSONL; ``trace export`` / ``trace summary`` work with
those span files after the fact, and ``metrics`` renders the ledger as
Prometheus text exposition (:mod:`repro.obs.prom`).

``characterize`` runs the predictability characterization engine
(:mod:`repro.analysis.predictability`) on a workload or trace file and
prints / records the schema-stable ``repro.analysis.char`` report;
``attribute`` exposes the library-only misprediction breakdown,
per-site report and interference summary for one scheme without
writing python.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from ..sim.engine import SIM_BACKENDS, ContextSwitchConfig
from ..workloads.suite import BENCHMARK_ORDER
from . import log as obs_log
from .export import write_report
from .metrics import DEFAULT_INTERVAL_INSTRUCTIONS
from .report import format_report
from .runner import observe

__all__ = ["add_sweep_arguments", "build_parser", "main", "run_sweep"]

_SUBCOMMANDS = (
    "run", "history", "compare", "regress", "export-bench", "sweep", "trace",
    "metrics", "characterize", "attribute",
)

_DEFAULT_LEDGER = Path("results") / "ledger"


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scheme",
        required=True,
        help="registry scheme name (bare family names like 'GAg' mean the "
        "12-bit default, e.g. gag-12) or a Table 3 configuration string",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--workload",
        choices=BENCHMARK_ORDER,
        help="suite benchmark to generate and observe",
    )
    source.add_argument(
        "--trace", type=Path, help="pre-recorded trace file to observe instead"
    )
    parser.add_argument(
        "--training", type=Path, default=None,
        help="training trace file for gsg/psg/profile schemes "
        "(suite workloads supply their own when available)",
    )
    parser.add_argument(
        "--no-training", action="store_true",
        help="skip generating the workload's training trace",
    )
    parser.add_argument("--scale", type=int, default=1, help="workload scale factor")
    parser.add_argument(
        "--context-switches", action="store_true",
        help="enable the paper's context-switch model",
    )
    parser.add_argument(
        "--switch-interval", type=int, default=500_000,
        help="context-switch interval in instructions (default: 500000)",
    )
    parser.add_argument(
        "--interval", type=int, default=DEFAULT_INTERVAL_INSTRUCTIONS,
        help="interval-series window in instructions; 0 disables the series "
        f"(default: {DEFAULT_INTERVAL_INSTRUCTIONS})",
    )
    parser.add_argument(
        "--top", type=int, default=10, help="offender-table size (default: 10)"
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt",
        help="report rendering (default: text)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="also write the report to this file (same format as --format)",
    )
    parser.add_argument(
        "--events", type=Path, default=None,
        help="stream a JSONL event trace to this file",
    )
    parser.add_argument(
        "--events-sample", type=int, default=1,
        help="keep every Nth branch event in the event trace (default: 1)",
    )
    parser.add_argument(
        "--events-limit", type=int, default=None,
        help="cap the number of branch events written (default: unlimited)",
    )
    parser.add_argument(
        "--cprofile", action="store_true",
        help="capture a cProfile table of the simulate phase",
    )
    parser.add_argument(
        "--characterize", action="store_true",
        help="embed a predictability characterization report "
        "(repro.analysis.char) under the run report's extra payload",
    )
    _add_log_argument(parser)
    _add_ledger_argument(parser, "record the run in the persistent run ledger")


def _add_log_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log", choices=("text", "json"), default=None,
        help="enable run-id-scoped structured logging on stderr",
    )


def _add_ledger_argument(parser: argparse.ArgumentParser, help_text: str) -> None:
    parser.add_argument(
        "--ledger", type=Path, nargs="?", const=_DEFAULT_LEDGER, default=None,
        help=f"{help_text} (bare flag uses {_DEFAULT_LEDGER})",
    )


def _ledger_argument(parser: argparse.ArgumentParser) -> None:
    """Read-side commands: the ledger location, defaulting to on-disk."""
    parser.add_argument(
        "--ledger", type=Path, default=_DEFAULT_LEDGER,
        help=f"run-ledger directory (default: {_DEFAULT_LEDGER})",
    )


def _format_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt",
        help="output rendering (default: text)",
    )


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    if args.log is not None:
        obs_log.configure(fmt=args.log)
        obs_log.new_run_id("obs")

    trace = None
    training_trace = None
    if args.trace is not None:
        from ..trace.io import load_trace

        trace = load_trace(args.trace)
    if args.training is not None:
        from ..trace.io import load_trace

        training_trace = load_trace(args.training)

    context = (
        ContextSwitchConfig(interval=args.switch_interval)
        if args.context_switches
        else None
    )

    try:
        report = observe(
            args.scheme,
            workload=args.workload,
            scale=args.scale,
            trace=trace,
            training_trace=training_trace,
            train=False if args.no_training else None,
            context_switches=context,
            interval_instructions=args.interval or None,
            top_k=args.top,
            with_cprofile=args.cprofile,
            events_path=args.events,
            events_sample_every=args.events_sample,
            events_branch_limit=args.events_limit,
            characterize=args.characterize,
        )
    except (KeyError, ValueError) as exc:
        print(f"repro.obs: {exc}", file=sys.stderr)
        return 2

    if args.fmt == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(format_report(report, top=args.top))
    if args.out is not None:
        write_report(report, args.out, fmt=args.fmt, top=args.top)
    if args.ledger is not None:
        from .ledger import RunLedger, entry_from_report

        entry = RunLedger(args.ledger).append(entry_from_report(report, context=context))
        print(
            f"# ledger: run {entry.run_id} (seq {entry.seq}) -> {args.ledger}",
            file=sys.stderr,
        )
    return 0


# ----------------------------------------------------------------------
# history / compare / regress / export-bench
# ----------------------------------------------------------------------


def _no_runs_recorded(ledger_dir: Path, fmt: str) -> int:
    """The friendly empty/missing-ledger outcome for read-side commands.

    An empty or never-created ledger is a normal state (a fresh clone,
    a CI job before its first recorded run) — not an error: say so
    plainly and exit 0 rather than tracebacking or failing the step.
    """
    if fmt == "json":
        print(json.dumps([]))
    else:
        print(f"no runs recorded (ledger: {ledger_dir})")
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    from .ledger import RunLedger, format_history

    ledger = RunLedger(args.ledger)
    entries = ledger.history(
        scheme=args.scheme, workload=args.workload, kind=args.kind, limit=args.limit
    )
    if not entries and not len(ledger):
        return _no_runs_recorded(args.ledger, args.fmt)
    if args.fmt == "json":
        print(json.dumps([entry.to_dict() for entry in entries], indent=2))
    else:
        print(format_history(entries))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .ledger import RunLedger, compare_entries

    ledger = RunLedger(args.ledger)
    if not len(ledger):
        return _no_runs_recorded(args.ledger, args.fmt)
    try:
        entry_a = ledger.find(args.run_a)
        entry_b = ledger.find(args.run_b)
    except KeyError as exc:
        print(f"repro.obs: {exc.args[0]}", file=sys.stderr)
        return 2
    delta = compare_entries(entry_a, entry_b)
    if args.fmt == "json":
        print(json.dumps(delta.to_dict(), indent=2))
    else:
        print(delta.format_text())
    return 0


def _cmd_regress(args: argparse.Namespace) -> int:
    from .ledger import RunLedger, regress

    try:
        report = regress(
            RunLedger(args.ledger),
            tolerance=args.tolerance,
            throughput_drop=args.throughput_drop,
            window=args.window,
        )
    except ValueError as exc:
        print(f"repro.obs: {exc}", file=sys.stderr)
        return 2
    if args.fmt == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.format_text())
    return report.exit_code(strict=args.strict)


def _cmd_export_bench(args: argparse.Namespace) -> int:
    from .ledger import RunLedger, export_bench

    ledger = RunLedger(args.ledger)
    if args.out is not None:
        target = export_bench(ledger, args.out, date_stamp=args.date)
    else:
        stamp = args.date
        if stamp is None:
            newest = max((entry.timestamp for entry in ledger.entries()), default=0.0)
            stamp = time.strftime("%Y%m%d", time.gmtime(newest))
        target = export_bench(ledger, Path(f"BENCH_{stamp}.json"), date_stamp=stamp)
    print(f"wrote {target}")
    return 0


# ----------------------------------------------------------------------
# trace / metrics
# ----------------------------------------------------------------------


def _cmd_trace_export(args: argparse.Namespace) -> int:
    from .export import load_spans, write_chrome_trace
    from .resources import counters_from_spans
    from .spans import validate_span_tree

    try:
        spans = load_spans(args.spans)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"repro.obs: cannot read spans from {args.spans}: {exc}", file=sys.stderr)
        return 2
    problems = validate_span_tree(spans)
    for problem in problems:
        print(f"repro.obs: span tree: {problem}", file=sys.stderr)
    if problems and args.strict:
        return 1
    target = write_chrome_trace(
        spans, args.out, counters=counters_from_spans(spans), label=args.label
    )
    print(f"wrote {target} ({len(spans)} spans; load at https://ui.perfetto.dev)")
    return 0


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    from .export import load_spans
    from .spans import span_totals, validate_span_tree

    try:
        spans = load_spans(args.spans)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"repro.obs: cannot read spans from {args.spans}: {exc}", file=sys.stderr)
        return 2
    if not spans:
        print("no spans recorded")
        return 0
    problems = validate_span_tree(spans)
    pids = sorted({span.pid for span in spans})
    print(f"{len(spans)} spans across {len(pids)} process(es)")
    totals = span_totals(spans)
    width = max(len(name) for name in totals)
    for name in sorted(totals, key=lambda n: -totals[n]["seconds"]):
        bucket = totals[name]
        print(f"  {name:{width}s}  {bucket['seconds']:10.4f}s  x{int(bucket['count'])}")
    if problems:
        for problem in problems:
            print(f"span tree: {problem}", file=sys.stderr)
        return 1
    print("span tree: valid")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .ledger import RunLedger
    from .prom import render_metrics

    text = render_metrics(RunLedger(args.ledger), kind=args.kind)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


# ----------------------------------------------------------------------
# characterize / attribute
# ----------------------------------------------------------------------


def _resolve_analysis_traces(args: argparse.Namespace):
    """(test trace, training trace) for the analysis subcommands.

    ``--trace`` loads a recorded file; ``--workload`` generates the
    suite benchmark (plus its training trace when it has one, so
    training-dependent schemes like gsg/psg work out of the box).
    An explicit ``--training`` file overrides either.
    """
    from ..trace.io import load_trace

    training = None
    if args.trace is not None:
        test = load_trace(args.trace)
    else:
        from ..workloads.suite import get_workload

        bench = get_workload(args.workload)
        test = bench.generate("testing", scale=args.scale)
        if bench.has_training:
            training = bench.generate("training", scale=args.scale)
    if args.training is not None:
        training = load_trace(args.training)
    return test, training


def _context_from_args(args: argparse.Namespace) -> Optional[ContextSwitchConfig]:
    if not args.context_switches:
        return None
    return ContextSwitchConfig(interval=args.switch_interval)


def _cmd_characterize(args: argparse.Namespace) -> int:
    from ..analysis.predictability import (
        DEFAULT_MAX_K,
        DEFAULT_SCHEMES,
        characterization_counts,
        characterize,
        format_characterization,
    )

    if args.log is not None:
        obs_log.configure(fmt=args.log)
        obs_log.new_run_id("char")

    try:
        test_trace, training_trace = _resolve_analysis_traces(args)
    except (KeyError, ValueError, OSError) as exc:
        print(f"repro.obs: {exc}", file=sys.stderr)
        return 2

    max_k = args.max_k if args.max_k is not None else DEFAULT_MAX_K
    schemes = tuple(args.scheme) if args.scheme else DEFAULT_SCHEMES

    started = time.perf_counter()
    try:
        if args.verify:
            counts = {
                backend: characterization_counts(
                    test_trace,
                    max_k=max_k,
                    block_size=args.block_size,
                    backend=backend,
                )
                for backend in ("python", "vectorized")
            }
            if counts["python"] != counts["vectorized"]:
                print(
                    "repro.obs: backend mismatch — python and vectorized "
                    "characterization counts differ",
                    file=sys.stderr,
                )
                return 1
            print("# verify: python and vectorized counts identical", file=sys.stderr)
        report = characterize(
            test_trace,
            max_k=max_k,
            block_size=args.block_size,
            backend=args.backend,
            schemes=schemes,
            training_trace=training_trace,
            context_switches=_context_from_args(args),
            top=args.top,
        )
    except (KeyError, ValueError) as exc:
        print(f"repro.obs: {exc}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - started

    payload = report.to_dict()
    text = (
        json.dumps(payload, indent=2)
        if args.fmt == "json"
        else format_characterization(report, top=args.top)
    )
    print(text)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n", encoding="utf-8")
    if args.ledger is not None:
        from .ledger import RunLedger, entry_from_characterization

        entry = RunLedger(args.ledger).append(
            entry_from_characterization(payload, wall_time=wall)
        )
        print(
            f"# ledger: characterization {entry.run_id} (seq {entry.seq}) "
            f"-> {args.ledger}",
            file=sys.stderr,
        )
    return 0


def _cmd_attribute(args: argparse.Namespace) -> int:
    from ..analysis.breakdown import misprediction_breakdown, per_site_report
    from ..analysis.interference import interference_report
    from ..predictors.registry import make_predictor
    from .runner import normalize_scheme

    try:
        test_trace, training_trace = _resolve_analysis_traces(args)
    except (KeyError, ValueError, OSError) as exc:
        print(f"repro.obs: {exc}", file=sys.stderr)
        return 2

    scheme_name = normalize_scheme(args.scheme)
    context = _context_from_args(args)
    try:
        # Each replay needs a freshly built predictor (see simulate).
        breakdown = misprediction_breakdown(
            make_predictor(scheme_name, training_trace),
            test_trace,
            context_switches=context,
            block_size=args.block_size,
        )
        sites = per_site_report(
            make_predictor(scheme_name, training_trace),
            test_trace,
            top=args.top,
            block_size=args.block_size,
        )
        interference_text = interference_report(
            test_trace, history_bits=args.history_bits, block_size=args.block_size
        )
    except (KeyError, ValueError) as exc:
        print(f"repro.obs: {exc}", file=sys.stderr)
        return 2

    if args.fmt == "json":
        print(json.dumps(
            {
                "scheme": scheme_name,
                "workload": test_trace.meta.name,
                "dataset": test_trace.meta.dataset,
                "breakdown": {
                    "total_branches": breakdown.total_branches,
                    "total_misses": breakdown.total_misses,
                    "cold_misses": breakdown.cold_misses,
                    "post_flush_misses": breakdown.post_flush_misses,
                    "steady_misses": breakdown.steady_misses,
                    "accuracy": breakdown.accuracy,
                    "shares": breakdown.shares(),
                },
                "sites": [
                    {
                        "pc": site.pc,
                        "executions": site.executions,
                        "mispredictions": site.mispredictions,
                        "taken_rate": site.taken_rate,
                        "accuracy": site.accuracy,
                    }
                    for site in sites
                ],
                "interference": interference_text,
            },
            indent=2,
        ))
        return 0

    shares = breakdown.shares()
    lines = [
        f"# repro.obs attribute — {scheme_name} on {test_trace.meta.name}"
        + (f" ({test_trace.meta.dataset})" if test_trace.meta.dataset else ""),
        f"accuracy        : {breakdown.accuracy * 100:8.4f}%  "
        f"({breakdown.total_branches - breakdown.total_misses}"
        f"/{breakdown.total_branches} conditional branches)",
        "misprediction breakdown:",
        f"  cold       : {breakdown.cold_misses:8d}  ({shares['cold'] * 100:6.2f}%)",
        f"  post-flush : {breakdown.post_flush_misses:8d}  "
        f"({shares['post_flush'] * 100:6.2f}%)",
        f"  steady     : {breakdown.steady_misses:8d}  "
        f"({shares['steady'] * 100:6.2f}%)",
    ]
    if sites:
        lines.append("")
        lines.append(f"top {len(sites)} mispredicting static branches:")
        lines.append("          pc   mispred     execs   taken%   accuracy")
        for site in sites:
            lines.append(
                f"  {site.pc:#010x}  {site.mispredictions:8d}  "
                f"{site.executions:8d}   {site.taken_rate * 100:5.1f}%    "
                f"{site.accuracy * 100:6.2f}%"
            )
    lines.append("")
    lines.append(interference_text)
    print("\n".join(lines))
    return 0


# ----------------------------------------------------------------------
# sweep (shared with `repro-sim sweep`)
# ----------------------------------------------------------------------


def add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the sweep options (shared by repro-obs and repro-sim)."""
    parser.add_argument(
        "schemes", nargs="+",
        help="registry scheme names; bare family names mean the 12-bit default",
    )
    parser.add_argument(
        "--benchmarks", nargs="+", choices=BENCHMARK_ORDER, default=None,
        help="benchmark subset (default: all nine, paper order)",
    )
    parser.add_argument("--scale", type=int, default=1, help="workload scale factor")
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (results identical for any value)",
    )
    parser.add_argument(
        "--follow", action="store_true",
        help="render live per-worker heartbeats as a status line on stderr",
    )
    parser.add_argument(
        "--stale-after", type=float, default=30.0,
        help="seconds of worker silence before it is reported stale (default: 30)",
    )
    parser.add_argument(
        "--context-switches", action="store_true",
        help="enable the paper's context-switch model",
    )
    parser.add_argument(
        "--switch-interval", type=int, default=500_000,
        help="context-switch interval in instructions (default: 500000)",
    )
    parser.add_argument(
        "--backend", choices=SIM_BACKENDS, default="auto",
        help="simulation backend: auto (vectorized kernels where "
        "available, default), python (interpreted loop), vectorized "
        "(fail if no kernel applies); results are bit-identical",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=Path("results") / "cache",
        help="result-cache directory (default: results/cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache (always recompute)",
    )
    parser.add_argument(
        "--trace-out", type=Path, default=None,
        help="span-trace the sweep and write a Perfetto-loadable Chrome "
        "trace-event JSON file here (results are unaffected)",
    )
    parser.add_argument(
        "--spans", type=Path, default=None,
        help="span-trace the sweep and write the raw spans as JSONL here "
        "(one span per line; see 'repro-obs trace')",
    )
    _add_ledger_argument(parser, "record every cell in the persistent run ledger")
    _add_log_argument(parser)


def _render_matrix(matrix) -> List[str]:
    """Plain accuracy table: schemes x (benchmarks + the three GMeans)."""
    width = max([len(scheme) for scheme in matrix.schemes] + [6])
    columns = list(matrix.benchmarks) + ["Int GMean", "FP GMean", "Tot GMean"]
    lines = [" " * width + "  " + "  ".join(f"{name:>9s}" for name in columns)]
    for row in matrix.as_rows():
        cells = []
        for name in columns:
            value = row[name]
            if isinstance(value, float) and value > 0:
                cells.append(f"{value * 100:8.3f}%")
            else:
                cells.append(f"{'—':>9s}")
        lines.append(f"{row['scheme']:{width}s}  " + "  ".join(cells))
    return lines


def run_sweep(args: argparse.Namespace) -> int:
    """Execute a (schemes x benchmarks) sweep with optional --follow.

    Shared implementation behind ``repro-obs sweep`` and
    ``repro-sim sweep`` (both attach :func:`add_sweep_arguments`).
    """
    from ..sim.parallel import spec
    from ..sim.runner import run_matrix
    from ..trace.cache import ResultCache
    from ..workloads.suite import SuiteConfig, build_cases
    from .live import FollowPrinter, SweepMonitor
    from .runner import normalize_scheme

    if args.log is not None:
        obs_log.configure(fmt=args.log)
        obs_log.new_run_id("sweep")

    schemes = [normalize_scheme(name) for name in args.schemes]
    builders = {name: spec(name) for name in schemes}
    try:
        cases = build_cases(SuiteConfig(scale=args.scale, benchmarks=args.benchmarks))
    except ValueError as exc:
        print(f"repro.obs: {exc}", file=sys.stderr)
        return 2
    context = (
        ContextSwitchConfig(interval=args.switch_interval)
        if args.context_switches
        else None
    )
    result_cache = None if args.no_cache else ResultCache(args.cache_dir)

    tracer = None
    if args.trace_out is not None or args.spans is not None:
        from .spans import SpanCollector

        tracer = SpanCollector()

    progress = tick = None
    printer: Optional[FollowPrinter] = None
    if args.follow:
        monitor = SweepMonitor(
            total_cells=len(builders) * len(cases), stale_after=args.stale_after
        )
        printer = FollowPrinter(sys.stderr)

        def progress(beat) -> None:
            monitor.observe(beat)
            printer.update(monitor.status())

        def tick() -> None:
            printer.update(monitor.status())

    try:
        matrix = run_matrix(
            builders,
            cases,
            context_switches=context,
            n_workers=args.workers,
            result_cache=result_cache,
            progress=progress,
            tick=tick,
            backend=args.backend,
            tracer=tracer,
        )
    except (KeyError, ValueError) as exc:
        if printer is not None:
            printer.close()
        print(f"repro.obs: {exc}", file=sys.stderr)
        return 2
    if printer is not None:
        printer.close()

    for line in _render_matrix(matrix):
        print(line)
    if matrix.telemetry is not None:
        print(f"# {matrix.telemetry.summary_line()}", file=sys.stderr)
    if tracer is not None:
        from .export import write_chrome_trace, write_spans
        from .resources import counters_from_spans

        label = f"repro sweep: {' '.join(schemes)}"
        if args.spans is not None:
            target = write_spans(tracer.spans, args.spans)
            print(f"# spans: {len(tracer)} -> {target}", file=sys.stderr)
        if args.trace_out is not None:
            target = write_chrome_trace(
                tracer.spans,
                args.trace_out,
                counters=counters_from_spans(tracer.spans),
                label=label,
            )
            print(f"# trace: {len(tracer)} spans -> {target}", file=sys.stderr)
    if args.ledger is not None:
        from .ledger import RunLedger, entries_from_matrix

        recorded = RunLedger(args.ledger).extend(
            entries_from_matrix(matrix, context=context, spans=tracer)
        )
        print(f"# ledger: {len(recorded)} cells -> {args.ledger}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# Parser assembly and dispatch
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Observe simulation runs, record them in the run ledger, "
        "and monitor sweeps live.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run", help="observe one predictor on one workload (the default command)"
    )
    _add_run_arguments(run)
    run.set_defaults(handler=_cmd_run)

    history = subparsers.add_parser("history", help="list recorded runs")
    _ledger_argument(history)
    history.add_argument("--scheme", default=None, help="filter by scheme label")
    history.add_argument("--workload", default=None, help="filter by workload name")
    history.add_argument(
        "--kind", choices=("obs", "matrix", "bench", "char"), default=None,
        help="filter by entry kind",
    )
    history.add_argument(
        "--limit", type=int, default=None, help="show only the newest N runs"
    )
    _format_argument(history)
    history.set_defaults(handler=_cmd_history)

    compare = subparsers.add_parser("compare", help="diff two recorded runs")
    compare.add_argument(
        "run_a", help="run selector: a run-id prefix, 'latest', or 'latest~N'"
    )
    compare.add_argument("run_b", help="second run selector")
    _ledger_argument(compare)
    _format_argument(compare)
    compare.set_defaults(handler=_cmd_compare)

    regress_cmd = subparsers.add_parser(
        "regress",
        help="flag accuracy drift and throughput drops across recorded runs",
    )
    _ledger_argument(regress_cmd)
    regress_cmd.add_argument(
        "--tolerance", type=float, default=0.0,
        help="max tolerated |accuracy delta| vs the previous run "
        "(default: 0.0 — the simulator is deterministic)",
    )
    regress_cmd.add_argument(
        "--throughput-drop", type=float, default=0.5,
        help="warn when branches/sec falls this fraction below the rolling "
        "baseline (default: 0.5)",
    )
    regress_cmd.add_argument(
        "--window", type=int, default=5,
        help="rolling-baseline width in runs (default: 5)",
    )
    regress_cmd.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on warnings too, not just errors",
    )
    _format_argument(regress_cmd)
    regress_cmd.set_defaults(handler=_cmd_regress)

    export = subparsers.add_parser(
        "export-bench", help="write the BENCH_<YYYYMMDD>.json perf snapshot"
    )
    _ledger_argument(export)
    export.add_argument(
        "--out", type=Path, default=None,
        help="output path (default: BENCH_<date-of-newest-entry>.json)",
    )
    export.add_argument(
        "--date", default=None,
        help="override the YYYYMMDD stamp (for reproducible snapshots)",
    )
    export.set_defaults(handler=_cmd_export_bench)

    sweep = subparsers.add_parser(
        "sweep", help="(schemes x suite) sweep with --follow live monitoring"
    )
    add_sweep_arguments(sweep)
    sweep.set_defaults(handler=run_sweep)

    trace = subparsers.add_parser(
        "trace", help="work with recorded span traces (see sweep --spans)"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    trace_export = trace_sub.add_parser(
        "export", help="convert a spans JSONL file to a Perfetto-loadable trace"
    )
    trace_export.add_argument("spans", type=Path, help="spans JSONL file")
    trace_export.add_argument(
        "--out", type=Path, default=Path("trace.json"),
        help="Chrome trace-event JSON output path (default: trace.json)",
    )
    trace_export.add_argument(
        "--label", default="repro sweep", help="trace label shown in otherData"
    )
    trace_export.add_argument(
        "--strict", action="store_true",
        help="fail (exit 1) when the span tree has integrity problems",
    )
    trace_export.set_defaults(handler=_cmd_trace_export)

    trace_summary = trace_sub.add_parser(
        "summary", help="per-name span totals and tree integrity check"
    )
    trace_summary.add_argument("spans", type=Path, help="spans JSONL file")
    trace_summary.set_defaults(handler=_cmd_trace_summary)

    metrics = subparsers.add_parser(
        "metrics", help="render the run ledger as Prometheus text exposition"
    )
    _ledger_argument(metrics)
    metrics.add_argument(
        "--kind", choices=("obs", "matrix", "bench", "char"), default=None,
        help="restrict to one entry kind",
    )
    metrics.add_argument(
        "--out", type=Path, default=None,
        help="write the exposition to this file instead of stdout",
    )
    metrics.set_defaults(handler=_cmd_metrics)

    characterize_cmd = subparsers.add_parser(
        "characterize",
        help="predictability characterization & mispredict-attribution report",
    )
    char_source = characterize_cmd.add_mutually_exclusive_group(required=True)
    char_source.add_argument(
        "--workload", choices=BENCHMARK_ORDER,
        help="suite benchmark to generate and characterize",
    )
    char_source.add_argument(
        "--trace", type=Path, help="pre-recorded trace file to characterize instead"
    )
    characterize_cmd.add_argument(
        "--training", type=Path, default=None,
        help="training trace file for training-dependent attribution schemes "
        "(suite workloads supply their own when available)",
    )
    characterize_cmd.add_argument(
        "--scale", type=int, default=1, help="workload scale factor"
    )
    characterize_cmd.add_argument(
        "--scheme", action="append", default=None,
        help="attribution scheme to replay (repeatable; default: the "
        "registered paper configurations)",
    )
    characterize_cmd.add_argument(
        "--max-k", type=int, default=None,
        help="history depth K of the entropy/ideal-accuracy curves "
        "(default: 8)",
    )
    characterize_cmd.add_argument(
        "--block-size", type=int, default=None,
        help="streaming block size in records (default: the source's "
        "natural blocks; results are identical for any value)",
    )
    characterize_cmd.add_argument(
        "--backend", choices=("auto", "python", "vectorized"), default="auto",
        help="counting backend (results are bit-identical; default: auto)",
    )
    characterize_cmd.add_argument(
        "--verify", action="store_true",
        help="run both backends and fail (exit 1) unless their count "
        "tables are identical",
    )
    characterize_cmd.add_argument(
        "--top", type=int, default=20,
        help="per-site table size in the report (default: 20)",
    )
    characterize_cmd.add_argument(
        "--context-switches", action="store_true",
        help="enable the paper's context-switch model in attribution replays",
    )
    characterize_cmd.add_argument(
        "--switch-interval", type=int, default=500_000,
        help="context-switch interval in instructions (default: 500000)",
    )
    _format_argument(characterize_cmd)
    characterize_cmd.add_argument(
        "--out", type=Path, default=None,
        help="also write the report to this file (same format as --format)",
    )
    _add_log_argument(characterize_cmd)
    _add_ledger_argument(
        characterize_cmd, "record the characterization in the run ledger"
    )
    characterize_cmd.set_defaults(handler=_cmd_characterize)

    attribute_cmd = subparsers.add_parser(
        "attribute",
        help="misprediction breakdown, per-site report, and interference "
        "summary for one scheme",
    )
    attribute_cmd.add_argument(
        "--scheme", required=True,
        help="registry scheme name to attribute (bare family names mean "
        "the 12-bit default)",
    )
    attr_source = attribute_cmd.add_mutually_exclusive_group(required=True)
    attr_source.add_argument(
        "--workload", choices=BENCHMARK_ORDER,
        help="suite benchmark to generate and attribute",
    )
    attr_source.add_argument(
        "--trace", type=Path, help="pre-recorded trace file to attribute instead"
    )
    attribute_cmd.add_argument(
        "--training", type=Path, default=None,
        help="training trace file for gsg/psg/profile schemes",
    )
    attribute_cmd.add_argument(
        "--scale", type=int, default=1, help="workload scale factor"
    )
    attribute_cmd.add_argument(
        "--top", type=int, default=10,
        help="per-site table size (default: 10)",
    )
    attribute_cmd.add_argument(
        "--history-bits", type=int, default=12,
        help="history depth of the interference summary (default: 12)",
    )
    attribute_cmd.add_argument(
        "--block-size", type=int, default=None,
        help="streaming block size in records (results identical for any value)",
    )
    attribute_cmd.add_argument(
        "--context-switches", action="store_true",
        help="enable the paper's context-switch model",
    )
    attribute_cmd.add_argument(
        "--switch-interval", type=int, default=500_000,
        help="context-switch interval in instructions (default: 500000)",
    )
    _format_argument(attribute_cmd)
    attribute_cmd.set_defaults(handler=_cmd_attribute)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _SUBCOMMANDS:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    # Legacy flat form: `python -m repro.obs --scheme ... --workload ...`
    # behaves exactly like the `run` subcommand.
    parser = argparse.ArgumentParser(
        prog="repro.obs",
        description="Run one predictor on one workload with full observability. "
        f"(Subcommands also available: {', '.join(_SUBCOMMANDS)}.)",
    )
    _add_run_arguments(parser)
    args = parser.parse_args(argv)
    return _cmd_run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
