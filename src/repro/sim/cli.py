"""``repro-sim`` — run any predictor over a trace file.

Examples::

    repro-sim run pag-12 trace.btb
    repro-sim run gag-12 big.btrs --block-size 65536   # bounded memory
    repro-sim run "GAg(HR(1,,18-sr),1xPHT(2^18,A2),)" trace.btb --context-switches
    repro-sim run profile trace.btb --training train.btb
    repro-sim run pag-12 trace.btb --ledger          # record in the run ledger
    repro-sim compare pag-12 gag-12 btb-a2 -- trace.btb
    repro-sim report pag-12 trace.btb --top 10
    repro-sim sweep gag-8 pag-8 gshare-8 --workers 4 --follow

``sweep`` evaluates schemes over the generated nine-benchmark suite
with the parallel runner and shares its flags with ``repro-obs sweep``
(``--follow`` live heartbeat status line, ``--ledger`` run recording).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from ..predictors.registry import make_predictor
from ..trace.io import load_trace
from ..trace.stream import open_trace_source
from .engine import SIM_BACKENDS, ContextSwitchConfig, simulate_with_backend

__all__ = ["build_parser", "main"]


def _load_training(path: Optional[Path]):
    return load_trace(path) if path is not None else None


def _context(args: argparse.Namespace) -> Optional[ContextSwitchConfig]:
    if not args.context_switches:
        return None
    return ContextSwitchConfig(interval=args.switch_interval)


def _cmd_run(args: argparse.Namespace) -> int:
    trace = open_trace_source(args.trace)
    predictor = make_predictor(args.predictor, _load_training(args.training))
    probe = None
    streaks = offenders = None
    if args.obs:
        from ..obs import ProbeSet, StreakHistogramProbe, TopOffendersProbe

        streaks = StreakHistogramProbe()
        offenders = TopOffendersProbe(k=5)
        probe = ProbeSet([streaks, offenders])
    started = time.perf_counter()
    result, backend = simulate_with_backend(
        predictor,
        trace,
        context_switches=_context(args),
        probe=probe,
        backend=args.backend,
        block_size=args.block_size,
    )
    wall = time.perf_counter() - started
    from ..obs.resources import read_resources

    sample = read_resources()
    print(result)
    print(
        f"# backend: {backend} | peak rss {sample.peak_rss_bytes // (1024 * 1024)} MiB",
        file=sys.stderr,
    )
    if args.ledger is not None:
        from ..obs.ledger import LedgerEntry, RunLedger

        entry = RunLedger(args.ledger).append(
            LedgerEntry(
                kind="obs",
                scheme=args.predictor,
                workload=result.trace_name,
                dataset=result.dataset,
                conditional_branches=result.conditional_branches,
                correct_predictions=result.correct_predictions,
                total_instructions=result.total_instructions,
                context_switches=result.context_switches,
                wall_time=wall,
                branches_per_sec=(
                    result.conditional_branches / wall if wall > 0 else 0.0
                ),
                phases={"simulate": wall},
                extra={
                    "backend": backend,
                    "rss_peak_bytes": sample.peak_rss_bytes,
                },
            )
        )
        print(f"# ledger: run {entry.run_id} -> {args.ledger}", file=sys.stderr)
    if result.context_switches:
        print(f"context switches: {result.context_switches}")
    if args.obs:
        print(
            f"streaks: {streaks.total_streaks} "
            f"(longest {streaks.max_streak}, mean {streaks.mean_streak():.2f})"
        )
        for offender in offenders.table():
            print(
                f"  pc {offender.pc:#010x}: {offender.mispredicts} misses / "
                f"{offender.executions} execs"
            )
        print("(full observability: python -m repro.obs)")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    trace = open_trace_source(args.trace)
    training = _load_training(args.training)
    rows = []
    for name in args.predictors:
        predictor = make_predictor(name, training)
        result, _backend = simulate_with_backend(
            predictor, trace, context_switches=_context(args), backend=args.backend,
            block_size=args.block_size,
        )
        rows.append((name, result.accuracy, result.mispredictions))
    rows.sort(key=lambda row: -row[1])
    width = max(len(name) for name, _a, _m in rows)
    for name, accuracy, misses in rows:
        print(f"{name:{width}s}  {accuracy * 100:6.2f}%  ({misses} misses)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from ..analysis.breakdown import misprediction_breakdown, per_site_report
    from ..analysis.interference import interference_report
    from ..trace.stream import StreamedTrace

    trace = open_trace_source(args.trace)
    if isinstance(trace, StreamedTrace):
        # The analysis passes replay the trace several times; for a
        # report-sized input materializing is the right trade.
        trace = trace.materialize()
    predictor = make_predictor(args.predictor, _load_training(args.training))
    breakdown = misprediction_breakdown(predictor, trace, context_switches=_context(args))
    shares = breakdown.shares()
    print(f"accuracy: {breakdown.accuracy * 100:.2f}%  "
          f"({breakdown.total_misses} misses over {breakdown.total_branches} branches)")
    print(f"  cold       : {shares['cold'] * 100:5.1f}%")
    print(f"  post-flush : {shares['post_flush'] * 100:5.1f}%")
    print(f"  steady     : {shares['steady'] * 100:5.1f}%")
    print()
    fresh = make_predictor(args.predictor, _load_training(args.training))
    print(f"worst {args.top} static branches:")
    for site in per_site_report(fresh, trace, top=args.top):
        print(
            f"  pc {site.pc:#010x}: {site.mispredictions:6d} misses / "
            f"{site.executions:7d} execs (taken {site.taken_rate * 100:5.1f}%, "
            f"accuracy {site.accuracy * 100:5.1f}%)"
        )
    print()
    print(interference_report(trace))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim", description="Run branch predictors over trace files."
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--training", type=Path, default=None,
                         help="training trace for profile/gsg/psg predictors")
        sub.add_argument("--context-switches", action="store_true")
        sub.add_argument("--switch-interval", type=int, default=500_000)
        sub.add_argument(
            "--backend", choices=SIM_BACKENDS, default="auto",
            help="simulation backend: auto (vectorized kernels where "
            "available, default), python (interpreted loop), vectorized "
            "(fail if no kernel applies); results are bit-identical. "
            "Probed runs (run --obs, report) always use the interpreted "
            "loop.",
        )
        sub.add_argument(
            "--block-size", type=int, default=None,
            help="records per simulation block; bounds peak memory for "
            ".btrs containers (default: whole trace for in-memory "
            "traces, 65536 records for streamed containers); results "
            "are bit-identical at any block size",
        )

    run = subparsers.add_parser("run", help="one predictor, one trace")
    run.add_argument("predictor")
    run.add_argument("trace", type=Path)
    run.add_argument("--obs", action="store_true",
                     help="print a streak/offender observability summary")
    run.add_argument(
        "--ledger", type=Path, nargs="?", const=Path("results") / "ledger",
        default=None,
        help="record the run in the persistent run ledger "
        "(bare flag uses results/ledger; see repro-obs history)",
    )
    common(run)
    run.set_defaults(handler=_cmd_run)

    compare = subparsers.add_parser("compare", help="several predictors, one trace")
    compare.add_argument("predictors", nargs="+")
    compare.add_argument("trace", type=Path)
    common(compare)
    compare.set_defaults(handler=_cmd_compare)

    report = subparsers.add_parser("report", help="misprediction breakdown + interference")
    report.add_argument("predictor")
    report.add_argument("trace", type=Path)
    report.add_argument("--top", type=int, default=10)
    common(report)
    report.set_defaults(handler=_cmd_report)

    # Deferred import: the obs package imports sim modules, so pulling
    # it in at sim.cli import time would cycle during package init.
    from ..obs.cli import add_sweep_arguments, run_sweep

    sweep = subparsers.add_parser(
        "sweep",
        help="(schemes x benchmark-suite) sweep with --follow live monitoring",
    )
    add_sweep_arguments(sweep)
    sweep.set_defaults(handler=run_sweep)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
