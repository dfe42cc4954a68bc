"""Command-line entry point: regenerate any table or figure.

Usage::

    repro-experiments list
    repro-experiments fig11
    repro-experiments fig6 --scale 2 --workers 4
    repro-experiments all --out results/ --workers 4
    repro-experiments fig11 --no-cache          # force recomputation

Execution knobs:

* ``--workers N`` fans each figure's (scheme x benchmark) cells out
  over N worker processes. Results are bit-identical to ``--workers 1``.
* Results are cached on disk (default ``results/cache``) keyed by a
  content-hash of trace + scheme + context-switch configuration, so a
  rerun only recomputes changed cells. ``--cache-dir`` relocates the
  cache; ``--no-cache`` disables it.

* ``--log text|json`` enables run-id-scoped structured logging on
  stderr (:mod:`repro.obs.log`); ``--ledger [DIR]`` appends every
  experiment cell to the persistent run ledger, where
  ``repro-obs history`` / ``regress`` can audit it later.

After each experiment the CLI prints a one-line telemetry summary
(cells simulated / cache hits / wall time) to stderr, and a final
structured run summary; ``--out`` also writes it as
``run_summary.json``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from ..sim.engine import SIM_BACKENDS
from ..trace.cache import ResultCache
from ..workloads.suite import SuiteConfig, build_cases
from .extras import ALL_EXTRAS
from .figures import ALL_FIGURES
from .tables import ALL_TABLES

__all__ = ["main", "run_experiment"]

_TRACELESS = {"table2", "table3"}

DEFAULT_CACHE_DIR = Path("results") / "cache"


def _experiment_ids() -> List[str]:
    return list(ALL_TABLES) + list(ALL_FIGURES) + list(ALL_EXTRAS)


def run_experiment(
    experiment_id: str,
    scale: int = 1,
    cases=None,
    n_workers: int = 1,
    result_cache: Optional[ResultCache] = None,
    backend: str = "auto",
):
    """Run one experiment by id, returning its result object.

    Args:
        experiment_id: a table/figure/extra id (see ``list``).
        scale: suite work multiplier (ignored when ``cases`` is given).
        cases: pre-built benchmark cases shared across experiments.
        n_workers: worker processes for matrix-producing drivers.
        result_cache: on-disk result cache for matrix-producing drivers.
        backend: simulation backend for drivers that simulate
            (``"auto"`` / ``"python"`` / ``"vectorized"``; results are
            bit-identical, see :data:`repro.sim.engine.SIM_BACKENDS`).

    Drivers that run no simulations (e.g. ``table2``) ignore the
    execution knobs; the knobs are forwarded only to drivers whose
    signature accepts them, so custom drivers stay compatible.
    """
    if experiment_id in ALL_TABLES:
        if experiment_id in _TRACELESS:
            return ALL_TABLES[experiment_id]()
        return ALL_TABLES[experiment_id](cases=cases, scale=scale)
    driver = ALL_FIGURES.get(experiment_id) or ALL_EXTRAS.get(experiment_id)
    if driver is None:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {', '.join(_experiment_ids())}"
        )
    kwargs = {"cases": cases, "scale": scale}
    parameters = inspect.signature(driver).parameters
    if "n_workers" in parameters:
        kwargs["n_workers"] = n_workers
    if "result_cache" in parameters:
        kwargs["result_cache"] = result_cache
    if "backend" in parameters:
        kwargs["backend"] = backend
    return driver(**kwargs)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of Yeh & Patt's "
        "'Alternative Implementations of Two-Level Adaptive Branch Prediction'.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default=None,
        help="experiment id (table1..table3, fig4..fig11), a group "
        "('tables', 'figures', 'extras', 'all'), or 'list'; optional "
        "when --characterize is given",
    )
    parser.add_argument(
        "--characterize",
        action="store_true",
        help="also run the predictability characterization sweep over the "
        "nine-benchmark suite (the extra-characterize experiment); usable "
        "alone or alongside an experiment id",
    )
    parser.add_argument("--scale", type=int, default=1, help="suite work multiplier")
    parser.add_argument("--out", type=Path, default=None, help="directory for .txt outputs")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes per experiment (results are identical for any value)",
    )
    parser.add_argument(
        "--backend",
        choices=SIM_BACKENDS,
        default="auto",
        help="simulation backend: auto (vectorized kernels where available, "
        "default), python (interpreted loop), vectorized (fail if no kernel "
        "applies); results are bit-identical",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=DEFAULT_CACHE_DIR,
        help=f"result-cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache (always recompute)",
    )
    parser.add_argument(
        "--log",
        choices=("text", "json"),
        default=None,
        help="enable run-id-scoped structured logging on stderr (see repro.obs.log)",
    )
    parser.add_argument(
        "--ledger",
        type=Path,
        nargs="?",
        const=Path("results") / "ledger",
        default=None,
        help="append every experiment cell to the run ledger "
        "(bare flag uses results/ledger)",
    )
    args = parser.parse_args(argv)

    if args.workers < 1:
        parser.error("--workers must be >= 1")

    if args.log is not None:
        from ..obs import log as obs_log

        obs_log.configure(fmt=args.log)
        obs_log.new_run_id("exp")

    if args.experiment == "list":
        for experiment_id in _experiment_ids():
            print(experiment_id)
        return 0

    groups = {
        "all": _experiment_ids(),
        "tables": list(ALL_TABLES),
        "figures": list(ALL_FIGURES),
        "extras": list(ALL_EXTRAS),
    }
    if args.experiment is None:
        if not args.characterize:
            parser.error("an experiment id is required (or pass --characterize)")
        targets = []
    else:
        targets = groups.get(args.experiment, [args.experiment])
    if args.characterize and "extra-characterize" not in targets:
        targets = targets + ["extra-characterize"]
    unknown = [
        t for t in targets
        if t not in ALL_TABLES and t not in ALL_FIGURES and t not in ALL_EXTRAS
    ]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    # Tables run no simulations; avoid creating a cache directory for them.
    needs_cache = not args.no_cache and any(t not in ALL_TABLES for t in targets)
    result_cache = ResultCache(args.cache_dir) if needs_cache else None

    cases = None
    if any(t not in _TRACELESS for t in targets):
        started = time.time()
        cases = build_cases(SuiteConfig(scale=args.scale))
        print(f"# suite traces ready in {time.time() - started:.1f}s", file=sys.stderr)

    run_summary = {
        "scale": args.scale,
        "workers": args.workers,
        "backend": args.backend,
        "cache": None if result_cache is None else str(result_cache.directory),
        "experiments": {},
    }
    for experiment_id in targets:
        started = time.time()
        result = run_experiment(
            experiment_id,
            scale=args.scale,
            cases=cases,
            n_workers=args.workers,
            result_cache=result_cache,
            backend=args.backend,
        )
        elapsed = time.time() - started
        text = result.render()
        print(text)
        entry = {"wall_time_s": round(elapsed, 3)}
        matrix = getattr(result, "matrix", None)
        telemetry = getattr(matrix, "telemetry", None)
        if telemetry is not None:
            entry["telemetry"] = telemetry.as_dict()
            print(f"# {experiment_id}: {telemetry.summary_line()}", file=sys.stderr)
        if args.ledger is not None and matrix is not None:
            from ..obs.ledger import RunLedger, entries_from_matrix

            recorded = RunLedger(args.ledger).extend(entries_from_matrix(matrix))
            print(
                f"# {experiment_id}: {len(recorded)} cells -> ledger {args.ledger}",
                file=sys.stderr,
            )
        char_reports = getattr(result, "extra", {}).get("reports")
        if args.ledger is not None and experiment_id == "extra-characterize" and char_reports:
            from ..obs.ledger import RunLedger, entry_from_characterization

            ledger = RunLedger(args.ledger)
            for name in sorted(char_reports):
                ledger.append(entry_from_characterization(char_reports[name]))
            print(
                f"# {experiment_id}: {len(char_reports)} characterizations "
                f"-> ledger {args.ledger}",
                file=sys.stderr,
            )
        run_summary["experiments"][experiment_id] = entry
        print(f"# {experiment_id} in {elapsed:.1f}s\n", file=sys.stderr)
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{experiment_id}.txt").write_text(text + "\n")

    totals = {
        "simulations": 0,
        "cache_hits": 0,
        "cache_misses": 0,
        "wall_time_s": 0.0,
    }
    for entry in run_summary["experiments"].values():
        totals["wall_time_s"] += entry["wall_time_s"]
        telemetry = entry.get("telemetry")
        if telemetry:
            totals["simulations"] += telemetry["simulations"]
            totals["cache_hits"] += telemetry["cache_hits"]
            totals["cache_misses"] += telemetry["cache_misses"]
    totals["wall_time_s"] = round(totals["wall_time_s"], 3)
    run_summary["totals"] = totals
    print(f"# run summary: {json.dumps(run_summary['totals'])}", file=sys.stderr)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "run_summary.json").write_text(json.dumps(run_summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
