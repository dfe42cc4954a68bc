"""Simulation observability: probes, metrics, profiling and reports.

The subsystem splits into four layers, each usable on its own:

* :mod:`repro.obs.probes` — the :class:`Probe` callback surface the
  engine invokes, and :class:`ProbeSet` for composing observers. The
  engine's one interpreted loop guards each callback with ``if probing:``,
  and probes can never change a result (they only observe; the
  ``repro.check`` lints enforce it statically, the equivalence tests
  dynamically).
* :mod:`repro.obs.metrics` — interval accuracy series, mispredict-streak
  histograms, top-K offender tables, post-flush warm-up curves, and
  PHT/BHT occupancy + interference counters.
* :mod:`repro.obs.profile` — optional cProfile capture.
* :mod:`repro.obs.report` / :mod:`repro.obs.export` /
  :mod:`repro.obs.runner` — the schema-stable :class:`RunReport`, JSONL
  event traces, and the :func:`observe` orchestration behind
  ``python -m repro.obs``.
* :mod:`repro.obs.ledger` — the persistent, append-only run ledger
  (``results/ledger/``, content-addressed by config hash) and the
  regression sentinel behind ``repro-obs history/compare/regress``.
* :mod:`repro.obs.live` — per-worker sweep heartbeats, the
  :class:`SweepMonitor` aggregator and the ``--follow`` status line.
* :mod:`repro.obs.spans` / :mod:`repro.obs.resources` — hierarchical
  span tracing across worker processes (sweep → cell → phase → block)
  with per-cell resource readings, exported as Perfetto-loadable
  Chrome trace-event JSON (``repro-obs sweep --trace-out`` /
  ``repro-obs trace``). Spans are the one timing primitive: sweep cell
  phases and :class:`RunReport` timing are span durations.
* :mod:`repro.obs.prom` — the run ledger rendered as Prometheus text
  exposition (``repro-obs metrics``).
* :mod:`repro.obs.log` — run-id-scoped structured logging
  (off by default; ``repro.obs.log.configure`` enables it).

Quick start::

    from repro.obs import observe
    report = observe("gag-12", workload="eqntott")
    print(report.result.accuracy, report.streaks, report.offenders[0])

Cross-run memory::

    from repro.obs import RunLedger, entry_from_report, regress
    ledger = RunLedger("results/ledger")
    ledger.append(entry_from_report(report))
    print(regress(ledger).format_text())
"""

import importlib

#: Submodule -> the public names it defines. The package imports a
#: submodule only when one of its names is first read (PEP 562), so a
#: process that imports ``repro.obs.spans`` (as every kernel call's
#: tracing check does) loads that module alone, not the ledger, the
#: Prometheus renderer or cProfile.
_SUBMODULES = {
    "export": ("EventTraceProbe", "write_report"),
    "ledger": ("LEDGER_SCHEMA", "LedgerEntry", "RegressionFinding", "RegressionReport",
               "RunDelta", "RunLedger", "compare_entries", "compute_config_hash",
               "entries_from_matrix", "entry_from_benchmark", "entry_from_report",
               "export_bench", "format_history", "git_revision", "regress"),
    "live": ("FollowPrinter", "Heartbeat", "SweepMonitor", "SweepStatus", "WorkerState",
             "format_status"),
    "metrics": ("DEFAULT_INTERVAL_INSTRUCTIONS", "IntervalPoint", "IntervalSeriesProbe",
                "Offender", "StreakHistogramProbe", "TableStatsProbe", "TopOffendersProbe",
                "WarmupCurveProbe", "WarmupWindow"),
    "probes": ("Probe", "ProbeSet"),
    "profile": ("run_cprofile",),
    "prom": ("render_metrics",),
    "report": ("SCHEMA", "RunReport", "format_report"),
    "resources": ("ResourceSample", "read_resources"),
    "runner": ("normalize_scheme", "observe"),
    "spans": ("Span", "SpanCollector", "SpanRecorder", "recording", "to_chrome_trace"),
}
_EXPORTS = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = [
    "DEFAULT_INTERVAL_INSTRUCTIONS",
    "EventTraceProbe",
    "FollowPrinter",
    "Heartbeat",
    "IntervalPoint",
    "IntervalSeriesProbe",
    "LEDGER_SCHEMA",
    "LedgerEntry",
    "Offender",
    "Probe",
    "ProbeSet",
    "RegressionFinding",
    "RegressionReport",
    "ResourceSample",
    "RunDelta",
    "RunLedger",
    "RunReport",
    "SCHEMA",
    "Span",
    "SpanCollector",
    "SpanRecorder",
    "StreakHistogramProbe",
    "SweepMonitor",
    "SweepStatus",
    "TableStatsProbe",
    "TopOffendersProbe",
    "WarmupCurveProbe",
    "WarmupWindow",
    "WorkerState",
    "compare_entries",
    "compute_config_hash",
    "entries_from_matrix",
    "entry_from_benchmark",
    "entry_from_report",
    "export_bench",
    "format_history",
    "format_report",
    "format_status",
    "git_revision",
    "log",
    "normalize_scheme",
    "observe",
    "read_resources",
    "recording",
    "regress",
    "render_metrics",
    "run_cprofile",
    "to_chrome_trace",
    "write_report",
]


def __getattr__(name: str):
    """Import the submodule that defines ``name`` on first use."""
    if name == "log":
        return importlib.import_module(".log", __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
