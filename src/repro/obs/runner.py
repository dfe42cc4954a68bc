"""The observability runner: one observed run -> one :class:`RunReport`.

:func:`observe` is the orchestration behind ``python -m repro.obs``: it
builds a registered predictor, generates (or accepts) a workload trace,
assembles the standard metric probes into a
:class:`~repro.obs.probes.ProbeSet`, runs the simulation with each
phase timed as a span, and returns a fully-populated
:class:`~repro.obs.report.RunReport`.

It is also the library entry point — notebooks and experiment scripts
can call it directly, pass extra custom probes, or hand it a pre-built
trace to skip workload generation.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional, Union

from ..predictors.registry import make_predictor
from ..sim.engine import ContextSwitchConfig, simulate
from ..trace.events import Trace
from ..workloads.suite import get_workload
from .export import EventTraceProbe
from .metrics import (
    DEFAULT_INTERVAL_INSTRUCTIONS,
    IntervalSeriesProbe,
    StreakHistogramProbe,
    TableStatsProbe,
    TopOffendersProbe,
    WarmupCurveProbe,
)
from .probes import Probe, ProbeSet
from .profile import run_cprofile
from .report import RunReport
from .spans import SpanRecorder, span_totals

__all__ = ["normalize_scheme", "observe"]

#: Bare scheme names accepted as shorthand for their 12-bit-history
#: registry form — ``GAg`` means ``gag-12`` etc., mirroring the paper's
#: headline configurations.
_BARE_SCHEMES = ("gag", "pag", "pap", "gap", "gshare", "gsg", "psg")


def normalize_scheme(name: str) -> str:
    """Canonicalise a scheme name for :func:`make_predictor`.

    Bare family names (``"GAg"``, ``"pag"``) become their 12-bit
    default (``"gag-12"``, ``"pag-12"``); everything else is passed
    through lower-cased, except Table 3 configuration strings (which
    contain ``(`` and are case-significant).
    """
    text = name.strip()
    if "(" in text:
        return text
    lowered = text.lower()
    if lowered in _BARE_SCHEMES:
        return f"{lowered}-12"
    return lowered


def observe(
    scheme: str,
    workload: Optional[str] = None,
    scale: int = 1,
    trace: Optional[Trace] = None,
    training_trace: Optional[Trace] = None,
    train: Optional[bool] = None,
    context_switches: Optional[ContextSwitchConfig] = None,
    interval_instructions: Optional[int] = DEFAULT_INTERVAL_INSTRUCTIONS,
    top_k: int = 10,
    warmup_window_branches: int = 256,
    warmup_max_windows: int = 32,
    with_cprofile: bool = False,
    events_path: Optional[Union[str, Path]] = None,
    events_sample_every: int = 1,
    events_branch_limit: Optional[int] = None,
    extra_probes: Iterable[Probe] = (),
    characterize: bool = False,
    characterize_max_k: Optional[int] = None,
) -> RunReport:
    """Run ``scheme`` on ``workload`` with the full metric probe set.

    Args:
        scheme: friendly registry name (bare family names are
            normalised: ``"GAg"`` -> ``"gag-12"``) or a Table 3 string.
        workload: benchmark name (one of the nine suite workloads);
            ignored when ``trace`` is given.
        scale: workload generation scale (ignored with ``trace``).
        trace: pre-built testing trace, bypassing workload generation.
        training_trace: explicit training trace for training-dependent
            schemes (``gsg``/``psg``/``profile``).
        train: force (``True``) or suppress (``False``) generation of
            the workload's training trace; ``None`` generates it only
            when the workload has one and no explicit ``training_trace``
            was given.
        context_switches: the paper's context-switch model, when given.
        interval_instructions: interval-series window; ``None`` disables
            the series.
        top_k: offender-table size.
        warmup_window_branches / warmup_max_windows: warm-up curve
            resolution.
        with_cprofile: capture a cProfile table of the simulate phase.
        events_path: when given, stream a JSONL event trace there.
        events_sample_every / events_branch_limit: branch-event thinning
            for the event trace.
        extra_probes: additional user probes joined into the set.
        characterize: additionally run the predictability
            characterization engine
            (:func:`repro.analysis.predictability.characterize`) on
            the test trace — with the observed scheme as the only
            attribution replay — and embed its serialised report under
            ``report.extra["characterization"]``.
        characterize_max_k: history depth K of the characterization
            curves (default
            :data:`repro.analysis.predictability.DEFAULT_MAX_K`).

    Returns:
        The populated :class:`RunReport`. ``report.result`` is
        bit-identical to an unobserved ``simulate`` of the same inputs.
        Its ``timing`` holds the totals of the ``trace_load`` /
        ``build`` / ``simulate`` / ``characterize`` spans, timed on a
        recorder of this call's own (never enabled, so the engine adds
        no spans to it).
    """
    recorder = SpanRecorder()
    scheme_name = normalize_scheme(scheme)

    if trace is None:
        if workload is None:
            raise ValueError("either a workload name or a trace is required")
        bench = get_workload(workload)
        with recorder.span("trace_load", cat="phase"):
            test_trace = bench.generate("testing", scale=scale)
            if training_trace is None and train is not False and bench.has_training:
                training_trace = bench.generate("training", scale=scale)
        workload_name = workload
    else:
        test_trace = trace
        workload_name = workload or trace.meta.name

    with recorder.span("build", cat="phase"):
        predictor = make_predictor(scheme_name, training_trace)

    intervals = (
        IntervalSeriesProbe(interval_instructions)
        if interval_instructions
        else None
    )
    streaks = StreakHistogramProbe()
    offenders = TopOffendersProbe(k=top_k)
    warmup = WarmupCurveProbe(
        window_branches=warmup_window_branches, max_windows=warmup_max_windows
    )
    tables = TableStatsProbe()
    events = (
        EventTraceProbe(
            events_path,
            sample_every=events_sample_every,
            branch_limit=events_branch_limit,
        )
        if events_path is not None
        else None
    )

    probe_set = ProbeSet()
    for member in (intervals, streaks, offenders, warmup, tables, events):
        if member is not None:
            probe_set.add(member)
    for member in extra_probes:
        probe_set.add(member)

    profile_text: Optional[str] = None
    if with_cprofile:
        with recorder.span("simulate", cat="phase"):
            result, profile_text = run_cprofile(
                lambda: simulate(
                    predictor, test_trace, context_switches=context_switches, probe=probe_set
                )
            )
    else:
        with recorder.span("simulate", cat="phase"):
            result = simulate(
                predictor, test_trace, context_switches=context_switches, probe=probe_set
            )

    extra: dict = {}
    if characterize:
        from ..analysis.predictability import DEFAULT_MAX_K
        from ..analysis.predictability import characterize as run_characterize

        with recorder.span("characterize", cat="phase"):
            char_report = run_characterize(
                test_trace,
                max_k=(
                    characterize_max_k
                    if characterize_max_k is not None
                    else DEFAULT_MAX_K
                ),
                schemes=(scheme_name,),
                training_trace=training_trace,
                context_switches=context_switches,
            )
        extra["characterization"] = char_report.to_dict()

    return RunReport(
        scheme=scheme_name,
        workload=workload_name,
        dataset=test_trace.meta.dataset,
        result=result,
        interval_instructions=interval_instructions,
        intervals=intervals.points if intervals is not None else [],
        streaks=streaks.as_dict(),
        offenders=offenders.table(),
        warmup=warmup.curve(),
        warmup_segments=warmup.segments,
        tables=tables.snapshot,
        timing={
            name: {"seconds": total["seconds"], "calls": total["count"]}
            for name, total in sorted(span_totals(recorder.spans).items())
        },
        cprofile=profile_text,
        events_path=str(events.path) if events is not None else None,
        extra=extra,
    )
