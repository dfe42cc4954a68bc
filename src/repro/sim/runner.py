"""Experiment runner: (schemes x benchmarks) -> result matrix.

The unit of evaluation is a :class:`BenchmarkCase` — a named testing
trace, its int/fp category, and an optional training trace (Table 2 has
"NA" training sets for four benchmarks; schemes that need training are
simply not run there, matching the blank points in Figure 11).

Execution of the cross product is delegated to
:mod:`repro.sim.parallel`, which adds worker-process fan-out, on-disk
result caching and run telemetry. The defaults (``n_workers=1``, no
cache) replay every cell serially in-process; any other configuration
is guaranteed to produce a bit-identical :class:`ResultMatrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence

from ..predictors.base import BranchPredictor, TrainingUnavailable
from ..trace.cache import ResultCache
from ..trace.events import Trace
from .engine import ContextSwitchConfig, simulate
from .results import ResultMatrix, SimulationResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..trace.stream import TraceSource

__all__ = [
    "BenchmarkCase",
    "PredictorBuilder",
    "run_case",
    "run_matrix",
    "sweep_parameter",
]

PredictorBuilder = Callable[[Optional[Trace]], BranchPredictor]
"""Builds a fresh predictor, given the benchmark's training trace (or
None). Raise :class:`TrainingUnavailable` to leave the cell blank.

Any callable works; :class:`repro.sim.parallel.PredictorSpec` builders
additionally survive pickling (parallel execution in worker processes)
and carry a stable cache key (on-disk result caching)."""


@dataclass(frozen=True)
class BenchmarkCase:
    """One benchmark of the evaluation suite.

    Attributes:
        name: benchmark name (e.g. ``"eqntott"``).
        category: ``"int"`` or ``"fp"`` — drives the GMean split.
        test_trace: the trace scored by the simulation — any bounded
            :class:`repro.trace.stream.TraceSource` (an in-memory
            :class:`~repro.trace.events.Trace` or an mmap-backed
            streamed container).
        training_trace: profiling input for GSg/PSg/Profile; ``None``
            when Table 2 lists "NA".
    """

    name: str
    category: str
    test_trace: "TraceSource"
    training_trace: Optional[Trace] = None

    def __post_init__(self) -> None:
        if self.category not in ("int", "fp"):
            raise ValueError(f"category must be 'int' or 'fp', got {self.category!r}")


def run_case(
    builder: PredictorBuilder,
    case: BenchmarkCase,
    context_switches: Optional[ContextSwitchConfig] = None,
    track_per_site: bool = False,
    probe=None,
    backend: str = "auto",
    block_size: Optional[int] = None,
) -> Optional[SimulationResult]:
    """Run one (scheme, benchmark) cell; None when training is missing.

    Args:
        builder: predictor builder; called with the case's training
            trace (or ``None``).
        case: the benchmark to score.
        context_switches: the paper's context-switch model, when given.
        track_per_site: collect per-static-branch statistics too.
        probe: optional :class:`repro.obs.Probe` observing the run;
            never affects the returned result (probed runs always take
            the interpreted backend).
        backend: simulation backend (``"auto"`` / ``"python"`` /
            ``"vectorized"``, see :data:`repro.sim.engine.SIM_BACKENDS`);
            backends are bit-identical wherever both apply.
        block_size: stream the test trace in blocks of at most this
            many records (see :func:`repro.sim.engine.simulate`);
            results are bit-identical for every block size.

    Deterministic: a fresh predictor is built for every call, so
    repeated invocations with the same inputs return identical counts.
    """
    try:
        predictor = builder(case.training_trace)
    except TrainingUnavailable:
        return None
    return simulate(
        predictor,
        case.test_trace,
        context_switches=context_switches,
        track_per_site=track_per_site,
        probe=probe,
        backend=backend,
        block_size=block_size,
    )


def run_matrix(
    builders: Mapping[str, PredictorBuilder],
    cases: Sequence[BenchmarkCase],
    context_switches: Optional[ContextSwitchConfig] = None,
    n_workers: int = 1,
    result_cache: Optional[ResultCache] = None,
    progress=None,
    tick=None,
    backend: str = "auto",
    tracer=None,
) -> ResultMatrix:
    """Evaluate every scheme on every benchmark.

    Args:
        builders: scheme label -> predictor builder. A fresh predictor
            is built per benchmark so state never leaks between traces.
        cases: the benchmark suite, figure order.
        context_switches: when given, applied to every simulation.
        n_workers: worker processes to fan the cells out over; ``1``
            (the default) runs a plain serial loop in this process.
            Every value of ``n_workers`` yields a bit-identical matrix —
            cells are independent, execute case-major (so each trace's
            first-level layouts are built once and shared through the
            kernels' layout memo), and are reassembled in scheme-major
            order.
        result_cache: optional on-disk cell cache
            (:class:`repro.trace.cache.ResultCache`). Cells whose
            builders carry a ``cache_key`` (e.g.
            :class:`~repro.sim.parallel.PredictorSpec`) are served from
            the cache when their trace + scheme + context-switch hash
            matches a previous run; plain callables always recompute.
        progress: optional live-monitoring hook receiving one
            :class:`repro.obs.live.Heartbeat` per cell event (see
            :func:`repro.sim.parallel.execute_matrix`); telemetry only,
            never affects results.
        tick: optional periodic callback for ``--follow`` renderers.
        backend: simulation backend for every cell (``"auto"`` /
            ``"python"`` / ``"vectorized"``). ``"auto"`` (the default)
            takes the vectorized kernels where a predictor has one and
            silently falls back otherwise; results are bit-identical
            either way, so the cache is shared across backends.
        tracer: optional :class:`repro.obs.spans.SpanCollector`; when
            given the whole sweep is span-traced (sweep → cell → phase
            → block hierarchy, worker spans returned with each cell's
            result — see
            :func:`repro.sim.parallel.execute_matrix`). Telemetry only,
            never affects results.

    Returns:
        A :class:`ResultMatrix` with one cell per (scheme, benchmark)
        that could be evaluated, and
        :attr:`~repro.sim.results.ResultMatrix.telemetry` describing
        how the run was satisfied (simulations vs cache hits, per-cell
        wall time).
    """
    from .parallel import execute_matrix  # deferred: parallel imports run_case

    return execute_matrix(
        builders,
        cases,
        context_switches=context_switches,
        n_workers=n_workers,
        result_cache=result_cache,
        progress=progress,
        tick=tick,
        backend=backend,
        tracer=tracer,
    )


def sweep_parameter(
    make_builder: Callable[[int], PredictorBuilder],
    values: Sequence[int],
    cases: Sequence[BenchmarkCase],
    label: Callable[[int], str] = str,
    context_switches: Optional[ContextSwitchConfig] = None,
    n_workers: int = 1,
    result_cache: Optional[ResultCache] = None,
    progress=None,
    tick=None,
    backend: str = "auto",
    tracer=None,
) -> ResultMatrix:
    """Evaluate a family of schemes indexed by one integer parameter.

    Used for the history-length sweeps of Figures 6 and 7. Accepts the
    same ``n_workers`` / ``result_cache`` / ``progress`` / ``backend`` /
    ``tracer`` knobs as :func:`run_matrix`.
    """
    builders = {label(value): make_builder(value) for value in values}
    return run_matrix(
        builders,
        cases,
        context_switches=context_switches,
        n_workers=n_workers,
        result_cache=result_cache,
        progress=progress,
        tick=tick,
        backend=backend,
        tracer=tracer,
    )
