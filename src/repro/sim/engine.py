"""The trace-driven branch prediction simulator (paper §4).

For every conditional branch in a trace the engine asks the predictor
for a direction, scores it against the recorded outcome, then informs
the predictor of the outcome. Non-conditional branches advance the
instruction clock but are not predicted (the paper studies conditional
branches only).

Context switches (paper §5.1.4) are simulated when enabled: whenever a
trap occurs in the trace, or every ``interval`` dynamic instructions if
no trap occurs, the engine calls ``predictor.on_context_switch()`` —
which flushes the branch history table but leaves pattern history
tables alone.

Observability (see :mod:`repro.obs`): ``simulate`` optionally accepts a
*probe* — any object with the :class:`repro.obs.Probe` callback surface
(``on_run_start``, ``on_branch``, ``on_interval``, ``on_context_switch``,
``on_run_end``). Probed and unprobed runs share one interpreted loop:
the callbacks are fetched once per run and each is guarded by a local
``if probing:`` test, so a probe-less run pays one truth test per
callback site and nothing else. Results are bit-identical either way
because probes only *observe* (the purity lint in :mod:`repro.check`
enforces that they cannot mutate predictor state).

Backends: the interpreted loop above is the reference semantics, and
``backend="vectorized"`` swaps in the batch kernels of
:mod:`repro.sim.kernels` — one per scheme, run over the whole trace or
folded over blocks with carried state, bit-identical either way and
pinned by the equivalence and differential suites. ``backend="auto"``
prefers the kernel and falls back to the interpreted loop only when the
predictor has none or the trace breaks a kernel precondition; probed
runs always take the interpreted loop, because probes observe
per-record state that batch evaluation never materialises.

Trace inputs: every entry point accepts any
:class:`repro.trace.stream.TraceSource` — an in-memory
:class:`~repro.trace.events.Trace`, an mmap-backed
:class:`~repro.trace.stream.StreamedTrace`, or a bounded synthetic
generator source. Passing ``block_size`` streams the replay in blocks
of at most that many records (peak memory tracks the block size, not
the trace length) with results bit-identical to the whole-trace run —
predictor state, warmup accounting and the absolute context-switch
epochs all carry across block boundaries.
"""

from __future__ import annotations

from itertools import chain
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

from ..predictors.base import BranchPredictor
from ..trace.events import BranchClass, Trace
from .results import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..trace.stream import TraceSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs imports sim)
    from ..obs.probes import Probe

__all__ = [
    "ContextSwitchConfig",
    "SIM_BACKENDS",
    "simulate",
    "simulate_named",
    "simulate_with_backend",
]

_T = TypeVar("_T")

SIM_BACKENDS: Tuple[str, ...] = ("auto", "python", "vectorized")
"""Accepted ``backend`` arguments: ``"python"`` is the interpreted
reference loop, ``"vectorized"`` requires a batch kernel, ``"auto"``
uses a kernel when one exists and falls back otherwise."""


@dataclass(frozen=True)
class ContextSwitchConfig:
    """Context-switch model parameters.

    The paper derives 500 000 instructions from a 50 MHz, 1-IPC machine
    switching every 10 ms, and additionally switches at every trap.
    """

    interval: int = 500_000
    switch_on_traps: bool = True

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError("context-switch interval must be >= 1 instruction")


def simulate(
    predictor: BranchPredictor,
    trace: "TraceSource",
    context_switches: Optional[ContextSwitchConfig] = None,
    track_per_site: bool = False,
    warmup_branches: int = 0,
    probe: Optional["Probe"] = None,
    backend: str = "python",
    block_size: Optional[int] = None,
) -> SimulationResult:
    """Replay ``trace`` through ``predictor`` and score its predictions.

    Args:
        predictor: a fresh predictor instance. The interpreted backends
            mutate its state; the vectorized backend reads only its
            configuration and leaves the instance untouched (and
            therefore requires a *freshly built* predictor, which every
            runner path provides).
        trace: any bounded :class:`repro.trace.stream.TraceSource` — an
            in-memory :class:`~repro.trace.events.Trace`, an mmap-backed
            :class:`~repro.trace.stream.StreamedTrace`, or a
            ``.limit(n)``-bounded synthetic source.
        context_switches: enable the paper's context-switch model when
            given; ``None`` simulates an undisturbed run.
        track_per_site: also collect per-static-branch mispredictions
            (costs memory; used by the interference analyses).
        warmup_branches: number of initial conditional branches that are
            predicted and updated but *not scored* (the paper does not
            use warm-up — provided for sensitivity studies).
        probe: optional observability probe (see :mod:`repro.obs`).
            Attaching a probe never changes the returned result.
        backend: ``"python"`` (default — the interpreted reference
            loop), ``"vectorized"`` (require a batch kernel; raises
            :class:`repro.sim.kernels.KernelUnavailable` when the
            predictor has none), or ``"auto"`` (kernel when available,
            interpreted loop otherwise). A probe forces the interpreted
            loop under ``"auto"``/``"python"``; an *explicit*
            ``"vectorized"`` request with a probe raises
            :class:`~repro.sim.kernels.KernelUnavailable` instead of
            silently running the interpreted loop. Every backend
            returns bit-identical results.
        block_size: when given, consume the trace in blocks of at most
            this many records, bounding peak memory by the block size
            instead of the trace length. Results are bit-identical for
            every block size. A non-``Trace`` source streams block-wise
            even when this is ``None`` (at the default block size).

    Returns:
        A :class:`SimulationResult` with accuracy and bookkeeping.
    """
    result, _used = simulate_with_backend(
        predictor,
        trace,
        context_switches=context_switches,
        track_per_site=track_per_site,
        warmup_branches=warmup_branches,
        probe=probe,
        backend=backend,
        block_size=block_size,
    )
    return result


def simulate_with_backend(
    predictor: BranchPredictor,
    trace: "TraceSource",
    context_switches: Optional[ContextSwitchConfig] = None,
    track_per_site: bool = False,
    warmup_branches: int = 0,
    probe: Optional["Probe"] = None,
    backend: str = "python",
    block_size: Optional[int] = None,
) -> Tuple[SimulationResult, str]:
    """:func:`simulate`, additionally reporting the backend that ran.

    Returns:
        ``(result, used)`` where ``used`` is ``"python"`` or
        ``"vectorized"`` — what actually executed after ``"auto"``
        resolution, probe forcing, and kernel fallback. Telemetry
        consumers (:mod:`repro.sim.parallel`, the run ledger) record
        ``used`` so throughput numbers are attributable.
    """
    if backend not in SIM_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {SIM_BACKENDS}"
        )
    if block_size is not None and block_size < 1:
        raise ValueError("block_size must be >= 1")
    if getattr(trace, "num_records", 0) is None:
        raise ValueError(
            "cannot simulate an unbounded trace source; bound it with .limit(n)"
        )
    # A plain in-memory Trace with no block size runs the original
    # whole-trace paths; anything else streams block-wise with carried
    # state (non-Trace sources stream even without an explicit
    # block_size so an mmap-backed container is never materialized).
    streaming = block_size is not None or not isinstance(trace, Trace)
    # Structured-log telemetry (a no-op unless repro.obs.log was
    # enabled; the deferred import keeps package init acyclic). Both
    # events fire outside the record loop. The span recorder follows
    # the same discipline: fetched once per run, consulted only at
    # backend/phase boundaries, and None (no span work at all) unless
    # tracing was enabled.
    from ..obs.log import get_logger
    from ..obs.spans import get_recorder as _get_span_recorder

    logger = get_logger("sim.engine")
    recorder = _get_span_recorder()
    logger.event(
        "run_start",
        scheme=getattr(predictor, "name", type(predictor).__name__),
        trace=trace.meta.name,
        records=trace.num_records,
        probed=probe is not None,
        backend=backend,
    )
    if probe is not None and backend == "vectorized":
        # An explicit kernel request cannot be honoured: probes observe
        # per-record predictor state that the batch kernels never
        # materialise. Failing loudly beats silently running the
        # interpreted loop under a "vectorized" label.
        from .kernels import KernelUnavailable

        raise KernelUnavailable(
            "probed runs take the interpreted loop; an explicit "
            "backend='vectorized' cannot honour a probe (use "
            "backend='auto' or 'python', or drop the probe)"
        )
    if probe is None and backend != "python":
        from .kernels import KernelUnavailable, simulate_vectorized, simulate_vectorized_stream

        span_id = (
            recorder.push("kernel", cat="engine", streaming=streaming)
            if recorder is not None
            else 0
        )
        try:
            if streaming:
                result = simulate_vectorized_stream(
                    predictor,
                    trace,
                    context_switches=context_switches,
                    track_per_site=track_per_site,
                    warmup_branches=warmup_branches,
                    block_size=block_size,
                )
            else:
                result = simulate_vectorized(
                    predictor,
                    trace,
                    context_switches=context_switches,
                    track_per_site=track_per_site,
                    warmup_branches=warmup_branches,
                )
        except KernelUnavailable as exc:
            if recorder is not None:
                recorder.pop_through(span_id, fallback=True)
            if backend == "vectorized":
                raise
            # The auto fallback is no longer silent: the structured
            # log records why the kernel declined so a degraded
            # sweep is diagnosable after the fact.
            logger.event(
                "kernel_fallback",
                scheme=getattr(predictor, "name", type(predictor).__name__),
                trace=trace.meta.name,
                streaming=streaming,
                reason=str(exc),
            )
        except BaseException:
            if recorder is not None:
                recorder.pop_through(span_id)
            raise
        else:
            if recorder is not None:
                recorder.pop_through(span_id, branches=result.conditional_branches)
            _log_run_end(logger, result)
            return result, "vectorized"
    result = _interpret(predictor, trace, context_switches, track_per_site,
                        warmup_branches, probe, block_size, recorder)
    _log_run_end(logger, result)
    return result, "python"


def _interpret(
    predictor: BranchPredictor,
    trace: "TraceSource",
    context_switches: Optional[ContextSwitchConfig],
    track_per_site: bool,
    warmup_branches: int,
    probe: Optional["Probe"],
    block_size: Optional[int],
    recorder=None,
) -> SimulationResult:
    """The interpreted loop: the engine's only per-record replay.

    Every conditional branch is predicted, updated and scored in trace
    order. With a probe attached the loop also makes its callbacks:

    * ``on_run_start(predictor, trace)`` before the first record;
    * ``on_branch(pc, predicted, taken, instret)`` after each
      conditional branch resolves (warm-up branches included);
    * ``on_context_switch(instret)`` after each history flush;
    * ``on_interval(index, instret)`` each time the instruction clock
      crosses a multiple of ``probe.interval_instructions`` (skipped
      entirely when that attribute is ``None``), checked after every
      record, conditional or not;
    * ``on_run_end(result)`` with the final result.

    With an active span ``recorder`` the run is one ``"interpret"``
    span (``probed=True`` when a probe is attached).
    """
    conditional = 0
    correct = 0
    switches = 0
    per_site_seen: Dict[int, int] = {}
    per_site_wrong: Dict[int, int] = {}

    cs_enabled = context_switches is not None
    interval = context_switches.interval if cs_enabled else 0
    switch_on_traps = context_switches.switch_on_traps if cs_enabled else False
    next_switch = interval

    predict = predictor.predict
    update = predictor.update
    cond_class = int(BranchClass.CONDITIONAL)

    probing = probe is not None
    if recorder is None:
        span_id = 0
    elif probing:
        span_id = recorder.push("interpret", cat="engine", probed=True)
    else:
        span_id = recorder.push("interpret", cat="engine")
    try:
        window = 0
        if probing:
            probe.on_run_start(predictor, trace)
            on_branch = probe.on_branch
            on_context_switch = probe.on_context_switch
            on_interval = probe.on_interval
            window = getattr(probe, "interval_instructions", None) or 0
        windowed = bool(window)
        next_window = window
        window_index = 0
        for pc, taken, cls, target, instret, trap in _record_tuples(
            trace, block_size, recorder
        ):
            if cs_enabled and ((trap and switch_on_traps) or instret >= next_switch):
                predictor.on_context_switch()
                switches += 1
                if instret >= next_switch:
                    # Periodic switches stay on absolute multiples of the
                    # interval (the paper's fixed every-500k cadence); a
                    # trap never reschedules them, and a trap coinciding
                    # with a boundary counts as a single switch.
                    next_switch += interval * ((instret - next_switch) // interval + 1)
                if probing:
                    on_context_switch(instret)
            if cls == cond_class:
                prediction = predict(pc, target)
                update(pc, taken, target)
                conditional += 1
                if probing:
                    on_branch(pc, prediction, taken, instret)
                if conditional > warmup_branches:
                    if prediction == taken:
                        correct += 1
                    elif track_per_site:
                        per_site_wrong[pc] = per_site_wrong.get(pc, 0) + 1
                    if track_per_site:
                        per_site_seen[pc] = per_site_seen.get(pc, 0) + 1
            if windowed and instret >= next_window:
                while instret >= next_window:
                    next_window += window
                    window_index += 1
                on_interval(window_index - 1, instret)
    finally:
        if recorder is not None:
            recorder.pop_through(span_id, branches=conditional)

    scored = max(conditional - warmup_branches, 0)
    result = SimulationResult(
        predictor_name=predictor.name,
        trace_name=trace.meta.name,
        dataset=trace.meta.dataset,
        conditional_branches=scored,
        correct_predictions=correct,
        context_switches=switches,
        per_site_executions=per_site_seen if track_per_site else None,
        per_site_mispredictions=per_site_wrong if track_per_site else None,
        total_instructions=trace.meta.total_instructions,
    )
    if probing:
        probe.on_run_end(result)
    return result


def _replay_mispredictions(
    predictor: BranchPredictor,
    source: "TraceSource",
    fold: Callable[[Iterator[tuple]], _T],
    context_switches: Optional[ContextSwitchConfig] = None,
    block_size: Optional[int] = None,
) -> _T:
    """Replay ``source`` through ``predictor`` and return ``fold(blocks)``.

    ``blocks`` yields one ``(pc, taken, seg, wrong)`` tuple of NumPy
    arrays per block: the conditional records' pcs, outcomes and
    flush-segment ids (non-decreasing; they step at every context
    switch and stay comparable across blocks), and the block-local
    indices of the mispredicted ones, each once, in any order. The
    blocks come from the kernel fold, walked as :func:`simulate` walks
    them, so ``predictor`` must be freshly built. A predictor with no
    kernel, or a source that breaks a kernel precondition, is replayed
    by the interpreted loop with a probe instead, as one block holding every
    conditional record. A fold the kernel abandoned part-way is
    discarded, not resumed, so ``fold`` sees exactly one complete
    replay.

    Raises:
        ValueError: for an unbounded source or a block size < 1.
    """
    from .kernels import KernelUnavailable, _kernel_blocks, _predictor_kernel, _source_blocks

    blocks, final = _source_blocks(source, block_size)
    try:
        # Per-site tracking keeps every kernel returning miss indices.
        runs = _kernel_blocks(_predictor_kernel(predictor), blocks, context_switches,
                              track_per_site=True, warmup_branches=0, final=final)
        return fold((run.pc_c, run.out_bool, run.seg_c, wrong)
                    for run, wrong in runs if run.n_c)
    except KernelUnavailable as exc:
        from ..obs.log import get_logger

        get_logger("sim.engine").event(
            "kernel_fallback",
            scheme=getattr(predictor, "name", type(predictor).__name__),
            trace=source.meta.name,
            streaming=not final,
            reason=str(exc),
        )
    probe = _MissProbe()
    _interpret(predictor, source, context_switches, track_per_site=False,
               warmup_branches=0, probe=probe, block_size=block_size)
    return fold(iter((probe.block(),)))


def _outcomes_and_misses(blocks) -> tuple:
    """A :func:`_replay_mispredictions` fold: the conditional records'
    outcomes and a mask of the mispredicted ones, as two bool arrays."""
    import numpy as np

    taken, wrong = [np.zeros(0, np.bool_)], [np.zeros(0, np.bool_)]
    for _pc, block_taken, _seg, block_wrong in blocks:
        mask = np.zeros(block_taken.shape[0], np.bool_)
        mask[block_wrong] = True
        taken.append(block_taken)
        wrong.append(mask)
    return np.concatenate(taken), np.concatenate(wrong)


class _MissProbe:
    """Probe collecting the interpreted loop's conditional records as one
    :func:`_replay_mispredictions` block."""

    def __init__(self) -> None:
        self.pc: List[int] = []
        self.taken: List[bool] = []
        self.seg: List[int] = []
        self.wrong: List[int] = []
        self.switches = 0

    def on_run_start(self, predictor, trace) -> None:
        pass

    def on_branch(self, pc: int, predicted: bool, taken: bool, instret: int) -> None:
        if predicted != taken:
            self.wrong.append(len(self.pc))
        self.pc.append(pc)
        self.taken.append(taken)
        self.seg.append(self.switches)

    def on_context_switch(self, instret: int) -> None:
        self.switches += 1

    def on_interval(self, index: int, instret: int) -> None:
        pass

    def on_run_end(self, result) -> None:
        pass

    def block(self) -> tuple:
        import numpy as np

        return (np.array(self.pc, dtype=np.int64), np.array(self.taken, dtype=np.bool_),
                np.array(self.seg, dtype=np.int64), np.array(self.wrong, dtype=np.int64))


def _record_tuples(trace: "TraceSource", block_size: Optional[int], recorder=None):
    """The interpreted loop's record iterator: plain tuples, optionally
    consumed block-wise so a streamed source never materializes.

    With an active span recorder and a block size, each block's
    consumption is wrapped in a ``"block"`` span (the per-block level of
    the sweep → cell → phase → block hierarchy) by the same wrapper the
    kernels use; with no recorder the iterator is a plain chain.
    """
    if block_size is None:
        return trace.iter_tuples()
    blocks = trace.iter_blocks(block_size)
    if recorder is not None:
        from .kernels import _traced_blocks

        blocks = _traced_blocks(blocks, recorder)
    return chain.from_iterable(block.iter_tuples() for block in blocks)


def _log_run_end(logger, result: SimulationResult) -> None:
    """Emit the engine's run-completed record (telemetry only)."""
    logger.event(
        "run_end",
        scheme=result.predictor_name,
        trace=result.trace_name,
        branches=result.conditional_branches,
        accuracy=round(result.accuracy, 6),
        context_switches=result.context_switches,
    )


def simulate_named(
    predictor: BranchPredictor,
    trace: Trace,
    with_context_switches: bool = False,
) -> SimulationResult:
    """Convenience wrapper mirroring the paper's ``[c]`` naming flag."""
    config = ContextSwitchConfig() if with_context_switches else None
    return simulate(predictor, trace, context_switches=config)
