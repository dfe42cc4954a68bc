"""Parallel, cached execution of (scheme x benchmark) sweeps.

The paper's evaluation is a large cross product — Figures 5-11 replay
nine traces through dozens of predictor configurations — and every cell
is independent of every other. This module is the execution layer that
exploits that:

* **Fan-out** — cells are distributed over worker processes
  (:class:`concurrent.futures.ProcessPoolExecutor`). ``n_workers=1``
  takes a deterministic in-process path with no executor involved.
* **Picklable work units** — workers receive a :class:`PredictorSpec`
  (a registry name, e.g. ``"pag-12"``) rather than a closure, plus the
  path of a spooled trace file. Plain-callable builders (lambdas) still
  work: they are detected as unpicklable and executed in the parent
  process, so ``run_matrix`` never rejects a builder.
* **Result caching** — with a :class:`~repro.trace.cache.ResultCache`,
  each cell is keyed by a content-hash of the trace bytes, the scheme's
  cache key and the context-switch configuration
  (:func:`result_cache_key`); warm reruns execute zero simulations.
* **Telemetry** — every run produces a
  :class:`~repro.sim.results.RunTelemetry` (per-cell wall time, cache
  hit/miss counts) attached to the returned matrix. A cell's closed
  ``cell`` and ``phase`` spans are its one record: a worker returns
  them with the result, and the parent reads the cell's telemetry,
  its ``done`` heartbeat and what a tracer collects off them. The only
  message on the ``progress`` queue is a worker's ``start``.
* **Case-major execution** — pending cells run one benchmark at a time
  (cases in figure order, then schemes in label order), so the
  one-trace memo of :mod:`repro.sim.kernels`, in the parent and in
  every pool worker, computes each trace's BHT layout once per first
  level, and its scheme-independent kernel inputs once per
  context-switch model, instead of once per cell. Behind it, each live
  trace keeps its set-associative residency words (2 B per conditional
  record per geometry and context-switch model), so the next matrix
  over the same trace rebuilds those layouts with one sort instead of
  replaying the LRU.

Determinism guarantee: for fixed builders, cases and configuration, the
returned :class:`~repro.sim.results.ResultMatrix` is bit-identical for
every ``n_workers`` value and for cold or warm caches — cells are
independent simulations (a memoized layout equals a fresh one), results
are reassembled scheme-major whatever order the cells ran in, and
cached cells store the exact integer counts the simulation produced.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import queue as queue_module
import shutil
import tempfile
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..predictors.base import BranchPredictor, TrainingUnavailable
from ..trace.cache import ResultCache
from ..trace.events import Trace
from ..trace.io import load_trace, save_trace
from ..trace.stream import content_digest
from .engine import ContextSwitchConfig, simulate_with_backend
from .results import ResultMatrix, RunTelemetry, SimulationResult

__all__ = [
    "PredictorSpec",
    "execute_matrix",
    "result_cache_key",
    "spec",
    "trace_digest",
]

#: Bumped whenever the cached payload layout or key recipe changes, so
#: stale caches from older revisions can never satisfy a new lookup.
_KEY_VERSION = "v1"

#: Seconds between polls of in-flight remote cells while heartbeats or
#: ``tick`` need servicing.
_POLL_SECONDS = 0.5


@dataclass(frozen=True)
class PredictorSpec:
    """A picklable, cacheable predictor builder.

    Wraps a name understood by
    :func:`repro.predictors.registry.make_predictor` (friendly grammar
    like ``"pag-12-a2-512x4"`` or a full Table 3 configuration string)
    and behaves as a ``PredictorBuilder``: calling it with the
    benchmark's training trace (or ``None``) returns a fresh predictor.

    Unlike a lambda, a spec survives pickling (so it can cross a
    process boundary) and carries a stable :attr:`cache_key` (so its
    results can live in the on-disk result cache).
    """

    name: str

    def __call__(self, training_trace: Optional[Trace]) -> BranchPredictor:
        """Build a fresh predictor; raises ``TrainingUnavailable`` when
        the scheme needs a training trace the benchmark lacks."""
        from ..predictors.registry import make_predictor

        if self.requires_training and training_trace is None:
            raise TrainingUnavailable(f"{self.name} needs a training trace")
        return make_predictor(self.name, training_trace)

    @property
    def requires_training(self) -> bool:
        """True for the statically-trained schemes (GSg/PSg/Profile).

        Determines whether the training trace participates in the
        cell's cache key: schemes that ignore the training trace must
        not be invalidated when it changes.
        """
        text = self.name.strip().lower()
        return text == "profile" or text.startswith(("gsg", "psg"))

    @property
    def cache_key(self) -> str:
        """Stable identity of the scheme configuration for result keys."""
        return f"spec:{self.name.strip().lower()}"


def spec(name: str) -> PredictorSpec:
    """Shorthand constructor: ``spec("pag-12")``."""
    return PredictorSpec(name)


#: Content hash of a trace: the sha256 of its ``.btb`` serialization,
#: the key of every cached result (see :func:`result_cache_key`).
trace_digest = content_digest


def result_cache_key(
    test_digest: str,
    builder_key: str,
    context_switches: Optional[ContextSwitchConfig],
    training_digest: Optional[str] = None,
) -> str:
    """The result-cache key for one (scheme, benchmark) cell.

    Args:
        test_digest: :func:`trace_digest` of the scored trace.
        builder_key: the builder's ``cache_key`` (scheme configuration).
        context_switches: the run's context-switch model (``None`` for
            an undisturbed run); both fields participate in the key.
        training_digest: digest of the training trace, for schemes whose
            predictor depends on it (``None`` otherwise).
    """
    if context_switches is None:
        cs_part = "cs:none"
    else:
        cs_part = f"cs:{context_switches.interval}:{int(context_switches.switch_on_traps)}"
    parts = [
        _KEY_VERSION,
        f"trace:{test_digest}",
        f"builder:{builder_key}",
        cs_part,
        f"training:{training_digest or 'none'}",
    ]
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Cell evaluation (pool workers and the parent alike)
# ----------------------------------------------------------------------

#: Per-worker-process memo of spooled traces, so a worker deserializes
#: each benchmark trace once no matter how many of its cells it draws.
_TRACE_MEMO: Dict[str, Trace] = {}

#: Per-worker-process span recorder (traced sweeps only). One recorder
#: per process — not per cell — so span ids stay unique within the
#: worker's pid across every cell it draws; never read by the parent.
_SPAN_STATE: Dict[str, Any] = {}


def _load_spooled(path: str) -> Trace:
    trace = _TRACE_MEMO.get(path)
    if trace is None:
        trace = load_trace(path)
        # Deliberate per-worker-process memo: never read by the parent.
        _TRACE_MEMO[path] = trace  # check: allow(conc/global-write-in-worker)
    return trace


def _evaluate_cell(
    recorder,
    label: str,
    case_name: str,
    builder,
    test_trace: Union[Trace, str],
    training_trace: Union[Trace, str, None],
    context_switches: Optional[ContextSwitchConfig],
    backend: str,
) -> Tuple[Optional[SimulationResult], List["Span"]]:  # noqa: F821
    """Build and simulate one cell under a ``"cell"`` span of ``recorder``.

    The one cell evaluation of a sweep, run in pool workers
    (:func:`_run_cell`) and in the parent process alike. The traces are
    in memory, or are the paths of a worker's spooled files, whose
    loading is then the cell's first phase. Each phase — ``trace_load``,
    ``build``, ``simulate`` — is a ``"phase"`` span under the cell span,
    and the closing cell span carries the backend that ran (``""`` when
    none did) and a resource reading. The engine's own spans nest under
    ``simulate`` when ``recorder`` is the process's enabled recorder; a
    recorder nobody enabled times the phases and nothing else.

    Returns ``(result-or-None, spans)``, where ``spans`` is everything
    ``recorder`` completed, drained, in completion order: the cell span
    is last and its phase spans are its children. A ``None`` result
    means the builder raised ``TrainingUnavailable``.
    """
    from ..obs.resources import read_resources

    cell_id = recorder.push("cell", cat="sweep", scheme=label, benchmark=case_name)
    if isinstance(test_trace, str):
        with recorder.span("trace_load", cat="phase"):
            test_trace = _load_spooled(test_trace)
            training_trace = _load_spooled(training_trace) if training_trace else None
    result: Optional[SimulationResult] = None
    used_backend = ""
    with recorder.span("build", cat="phase"):
        try:
            predictor = builder(training_trace)
        except TrainingUnavailable:
            predictor = None
    if predictor is not None:
        with recorder.span("simulate", cat="phase"):
            # Resolved through this module's global at call time, so a
            # wrapper installed on it sees every cell.
            result, used_backend = simulate_with_backend(
                predictor,
                test_trace,
                context_switches=context_switches,
                backend=backend,
            )
    recorder.pop_through(cell_id, backend=used_backend, **read_resources().as_args())
    return result, recorder.drain()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _cell_recorder(traced: bool):
    """The recorder a worker's cell records on.

    Untraced, a fresh private recorder nobody enabled: it times the
    cell's phases and the engine emits nothing. Traced, the worker's
    persistent per-process recorder, enabled process-wide so the
    engine's spans nest under the cell's ``simulate`` phase. A recorder
    whose pid differs is a fork-inherited copy of the parent's, so the
    worker replaces it with its own.
    """
    from ..obs import spans as spans_mod

    if not traced:
        return spans_mod.SpanRecorder()
    recorder = _SPAN_STATE.get("recorder")
    if recorder is None or recorder.pid != os.getpid():
        recorder = spans_mod.SpanRecorder()
        # Deliberate per-worker-process state: never read by the parent.
        _SPAN_STATE["recorder"] = recorder  # check: allow(conc/global-write-in-worker)
    spans_mod.enable(recorder)
    if recorder.depth:
        # A previous cell in this worker died mid-span (pool workers
        # outlive task exceptions). Abandon its partial trace — close
        # and discard everything — so this cell's spans stay
        # well-formed; that cell failed, so its spans never reach the
        # parent.
        while recorder.depth:
            recorder.pop()
        recorder.drain()
    return recorder


def _pulse(heartbeats, label: str, case_name: str) -> None:
    """Announce a cell's start as a ``(pid, label, case_name)`` triple.

    The one message shape on the heartbeat queue: the cell's ``done``
    beat is read off its spans when the parent settles the cell.
    Workers put plain tuples (not :class:`repro.obs.live.Heartbeat`
    objects) so the worker side stays import-free. Best effort:
    telemetry must never fail a cell.
    """
    if heartbeats is None:
        return
    try:
        heartbeats.put((os.getpid(), label, case_name))
    except Exception:
        pass


def _run_cell(
    label: str,
    case_name: str,
    builder,
    test_path: str,
    training_path: Optional[str],
    context_switches: Optional[ContextSwitchConfig],
    backend: str = "auto",
    heartbeats=None,
    traced: bool = False,
) -> Tuple[Optional[SimulationResult], List["Span"]]:  # noqa: F821
    """Execute one cell from spooled traces (runs inside a worker).

    Returns :func:`_evaluate_cell`'s ``(result-or-None, spans)``; the
    spans travel back in the future's result (a :class:`Span` pickles as
    it is). Traced, they are everything the worker's recorder completed
    (see :func:`_cell_recorder`), engine spans included; untraced, the
    private recorder's cell and phase spans. When ``heartbeats`` (a
    manager queue) is given, the worker announces the cell's start on
    it for live ``--follow`` monitoring.
    """
    recorder = _cell_recorder(traced)
    _pulse(heartbeats, label, case_name)
    return _evaluate_cell(
        recorder, label, case_name, builder, test_path, training_path,
        context_switches, backend,
    )


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


def _is_picklable(builder) -> bool:
    try:
        pickle.dumps(builder)
        return True
    except Exception:
        return False


def execute_matrix(
    builders: Mapping[str, "PredictorBuilder"],  # noqa: F821 - doc alias
    cases: Sequence["BenchmarkCase"],  # noqa: F821
    context_switches: Optional[ContextSwitchConfig] = None,
    n_workers: int = 1,
    result_cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[Any], None]] = None,
    tick: Optional[Callable[[], None]] = None,
    backend: str = "auto",
    tracer: Optional[Any] = None,
) -> ResultMatrix:
    """Evaluate every scheme on every benchmark, in parallel and cached.

    This is the engine behind :func:`repro.sim.runner.run_matrix`; call
    that instead unless you are building new sweep machinery.

    Args:
        builders: scheme label -> builder. :class:`PredictorSpec`
            builders parallelize and cache; plain callables run in the
            parent process and bypass the cache.
        cases: the benchmark suite, figure order.
        context_switches: applied to every simulation when given.
        backend: simulation backend passed through to
            :func:`repro.sim.engine.simulate_with_backend` for every
            cell — ``"auto"`` (default) uses the vectorized kernels
            where available and falls back per predictor, ``"python"``
            forces the interpreted loop, ``"vectorized"`` fails loudly
            on unsupported predictors. Backends are bit-identical, so
            the choice does not participate in result-cache keys: a
            cell cached under one backend satisfies lookups under any
            other (cache hits report ``backend="cache"``). The backend
            that actually ran each cell is recorded in the telemetry.
        n_workers: worker processes; ``1`` is a plain in-process loop
            (no executor, no trace spooling) whose results every other
            worker count reproduces bit-identically. Either way cells
            run case-major, sharing each trace's memoized first-level
            layouts, and are assembled scheme-major.
        result_cache: on-disk cell cache; ``None`` disables caching.
        progress: live-monitoring hook; receives one
            :class:`repro.obs.live.Heartbeat` per cell event (start /
            done / cached), always from the parent process, so the hook
            needs no locking. A worker announces a cell's ``start`` on
            a ``multiprocessing`` manager queue; every ``done`` is read
            off the cell's spans when the parent settles the cell.
            ``None`` (the default) adds zero overhead — no manager, no
            queue, no wait timeouts.
        tick: called about every half second while remote cells are in
            flight (and after every local cell), so a ``--follow``
            renderer can refresh ETA/staleness even when no heartbeat
            arrived.
        tracer: optional :class:`repro.obs.spans.SpanCollector`. The
            sweep's telemetry is always read off spans — a ``"sweep"``
            span with one ``"cell"`` span per cell and one ``"phase"``
            span per cell phase. Untraced, they are recorded on private
            recorders and dropped. With a tracer they are recorded on
            the process's enabled recorder (one is enabled for the
            sweep's duration if none is), worker processes record their
            cells on their own recorders and return the completed spans
            with each cell's result, and everything lands in the
            collector. A cell that raises fails the sweep; the spans
            collected until then still form a valid tree.

    Returns:
        A :class:`ResultMatrix` with telemetry attached.

    Heartbeats and spans are telemetry only: results, ordering and
    cache contents are bit-identical with or without a ``progress``
    hook or a ``tracer``.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    from ..obs import spans as spans_mod

    own_recorder = False
    if tracer is None:
        recorder = spans_mod.SpanRecorder()
    else:
        recorder = spans_mod.get_recorder()
        if recorder is None:
            recorder = spans_mod.enable(spans_mod.SpanRecorder())
            own_recorder = True
    emit: Optional[Callable[..., None]] = None
    if progress is not None:
        # Deferred import: repro.obs imports repro.sim.results, so a
        # module-level import here would cycle during package init.
        from ..obs.live import Heartbeat

        def emit(pid: int, kind: str, label: str, case_name: str,
                 branches: int = 0, wall: float = 0.0, rss: int = 0) -> None:
            progress(
                Heartbeat(
                    worker=pid,
                    kind=kind,
                    scheme=label,
                    benchmark=case_name,
                    branches=branches,
                    wall=wall,
                    rss_bytes=rss,
                )
            )

    # Deferred import: keeps package init acyclic; a no-op unless the
    # caller enabled structured logging.
    from ..obs.log import get_logger

    logger = get_logger("sim.parallel")
    logger.event(
        "matrix_start",
        schemes=len(builders),
        benchmarks=len(cases),
        workers=n_workers,
        cached=result_cache is not None,
        backend=backend,
    )
    telemetry = RunTelemetry(n_workers=n_workers)
    matrix = ResultMatrix(
        benchmarks=[case.name for case in cases],
        categories={case.name: case.category for case in cases},
        telemetry=telemetry,
    )
    sweep_id = recorder.push(
        "sweep",
        cat="sweep",
        schemes=len(builders),
        benchmarks=len(cases),
        workers=n_workers,
    )
    try:
        # Digest each case's traces once (only needed for cache keys).
        digests: Dict[str, Tuple[str, Optional[str]]] = {}
        if result_cache is not None:
            for case in cases:
                digests[case.name] = (
                    trace_digest(case.test_trace),
                    trace_digest(case.training_trace) if case.training_trace else None,
                )

        # Phase 1: resolve what we can from the cache, in cell order.
        # outcomes: (label, case.name) ->
        #     (result, source, wall_time, phases, backend, rss_peak)
        outcomes: Dict[
            Tuple[str, str],
            Tuple[Optional[SimulationResult], str, float, Dict[str, float], str, int],
        ] = {}
        # Case-major, so consecutive cells share a trace and the kernels'
        # memo builds each of its first-level layouts and inputs once.
        pending: List[Tuple[str, "BenchmarkCase", Optional[str]]] = []
        for case in cases:
            for label, builder in builders.items():
                builder_key = getattr(builder, "cache_key", None)
                if result_cache is None or builder_key is None:
                    if result_cache is not None:
                        telemetry.uncacheable += 1
                    pending.append((label, case, None))
                    continue
                test_digest, training_digest = digests[case.name]
                key = result_cache_key(
                    test_digest,
                    builder_key,
                    context_switches,
                    training_digest if getattr(builder, "requires_training", True) else None,
                )
                cell_id = recorder.push(
                    "cell", cat="sweep", scheme=label, benchmark=case.name, cached=True
                )
                lookup_id = recorder.push("cache_lookup", cat="phase")
                hit, payload = result_cache.load(key)
                result = SimulationResult.from_dict(payload) if payload is not None else None
                lookup = recorder.pop_through(lookup_id)
                if not hit:
                    # Not a cell of its own: the cell is evaluated below.
                    recorder.discard(cell_id)
                    telemetry.cache_misses += 1
                    pending.append((label, case, key))
                    continue
                wall = recorder.pop_through(cell_id).seconds
                # backend="cache": cache hits never ran an engine, and
                # backends are excluded from cache keys, so reporting
                # any engine backend here would attribute the *cached*
                # run's backend to a near-zero lookup wall time and
                # pollute regress()'s per-backend throughput medians.
                outcomes[(label, case.name)] = (
                    result,
                    "cache" if result is not None else "unavailable",
                    wall,
                    {"cache_lookup": lookup.seconds},
                    "cache" if result is not None else "",
                    0,
                )
                if emit is not None:
                    emit(0, "cached", label, case.name, 0, wall)

        # Phase 2: compute the remaining cells — in worker processes
        # when asked and possible, in-process otherwise.
        def _settle(label: str, case_name: str, key: Optional[str],
                    result: Optional[SimulationResult], spans: List["Span"]) -> None:  # noqa: F821
            # Everything the parent learns of a computed cell, local or
            # remote, is read off its spans: the cell span closed last.
            cell = spans[-1]
            rss = cell.args["peak_rss_bytes"]
            outcomes[(label, case_name)] = (
                result,
                "simulated" if result is not None else "unavailable",
                cell.seconds,
                {span.name: span.seconds for span in spans if span.parent_id == cell.span_id},
                cell.args["backend"],
                rss,
            )
            if key is not None and result_cache is not None:
                result_cache.store(key, result.to_dict() if result is not None else None)
            if tracer is not None:
                tracer.ingest(spans)
            if emit is not None:
                branches = result.conditional_branches if result is not None else 0
                emit(cell.pid, "done", label, case_name, branches, cell.seconds, rss)

        def _run_local(label: str, case, key: Optional[str]) -> None:
            if emit is not None:
                emit(recorder.pid, "start", label, case.name)
            _settle(label, case.name, key, *_evaluate_cell(
                recorder, label, case.name, builder_by_label[label],
                case.test_trace, case.training_trace, context_switches, backend,
            ))
            if tick is not None:
                tick()

        builder_by_label = dict(builders)
        if n_workers == 1 or not pending:
            for label, case, key in pending:
                _run_local(label, case, key)
        else:
            remote = [cell for cell in pending if _is_picklable(builder_by_label[cell[0]])]
            local = [cell for cell in pending if not _is_picklable(builder_by_label[cell[0]])]
            spool = Path(tempfile.mkdtemp(prefix="repro-spool-"))
            manager = None
            heartbeat_queue = None
            if emit is not None and remote:
                # A manager queue (not a raw mp.Queue) because the
                # executor pickles task arguments; manager proxies
                # survive that.
                import multiprocessing

                manager = multiprocessing.Manager()
                heartbeat_queue = manager.Queue()

            def _drain_starts() -> None:
                # A worker puts a cell's start before running it, so
                # draining before settling a cell delivers its start
                # before its done.
                if heartbeat_queue is None:
                    return
                while True:
                    try:
                        pid, hb_label, hb_case = heartbeat_queue.get_nowait()
                    except (queue_module.Empty, EOFError, OSError):  # or the manager is gone
                        return
                    emit(pid, "start", hb_label, hb_case)

            try:
                trace_paths = _spool_traces({case.name: case for _, case, _ in remote}, spool)
                with ProcessPoolExecutor(max_workers=n_workers) as pool:
                    futures = {}
                    for label, case, key in remote:
                        test_path, training_path = trace_paths[case.name]
                        future = pool.submit(
                            _run_cell,
                            label,
                            case.name,
                            builder_by_label[label],
                            test_path,
                            training_path,
                            context_switches,
                            backend,
                            heartbeat_queue,
                            tracer is not None,
                        )
                        futures[future] = (label, case.name, key)
                    # Overlap the unpicklable (parent-process) cells with
                    # the pool instead of serializing them afterwards.
                    for label, case, key in local:
                        _run_local(label, case, key)
                    not_done = set(futures)
                    poll = (
                        _POLL_SECONDS
                        if heartbeat_queue is not None or tick is not None
                        else None
                    )
                    while not_done:
                        done, not_done = wait(
                            not_done, timeout=poll, return_when=FIRST_COMPLETED
                        )
                        _drain_starts()
                        if tick is not None:
                            tick()
                        for future in done:
                            _settle(*futures[future], *future.result())
                if tick is not None:
                    tick()
            finally:
                shutil.rmtree(spool, ignore_errors=True)
                if manager is not None:
                    manager.shutdown()

        # Phase 3: assemble in the canonical (scheme-major) order, so the
        # matrix layout is independent of completion order.
        for label in builders:
            for case in cases:
                result, source, wall, phases, used_backend, rss = outcomes[
                    (label, case.name)
                ]
                telemetry.record(
                    label,
                    case.name,
                    wall,
                    source,
                    phases=phases,
                    backend=used_backend,
                    rss_peak=rss,
                )
                if result is not None:
                    matrix.add(label, result)
    finally:
        # Also on failure: a sweep that raised must not leave its span
        # open, nor its own recorder enabled for the rest of the process.
        sweep = recorder.pop_through(sweep_id, cells=telemetry.total_cells)
        if tracer is not None:
            tracer.ingest(recorder.drain())
        if own_recorder:
            spans_mod.disable()
    telemetry.wall_time = sweep.seconds
    logger.event(
        "matrix_done",
        cells=telemetry.total_cells,
        simulations=telemetry.simulations,
        cache_hits=telemetry.cache_hits,
        unavailable=telemetry.unavailable,
        wall_s=round(telemetry.wall_time, 3),
    )
    return matrix


def _spool_traces(
    cases_by_name: Mapping[str, "BenchmarkCase"],  # noqa: F821
    spool: Path,
) -> Dict[str, Tuple[str, Optional[str]]]:
    """Write each distinct trace to the spool directory once.

    Workers load traces from these files (memoized per process) instead
    of receiving multi-megabyte pickled columns with every task.
    """
    paths: Dict[str, Tuple[str, Optional[str]]] = {}
    for name, case in cases_by_name.items():
        test_path = spool / f"{name}-test.btb"
        save_trace(case.test_trace, test_path)
        training_path: Optional[str] = None
        if case.training_trace is not None:
            path = spool / f"{name}-training.btb"
            save_trace(case.training_trace, path)
            training_path = str(path)
        paths[name] = (str(test_path), training_path)
    return paths
