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
  hit/miss counts) attached to the returned matrix.
* **Case-major execution** — pending cells run one benchmark at a time
  (cases in figure order, then schemes in label order), in the parent
  and in every pool worker under the first-level layout memo of
  :mod:`repro.sim.kernels`, so each trace's set-associative BHT layout
  is computed once per geometry instead of once per cell.

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
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..predictors.base import BranchPredictor, TrainingUnavailable
from ..trace.cache import ResultCache
from ..trace.events import Trace
from ..trace.io import load_trace, save_trace
from ..trace.stream import content_digest
from .engine import ContextSwitchConfig, simulate_with_backend
from .kernels import _LAYOUT_MEMO, _layout_memo
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
# Worker side
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


def _init_worker() -> None:
    """Pool initializer: the worker runs every cell it draws under the
    layout memo. Workers live for one :func:`execute_matrix` call, so
    the memo goes with them."""
    # Deliberate per-worker-process memo: never read by the parent.
    _LAYOUT_MEMO.reset(1)  # check: allow(conc/global-write-in-worker)


def _worker_recorder():
    """The worker's persistent span recorder (created and enabled once).

    Enabling it process-wide is what lets the engine's backend/block
    spans nest under the cell's ``simulate`` phase span.
    """
    recorder = _SPAN_STATE.get("recorder")
    if recorder is None or recorder.pid != os.getpid():
        from ..obs import spans as spans_mod

        recorder = spans_mod.SpanRecorder()
        # Deliberate per-worker-process state: never read by the parent.
        _SPAN_STATE["recorder"] = recorder  # check: allow(conc/global-write-in-worker)
        spans_mod.enable(recorder)
    return recorder


def _pulse(
    heartbeats, kind: str, label: str, case_name: str, branches: int = 0,
    wall: float = 0.0, rss: int = 0,
) -> None:
    """Best-effort heartbeat put; telemetry must never fail a cell.

    Workers emit plain tuples (not :class:`repro.obs.live.Heartbeat`
    objects) so the worker side stays import-free; the parent rewraps
    them before invoking the ``progress`` hook. Span batches travel on
    the same queue as ``("spans", pid, wire)`` triples — the string
    first element is what distinguishes them from these int-pid-first
    heartbeat tuples on the draining side.
    """
    if heartbeats is None:
        return
    try:
        heartbeats.put((os.getpid(), kind, label, case_name, branches, wall, rss))
    except Exception:
        pass


def _ship_spans(heartbeats, recorder) -> None:
    """Ship a worker recorder's completed spans to the parent.

    One ``("spans", pid, wire)`` message per cell, put *after* the cell
    completes — so a crashed worker contributes no batch at all (its
    spans are lost, the sweep trace stays coherent) and a full batch is
    never torn. Best-effort like :func:`_pulse`: span telemetry must
    never fail a cell.
    """
    if recorder is None:
        return
    spans = recorder.drain()
    if heartbeats is None or not spans:
        return
    from ..obs.spans import to_wire

    try:
        heartbeats.put(("spans", recorder.pid, to_wire(spans)))
    except Exception:
        pass


def _finish_cell(recorder, cell_id: int, end: float, backend: str,
                 heartbeats, own_recorder: bool) -> int:
    """Close a traced cell: resource reading, span shipping, cleanup.

    Always reads the process's resource usage (peak worker RSS is
    recorded per cell whether or not tracing is on — it is two /proc
    reads against a cell that runs for seconds) and returns the peak
    RSS in bytes. With an active recorder, the reading lands on the
    closing ``"cell"`` span and — for the worker's own persistent
    recorder — the completed spans are drained and shipped; a recorder
    an in-process caller enabled keeps its spans for that caller to
    collect.
    """
    from ..obs.resources import read_resources

    sample = read_resources()
    if recorder is not None:
        recorder.pop_through(cell_id, end=end, backend=backend, **sample.as_args())
        if own_recorder:
            _ship_spans(heartbeats, recorder)
    return sample.peak_rss_bytes


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
) -> Tuple[str, str, Optional[SimulationResult], float, Dict[str, float], str, int]:
    """Execute one cell from spooled traces (runs inside a worker).

    Returns ``(label, case_name, result-or-None, wall_time, phases,
    backend, peak_rss_bytes)``; a ``None`` result means the builder
    raised ``TrainingUnavailable``. ``phases`` breaks the wall time
    into trace_load / build / simulate spans for the run telemetry
    (and, downstream, ``repro.obs`` run reports); ``backend`` is the
    engine backend that actually ran (``""`` when no simulation
    happened); ``peak_rss_bytes`` is the worker's RSS high-water mark
    as of cell completion. When ``heartbeats`` (a multiprocessing
    queue) is given, the worker announces the cell's start and
    completion on it for live ``--follow`` monitoring.

    With ``traced=True`` the worker records a ``"cell"`` span with
    ``trace_load`` / ``build`` / ``simulate`` phase children — built
    from the *same* ``perf_counter`` readings as the returned
    ``phases`` dict, so span durations equal the telemetry phase times
    exactly — and ships them back on the heartbeat queue. The engine's
    own spans (backend choice, per-block) nest under the ``simulate``
    phase via the worker's process-wide recorder.
    """
    recorder = None
    own_recorder = False
    if traced:
        from ..obs import spans as spans_mod

        recorder = spans_mod.get_recorder()
        if (
            recorder is None
            or recorder is _SPAN_STATE.get("recorder")
            or recorder.pid != os.getpid()
        ):
            # Worker path: the persistent per-process recorder (span
            # ids stay unique across every cell this worker draws). A
            # recorder whose pid differs is a fork-inherited copy of
            # the parent's — useless here, since its spans would never
            # ship — so the worker replaces it with its own. Only a
            # recorder enabled by an in-process caller (same pid, not
            # ours) is used as-is, its spans left for that caller.
            recorder = _worker_recorder()
            own_recorder = True
            if recorder.depth:
                # A previous cell in this worker died mid-span (pool
                # workers outlive task exceptions). Abandon its partial
                # trace — close and discard everything — so this cell's
                # spans stay well-formed; that cell's spans are simply
                # lost, the queue-loss-tolerance contract.
                while recorder.depth:
                    recorder.pop()
                recorder.drain()
    started = time.perf_counter()
    cell_id = (
        recorder.push(
            "cell", cat="sweep", start=started, scheme=label, benchmark=case_name
        )
        if recorder is not None
        else 0
    )
    _pulse(heartbeats, "start", label, case_name)
    test_trace = _load_spooled(test_path)
    training_trace = _load_spooled(training_path) if training_path else None
    loaded = time.perf_counter()
    phases = {"trace_load": loaded - started}
    if recorder is not None:
        recorder.record("trace_load", cat="phase", start=started, end=loaded)
    try:
        predictor = builder(training_trace)
    except TrainingUnavailable:
        built = time.perf_counter()
        phases["build"] = built - loaded
        if recorder is not None:
            recorder.record("build", cat="phase", start=loaded, end=built)
        wall = built - started
        rss = _finish_cell(recorder, cell_id, built, "", heartbeats, own_recorder)
        _pulse(heartbeats, "done", label, case_name, 0, wall, rss)
        return label, case_name, None, wall, phases, "", rss
    built = time.perf_counter()
    phases["build"] = built - loaded
    if recorder is not None:
        recorder.record("build", cat="phase", start=loaded, end=built)
    sim_id = (
        recorder.push("simulate", cat="phase", start=built)
        if recorder is not None
        else 0
    )
    result, used_backend = simulate_with_backend(
        predictor,
        test_trace,
        context_switches=context_switches,
        backend=backend,
    )
    sim_end = time.perf_counter()
    phases["simulate"] = sim_end - built
    if recorder is not None:
        recorder.pop_through(sim_id, end=sim_end)
    wall = sim_end - started
    rss = _finish_cell(recorder, cell_id, sim_end, used_backend, heartbeats, own_recorder)
    _pulse(heartbeats, "done", label, case_name, result.conditional_branches, wall, rss)
    return label, case_name, result, wall, phases, used_backend, rss


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


def _is_picklable(builder) -> bool:
    try:
        pickle.dumps(builder)
        return True
    except Exception:
        return False


@_layout_memo()
def execute_matrix(
    builders: Mapping[str, "PredictorBuilder"],  # noqa: F821 - doc alias
    cases: Sequence["BenchmarkCase"],  # noqa: F821
    context_switches: Optional[ContextSwitchConfig] = None,
    n_workers: int = 1,
    result_cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[Any], None]] = None,
    tick: Optional[Callable[[], None]] = None,
    progress_interval: float = 0.5,
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
            run case-major under the layout memo and are assembled
            scheme-major.
        result_cache: on-disk cell cache; ``None`` disables caching.
        progress: live-monitoring hook; receives one
            :class:`repro.obs.live.Heartbeat` per cell event (start /
            done / cached). When workers are involved the beats travel
            over a ``multiprocessing`` manager queue and are delivered
            from the parent process, so the hook needs no locking.
            ``None`` (the default) adds zero overhead — no manager, no
            queue, no wait timeouts.
        tick: called roughly every ``progress_interval`` seconds while
            remote cells are in flight (and after every local cell), so
            a ``--follow`` renderer can refresh ETA/staleness even when
            no heartbeat arrived.
        progress_interval: polling period for ``tick`` draining.
        tracer: optional :class:`repro.obs.spans.SpanCollector`. When
            given, the sweep is span-traced: the parent records a
            ``"sweep"`` root span with one ``"cell"`` child per cell
            (phase children built from the same clock readings as the
            telemetry, so span totals equal phase times exactly),
            worker processes record their cells locally and ship the
            completed spans back on the heartbeat queue, and everything
            lands in the collector. A worker that crashes simply never
            ships — its spans are lost, the sweep trace stays valid.

    Returns:
        A :class:`ResultMatrix` with telemetry attached.

    Heartbeats and spans are telemetry only: results, ordering and
    cache contents are bit-identical with or without a ``progress``
    hook or a ``tracer``.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    parent_recorder = None
    own_recorder = False
    sweep_id = 0
    if tracer is not None:
        from ..obs import spans as spans_mod

        parent_recorder = spans_mod.get_recorder()
        if parent_recorder is None:
            parent_recorder = spans_mod.enable(spans_mod.SpanRecorder())
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
    started = time.perf_counter()
    if parent_recorder is not None:
        sweep_id = parent_recorder.push(
            "sweep",
            cat="sweep",
            start=started,
            schemes=len(builders),
            benchmarks=len(cases),
            workers=n_workers,
        )
    telemetry = RunTelemetry(n_workers=n_workers)
    matrix = ResultMatrix(
        benchmarks=[case.name for case in cases],
        categories={case.name: case.category for case in cases},
        telemetry=telemetry,
    )

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
    # Case-major, so consecutive cells share a trace and the layout
    # memo builds each of its set-associative layouts once.
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
            lookup_started = time.perf_counter()
            hit, payload = result_cache.load(key)
            if hit:
                result = SimulationResult.from_dict(payload) if payload is not None else None
                lookup_end = time.perf_counter()
                lookup_wall = lookup_end - lookup_started
                # backend="cache": cache hits never ran an engine, and
                # backends are excluded from cache keys, so reporting
                # any engine backend here would attribute the *cached*
                # run's backend to a near-zero lookup wall time and
                # pollute regress()'s per-backend throughput medians.
                outcomes[(label, case.name)] = (
                    result,
                    "cache" if result is not None else "unavailable",
                    lookup_wall,
                    {"cache_lookup": lookup_wall},
                    "cache" if result is not None else "",
                    0,
                )
                if parent_recorder is not None:
                    cell_id = parent_recorder.push(
                        "cell",
                        cat="sweep",
                        start=lookup_started,
                        scheme=label,
                        benchmark=case.name,
                        cached=True,
                    )
                    parent_recorder.record(
                        "cache_lookup",
                        cat="phase",
                        start=lookup_started,
                        end=lookup_end,
                    )
                    parent_recorder.pop_through(cell_id, end=lookup_end)
                if emit is not None:
                    emit(0, "cached", label, case.name, 0, lookup_wall)
            else:
                telemetry.cache_misses += 1
                pending.append((label, case, key))

    # Phase 2: compute the remaining cells — in worker processes when
    # asked and possible, in-process otherwise.
    def _run_local(label: str, case, key: Optional[str]) -> None:
        from ..obs.resources import read_resources

        cell_started = time.perf_counter()
        cell_id = (
            parent_recorder.push(
                "cell", cat="sweep", start=cell_started, scheme=label,
                benchmark=case.name,
            )
            if parent_recorder is not None
            else 0
        )
        if emit is not None:
            emit(os.getpid(), "start", label, case.name)
        try:
            predictor = builder_by_label[label](case.training_trace)
        except TrainingUnavailable:
            predictor = None
        built = time.perf_counter()
        phases = {"build": built - cell_started}
        if parent_recorder is not None:
            parent_recorder.record("build", cat="phase", start=cell_started, end=built)
        result: Optional[SimulationResult] = None
        used_backend = ""
        cell_end = built
        if predictor is not None:
            sim_id = (
                parent_recorder.push("simulate", cat="phase", start=built)
                if parent_recorder is not None
                else 0
            )
            result, used_backend = simulate_with_backend(
                predictor,
                case.test_trace,
                context_switches=context_switches,
                backend=backend,
            )
            cell_end = time.perf_counter()
            phases["simulate"] = cell_end - built
            if parent_recorder is not None:
                parent_recorder.pop_through(sim_id, end=cell_end)
        wall = cell_end - cell_started
        sample = read_resources()
        if parent_recorder is not None:
            parent_recorder.pop_through(
                cell_id, end=cell_end, backend=used_backend, **sample.as_args()
            )
        outcomes[(label, case.name)] = (
            result,
            "simulated" if result is not None else "unavailable",
            wall,
            phases,
            used_backend,
            sample.peak_rss_bytes,
        )
        if key is not None and result_cache is not None:
            result_cache.store(key, result.to_dict() if result is not None else None)
        if emit is not None:
            emit(
                os.getpid(),
                "done",
                label,
                case.name,
                result.conditional_branches if result is not None else 0,
                wall,
                sample.peak_rss_bytes,
            )
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
        if (emit is not None or tracer is not None) and remote:
            # A manager queue (not a raw mp.Queue) because the executor
            # pickles task arguments; manager proxies survive that.
            # Spans ride the same queue as heartbeats, so tracing alone
            # also needs it.
            import multiprocessing

            manager = multiprocessing.Manager()
            heartbeat_queue = manager.Queue()

        def _drain_heartbeats() -> None:
            if heartbeat_queue is None:
                return
            while True:
                try:
                    message = heartbeat_queue.get_nowait()
                except queue_module.Empty:
                    break
                except Exception:
                    break
                if message and message[0] == "spans":
                    # A worker's shipped span batch: ("spans", pid, wire).
                    if tracer is not None:
                        tracer.ingest_wire(message[2])
                    continue
                if emit is not None:
                    pid, kind, hb_label, hb_case, branches, hb_wall, hb_rss = message
                    emit(pid, kind, hb_label, hb_case, branches, hb_wall, hb_rss)

        try:
            trace_paths = _spool_traces({case.name: case for _, case, _ in remote}, spool)
            with ProcessPoolExecutor(max_workers=n_workers, initializer=_init_worker) as pool:
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
                    futures[future] = key
                # Overlap the unpicklable (parent-process) cells with
                # the pool instead of serializing them afterwards.
                for label, case, key in local:
                    _run_local(label, case, key)
                not_done = set(futures)
                poll = (
                    progress_interval
                    if heartbeat_queue is not None or tick is not None
                    else None
                )
                while not_done:
                    done, not_done = wait(
                        not_done, timeout=poll, return_when=FIRST_COMPLETED
                    )
                    _drain_heartbeats()
                    if tick is not None:
                        tick()
                    for future in done:
                        label, case_name, result, wall, phases, used_backend, rss = (
                            future.result()
                        )
                        outcomes[(label, case_name)] = (
                            result,
                            "simulated" if result is not None else "unavailable",
                            wall,
                            phases,
                            used_backend,
                            rss,
                        )
                        key = futures[future]
                        if key is not None and result_cache is not None:
                            result_cache.store(
                                key, result.to_dict() if result is not None else None
                            )
            _drain_heartbeats()
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
    finished = time.perf_counter()
    telemetry.wall_time = finished - started
    if parent_recorder is not None:
        parent_recorder.pop_through(
            sweep_id, end=finished, cells=telemetry.total_cells
        )
        tracer.ingest(parent_recorder.drain())
        if own_recorder:
            from ..obs.spans import disable as _spans_disable

            _spans_disable()
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
