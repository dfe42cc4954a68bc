"""Span-tracing overhead pin and the traced-sweep acceptance check.

Two guarantees from the span design, checked the same way the probe
layer pins its own overhead (see ``test_bench_obs.py``):

* span-off: with no active recorder, ``simulate`` runs the identical
  loop — its best-of-N time must stay within 5% of the inline copy of
  the pre-observability reference loop;
* traced sweep: a full 9-scheme sweep with a collector attached
  produces a Perfetto-loadable Chrome trace whose per-cell span totals
  this bench checks against the ``CellTelemetry`` phase times within 1%
  (float microsecond rounding aside, they are the same span durations;
  ``tests/test_obs_spans.py`` asserts their exact equality).
"""

import json
import time

import pytest

from repro.core.twolevel import make_pag
from repro.obs.spans import (
    SpanCollector,
    cell_phase_totals,
    get_recorder,
    to_chrome_trace,
    validate_chrome_trace,
    validate_span_tree,
)
from repro.sim.engine import simulate
from repro.sim.parallel import spec
from repro.sim.results import SimulationResult
from repro.sim.runner import BenchmarkCase, run_matrix
from repro.trace import synthetic
from repro.trace.events import BranchClass

BEST_OF = 9

#: Nine scheme variants at small, fast table sizes.
NINE_SCHEMES = (
    "gag-6", "gap-6", "gshare-6",
    "pag-6", "pap-6",
    "sag-6x4", "sas-6x4",
    "gselect-4+4", "tournament",
)


def _reference_simulate(predictor, trace, context_switches=None):
    """The engine loop exactly as it was before the probe layer landed."""
    conditional = 0
    correct = 0
    switches = 0

    cs_enabled = context_switches is not None
    interval = context_switches.interval if cs_enabled else 0
    switch_on_traps = context_switches.switch_on_traps if cs_enabled else False
    next_switch = interval

    predict = predictor.predict
    update = predictor.update
    cond_class = int(BranchClass.CONDITIONAL)

    for pc, taken, cls, target, instret, trap in trace.iter_tuples():
        if cs_enabled and ((trap and switch_on_traps) or instret >= next_switch):
            predictor.on_context_switch()
            switches += 1
            next_switch = instret + interval
        if cls != cond_class:
            continue
        prediction = predict(pc, target)
        update(pc, taken, target)
        conditional += 1
        if prediction == taken:
            correct += 1

    return SimulationResult(
        predictor_name=predictor.name,
        trace_name=trace.meta.name,
        dataset=trace.meta.dataset,
        conditional_branches=conditional,
        correct_predictions=correct,
        context_switches=switches,
        total_instructions=trace.meta.total_instructions,
    )


def _paired_best_of(first, second, rounds=BEST_OF):
    """Best-of-``rounds`` times and last values of ``first`` and
    ``second``, timed in interleaved rounds that alternate which side
    runs first, so a drift in the host's speed reaches both sides."""
    fns = (first, second)
    best = [float("inf"), float("inf")]
    values = [None, None]
    for round_ in range(rounds):
        for side in (0, 1) if round_ % 2 == 0 else (1, 0):
            started = time.perf_counter()
            values[side] = fns[side]()
            best[side] = min(best[side], time.perf_counter() - started)
    return best[0], values[0], best[1], values[1]


@pytest.fixture(scope="module")
def overhead_trace():
    sources = [synthetic.loop_source(t) for t in (3, 5, 9)] + [
        synthetic.pattern_source([True, True, False, True]),
    ]
    return synthetic.interleaved(sources, length=60_000)


def test_bench_span_off_overhead_under_5pct(benchmark, overhead_trace):
    assert get_recorder() is None, "a recorder leaked into the benchmark process"
    reference_best, reference_result, span_off_best, span_off_result = _paired_best_of(
        lambda: _reference_simulate(make_pag(12), overhead_trace),
        lambda: simulate(make_pag(12), overhead_trace),
    )
    assert span_off_result == reference_result
    ratio = span_off_best / reference_best
    benchmark.extra_info["reference_best_s"] = round(reference_best, 4)
    benchmark.extra_info["span_off_best_s"] = round(span_off_best, 4)
    benchmark.extra_info["overhead_ratio"] = round(ratio, 4)
    benchmark.pedantic(
        lambda: simulate(make_pag(12), overhead_trace), rounds=1, iterations=1
    )
    assert ratio < 1.05, (
        f"span-off engine is {ratio:.3f}x the pre-observability loop "
        f"({span_off_best:.4f}s vs {reference_best:.4f}s best-of-{BEST_OF})"
    )


def test_bench_traced_nine_scheme_sweep_acceptance(benchmark, tmp_path):
    cases = [
        BenchmarkCase(
            name=name,
            category="int",
            test_trace=synthetic.loop_trace(iterations=600, trip_count=trip, name=name),
        )
        for name, trip in (("loopA", 7), ("loopB", 5))
    ]
    builders = {name: spec(name) for name in NINE_SCHEMES}
    tracer = SpanCollector()

    started = time.perf_counter()
    matrix = run_matrix(builders, cases, n_workers=2, tracer=tracer)
    wall = time.perf_counter() - started

    problems = validate_span_tree(tracer.spans)
    assert problems == []

    # Perfetto-loadable: the exported JSON passes the same validator CI
    # runs on the artifact, after a real serialisation round-trip.
    payload = to_chrome_trace(tracer.spans, label="bench: nine-scheme sweep")
    target = tmp_path / "trace.json"
    target.write_text(json.dumps(payload), encoding="utf-8")
    assert validate_chrome_trace(json.loads(target.read_text(encoding="utf-8"))) == []

    # Per-cell span totals agree with CellTelemetry phases within 1%.
    totals = cell_phase_totals(tracer.spans)
    cells = {(c.scheme, c.benchmark): c for c in matrix.telemetry.cells}
    assert set(totals) == set(cells)
    assert len(cells) == len(NINE_SCHEMES) * len(cases)
    worst = 0.0
    for key, phases in totals.items():
        for phase, seconds in phases.items():
            reference = cells[key].phases[phase]
            if reference <= 0.0:
                assert seconds == pytest.approx(0.0, abs=1e-6)
                continue
            rel = abs(seconds - reference) / reference
            # sub-ms phases: float-µs rounding dominates, allow 1 µs
            if abs(seconds - reference) > 1e-6:
                worst = max(worst, rel)
                assert rel <= 0.01, (
                    f"{key} {phase}: span {seconds:.6f}s vs telemetry "
                    f"{reference:.6f}s ({rel:.2%} apart)"
                )

    benchmark.extra_info["sweep_wall_s"] = round(wall, 4)
    benchmark.extra_info["spans"] = len(tracer.spans)
    benchmark.extra_info["worst_phase_rel_err"] = round(worst, 6)
    benchmark.pedantic(
        lambda: run_matrix(builders, cases, n_workers=2, tracer=SpanCollector()),
        rounds=1,
        iterations=1,
    )
