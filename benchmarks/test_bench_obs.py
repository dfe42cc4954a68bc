"""Observability overhead pins.

Two guarantees ride the probe design and both are checked here against
a **reference copy of the pre-observability engine loop** kept inline
in this module:

* probe-off: ``simulate(..., probe=None)`` runs the identical loop, so
  its best-of-N time must stay within 5% of the reference loop;
* probe-on: the full metric probe set still produces a bit-identical
  ``SimulationResult`` (the overhead is whatever the metrics cost —
  measured and recorded, not pinned).
"""

import time

import pytest

from repro.core.twolevel import make_pag
from repro.obs import (
    IntervalSeriesProbe,
    ProbeSet,
    StreakHistogramProbe,
    TableStatsProbe,
    TopOffendersProbe,
    WarmupCurveProbe,
)
from repro.sim.engine import ContextSwitchConfig, simulate
from repro.sim.results import SimulationResult
from repro.trace import synthetic
from repro.trace.events import BranchClass

BEST_OF = 9


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


def test_bench_probe_off_overhead_under_5pct(benchmark, overhead_trace):
    reference_best, reference_result, probe_off_best, probe_off_result = _paired_best_of(
        lambda: _reference_simulate(make_pag(12), overhead_trace),
        lambda: simulate(make_pag(12), overhead_trace, probe=None),
    )
    assert probe_off_result == reference_result
    ratio = probe_off_best / reference_best
    benchmark.extra_info["reference_best_s"] = round(reference_best, 4)
    benchmark.extra_info["probe_off_best_s"] = round(probe_off_best, 4)
    benchmark.extra_info["overhead_ratio"] = round(ratio, 4)
    benchmark.pedantic(
        lambda: simulate(make_pag(12), overhead_trace), rounds=1, iterations=1
    )
    assert ratio < 1.05, (
        f"probe-off engine is {ratio:.3f}x the pre-observability loop "
        f"({probe_off_best:.4f}s vs {reference_best:.4f}s best-of-{BEST_OF})"
    )


def test_bench_full_probe_set_equivalent_and_measured(benchmark, overhead_trace):
    config = ContextSwitchConfig(interval=50_000)

    def probes():
        return ProbeSet(
            [
                IntervalSeriesProbe(10_000),
                StreakHistogramProbe(),
                TopOffendersProbe(k=10),
                WarmupCurveProbe(),
                TableStatsProbe(),
            ]
        )

    bare_best, bare, probed_best, probed = _paired_best_of(
        lambda: simulate(make_pag(12), overhead_trace, context_switches=config),
        lambda: simulate(
            make_pag(12), overhead_trace, context_switches=config, probe=probes()
        ),
        rounds=3,
    )
    assert probed == bare
    benchmark.extra_info["bare_best_s"] = round(bare_best, 4)
    benchmark.extra_info["probed_best_s"] = round(probed_best, 4)
    benchmark.extra_info["probe_cost_ratio"] = round(probed_best / bare_best, 4)
    benchmark.pedantic(
        lambda: simulate(
            make_pag(12), overhead_trace, context_switches=config, probe=probes()
        ),
        rounds=1,
        iterations=1,
    )
