"""Probe API and metric-probe tests.

The load-bearing property is **equivalence**: attaching any probe (or
all of them at once) must leave the engine's ``SimulationResult``
bit-identical to a probe-free run. Everything else — metric
correctness, interval clock semantics, ProbeSet composition — is
checked on hand-built branch streams where the right answer is obvious.
"""

import pytest

from repro.core.automata import A2
from repro.core.twolevel import GAgPredictor, make_pag
from repro.obs import (
    EventTraceProbe,
    IntervalSeriesProbe,
    Probe,
    ProbeSet,
    StreakHistogramProbe,
    TableStatsProbe,
    TopOffendersProbe,
    WarmupCurveProbe,
)
from repro.sim.engine import ContextSwitchConfig, simulate
from repro.trace.events import TraceBuilder
from repro.trace.synthetic import loop_trace, markov_trace


def _mixed_trace(branches=2500, name="obs-mixed"):
    """~10k instructions: loops, a markov site, traps, several sites."""
    builder = TraceBuilder(name=name, dataset="synthetic", source="test")
    for i in range(branches):
        builder.instructions(3)
        builder.conditional(0x1000, i % 5 != 4)            # loop, trip 5
        builder.conditional(0x2000, i % 2 == 0)            # alternating
        builder.conditional(0x3000, (i * 7) % 11 < 6)      # irregular
        if i % 400 == 399:
            builder.trap()
        builder.unconditional(0x4000, target=0x1000)
    return builder.build()


def _full_probe_set(events_path=None):
    probes = ProbeSet(
        [
            IntervalSeriesProbe(1000),
            StreakHistogramProbe(),
            TopOffendersProbe(k=5),
            WarmupCurveProbe(window_branches=64, max_windows=8),
            TableStatsProbe(),
        ]
    )
    if events_path is not None:
        probes.add(EventTraceProbe(events_path, sample_every=50))
    return probes


class TestEquivalence:
    """Probes never change a result — the core contract."""

    @pytest.mark.parametrize("with_switches", [False, True])
    def test_full_probe_set_is_bit_identical(self, with_switches, tmp_path):
        trace = _mixed_trace()
        config = (
            ContextSwitchConfig(interval=2000) if with_switches else None
        )
        bare = simulate(make_pag(8), trace, context_switches=config)
        probed = simulate(
            make_pag(8),
            trace,
            context_switches=config,
            probe=_full_probe_set(tmp_path / "events.jsonl"),
        )
        assert probed == bare

    def test_single_probe_is_bit_identical(self):
        trace = markov_trace(length=4000, p_stay_taken=0.8, p_stay_not_taken=0.6)
        bare = simulate(GAgPredictor(6, A2), trace)
        probed = simulate(GAgPredictor(6, A2), trace, probe=StreakHistogramProbe())
        assert probed == bare

    def test_track_per_site_matches_offender_probe(self):
        trace = _mixed_trace(branches=600)
        offenders = TopOffendersProbe(k=10)
        probed = simulate(make_pag(8), trace, track_per_site=True, probe=offenders)
        table = {row.pc: row for row in offenders.table()}
        assert {pc: row.mispredicts for pc, row in table.items()} == dict(
            probed.per_site_mispredictions
        )
        assert {pc: row.executions for pc, row in table.items()} == dict(
            probed.per_site_executions
        )


class TestEngineCallbacks:
    def test_branch_and_switch_callback_counts(self):
        class Counter(Probe):
            def __init__(self):
                self.branches = 0
                self.switches = 0
                self.started = 0
                self.ended = []

            def on_run_start(self, predictor, trace):
                self.started += 1

            def on_branch(self, pc, predicted, taken, instret):
                self.branches += 1

            def on_context_switch(self, instret):
                self.switches += 1

            def on_run_end(self, result):
                self.ended.append(result)

        trace = _mixed_trace(branches=500)
        counter = Counter()
        result = simulate(
            make_pag(8), trace, context_switches=ContextSwitchConfig(1500), probe=counter
        )
        assert counter.started == 1
        assert counter.branches == result.conditional_branches
        assert counter.switches == result.context_switches > 0
        assert counter.ended == [result]

    def test_interval_clock_fires_monotonic_completed_windows(self):
        class Ticks(Probe):
            interval_instructions = 1000

            def __init__(self):
                self.ticks = []

            def on_interval(self, index, instret):
                self.ticks.append((index, instret))

        trace = _mixed_trace(branches=1000)
        ticks = Ticks()
        simulate(make_pag(8), trace, probe=ticks)
        indexes = [index for index, _ in ticks.ticks]
        assert indexes == sorted(indexes)
        assert len(set(indexes)) == len(indexes)
        for index, instret in ticks.ticks:
            assert instret >= (index + 1) * 1000

    def test_no_interval_ticks_without_window(self):
        class Ticks(Probe):
            def __init__(self):
                self.ticks = 0

            def on_interval(self, index, instret):
                self.ticks += 1

        ticks = Ticks()
        simulate(make_pag(8), loop_trace(iterations=100, trip_count=4), probe=ticks)
        assert ticks.ticks == 0


class TestProbeSet:
    def test_window_adopted_from_members(self):
        probes = ProbeSet([StreakHistogramProbe(), IntervalSeriesProbe(500)])
        assert probes.interval_instructions == 500

    def test_conflicting_windows_raise(self):
        probes = ProbeSet([IntervalSeriesProbe(500)])
        with pytest.raises(ValueError, match="conflicting interval windows"):
            probes.add(IntervalSeriesProbe(1000))

    def test_matching_windows_compose(self):
        probes = ProbeSet([IntervalSeriesProbe(500), IntervalSeriesProbe(500)])
        assert len(probes) == 2
        assert probes.interval_instructions == 500

    def test_fans_out_to_all_members(self):
        first, second = StreakHistogramProbe(), StreakHistogramProbe()
        trace = markov_trace(length=1000, p_stay_taken=0.7, p_stay_not_taken=0.7)
        simulate(GAgPredictor(4, A2), trace, probe=ProbeSet([first, second]))
        assert first.histogram == second.histogram
        assert first.total_mispredicts > 0


class TestStreakHistogram:
    def test_hand_built_stream(self):
        probe = StreakHistogramProbe()
        # Stream: miss, miss, hit, miss, hit, miss, miss, miss (end)
        outcomes = [False, False, True, False, True, False, False, False]
        for predicted_right in outcomes:
            probe.on_branch(0x10, True, predicted_right, 0)
        probe.on_run_end(None)
        assert probe.histogram == {1: 1, 2: 1, 3: 1}
        assert probe.max_streak == 3
        assert probe.total_streaks == 3
        assert probe.total_mispredicts == 6
        assert probe.mean_streak() == 2.0

    def test_total_mispredicts_matches_result(self):
        trace = _mixed_trace(branches=500)
        probe = StreakHistogramProbe()
        result = simulate(make_pag(8), trace, probe=probe)
        assert probe.total_mispredicts == result.mispredictions


class TestIntervalSeries:
    def test_points_partition_the_branch_stream(self):
        trace = _mixed_trace(branches=1200)
        probe = IntervalSeriesProbe(1000)
        result = simulate(make_pag(8), trace, probe=probe)
        assert sum(p.branches for p in probe.points) == result.conditional_branches
        assert sum(p.mispredicts for p in probe.points) == result.mispredictions
        indexes = [p.index for p in probe.points]
        assert indexes == sorted(indexes)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            IntervalSeriesProbe(0)


class TestTopOffenders:
    def test_ranking_and_tiebreak(self):
        probe = TopOffendersProbe(k=2)
        for _ in range(3):
            probe.on_branch(0x30, True, False, 0)   # 3 misses
        for _ in range(2):
            probe.on_branch(0x20, True, False, 0)   # 2 misses
            probe.on_branch(0x10, True, False, 0)   # 2 misses (lower pc)
        probe.on_branch(0x40, True, True, 0)        # hit only
        table = probe.table()
        assert [row.pc for row in table] == [0x30, 0x10]
        assert probe.static_sites == 4
        assert table[0].mispredicts == 3
        assert table[1].accuracy == 0.0

    def test_taken_rate(self):
        probe = TopOffendersProbe(k=1)
        probe.on_branch(0x10, True, True, 0)
        probe.on_branch(0x10, True, False, 0)
        row = probe.table()[0]
        assert row.taken_rate == 0.5
        assert row.executions == 2


class TestWarmupCurve:
    def test_segments_and_positionwise_sum(self):
        trace = _mixed_trace(branches=1000)
        probe = WarmupCurveProbe(window_branches=100, max_windows=4)
        result = simulate(
            make_pag(8), trace, context_switches=ContextSwitchConfig(2000), probe=probe
        )
        assert probe.segments == result.context_switches + 1
        curve = probe.curve()
        assert 0 < len(curve) <= 4
        assert all(w.branches > 0 for w in curve)
        # Early windows see more segments' worth of branches than the cap allows losing.
        assert curve[0].branches >= curve[-1].branches

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            WarmupCurveProbe(window_branches=0)
        with pytest.raises(ValueError):
            WarmupCurveProbe(max_windows=0)
