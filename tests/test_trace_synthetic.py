"""Tests for the synthetic trace generators."""

import pytest

from repro.trace import synthetic
from repro.trace.stats import compute_stats
from repro.trace.transforms import merge


class TestLoopTrace:
    def test_length(self):
        trace = synthetic.loop_trace(iterations=10, trip_count=5)
        assert len(trace) == 50

    def test_taken_pattern(self):
        trace = synthetic.loop_trace(iterations=2, trip_count=3)
        assert [r.taken for r in trace] == [True, True, False, True, True, False]

    def test_trip_count_one_never_taken(self):
        trace = synthetic.loop_trace(iterations=4, trip_count=1)
        assert all(not r.taken for r in trace)

    def test_rejects_zero_trip(self):
        with pytest.raises(ValueError):
            synthetic.loop_trace(iterations=1, trip_count=0)

    def test_single_site(self):
        trace = synthetic.loop_trace(iterations=5, trip_count=4, pc=0x42)
        assert trace.static_branch_sites() == [0x42]


class TestPeriodicTrace:
    def test_pattern_repeats(self):
        trace = synthetic.periodic_trace([True, False, False], repeats=2)
        assert [r.taken for r in trace] == [True, False, False, True, False, False]

    def test_rejects_empty_pattern(self):
        with pytest.raises(ValueError):
            synthetic.periodic_trace([], repeats=3)


class TestBiasedTrace:
    def test_empirical_rate_near_parameter(self):
        trace = synthetic.biased_trace(20_000, taken_probability=0.65, seed=7)
        stats = compute_stats(trace)
        assert stats.taken_rate == pytest.approx(0.65, abs=0.02)

    def test_deterministic_given_seed(self):
        a = synthetic.biased_trace(100, 0.5, seed=3)
        b = synthetic.biased_trace(100, 0.5, seed=3)
        assert [r.taken for r in a] == [r.taken for r in b]

    def test_different_seeds_differ(self):
        a = synthetic.biased_trace(100, 0.5, seed=3)
        b = synthetic.biased_trace(100, 0.5, seed=4)
        assert [r.taken for r in a] != [r.taken for r in b]

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            synthetic.biased_trace(10, 1.5)


class TestCorrelatedPair:
    def test_b_repeats_a(self):
        trace = synthetic.correlated_pair_trace(50, seed=1)
        records = list(trace)
        for i in range(0, len(records), 2):
            assert records[i].taken == records[i + 1].taken
            assert records[i].pc != records[i + 1].pc


class TestMarkovTrace:
    def test_sticky_chain_has_long_runs(self):
        trace = synthetic.markov_trace(5000, 0.95, 0.95, seed=2)
        outcomes = [r.taken for r in trace]
        transitions = sum(1 for a, b in zip(outcomes, outcomes[1:]) if a != b)
        assert transitions < 0.15 * len(outcomes)

    def test_anti_sticky_chain_alternates(self):
        trace = synthetic.markov_trace(5000, 0.05, 0.05, seed=2)
        outcomes = [r.taken for r in trace]
        transitions = sum(1 for a, b in zip(outcomes, outcomes[1:]) if a != b)
        assert transitions > 0.85 * (len(outcomes) - 1)


class TestInterleaved:
    def test_sites_and_round_robin(self):
        sources = [synthetic.loop_source(3), synthetic.alternating_source()]
        trace = synthetic.interleaved(sources, length=10, base_pc=0x100, pc_stride=0x10)
        pcs = [r.pc for r in trace]
        assert pcs[:4] == [0x100, 0x110, 0x100, 0x110]

    def test_per_site_sequences_preserved(self):
        sources = [synthetic.pattern_source([True, False]), synthetic.loop_source(2)]
        trace = synthetic.interleaved(sources, length=8)
        site0 = [r.taken for r in trace if r.pc == trace[0].pc]
        assert site0 == [True, False, True, False]

    def test_rejects_no_sources(self):
        with pytest.raises(ValueError):
            synthetic.interleaved([], length=5)


class TestSources:
    def test_loop_source(self):
        source = synthetic.loop_source(3)
        assert [source(i) for i in range(6)] == [True, True, False, True, True, False]

    def test_pattern_source(self):
        source = synthetic.pattern_source([True, False, False])
        assert [source(i) for i in range(4)] == [True, False, False, True]

    def test_source_validation(self):
        with pytest.raises(ValueError):
            synthetic.loop_source(0)
        with pytest.raises(ValueError):
            synthetic.pattern_source([])


class TestConcat:
    def test_instret_monotonic(self):
        a = synthetic.loop_trace(iterations=3, trip_count=3)
        b = synthetic.loop_trace(iterations=3, trip_count=3)
        combined = merge([a, b])
        instrets = [r.instret for r in combined]
        assert instrets == sorted(instrets)
        assert instrets[-1] > instrets[len(a) - 1]
