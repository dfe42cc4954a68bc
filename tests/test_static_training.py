"""Tests for the Static Training schemes (GSg / PSg)."""

import pytest

from repro.core.static_training import (
    GSgPredictor,
    PSgPredictor,
    train_global_presets,
    train_per_address_presets,
)
from repro.core.twolevel import TwoLevelConfig, make_gag
from repro.sim.engine import simulate
from repro.trace.events import TraceBuilder


def _single_branch_trace(outcomes, pc=0x10, name="t"):
    builder = TraceBuilder(name=name)
    for outcome in outcomes:
        builder.conditional(pc, outcome)
    return builder.build()


class TestGlobalTraining:
    def test_majority_direction_per_pattern(self):
        # Period-2 pattern T,N,T,N...: after history 10 (T then N) the
        # next outcome is T; after 01 (N then T) it is N.
        trace = _single_branch_trace([True, False] * 50)
        presets = train_global_presets(trace, 2)
        assert presets[0b10] is True
        assert presets[0b01] is False

    def test_ties_resolve_taken(self):
        trace = _single_branch_trace([True, False, True, True, False, False])
        presets = train_global_presets(trace, 12)
        # The all-ones initial pattern saw exactly one outcome: taken.
        assert presets[0xFFF] is True

    def test_ignores_non_conditional_records(self):
        builder = TraceBuilder()
        builder.call(0x1)
        builder.conditional(0x10, True)
        builder.unconditional(0x2)
        builder.conditional(0x10, True)
        presets = train_global_presets(builder.build(), 4)
        assert presets == {0b1111: True}

    def test_empty_trace(self):
        assert train_global_presets(_single_branch_trace([]), 4) == {}


class TestPerAddressTraining:
    def test_separates_branch_histories(self):
        builder = TraceBuilder()
        # Branch A always taken; branch B always not taken. With
        # per-address histories they train different patterns.
        for _ in range(20):
            builder.conditional(0xA, True)
            builder.conditional(0xB, False)
        presets = train_per_address_presets(builder.build(), 3)
        assert presets[0b111] is True  # A's steady pattern
        assert presets[0b000] is False  # B's steady pattern


class TestGSgPredictor:
    def test_frozen_second_level(self):
        trace = _single_branch_trace([True] * 40)
        predictor = GSgPredictor.trained_on(trace, 4)
        # Feed contradicting outcomes: predictions must not adapt.
        for _ in range(20):
            assert predictor.predict(0x10) is True
            predictor.update(0x10, False)
        # History register is all-zero now; unseen pattern -> default taken.
        assert predictor.predict(0x10) is True

    def test_perfect_on_matching_data(self):
        pattern = [True, True, False]
        train = _single_branch_trace(pattern * 60)
        test = _single_branch_trace(pattern * 60)
        predictor = GSgPredictor.trained_on(train, 6)
        result = simulate(predictor, test)
        assert result.accuracy > 0.95

    def test_degrades_on_shifted_data(self):
        # Train on one pattern, test on its complement: worse than the
        # adaptive GAg on the same test trace (the paper's §2 argument).
        train = _single_branch_trace([True, True, False] * 60)
        test = _single_branch_trace([False, False, True] * 60)
        static = simulate(GSgPredictor.trained_on(train, 6), test).accuracy
        adaptive = simulate(make_gag(6), test).accuracy
        assert adaptive > static

    def test_context_switch_reinitialises_history(self):
        predictor = GSgPredictor(4, {})
        predictor.update(0, False)
        predictor.on_context_switch()
        assert predictor.ghr == 0b1111

    def test_name(self):
        assert GSgPredictor(12, {}).name == "GSg(HR(1,,12-sr),1xPHT(2^12,PB))"


class TestPSgPredictor:
    def test_trained_on_classmethod(self):
        trace = _single_branch_trace([True, False] * 100)
        predictor = PSgPredictor.trained_on(trace, 4)
        result = simulate(predictor, _single_branch_trace([True, False] * 100))
        assert result.accuracy > 0.9

    def test_updates_first_level_only(self):
        trace = _single_branch_trace([True] * 10)
        predictor = PSgPredictor.trained_on(trace, 4)
        predictor.predict(0x10)
        predictor.update(0x10, False)
        entry = predictor.bht.peek(0x10)
        assert entry is not None
        assert entry.value == 0b0000  # outcome-extension on first update

    def test_name(self):
        trace = _single_branch_trace([True] * 4)
        predictor = PSgPredictor.trained_on(trace, 12, bht_entries=512, bht_associativity=4)
        assert predictor.name == "PSg(BHT(512,4,12-sr),1xPHT(2^12,PB))"

    def test_context_switch_flushes_bht(self):
        predictor = PSgPredictor(TwoLevelConfig(history_bits=4), {})
        predictor.predict(0x10)
        predictor.on_context_switch()
        assert predictor.bht.peek(0x10) is None
