"""Tests for trace transformations."""

import pytest

from repro.trace import synthetic
from repro.trace.events import BranchClass, TraceBuilder
from repro.trace.transforms import (
    filter_sites,
    merge,
    skip_warmup,
    split_phases,
    subsample_sites,
    window,
)


def _mixed():
    builder = TraceBuilder(name="m")
    for i in range(10):
        builder.conditional(0xA, i % 2 == 0, work=3)
        builder.call(0xC)
        builder.conditional(0xB, True, work=3)
    return builder.build()


class TestWindow:
    def test_slice(self):
        trace = _mixed()
        piece = window(trace, 5, 10)
        assert len(piece) == 10
        assert piece[0] == trace[5]

    def test_clamps(self):
        trace = _mixed()
        assert len(window(trace, 25, 100)) == 5
        assert len(window(trace, 100, 10)) == 0

    def test_instret_preserved(self):
        trace = _mixed()
        piece = window(trace, 3, 4)
        assert piece[0].instret == trace[3].instret

    def test_validation(self):
        with pytest.raises(ValueError):
            window(_mixed(), -1, 5)


class TestSkipWarmup:
    def test_drops_first_n_conditionals(self):
        trace = _mixed()
        warm = skip_warmup(trace, 6)
        assert warm.num_conditional() == trace.num_conditional() - 6

    def test_zero_is_identity_length(self):
        trace = _mixed()
        assert len(skip_warmup(trace, 0)) == len(trace)

    def test_more_than_available(self):
        trace = _mixed()
        assert len(skip_warmup(trace, 10_000)) == 0


class TestFilterSites:
    def test_keep(self):
        trace = _mixed()
        only_a = filter_sites(trace, {0xA})
        conditional_pcs = {r.pc for r in only_a if r.is_conditional}
        assert conditional_pcs == {0xA}

    def test_drop(self):
        trace = _mixed()
        without_a = filter_sites(trace, {0xA}, keep=False)
        conditional_pcs = {r.pc for r in without_a if r.is_conditional}
        assert conditional_pcs == {0xB}

    def test_non_conditionals_survive(self):
        trace = _mixed()
        filtered = filter_sites(trace, {0xA})
        calls = sum(1 for r in filtered if r.branch_class is BranchClass.CALL)
        assert calls == 10

    def test_subsample_predicate(self):
        trace = _mixed()
        even = subsample_sites(trace, lambda pc: pc % 2 == 0)
        conditional_pcs = {r.pc for r in even if r.is_conditional}
        assert conditional_pcs == {0xA}


class TestSplitPhases:
    def test_pieces_cover_everything(self):
        trace = synthetic.loop_trace(iterations=30, trip_count=5)
        pieces = split_phases(trace, 4)
        assert len(pieces) == 4
        assert sum(len(p) for p in pieces) == len(trace)

    def test_single_phase(self):
        trace = _mixed()
        pieces = split_phases(trace, 1)
        assert len(pieces) == 1
        assert len(pieces[0]) == len(trace)

    def test_validation(self):
        with pytest.raises(ValueError):
            split_phases(_mixed(), 0)


class TestMerge:
    def test_lengths_add(self):
        a = synthetic.loop_trace(iterations=5, trip_count=3)
        b = synthetic.loop_trace(iterations=7, trip_count=2, pc=0x99)
        merged = merge([a, b])
        assert len(merged) == len(a) + len(b)

    def test_records_preserved_in_order(self):
        a = synthetic.loop_trace(iterations=2, trip_count=2)
        b = synthetic.periodic_trace([False], repeats=3)
        merged = merge([a, b])
        assert len(merged) == len(a) + len(b)
        assert [r.taken for r in merged] == [r.taken for r in a] + [r.taken for r in b]

    def test_instret_monotone_and_rebased(self):
        a = synthetic.loop_trace(iterations=5, trip_count=3)
        b = synthetic.loop_trace(iterations=5, trip_count=3)
        merged = merge([a, b])
        instrets = [r.instret for r in merged]
        assert instrets == sorted(instrets)
        assert instrets[-1] > a[len(a) - 1].instret

    def test_traps_preserved(self):
        builder = TraceBuilder()
        builder.trap()
        builder.conditional(1, True)
        merged = merge([builder.build(), _mixed()])
        assert merged[0].trap
