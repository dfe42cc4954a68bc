"""Tests for branch records, traces and the trace builder."""

import pytest

from repro.trace.events import BranchClass, BranchRecord, Trace, TraceBuilder, TraceMeta


class TestBranchRecord:
    def test_defaults(self):
        record = BranchRecord(pc=0x100, taken=True)
        assert record.branch_class is BranchClass.CONDITIONAL
        assert record.is_conditional
        assert not record.trap

    def test_non_conditional(self):
        record = BranchRecord(pc=1, taken=True, branch_class=BranchClass.CALL)
        assert not record.is_conditional

    def test_short_names(self):
        assert BranchClass.CONDITIONAL.short_name == "cond"
        assert BranchClass.RETURN.short_name == "return"


class TestTraceBuilder:
    def test_instret_accumulates_work_and_branches(self):
        builder = TraceBuilder()
        builder.instructions(10)
        builder.conditional(0x1, True, work=5)
        # 10 + 5 work + the branch itself.
        assert builder.instret == 16
        trace = builder.build()
        assert trace[0].instret == 16

    def test_branch_returns_its_outcome(self):
        builder = TraceBuilder()
        assert builder.conditional(0x1, True) is True
        assert builder.conditional(0x1, False) is False

    def test_non_conditional_forced_taken(self):
        builder = TraceBuilder()
        builder.branch(0x1, False, BranchClass.CALL)
        assert builder.build()[0].taken is True

    def test_trap_attaches_to_next_branch(self):
        builder = TraceBuilder()
        builder.conditional(0x1, True)
        builder.trap()
        builder.conditional(0x2, False)
        builder.conditional(0x3, True)
        trace = builder.build()
        assert [r.trap for r in trace] == [False, True, False]

    def test_negative_work_rejected(self):
        builder = TraceBuilder()
        with pytest.raises(ValueError):
            builder.instructions(-1)

    def test_negative_branch_work_rejected(self):
        from repro.workloads.base import BranchProbe

        builder = TraceBuilder()
        builder.conditional(1, True, work=5)
        probe = BranchProbe("ns", builder)
        for record in (
            lambda: builder.branch(1, True, work=-1),
            lambda: builder.conditional(1, True, work=-10),
            lambda: builder.unconditional(1, work=-1),
            lambda: builder.call(1, work=-1),
            lambda: builder.ret(1, work=-1),
            lambda: probe.cond("site", True, work=-1),
            lambda: probe.while_("loop", True, work=-1),
            lambda: list(probe.loop("loop", 2, work=-1)),
        ):
            with pytest.raises(ValueError):
                record()
        assert len(builder) == 1
        trace = builder.build()
        assert trace.columns[4] == [6]
        assert trace.meta.total_instructions == 6

    def test_convenience_wrappers_set_classes(self):
        builder = TraceBuilder()
        builder.conditional(1, True)
        builder.unconditional(2)
        builder.call(3)
        builder.ret(4)
        classes = [r.branch_class for r in builder.build()]
        assert classes == [
            BranchClass.CONDITIONAL,
            BranchClass.UNCONDITIONAL,
            BranchClass.CALL,
            BranchClass.RETURN,
        ]

    def test_meta_propagates(self):
        builder = TraceBuilder(name="bench", dataset="input1", source="workload")
        builder.conditional(1, True)
        trace = builder.build()
        assert trace.meta.name == "bench"
        assert trace.meta.dataset == "input1"
        assert trace.meta.source == "workload"
        assert trace.meta.total_instructions == builder.instret


class TestTrace:
    def _trace(self):
        builder = TraceBuilder(name="t")
        builder.conditional(0xA, True, work=2)
        builder.call(0xB)
        builder.conditional(0xA, False, work=2)
        builder.conditional(0xC, True, work=2)
        return builder.build()

    def test_len_and_getitem(self):
        trace = self._trace()
        assert len(trace) == 4
        assert trace[0].pc == 0xA
        assert trace[1].branch_class is BranchClass.CALL

    def test_iteration_yields_records(self):
        records = list(self._trace())
        assert all(isinstance(r, BranchRecord) for r in records)

    def test_iter_tuples_matches_records(self):
        trace = self._trace()
        for record, row in zip(trace, trace.iter_tuples()):
            assert (record.pc, record.taken) == (row[0], row[1])

    def test_conditional_only(self):
        conditional = self._trace().conditional_only()
        assert len(conditional) == 3
        assert all(r.is_conditional for r in conditional)

    def test_head(self):
        assert len(self._trace().head(2)) == 2

    def test_select(self):
        selected = self._trace().select([0, 3])
        assert [r.pc for r in selected] == [0xA, 0xC]

    def test_static_branch_sites_conditional_only(self):
        assert self._trace().static_branch_sites() == [0xA, 0xC]

    def test_num_conditional(self):
        assert self._trace().num_conditional() == 3

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trace(TraceMeta(), [1], [True, False], [0], [0], [0], [False])

    def test_repr_mentions_counts(self):
        text = repr(self._trace())
        assert "records=4" in text
        assert "conditional=3" in text
