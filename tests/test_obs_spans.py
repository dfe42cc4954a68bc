"""Tests for cross-process span tracing (repro.obs.spans).

The guarantees under test:

* recorder semantics: nesting against an injectable clock, lenient
  id-anchored popping, discarding, reserved args;
* tree integrity: parent/child nesting and containment, monotone
  timestamps across the fork boundary, duplicate detection;
* loss tolerance: spans whose parent was never collected become
  roots without corrupting the sweep trace;
* transport: spans cross the process boundary pickled as they are;
* exactness: Chrome trace-event JSON round-trips spans bit-for-bit,
  and per-cell span totals equal the telemetry phase times;
* the sweep integration: serial and parallel traced sweeps produce
  valid trees whose spans agree with ``CellTelemetry``.
"""

import json
import pickle

import pytest

from repro.core.twolevel import make_gag
from repro.obs import ProbeSet
from repro.obs.export import load_spans, write_chrome_trace, write_spans
from repro.obs.spans import (
    Span,
    SpanCollector,
    SpanRecorder,
    build_span_tree,
    cell_phase_totals,
    cell_span_summaries,
    disable,
    enable,
    get_recorder,
    recording,
    span_totals,
    spans_from_chrome,
    summarize_spans,
    to_chrome_trace,
    validate_chrome_trace,
    validate_span_tree,
)
from repro.sim.engine import simulate
from repro.sim.parallel import spec
from repro.sim.runner import BenchmarkCase, run_matrix
from repro.trace import synthetic


class FakeClock:
    """Deterministic injectable clock (seconds)."""

    def __init__(self, start=100.0, step=0.001):
        self.now = start
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


def _recorder(**kwargs):
    kwargs.setdefault("clock", FakeClock())
    kwargs.setdefault("pid", 1234)
    return SpanRecorder(**kwargs)


def _span_at(recorder, clock, name, start, end, cat="", **args):
    """Record ``name`` over ``[start, end]`` seconds of a ``step=0`` clock."""
    clock.now = start
    recorder.push(name, cat=cat, **args)
    clock.now = end
    return recorder.pop()


def _sweep_fixture(n_workers=1, tracer=None):
    cases = [
        BenchmarkCase("loopA", "int", synthetic.loop_trace(300, 7, name="loopA")),
        BenchmarkCase("loopB", "fp", synthetic.loop_trace(260, 5, name="loopB")),
    ]
    builders = {"GAg-6": spec("gag-6"), "GAg-8": spec("gag-8")}
    return run_matrix(builders, cases, n_workers=n_workers, tracer=tracer)


class TestSpanRecorder:
    def test_push_pop_nests(self):
        recorder = _recorder()
        outer = recorder.push("outer", cat="sweep")
        inner = recorder.push("inner", cat="phase")
        recorder.pop()  # inner
        recorder.pop()  # outer
        spans = recorder.spans
        assert [span.name for span in spans] == ["inner", "outer"]
        by_name = {span.name: span for span in spans}
        assert by_name["inner"].parent_id == outer
        assert by_name["outer"].parent_id is None
        assert by_name["inner"].span_id == inner
        assert not validate_span_tree(spans)

    def test_explicit_start_end_seconds_are_exact(self):
        clock = FakeClock(start=10.0, step=0.0)
        recorder = _recorder(clock=clock)
        span_id = recorder.push("cell")
        clock.now = 10.5
        recorder.pop_through(span_id)
        (span,) = recorder.spans
        assert span.ts == 10.0 * 1e6
        assert span.dur == pytest.approx(0.5 * 1e6)
        assert span.seconds == pytest.approx(0.5)

    def test_record_retroactive_nests_under_open_span(self):
        clock = FakeClock(start=1.0, step=0.0)
        recorder = _recorder(clock=clock)
        cell = recorder.push("cell")
        phase = _span_at(recorder, clock, "trace_load", 1.0, 1.25, cat="phase")
        clock.now = 2.0
        recorder.pop_through(cell)
        assert phase.parent_id == cell
        assert phase.seconds == pytest.approx(0.25)
        assert not validate_span_tree(recorder.spans)

    def test_pop_through_closes_abandoned_children(self):
        recorder = _recorder()
        outer = recorder.push("outer")
        recorder.push("abandoned")
        recorder.push("deeper")
        span = recorder.pop_through(outer, flagged=True)
        assert span.name == "outer"
        assert span.args == {"flagged": True}
        assert recorder.depth == 0
        # all three closed, args only on the target
        assert {s.name for s in recorder.spans} == {"outer", "abandoned", "deeper"}
        assert all(s.args == {} for s in recorder.spans if s.name != "outer")

    def test_pop_through_unknown_id_is_noop(self):
        recorder = _recorder()
        recorder.push("outer")
        assert recorder.pop_through(999) is None
        assert recorder.depth == 1

    def test_pop_if_open_only_pops_top_of_stack(self):
        recorder = _recorder()
        outer = recorder.push("outer")
        inner = recorder.push("inner")
        assert recorder.pop_if_open(outer) is None  # not innermost
        assert recorder.depth == 2
        assert recorder.pop_if_open(inner).name == "inner"
        assert recorder.pop_if_open(inner) is None  # already closed
        assert recorder.depth == 1

    def test_reserved_args_rejected(self):
        recorder = _recorder()
        with pytest.raises(ValueError, match="reserved"):
            recorder.push("bad", span_id=7)
        with pytest.raises(ValueError, match="reserved"):
            recorder.push("bad", parent_id=3)

    def test_pop_empty_stack_raises(self):
        with pytest.raises(RuntimeError):
            _recorder().pop()

    def test_span_context_manager_closes_on_exception(self):
        recorder = _recorder()
        with pytest.raises(RuntimeError, match="boom"):
            with recorder.span("guarded"):
                recorder.push("left-open")
                raise RuntimeError("boom")
        assert recorder.depth == 0
        assert {s.name for s in recorder.spans} == {"guarded", "left-open"}

    def test_drain_clears_completed_keeps_open(self):
        recorder = _recorder()
        recorder.push("open")
        recorder.push("done")
        recorder.pop()
        drained = recorder.drain()
        assert [s.name for s in drained] == ["done"]
        assert recorder.spans == []
        assert recorder.depth == 1

    def test_discard_drops_the_span_and_its_subtree(self):
        recorder = _recorder()
        recorder.push("kept")
        recorder.pop()
        outer = recorder.push("outer")
        dropped = recorder.push("dropped")
        recorder.push("closed-inside")
        recorder.pop()
        recorder.push("open-inside")
        recorder.discard(dropped)
        assert recorder.depth == 1  # only "outer" is still open
        recorder.discard(dropped)  # no longer open: a no-op
        recorder.pop_through(outer)
        assert [span.name for span in recorder.spans] == ["kept", "outer"]

    def test_ids_monotone_across_cells(self):
        recorder = _recorder()
        first = recorder.push("cell")
        recorder.pop()
        recorder.drain()
        second = recorder.push("cell")
        recorder.pop()
        assert second > first  # ids never reused after a drain


class TestActiveRecorder:
    def test_enable_disable_get(self):
        assert get_recorder() is None
        recorder = SpanRecorder()
        assert enable(recorder) is recorder
        assert get_recorder() is recorder
        disable()
        assert get_recorder() is None

    def test_recording_context_manager(self):
        with recording() as recorder:
            assert get_recorder() is recorder
        assert get_recorder() is None


class TestEngineBlockSpans:
    def test_probed_and_bare_block_wise_runs_emit_the_same_block_spans(self):
        trace = synthetic.interleaved([synthetic.loop_source(5)], length=1000)
        counts = []
        for probe in (None, ProbeSet()):
            with recording() as recorder:
                simulate(make_gag(6), trace, probe=probe, block_size=100)
            counts.append(sum(span.name == "block" for span in recorder.spans))
        assert counts == [10, 10]


class TestPickling:
    def test_spans_pickle_as_they_are(self):
        # A worker returns its cell's spans in the future's result.
        clock = FakeClock(start=100.0, step=0.0)
        recorder = _recorder(clock=clock)
        with recorder.span("cell", cat="sweep", scheme="GAg", peak_rss_bytes=7):
            _span_at(recorder, clock, "build", 100.0, 100.1, cat="phase")
        spans = recorder.spans
        assert pickle.loads(pickle.dumps(spans)) == spans


class TestTreeIntegrity:
    def test_missing_parent_becomes_root(self):
        # A child whose parent batch was lost with a crashed worker.
        orphan = Span(name="simulate", cat="phase", ts=10.0, dur=5.0,
                      pid=99, tid=1, span_id=2, parent_id=1)
        roots, children = build_span_tree([orphan])
        assert roots == [orphan]
        assert children == {}
        assert not validate_span_tree([orphan])  # loss is not corruption

    def test_duplicate_identity_detected(self):
        span = Span(name="x", cat="", ts=0.0, dur=1.0, pid=1, tid=1, span_id=1)
        problems = validate_span_tree([span, span])
        assert any("duplicate" in problem for problem in problems)

    def test_negative_duration_detected(self):
        span = Span(name="x", cat="", ts=0.0, dur=-1.0, pid=1, tid=1, span_id=1)
        assert any("negative" in p for p in validate_span_tree([span]))

    def test_self_parent_detected(self):
        span = Span(name="x", cat="", ts=0.0, dur=1.0, pid=1, tid=1,
                    span_id=1, parent_id=1)
        assert any("own parent" in p for p in validate_span_tree([span]))

    def test_containment_violation_detected(self):
        parent = Span(name="p", cat="", ts=0.0, dur=10.0, pid=1, tid=1, span_id=1)
        escapee = Span(name="c", cat="", ts=5.0, dur=100.0, pid=1, tid=1,
                       span_id=2, parent_id=1)
        assert any("escapes" in p for p in validate_span_tree([parent, escapee]))

    def test_queue_loss_tolerance_partial_sweep(self):
        # Parent sweep span + one worker's cell spans; the other
        # worker's cell failed, so its spans never arrived. The trace
        # stays valid.
        parent_clock = FakeClock(start=0.0, step=0.0)
        parent = _recorder(pid=1, clock=parent_clock)
        sweep = parent.push("sweep")
        parent_clock.now = 10.0
        parent.pop_through(sweep)
        worker = _recorder(pid=2, clock=FakeClock(start=1.0))
        with worker.span("cell", scheme="GAg", benchmark="a"):
            pass
        collector = SpanCollector()
        collector.ingest(parent.drain())
        collector.ingest(worker.drain())
        assert not validate_span_tree(collector.spans)
        assert len(collector.spans) == 2


class TestAggregation:
    def test_span_totals_and_summary(self):
        clock = FakeClock(start=0.0, step=0.0)
        recorder = _recorder(clock=clock)
        _span_at(recorder, clock, "block", 0.0, 0.5)
        _span_at(recorder, clock, "block", 1.0, 1.25)
        totals = span_totals(recorder.spans)
        assert totals["block"]["count"] == 2
        assert totals["block"]["seconds"] == pytest.approx(0.75)
        summary = summarize_spans(recorder.spans)
        assert summary["count"] == 2
        assert summary["by_name"] == totals

    def test_cell_phase_totals_and_summaries(self):
        clock = FakeClock(start=0.0, step=0.0)
        recorder = _recorder(clock=clock)
        cell = recorder.push("cell", scheme="GAg", benchmark="a")
        _span_at(recorder, clock, "trace_load", 0.0, 0.2, cat="phase")
        sim = recorder.push("simulate", cat="phase")
        _span_at(recorder, clock, "block", 0.2, 0.9, cat="engine")
        clock.now = 1.0
        recorder.pop_through(sim)
        recorder.pop_through(cell)
        phases = cell_phase_totals(recorder.spans)
        assert phases[("GAg", "a")]["trace_load"] == pytest.approx(0.2)
        assert phases[("GAg", "a")]["simulate"] == pytest.approx(0.8)
        assert "block" not in phases[("GAg", "a")]  # grandchild, not a phase
        summaries = cell_span_summaries(recorder.spans)
        assert summaries[("GAg", "a")]["count"] == 4  # whole subtree


class TestChromeTrace:
    def _spans(self):
        clock = FakeClock(start=100.0, step=0.0)
        recorder = _recorder(clock=clock)
        with recorder.span("cell", cat="sweep", scheme="GAg", benchmark="a"):
            _span_at(recorder, clock, "build", 100.0, 100.25, cat="phase",
                     rss_bytes=1_000_000)
        return recorder.spans

    def test_round_trip_exact(self):
        spans = self._spans()
        payload = to_chrome_trace(spans)
        assert spans_from_chrome(payload) == spans

    def test_metadata_and_structure(self):
        payload = to_chrome_trace(self._spans(), label="test sweep")
        assert payload["otherData"]["label"] == "test sweep"
        phases = [event["ph"] for event in payload["traceEvents"]]
        assert phases.count("M") == 1  # one process_name per pid
        assert phases.count("X") == 2
        assert not validate_chrome_trace(payload)

    def test_validator_flags_problems(self):
        assert validate_chrome_trace([]) == ["top level is not a JSON object"]
        assert validate_chrome_trace({}) == ["missing or non-list 'traceEvents'"]
        bad = {"traceEvents": [{"ph": "X", "name": "x", "ts": -1.0, "dur": 1.0,
                                "pid": 1, "tid": 1}]}
        assert any("negative" in p for p in validate_chrome_trace(bad))
        torn = {"traceEvents": [{"name": "no-phase"}]}
        assert any("missing phase" in p for p in validate_chrome_trace(torn))

    def test_json_round_trip_through_disk(self, tmp_path):
        spans = self._spans()
        target = write_chrome_trace(spans, tmp_path / "trace.json")
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert not validate_chrome_trace(payload)
        assert spans_from_chrome(payload) == spans

    def test_spans_jsonl_round_trip(self, tmp_path):
        spans = self._spans()
        target = write_spans(spans, tmp_path / "spans.jsonl")
        assert load_spans(target) == spans


class TestSweepIntegration:
    def _check_phase_agreement(self, collector, matrix):
        totals = cell_phase_totals(collector.spans)
        cells = {(c.scheme, c.benchmark): c for c in matrix.telemetry.cells}
        assert set(totals) == set(cells)
        for key, phases in totals.items():
            for phase, seconds in phases.items():
                # exact: the telemetry phase times are these spans' durations
                assert seconds == cells[key].phases[phase]

    def test_serial_traced_sweep(self):
        collector = SpanCollector()
        matrix = _sweep_fixture(n_workers=1, tracer=collector)
        assert not validate_span_tree(collector.spans)
        assert len(collector.spans) > 0
        names = {span.name for span in collector.spans}
        assert {"sweep", "cell", "simulate", "build"} <= names
        self._check_phase_agreement(collector, matrix)
        # exact Chrome round-trip of a real sweep trace
        assert spans_from_chrome(to_chrome_trace(collector.spans)) == collector.spans

    def test_parallel_traced_sweep_across_fork(self):
        collector = SpanCollector()
        matrix = _sweep_fixture(n_workers=2, tracer=collector)
        assert not validate_span_tree(collector.spans)
        pids = {span.pid for span in collector.spans}
        assert len(pids) > 1, "expected spans from parent and workers"
        self._check_phase_agreement(collector, matrix)
        # fork boundary: perf_counter is CLOCK_MONOTONIC, shared across
        # fork, so every worker span lies inside the parent's sweep span
        (sweep,) = [s for s in collector.spans if s.name == "sweep"]
        for span in collector.spans:
            assert span.ts >= sweep.ts - 0.5
            assert span.end <= sweep.end + 0.5

    def test_traced_parallel_sweep_starts_no_manager(self, monkeypatch):
        import multiprocessing

        def no_manager():
            raise AssertionError("a traced sweep without progress needs no manager")

        monkeypatch.setattr(multiprocessing, "Manager", no_manager)
        collector = SpanCollector()
        matrix = _sweep_fixture(n_workers=2, tracer=collector)
        assert len({span.pid for span in collector.spans}) > 1
        self._check_phase_agreement(collector, matrix)

    def test_failed_traced_sweep_releases_the_recorder(self):
        def broken(training_trace):
            raise RuntimeError("builder failed")

        cases = [BenchmarkCase("loopA", "int", synthetic.loop_trace(50, 7, name="loopA"))]
        try:
            with pytest.raises(RuntimeError, match="builder failed"):
                run_matrix({"bad": broken}, cases, n_workers=1, tracer=SpanCollector())
            assert get_recorder() is None  # the sweep's own recorder
            recorder = enable(SpanRecorder())
            with pytest.raises(RuntimeError, match="builder failed"):
                run_matrix({"bad": broken}, cases, n_workers=1, tracer=SpanCollector())
            assert get_recorder() is recorder  # the caller's, left enabled
            assert recorder.depth == 0
        finally:
            disable()

    def test_untraced_sweep_records_no_spans(self):
        matrix = _sweep_fixture(n_workers=1, tracer=None)
        assert get_recorder() is None
        assert matrix.telemetry.total_cells == 4

    def test_traced_results_bit_identical_to_untraced(self):
        baseline = _sweep_fixture(n_workers=1, tracer=None)
        traced = _sweep_fixture(n_workers=2, tracer=SpanCollector())
        assert traced.cells == baseline.cells

    def test_telemetry_backend_and_rss(self):
        matrix = _sweep_fixture(n_workers=2, tracer=SpanCollector())
        telemetry = matrix.telemetry
        assert telemetry.peak_rss_bytes > 0
        assert sum(telemetry.backend_counts.values()) == 4
        line = telemetry.summary_line()
        assert "backend:" in line
        assert "peak rss" in line
        for cell in telemetry.cells:
            assert cell.rss_peak > 0
            restored = type(cell).from_dict(cell.as_dict())
            assert restored.rss_peak == cell.rss_peak
