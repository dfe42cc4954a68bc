"""Live sweep monitoring (repro.obs.live) and its parallel-runner feed.

Guarantees under test:

* the monitor's done-count is monotone and never counts a crashed
  worker's in-flight cell,
* a worker silent beyond ``stale_after`` (with a cell claimed) is
  reported stale — the visible symptom of a crash,
* cache hits complete the bar without a worker,
* ``format_status`` / ``FollowPrinter`` render and tear down cleanly,
* ``execute_matrix(progress=...)`` actually delivers heartbeats, in
  every execution mode (cache hit, in-process, worker processes), and
  the observed done-count sequence is monotone;
* workers send only ``(pid, scheme, benchmark)`` start triples; each
  cell's ``done`` follows its ``start`` and carries the worker, wall
  time and peak RSS of the cell's span and ``CellTelemetry``.
"""

import io
import multiprocessing

import pytest

from repro.obs.live import (
    FollowPrinter,
    Heartbeat,
    SweepMonitor,
    format_status,
)


class _SpyQueue:
    """A manager queue that records what the parent takes off it.

    Pickled into every worker with its proxy, so worker puts go to the
    real queue; only the parent's copy records."""

    def __init__(self, queue):
        self.queue = queue
        self.taken = []

    def put(self, message):
        self.queue.put(message)

    def get_nowait(self):
        message = self.queue.get_nowait()
        self.taken.append(message)
        return message


class _SpyManager:
    def __init__(self, spies):
        self.manager = _REAL_MANAGER()
        self.spies = spies

    def Queue(self):
        spy = _SpyQueue(self.manager.Queue())
        self.spies.append(spy)
        return spy

    def shutdown(self):
        self.manager.shutdown()


_REAL_MANAGER = multiprocessing.Manager


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _beat(worker, kind, cell="gag-8/eqntott", branches=0, wall=0.0):
    scheme, benchmark = cell.split("/")
    return Heartbeat(
        worker=worker, kind=kind, scheme=scheme, benchmark=benchmark,
        branches=branches, wall=wall,
    )


class TestHeartbeat:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Heartbeat(worker=1, kind="exploded", scheme="gag-8", benchmark="li")

    def test_cell_label_and_dict(self):
        beat = _beat(7, "done", "pag-8/gcc", branches=100, wall=0.5)
        assert beat.cell == "pag-8/gcc"
        assert beat.to_dict()["branches"] == 100


class TestSweepMonitor:
    def test_done_count_is_monotone(self):
        clock = FakeClock()
        monitor = SweepMonitor(total_cells=4, clock=clock)
        done_counts = [monitor.status().done]
        for cell in ("gag-8/a", "gag-8/b", "pag-8/a"):
            monitor.observe(_beat(11, "start", cell))
            done_counts.append(monitor.status().done)
            clock.advance(1.0)
            monitor.observe(_beat(11, "done", cell, branches=1000, wall=1.0))
            done_counts.append(monitor.status().done)
        assert done_counts == sorted(done_counts)
        assert monitor.done == 3

    def test_crashed_worker_goes_stale_not_done(self):
        clock = FakeClock()
        monitor = SweepMonitor(total_cells=4, stale_after=5.0, clock=clock)
        monitor.observe(_beat(11, "start", "gag-8/a"))
        monitor.observe(_beat(12, "start", "pag-8/a"))  # this worker will "crash"
        clock.advance(4.0)
        monitor.observe(_beat(11, "done", "gag-8/a", branches=500, wall=4.0))
        monitor.observe(_beat(11, "start", "gag-8/b"))
        clock.advance(4.0)  # worker 12 now silent 8 s > stale_after; 11 only 4 s
        status = monitor.status()
        assert status.done == 1  # the crashed worker's cell is NOT counted
        assert status.stale == (12,)
        assert "gag-8/b" in status.active
        assert "pag-8/a" not in status.active

    def test_stale_worker_recovers_on_next_beat(self):
        clock = FakeClock()
        monitor = SweepMonitor(total_cells=2, stale_after=5.0, clock=clock)
        monitor.observe(_beat(12, "start", "pag-8/a"))
        clock.advance(10.0)
        assert monitor.status().stale == (12,)
        monitor.observe(_beat(12, "done", "pag-8/a", branches=100, wall=10.0))
        status = monitor.status()
        assert status.stale == ()
        assert status.done == 1

    def test_cached_cells_count_without_a_worker(self):
        monitor = SweepMonitor(total_cells=2, clock=FakeClock())
        monitor.observe_cached("gag-8", "a")
        monitor.observe_cached("pag-8", "a")
        status = monitor.status()
        assert status.done == 2
        assert status.cached == 2
        assert status.finished

    def test_throughput_and_eta(self):
        clock = FakeClock()
        monitor = SweepMonitor(total_cells=4, clock=clock)
        clock.advance(2.0)
        monitor.observe(_beat(11, "done", "gag-8/a", branches=2_000_000, wall=2.0))
        status = monitor.status()
        assert status.branches_per_sec == pytest.approx(1e6)
        assert status.eta_seconds == pytest.approx(6.0)  # 3 remaining x 2 s/cell

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepMonitor(total_cells=-1)
        with pytest.raises(ValueError):
            SweepMonitor(total_cells=1, stale_after=0.0)


class TestRendering:
    def test_format_status_parts(self):
        clock = FakeClock()
        monitor = SweepMonitor(total_cells=4, clock=clock)
        monitor.observe_cached("gag-8", "a")
        monitor.observe(_beat(11, "start", "pag-8/a"))
        clock.advance(1.0)
        line = format_status(monitor.status())
        assert "1/4 cells" in line
        assert "1 running" in line
        assert "1 cached" in line
        assert "pag-8/a" in line

    def test_format_status_stale_marker(self):
        clock = FakeClock()
        monitor = SweepMonitor(total_cells=2, stale_after=1.0, clock=clock)
        monitor.observe(_beat(12, "start", "pag-8/a"))
        clock.advance(5.0)
        assert "STALE workers: 12" in format_status(monitor.status())

    def test_follow_printer_rewrites_then_closes(self):
        stream = io.StringIO()
        printer = FollowPrinter(stream)
        monitor = SweepMonitor(total_cells=2, clock=FakeClock())
        printer.update(monitor.status())
        monitor.observe_cached("gag-8", "a")
        printer.update(monitor.status())
        printer.close()
        text = stream.getvalue()
        assert text.count("\r") == 2
        assert text.endswith("\n")

    def test_follow_printer_survives_closed_stream(self):
        stream = io.StringIO()
        printer = FollowPrinter(stream)
        stream.close()
        printer.update(SweepMonitor(total_cells=1, clock=FakeClock()).status())
        printer.close()  # neither call may raise


class TestParallelIntegration:
    def _setup(self):
        from repro.sim.parallel import spec
        from repro.sim.runner import BenchmarkCase
        from repro.trace import synthetic

        cases = [
            BenchmarkCase(
                name=name,
                category="int",
                test_trace=synthetic.loop_trace(iterations=100, trip_count=4, name=name),
            )
            for name in ("a", "b")
        ]
        builders = {"GAg-6": spec("gag-6"), "AT": spec("always-taken")}
        return builders, cases

    def _run(self, n_workers, cache=None, tracer=None):
        from repro.sim.runner import run_matrix

        builders, cases = self._setup()
        monitor = SweepMonitor(total_cells=len(builders) * len(cases))
        done_trajectory = []

        def progress(beat):
            monitor.observe(beat)
            done_trajectory.append(monitor.done)

        matrix = run_matrix(
            builders, cases, n_workers=n_workers, result_cache=cache, progress=progress,
            tracer=tracer,
        )
        return matrix, monitor, done_trajectory

    def test_in_process_run_emits_heartbeats(self):
        matrix, monitor, trajectory = self._run(n_workers=1)
        assert monitor.done == 4
        assert trajectory == sorted(trajectory)  # monotone
        kinds = [beat.kind for beat in monitor.history]
        assert kinds.count("start") == 4
        assert kinds.count("done") == 4
        done_beats = [b for b in monitor.history if b.kind == "done"]
        assert all(b.branches > 0 for b in done_beats)

    def test_worker_processes_emit_heartbeats(self):
        matrix, monitor, trajectory = self._run(n_workers=2)
        assert monitor.done == 4
        assert monitor.status().finished
        assert trajectory == sorted(trajectory)
        workers = {b.worker for b in monitor.history if b.kind == "done"}
        assert all(worker > 0 for worker in workers)

    def test_cache_hits_emit_cached_beats(self, tmp_path):
        from repro.trace.cache import ResultCache

        cache = ResultCache(tmp_path / "cache")
        cold, _monitor, _ = self._run(n_workers=1, cache=cache)
        warm, monitor, _ = self._run(n_workers=1, cache=cache)
        assert warm == cold
        assert monitor.status().cached == 4
        assert monitor.status().finished

    def test_progress_none_is_the_default_and_unchanged(self):
        from repro.sim.runner import run_matrix

        builders, cases = self._setup()
        baseline = run_matrix(builders, cases)
        matrix, _monitor, _ = self._run(n_workers=1)
        assert matrix == baseline

    def test_workers_send_only_start_triples(self, monkeypatch):
        spies = []
        monkeypatch.setattr(multiprocessing, "Manager", lambda: _SpyManager(spies))
        _matrix, monitor, _ = self._run(n_workers=2)
        (spy,) = spies
        assert len(spy.taken) == 4
        for message in spy.taken:
            pid, scheme, benchmark = message
            assert isinstance(pid, int) and pid > 0
            assert isinstance(scheme, str) and isinstance(benchmark, str)
        cells = {(beat.scheme, beat.benchmark) for beat in monitor.history}
        assert {(scheme, benchmark) for _pid, scheme, benchmark in spy.taken} == cells

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_each_cell_starts_before_it_is_done(self, n_workers):
        _matrix, monitor, _ = self._run(n_workers=n_workers)
        order = [(beat.kind, beat.cell) for beat in monitor.history]
        assert len(order) == 8
        for kind, cell in order:
            if kind == "done":
                assert order.index(("start", cell)) < order.index(("done", cell))

    def test_done_beats_are_read_off_the_cell_spans(self):
        from repro.obs.spans import SpanCollector

        tracer = SpanCollector()
        matrix, monitor, _ = self._run(n_workers=2, tracer=tracer)
        cells = {(c.scheme, c.benchmark): c for c in matrix.telemetry.cells}
        spans = {
            (span.args["scheme"], span.args["benchmark"]): span
            for span in tracer.spans if span.name == "cell"
        }
        done = [beat for beat in monitor.history if beat.kind == "done"]
        assert len(done) == 4
        for beat in done:
            cell, span = cells[(beat.scheme, beat.benchmark)], spans[(beat.scheme, beat.benchmark)]
            assert beat.worker == span.pid != 0
            assert beat.wall == cell.wall_time == span.seconds
            assert beat.rss_bytes == cell.rss_peak == span.args["peak_rss_bytes"] > 0
            assert beat.branches > 0
        starts = {beat.cell: beat.worker for beat in monitor.history if beat.kind == "start"}
        assert all(starts[beat.cell] == beat.worker for beat in done)
