"""Tests for the parallel/cached experiment-execution layer.

The guarantees under test (see repro/sim/parallel.py):

* bit-identical matrices for every ``n_workers`` value,
* warm result-cache reruns execute zero simulations (visible in the
  run telemetry),
* plain-callable builders keep working alongside picklable specs.
"""

import pickle

import pytest

from repro.predictors.base import TrainingUnavailable
from repro.sim.engine import ContextSwitchConfig
from repro.sim.parallel import PredictorSpec, result_cache_key, spec, trace_digest
from repro.sim.results import RunTelemetry
from repro.sim.runner import BenchmarkCase, run_matrix
from repro.trace import synthetic
from repro.trace.cache import ResultCache


def _case(name, category="int", trip=4, with_training=False):
    test_trace = synthetic.loop_trace(iterations=200, trip_count=trip, name=name)
    training = (
        synthetic.loop_trace(iterations=100, trip_count=trip, name=name)
        if with_training
        else None
    )
    return BenchmarkCase(
        name=name, category=category, test_trace=test_trace, training_trace=training
    )


def _suite():
    return [
        _case("a"),
        _case("b", category="fp", trip=6, with_training=True),
        _case("c", trip=3),
    ]


def _builders():
    return {
        "GAg-6": spec("gag-6"),
        "PAg-6": spec("pag-6"),
        "AT": spec("always-taken"),
        "Profile": spec("profile"),
    }


class TestPredictorSpec:
    def test_builds_predictor(self):
        predictor = spec("gag-6")(None)
        assert predictor.predict(0, 0) in (True, False)

    def test_picklable(self):
        restored = pickle.loads(pickle.dumps(spec("pag-12-a2-512x4")))
        assert restored == spec("pag-12-a2-512x4")
        assert restored(None).name == spec("pag-12-a2-512x4")(None).name

    def test_requires_training(self):
        assert spec("profile").requires_training
        assert spec("gsg-12").requires_training
        assert spec("psg-12-512x4").requires_training
        assert not spec("pag-12").requires_training

    def test_missing_training_raises_training_unavailable(self):
        with pytest.raises(TrainingUnavailable):
            spec("profile")(None)

    def test_cache_key_is_normalised(self):
        assert spec("PAg-12").cache_key == spec("pag-12").cache_key


class TestCacheKey:
    def test_key_sensitivity(self):
        trace = synthetic.loop_trace(iterations=50, trip_count=4, name="t")
        digest = trace_digest(trace)
        base = result_cache_key(digest, "spec:pag-12", None)
        assert base == result_cache_key(digest, "spec:pag-12", None)
        assert base != result_cache_key(digest, "spec:pag-13", None)
        assert base != result_cache_key(digest, "spec:pag-12", ContextSwitchConfig())
        assert base != result_cache_key(digest, "spec:pag-12", None, training_digest="x")
        other = trace_digest(synthetic.loop_trace(iterations=51, trip_count=4, name="t"))
        assert base != result_cache_key(other, "spec:pag-12", None)

    def test_context_switch_params_in_key(self):
        key_a = result_cache_key("d", "b", ContextSwitchConfig(interval=100))
        key_b = result_cache_key("d", "b", ContextSwitchConfig(interval=200))
        assert key_a != key_b


class TestDeterminism:
    def test_parallel_matches_serial_bit_identical(self):
        cases = _suite()
        serial = run_matrix(_builders(), cases, n_workers=1)
        parallel = run_matrix(_builders(), cases, n_workers=4)
        assert parallel == serial
        for scheme in serial.schemes:
            for benchmark, result in serial.cells[scheme].items():
                assert parallel.cells[scheme][benchmark] == result

    def test_parallel_with_context_switches(self):
        cases = _suite()
        config = ContextSwitchConfig(interval=100)
        serial = run_matrix(_builders(), cases, context_switches=config)
        parallel = run_matrix(_builders(), cases, context_switches=config, n_workers=3)
        assert parallel == serial

    def test_lambda_builders_fall_back_in_parallel_mode(self):
        from repro.predictors.static import AlwaysTaken

        builders = {"AT-lambda": lambda t: AlwaysTaken(), "GAg-6": spec("gag-6")}
        cases = _suite()
        serial = run_matrix(builders, cases)
        parallel = run_matrix(builders, cases, n_workers=2)
        assert parallel == serial

    def test_scheme_order_preserved(self):
        cases = _suite()
        matrix = run_matrix(_builders(), cases, n_workers=4)
        # "Profile" appears because case "b" carries a training trace.
        assert matrix.schemes == ["GAg-6", "PAg-6", "AT", "Profile"]
        assert matrix.benchmarks == ["a", "b", "c"]


class TestLayoutMemo:
    """Cells run case-major under the layout memo, so every scheme at one
    set-associative geometry shares each trace's LRU replay. The memo
    keeps one trace's full layouts, but each live trace keeps its
    residency words, so a later matrix over the same traces, even after
    another trace evicted their layouts, replays no LRU again."""

    SCHEMES = ("pag-4-512x4", "pag-8-512x4", "pag-6-lt-512x4", "pap-4-512x4",
               "pap-6-512x4", "btb-a2")

    def test_one_lru_replay_per_trace_and_geometry(self, monkeypatch):
        from repro.sim import kernels

        calls = []
        original = kernels._lru_metadata
        monkeypatch.setattr(kernels, "_lru_metadata",
                            lambda *args: calls.append(1) or original(*args))
        builders = {name: spec(name) for name in self.SCHEMES}
        cases = _suite()
        serial = run_matrix(builders, cases, n_workers=1)
        assert len(calls) == 3
        switched = run_matrix(builders, cases, n_workers=1,
                              context_switches=ContextSwitchConfig(interval=100))
        assert len(calls) == 6
        assert run_matrix(builders, cases, n_workers=2, backend="python") == serial
        assert switched == run_matrix(builders, cases, n_workers=2, backend="python",
                                      context_switches=ContextSwitchConfig(interval=100))
        # Another trace takes the memo; the suite's traces keep their words.
        run_matrix(builders, [_case("d", trip=5)], n_workers=1)
        assert len(calls) == 7
        assert run_matrix(builders, cases, n_workers=1) == serial
        assert run_matrix(builders, cases, n_workers=1,
                          context_switches=ContextSwitchConfig(interval=100)) == switched
        assert len(calls) == 7


class TestResultCaching:
    def test_warm_rerun_executes_zero_simulations(self, tmp_path):
        cases = _suite()
        cache = ResultCache(tmp_path)
        cold = run_matrix(_builders(), cases, result_cache=cache)
        assert cold.telemetry.simulations > 0
        assert cold.telemetry.cache_hits == 0
        assert cold.telemetry.cache_misses == cold.telemetry.total_cells

        warm = run_matrix(_builders(), cases, result_cache=cache)
        assert warm == cold
        assert warm.telemetry.simulations == 0
        assert warm.telemetry.cache_misses == 0
        # Every cell resolved from cache: real results as hits, blank
        # (TrainingUnavailable) cells from their cached null sentinel.
        assert warm.telemetry.cache_hits + warm.telemetry.unavailable == (
            warm.telemetry.total_cells
        )

    def test_warm_parallel_rerun(self, tmp_path):
        cases = _suite()
        cache = ResultCache(tmp_path)
        cold = run_matrix(_builders(), cases, n_workers=3, result_cache=cache)
        warm = run_matrix(_builders(), cases, n_workers=3, result_cache=cache)
        assert warm == cold
        assert warm.telemetry.simulations == 0

    def test_unavailable_cells_cached(self, tmp_path):
        cases = [_case("a")]  # no training trace -> Profile cell blank
        cache = ResultCache(tmp_path)
        run_matrix({"Profile": spec("profile")}, cases, result_cache=cache)
        warm = run_matrix({"Profile": spec("profile")}, cases, result_cache=cache)
        assert warm.telemetry.simulations == 0
        assert warm.telemetry.unavailable == 1
        assert warm.accuracy("Profile", "a") is None

    def test_changed_trace_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_matrix({"GAg-6": spec("gag-6")}, [_case("a", trip=4)], result_cache=cache)
        changed = run_matrix(
            {"GAg-6": spec("gag-6")}, [_case("a", trip=5)], result_cache=cache
        )
        assert changed.telemetry.simulations == 1
        assert changed.telemetry.cache_hits == 0

    def test_lambda_builders_bypass_cache(self, tmp_path):
        from repro.predictors.static import AlwaysTaken

        cache = ResultCache(tmp_path)
        builders = {"AT": lambda t: AlwaysTaken()}
        run_matrix(builders, [_case("a")], result_cache=cache)
        rerun = run_matrix(builders, [_case("a")], result_cache=cache)
        assert rerun.telemetry.simulations == 1
        assert rerun.telemetry.uncacheable == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cases = [_case("a")]
        run_matrix({"GAg-6": spec("gag-6")}, cases, result_cache=cache)
        for path in cache.directory.glob("*.json"):
            path.write_text("{not json")
        rerun = run_matrix({"GAg-6": spec("gag-6")}, cases, result_cache=cache)
        assert rerun.telemetry.simulations == 1

    def test_cache_hits_report_cache_backend(self, tmp_path):
        builders = {"GAg-6": spec("gag-6")}
        cache = ResultCache(tmp_path)
        cold = run_matrix(builders, [_case("a")], result_cache=cache)
        assert [c.backend for c in cold.telemetry.cells] == ["vectorized"]
        warm = run_matrix(builders, [_case("a")], result_cache=cache)
        assert warm.cells == cold.cells
        assert [c.backend for c in warm.telemetry.cells] == ["cache"]


class TestTelemetry:
    def test_cell_records_cover_the_grid(self):
        cases = _suite()
        matrix = run_matrix(_builders(), cases)
        telemetry = matrix.telemetry
        assert telemetry.total_cells == len(_builders()) * len(cases)
        assert {cell.source for cell in telemetry.cells} <= {
            "simulated", "cache", "unavailable",
        }
        assert all(cell.wall_time >= 0.0 for cell in telemetry.cells)
        assert telemetry.wall_time > 0.0

    def test_summary_line_and_dict(self):
        matrix = run_matrix(_builders(), [_case("a")])
        line = matrix.telemetry.summary_line()
        assert "simulated" in line and "cache hits" in line
        payload = matrix.telemetry.as_dict()
        assert payload["total_cells"] == matrix.telemetry.total_cells
        assert payload["n_workers"] == 1

    def test_merged_with(self):
        one = RunTelemetry(n_workers=1, simulations=2, wall_time=1.0)
        two = RunTelemetry(n_workers=4, cache_hits=3, wall_time=0.5)
        merged = one.merged_with(two)
        assert merged.n_workers == 4
        assert merged.simulations == 2
        assert merged.cache_hits == 3
        assert merged.wall_time == pytest.approx(1.5)

    def test_figure_driver_attaches_telemetry(self, tmp_path):
        from repro.experiments.figures import figure5

        cases = [_case("a"), _case("b", category="fp", trip=6)]
        cache = ResultCache(tmp_path)
        result = figure5(cases=cases, result_cache=cache, n_workers=2)
        assert result.matrix.telemetry is not None
        assert result.matrix.telemetry.total_cells == 10
        warm = figure5(cases=cases, result_cache=cache)
        assert warm.matrix.telemetry.simulations == 0
        assert warm.matrix == result.matrix


class TestRunnerValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            run_matrix(_builders(), [_case("a")], n_workers=0)


def _unavailable(training_trace):
    raise TrainingUnavailable("no training trace")


class TestTelemetryShape:
    """The phase breakdown of every kind of cell, serial and parallel,
    traced and untraced, cold and warm."""

    @staticmethod
    def _builders():
        return {
            "GAg-6": spec("gag-6"),  # worker when n_workers > 1
            "GSg-6": spec("gsg-6"),  # worker, TrainingUnavailable
            "local": lambda training: spec("gag-6")(training),  # always local
            "local-unavailable": lambda training: _unavailable(training),
        }

    @staticmethod
    def _expected(label, n_workers, warm):
        if warm and label in ("GAg-6", "GSg-6"):
            return {"cache_lookup"}
        keys = {"build"}
        if n_workers > 1 and label in ("GAg-6", "GSg-6"):
            keys.add("trace_load")
        if label in ("GAg-6", "local"):
            keys.add("simulate")
        return keys

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_phase_keys_and_sums(self, tmp_path, n_workers, traced):
        from repro.obs.spans import SpanCollector, get_recorder

        cache = ResultCache(tmp_path)
        for warm in (False, True):
            tracer = SpanCollector() if traced else None
            matrix = run_matrix(
                self._builders(), [_case("a")], n_workers=n_workers,
                result_cache=cache, tracer=tracer,
            )
            assert get_recorder() is None
            telemetry = matrix.telemetry
            assert telemetry.total_cells == 4
            totals = {}
            for cell in telemetry.cells:
                assert set(cell.phases) == self._expected(cell.scheme, n_workers, warm), (
                    cell.scheme, warm,
                )
                assert sum(cell.phases.values()) <= cell.wall_time + 1e-6
                for phase, seconds in cell.phases.items():
                    totals[phase] = totals.get(phase, 0.0) + seconds
            assert telemetry.phase_seconds == totals
            # a cached "unavailable" cell counts as unavailable, not a hit
            assert telemetry.cache_hits == (1 if warm else 0)
