"""Tests for result aggregation and the paper's geometric means."""

import math

import pytest

from repro.sim.results import ResultMatrix, SimulationResult, geometric_mean


def _result(scheme, bench, accuracy, total=1000):
    return SimulationResult(
        predictor_name=scheme,
        trace_name=bench,
        dataset="",
        conditional_branches=total,
        correct_predictions=int(round(accuracy * total)),
    )


class TestSimulationResult:
    def test_accuracy_and_mispredictions(self):
        result = _result("s", "b", 0.9)
        assert result.accuracy == pytest.approx(0.9)
        assert result.mispredictions == 100
        assert result.misprediction_rate == pytest.approx(0.1)

    def test_zero_branch_result(self):
        result = SimulationResult("s", "b", "", 0, 0)
        assert result.accuracy == 0.0
        assert result.misprediction_rate == 0.0

    def test_str_mentions_accuracy(self):
        assert "90.00%" in str(_result("s", "b", 0.9))


class TestGeometricMean:
    def test_matches_closed_form(self):
        values = [0.9, 0.95, 0.99]
        expected = math.exp(sum(math.log(v) for v in values) / 3)
        assert geometric_mean(values) == pytest.approx(expected)

    def test_single_value(self):
        assert geometric_mean([0.5]) == pytest.approx(0.5)

    def test_empty_is_zero(self):
        assert geometric_mean([]) == 0.0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            geometric_mean([0.5, 0.0])

    def test_below_arithmetic_mean(self):
        values = [0.5, 0.99]
        assert geometric_mean(values) < sum(values) / 2


class TestResultMatrix:
    def _matrix(self):
        matrix = ResultMatrix(
            benchmarks=["int_a", "int_b", "fp_a"],
            categories={"int_a": "int", "int_b": "int", "fp_a": "fp"},
        )
        matrix.add("scheme1", _result("scheme1", "int_a", 0.90))
        matrix.add("scheme1", _result("scheme1", "int_b", 0.80))
        matrix.add("scheme1", _result("scheme1", "fp_a", 0.99))
        matrix.add("scheme2", _result("scheme2", "int_a", 0.95))
        matrix.add("scheme2", _result("scheme2", "fp_a", 0.90))
        return matrix

    def test_accuracy_lookup(self):
        matrix = self._matrix()
        assert matrix.accuracy("scheme1", "int_a") == pytest.approx(0.90)
        assert matrix.accuracy("scheme2", "int_b") is None

    def test_category_gmeans(self):
        matrix = self._matrix()
        assert matrix.gmean("scheme1", "int") == pytest.approx(
            geometric_mean([0.90, 0.80])
        )
        assert matrix.gmean("scheme1", "fp") == pytest.approx(0.99)
        assert matrix.gmean("scheme1") == pytest.approx(
            geometric_mean([0.90, 0.80, 0.99])
        )

    def test_missing_cells_excluded_from_gmean(self):
        # scheme2 has no int_b cell (like GSg on eqntott in Fig 11).
        matrix = self._matrix()
        assert matrix.gmean("scheme2", "int") == pytest.approx(0.95)

    def test_summary_keys(self):
        assert set(self._matrix().summary("scheme1")) == {
            "Int GMean",
            "FP GMean",
            "Tot GMean",
        }

    def test_best_scheme(self):
        matrix = self._matrix()
        assert matrix.best_scheme("int") == "scheme2"

    def test_best_scheme_empty_raises(self):
        empty = ResultMatrix(benchmarks=[], categories={})
        with pytest.raises(ValueError):
            empty.best_scheme()

    def test_row(self):
        row = self._matrix().row("scheme2")
        assert set(row) == {"int_a", "fp_a"}

    def test_as_rows_layout(self):
        rows = self._matrix().as_rows()
        assert rows[0]["scheme"] == "scheme1"
        assert "Tot GMean" in rows[0]
        assert rows[1]["int_b"] is None


class TestMPKI:
    def test_mpki_formula(self):
        result = SimulationResult(
            "s", "b", "", conditional_branches=1000, correct_predictions=900,
            total_instructions=50_000,
        )
        assert result.mpki == pytest.approx(1000.0 * 100 / 50_000)

    def test_mpki_zero_without_instruction_count(self):
        result = SimulationResult("s", "b", "", 1000, 900)
        assert result.mpki == 0.0

    def test_engine_populates_instruction_count(self):
        from repro.core.twolevel import make_pag
        from repro.sim.engine import simulate
        from repro.trace import synthetic

        trace = synthetic.loop_trace(iterations=100, trip_count=5, work_per_branch=20)
        result = simulate(make_pag(8), trace)
        assert result.total_instructions == trace.meta.total_instructions
        assert result.mpki > 0

    def test_fp_style_trace_has_lower_mpki_than_int_style(self):
        from repro.predictors.btb import btb_a2
        from repro.sim.engine import simulate
        from repro.trace import synthetic

        dense = synthetic.loop_trace(iterations=300, trip_count=4, work_per_branch=2)
        sparse = synthetic.loop_trace(iterations=300, trip_count=4, work_per_branch=40)
        dense_mpki = simulate(btb_a2(), dense).mpki
        sparse_mpki = simulate(btb_a2(), sparse).mpki
        # Same accuracy, but fewer branches per instruction -> lower MPKI.
        assert sparse_mpki < dense_mpki / 5


class TestSerializationRoundTrip:
    """Regression: cached and fresh matrices must compare equal."""

    def test_simulation_result_round_trip_exact(self):
        result = SimulationResult(
            predictor_name="PAg-12",
            trace_name="eqntott",
            dataset="int_pri_3.eqn",
            conditional_branches=12345,
            correct_predictions=11789,
            context_switches=7,
            per_site_executions={16: 100, 32: 200},
            per_site_mispredictions={16: 3},
            total_instructions=987654,
        )
        restored = SimulationResult.from_dict(result.to_dict())
        assert restored == result
        # Derived floats are recomputed from identical ints: bit-equal.
        assert restored.accuracy == result.accuracy
        assert restored.mpki == result.mpki

    def test_simulation_result_json_stringified_keys(self):
        import json

        result = SimulationResult("s", "b", "", 10, 9, per_site_executions={5: 2},
                                  per_site_mispredictions={5: 1})
        payload = json.loads(json.dumps(result.to_dict()))
        restored = SimulationResult.from_dict(payload)
        assert restored.per_site_executions == {5: 2}
        assert restored == result

    def test_matrix_round_trip_with_blank_cells(self):
        matrix = ResultMatrix(benchmarks=["a", "b"], categories={"a": "int", "b": "fp"})
        matrix.add("s1", _result("s1", "a", 0.9))
        matrix.add("s1", _result("s1", "b", 0.987654321))
        matrix.add("s2", _result("s2", "a", 0.8))  # s2 has no 'b' cell
        restored = ResultMatrix.from_dict(matrix.to_dict())
        assert restored == matrix
        assert restored.accuracy("s2", "b") is None
        assert restored.gmean("s1") == matrix.gmean("s1")

    def test_matrix_round_trip_through_json(self):
        import json

        matrix = ResultMatrix(benchmarks=["a"], categories={"a": "int"})
        matrix.add("s", _result("s", "a", 0.999))
        payload = json.loads(json.dumps(matrix.to_dict()))
        assert ResultMatrix.from_dict(payload) == matrix

    def test_telemetry_excluded_from_equality(self):
        from repro.sim.results import RunTelemetry

        matrix = ResultMatrix(benchmarks=["a"], categories={"a": "int"})
        matrix.add("s", _result("s", "a", 0.9))
        other = ResultMatrix.from_dict(matrix.to_dict())
        other.telemetry = RunTelemetry(n_workers=4)
        assert other == matrix

    def test_export_json_round_trip_exact(self):
        from repro.experiments.export import matrix_from_json, matrix_to_json

        matrix = ResultMatrix(benchmarks=["a", "b"], categories={"a": "int", "b": "fp"})
        matrix.add("s1", _result("s1", "a", 0.123456789))
        matrix.add("s2", _result("s2", "b", 0.5))
        assert matrix_from_json(matrix_to_json(matrix)) == matrix


class TestRunTelemetryMerge:
    def _telemetry(self, **kwargs):
        from repro.sim.results import RunTelemetry

        telemetry = RunTelemetry(**kwargs)
        return telemetry

    def test_merged_with_accumulates_phases(self):
        first = self._telemetry(n_workers=2, wall_time=1.0)
        first.record("s1", "a", 0.5, "simulated", phases={"build": 0.1, "simulate": 0.4})
        second = self._telemetry(n_workers=4, wall_time=2.0)
        second.record("s2", "a", 0.7, "cache", phases={"cache_lookup": 0.01})
        second.record("s3", "a", 0.2, "simulated", phases={"simulate": 0.2})
        merged = first.merged_with(second)
        assert merged.n_workers == 4
        assert merged.total_cells == 3
        assert merged.simulations == 2
        assert merged.cache_hits == 1
        assert merged.wall_time == pytest.approx(3.0)
        assert merged.phase_seconds == pytest.approx(
            {"build": 0.1, "simulate": 0.6, "cache_lookup": 0.01}
        )
        # Inputs untouched.
        assert first.phase_seconds == pytest.approx({"build": 0.1, "simulate": 0.4})

    def test_merged_with_none_is_identity(self):
        telemetry = self._telemetry(n_workers=2, wall_time=1.5)
        telemetry.record("s", "a", 1.5, "simulated", phases={"simulate": 1.5})
        merged = telemetry.merged_with(None)
        assert merged.total_cells == 1
        assert merged.wall_time == 1.5
        assert merged.phase_seconds == {"simulate": 1.5}

    def test_merge_static_is_none_safe_on_both_sides(self):
        from repro.sim.results import RunTelemetry

        telemetry = self._telemetry(n_workers=1, wall_time=0.5)
        assert RunTelemetry.merge(None, None) is None
        assert RunTelemetry.merge(None, telemetry) is telemetry
        assert RunTelemetry.merge(telemetry, None).wall_time == 0.5
        assert RunTelemetry.merge(telemetry, telemetry).wall_time == 1.0

    def test_record_defaults_phases_empty(self):
        telemetry = self._telemetry()
        telemetry.record("s", "a", 0.1, "simulated")
        assert telemetry.cells[0].phases == {}
        assert telemetry.phase_seconds == {}

    def test_full_round_trip_including_cells(self):
        import json

        telemetry = self._telemetry(n_workers=3, wall_time=1.25, cache_misses=1)
        telemetry.record("s", "a", 1.25, "simulated",
                         phases={"trace_load": 0.5, "simulate": 0.75})
        from repro.sim.results import RunTelemetry

        payload = json.loads(json.dumps(telemetry.to_dict()))
        rebuilt = RunTelemetry.from_dict(payload)
        assert rebuilt == telemetry
        # The same telemetry as persisted by releases that still had
        # trace sharding (every payload carried "shards": 0) must load.
        legacy = {
            "n_workers": 3, "shards": 0, "cache_hits": 0, "cache_misses": 1,
            "uncacheable": 0, "simulations": 1, "unavailable": 0,
            "wall_time": 1.25,
            "phase_seconds": {"trace_load": 0.5, "simulate": 0.75},
            "cells": [{
                "scheme": "s", "benchmark": "a", "wall_time": 1.25,
                "source": "simulated",
                "phases": {"trace_load": 0.5, "simulate": 0.75},
                "backend": "", "rss_peak": 0,
            }],
        }
        assert RunTelemetry.from_dict(legacy) == telemetry

    def test_as_dict_reports_sorted_rounded_phases(self):
        telemetry = self._telemetry()
        telemetry.record("s", "a", 0.2, "simulated",
                         phases={"simulate": 0.123456, "build": 0.000049})
        summary = telemetry.as_dict()
        assert list(summary["phase_seconds"]) == ["build", "simulate"]
        assert summary["phase_seconds"]["simulate"] == 0.1235
