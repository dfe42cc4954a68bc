"""``python -m repro.obs`` CLI and the ``repro-sim run --obs`` summary."""

import json

import pytest

from repro.obs.cli import main as obs_main
from repro.sim.cli import main as sim_main
from repro.trace.io import save_trace
from repro.trace.synthetic import loop_trace


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "loop.btb"
    save_trace(loop_trace(iterations=500, trip_count=4), path)
    return path


class TestObsCLI:
    def test_json_output_is_schema_stable(self, trace_file, capsys):
        code = obs_main(
            ["--scheme", "GAg", "--trace", str(trace_file), "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.obs/1"
        assert payload["scheme"] == "gag-12"  # bare name normalised
        assert payload["result"]["conditional_branches"] == 2000
        assert payload["intervals"]
        assert payload["streaks"]
        assert payload["offenders"]
        assert {"build", "simulate"} <= set(payload["timing"])

    def test_workload_run_emits_json(self, capsys):
        code = obs_main(
            ["--scheme", "gag-8", "--workload", "eqntott", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "eqntott"
        assert payload["result"]["correct_predictions"] > 0
        assert "trace_load" in payload["timing"]

    def test_text_output(self, trace_file, capsys):
        code = obs_main(["--scheme", "pag-8", "--trace", str(trace_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        assert "mispredict streaks" in out
        assert "table counters" in out

    def test_events_jsonl(self, trace_file, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        code = obs_main(
            [
                "--scheme", "gag-8",
                "--trace", str(trace_file),
                "--events", str(events),
                "--events-sample", "10",
                "--format", "json",
            ]
        )
        assert code == 0
        lines = [json.loads(line) for line in events.read_text().splitlines()]
        assert lines[0]["event"] == "run_start"
        assert lines[-1]["event"] == "run_end"
        branches = [line for line in lines if line["event"] == "branch"]
        assert lines[-1]["branches_written"] == len(branches) == 200
        assert lines[-1]["branches_seen"] == 2000
        payload = json.loads(capsys.readouterr().out)
        assert payload["events_path"] == str(events)

    def test_out_file_matches_stdout(self, trace_file, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code = obs_main(
            [
                "--scheme", "gag-8",
                "--trace", str(trace_file),
                "--format", "json",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        stdout_payload = json.loads(capsys.readouterr().out)
        file_payload = json.loads(out_file.read_text())
        assert file_payload == stdout_payload

    def test_cprofile_and_phase_profile(self, trace_file, capsys):
        code = obs_main(
            [
                "--scheme", "gag-8",
                "--trace", str(trace_file),
                "--cprofile",
                "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload["timing"]) == ["build", "simulate"]
        assert payload["timing"]["simulate"]["calls"] == 1
        assert "function calls" in payload["cprofile"]

    def test_interval_zero_disables_series(self, trace_file, capsys):
        code = obs_main(
            ["--scheme", "gag-8", "--trace", str(trace_file),
             "--interval", "0", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["interval_instructions"] is None
        assert payload["intervals"] == []

    def test_unknown_scheme_fails_cleanly(self, trace_file, capsys):
        code = obs_main(["--scheme", "nonsense-42", "--trace", str(trace_file)])
        assert code == 2
        assert "repro.obs:" in capsys.readouterr().err

    def test_scheme_and_workload_required(self):
        with pytest.raises(SystemExit):
            obs_main(["--scheme", "gag-8"])  # neither --workload nor --trace


class TestLedgerCLI:
    """The run/history/compare/regress/export-bench subcommand surface."""

    def _record_two_runs(self, trace_file, ledger_dir):
        for _ in range(2):
            code = obs_main(
                ["run", "--scheme", "gag-8", "--trace", str(trace_file),
                 "--format", "json", "--ledger", str(ledger_dir)]
            )
            assert code == 0

    def test_run_subcommand_matches_flat_form(self, trace_file, capsys):
        code = obs_main(
            ["run", "--scheme", "GAg", "--trace", str(trace_file), "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.obs/1"
        assert payload["scheme"] == "gag-12"

    def test_run_ledger_records_and_notes(self, trace_file, tmp_path, capsys):
        ledger_dir = tmp_path / "ledger"
        self._record_two_runs(trace_file, ledger_dir)
        err = capsys.readouterr().err
        assert "# ledger: run" in err
        assert "(seq 1)" in err
        assert len(list(ledger_dir.glob("*.jsonl"))) == 1

    def test_history_lists_recorded_runs(self, trace_file, tmp_path, capsys):
        ledger_dir = tmp_path / "ledger"
        self._record_two_runs(trace_file, ledger_dir)
        capsys.readouterr()
        code = obs_main(["history", "--ledger", str(ledger_dir), "--format", "json"])
        assert code == 0
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) == 2
        assert [e["seq"] for e in entries] == [0, 1]
        assert all(e["scheme"] == "gag-8" for e in entries)

    def test_compare_identical_runs(self, trace_file, tmp_path, capsys):
        ledger_dir = tmp_path / "ledger"
        self._record_two_runs(trace_file, ledger_dir)
        capsys.readouterr()
        code = obs_main(["compare", "latest~1", "latest", "--ledger", str(ledger_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "same configuration : yes" in out
        assert "+0.0000 pp" in out  # deterministic rerun: zero drift

    def test_compare_unknown_selector_exits_2(self, trace_file, tmp_path, capsys):
        ledger_dir = tmp_path / "ledger"
        self._record_two_runs(trace_file, ledger_dir)
        capsys.readouterr()
        code = obs_main(["compare", "latest", "latest~9",
                         "--ledger", str(ledger_dir)])
        assert code == 2
        assert "repro.obs:" in capsys.readouterr().err

    def test_compare_empty_ledger_is_friendly(self, tmp_path, capsys):
        code = obs_main(["compare", "latest", "latest~9",
                         "--ledger", str(tmp_path / "empty")])
        assert code == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_history_empty_ledger_is_friendly(self, tmp_path, capsys):
        code = obs_main(["history", "--ledger", str(tmp_path / "missing")])
        assert code == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_regress_clean_on_identical_runs(self, trace_file, tmp_path, capsys):
        ledger_dir = tmp_path / "ledger"
        self._record_two_runs(trace_file, ledger_dir)
        capsys.readouterr()
        code = obs_main(["regress", "--ledger", str(ledger_dir), "--strict"])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_regress_flags_perturbed_accuracy(self, trace_file, tmp_path, capsys):
        from repro.obs.ledger import RunLedger

        ledger_dir = tmp_path / "ledger"
        self._record_two_runs(trace_file, ledger_dir)
        ledger = RunLedger(ledger_dir)
        latest = ledger.find("latest")
        perturbed = latest.to_dict()
        perturbed.update(run_id="", seq=-1, timestamp=0.0,
                         correct_predictions=latest.correct_predictions - 3)
        from repro.obs.ledger import LedgerEntry

        ledger.append(LedgerEntry.from_dict(perturbed))
        capsys.readouterr()
        code = obs_main(["regress", "--ledger", str(ledger_dir), "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1
        assert payload["findings"][0]["rule"] == "accuracy-drift"

    def test_regress_rejects_nan_tolerance(self, tmp_path, capsys):
        code = obs_main(["regress", "--ledger", str(tmp_path / "empty"),
                         "--tolerance", "nan"])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_export_bench(self, trace_file, tmp_path, capsys):
        ledger_dir = tmp_path / "ledger"
        self._record_two_runs(trace_file, ledger_dir)
        out = tmp_path / "BENCH_test.json"
        capsys.readouterr()
        code = obs_main(["export-bench", "--ledger", str(ledger_dir),
                         "--out", str(out), "--date", "20260806"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro.bench/1"
        assert payload["date"] == "20260806"
        assert payload["simulator_throughput"]


class TestSimCLIObs:
    def test_run_obs_summary(self, trace_file, capsys):
        code = sim_main(["run", "pag-8", str(trace_file), "--obs"])
        assert code == 0
        out = capsys.readouterr().out
        assert "streaks:" in out
        assert "pc 0x" in out

    def test_run_without_obs_unchanged(self, trace_file, capsys):
        code = sim_main(["run", "pag-8", str(trace_file)])
        assert code == 0
        assert "streaks:" not in capsys.readouterr().out


class TestCharacterizeCLI:
    """The characterize / attribute subcommand surface."""

    def test_characterize_text_sections(self, trace_file, capsys):
        code = obs_main(
            ["characterize", "--trace", str(trace_file), "--scheme", "gag-8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "repro.analysis.char" in out
        assert "history sensitivity" in out
        assert "cluster winner table" in out
        assert "scheme attribution" in out

    def test_characterize_json_schema_and_verify(self, trace_file, capsys):
        code = obs_main(
            ["characterize", "--trace", str(trace_file), "--scheme", "gag-8",
             "--verify", "--max-k", "6", "--format", "json"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "counts identical" in captured.err
        payload = json.loads(captured.out)
        assert payload["schema"] == "repro.analysis.char/1"
        assert payload["max_k"] == 6
        assert len(payload["global_curve"]) == 7
        assert [s["scheme"] for s in payload["schemes"]] == ["gag-8"]

    def test_characterize_ledger_and_metrics_round_trip(
        self, trace_file, tmp_path, capsys
    ):
        ledger_dir = tmp_path / "ledger"
        code = obs_main(
            ["characterize", "--trace", str(trace_file), "--scheme", "gag-8",
             "--format", "json", "--ledger", str(ledger_dir)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)

        code = obs_main(
            ["history", "--ledger", str(ledger_dir), "--kind", "char",
             "--format", "json"]
        )
        assert code == 0
        (entry,) = json.loads(capsys.readouterr().out)
        assert entry["kind"] == "char"
        assert entry["extra"]["characterization"] == payload

        code = obs_main(["metrics", "--ledger", str(ledger_dir), "--kind", "char"])
        assert code == 0
        exposition = capsys.readouterr().out
        assert "repro_char_static_sites" in exposition
        assert "repro_char_conditional_entropy_bits" in exposition
        assert "repro_char_scheme_accuracy_ratio" in exposition

    def test_characterize_out_file(self, trace_file, tmp_path, capsys):
        out_file = tmp_path / "char.json"
        code = obs_main(
            ["characterize", "--trace", str(trace_file), "--scheme", "gag-8",
             "--format", "json", "--out", str(out_file)]
        )
        assert code == 0
        stdout_payload = json.loads(capsys.readouterr().out)
        assert json.loads(out_file.read_text()) == stdout_payload

    def test_run_with_characterize_embeds_report(self, trace_file, capsys):
        code = obs_main(
            ["run", "--scheme", "gag-8", "--trace", str(trace_file),
             "--characterize", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        embedded = payload["extra"]["characterization"]
        assert embedded["schema"] == "repro.analysis.char/1"
        assert [s["scheme"] for s in embedded["schemes"]] == ["gag-8"]
        assert "characterize" in payload["timing"]

    def test_attribute_text(self, trace_file, capsys):
        code = obs_main(
            ["attribute", "--scheme", "GAg", "--trace", str(trace_file)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "gag-12" in out
        assert "misprediction breakdown" in out
        assert "Interference report" in out

    def test_attribute_json_consistent(self, trace_file, capsys):
        code = obs_main(
            ["attribute", "--scheme", "gag-8", "--trace", str(trace_file),
             "--format", "json", "--top", "3"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        breakdown = payload["breakdown"]
        assert breakdown["total_branches"] == 2000
        assert breakdown["total_misses"] == (
            breakdown["cold_misses"]
            + breakdown["post_flush_misses"]
            + breakdown["steady_misses"]
        )
        assert len(payload["sites"]) <= 3
        assert "first level" in payload["interference"]

    def test_attribute_unknown_scheme_exits_2(self, trace_file, capsys):
        code = obs_main(
            ["attribute", "--scheme", "nonsense-42", "--trace", str(trace_file)]
        )
        assert code == 2
        assert "repro.obs:" in capsys.readouterr().err
