"""Shared fixtures for the reproduction benchmarks.

Each ``test_bench_*`` module regenerates one table or figure of the
paper on the full nine-benchmark suite, records the headline numbers in
``benchmark.extra_info``, and writes the rendered text to
``benchmarks/results/<id>.txt`` so the paper-shaped output is easy to
inspect after a run.
"""

from pathlib import Path

import pytest

from repro.trace.cache import default_cache
from repro.workloads.suite import SuiteConfig, build_cases

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def suite_cases():
    """The nine SPEC-analog benchmark cases (generated once)."""
    return build_cases(SuiteConfig(), cache=default_cache())


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def record_result(results_dir):
    """Write a figure/table rendering to the results directory."""

    def _record(result):
        identifier = getattr(result, "figure_id", None) or result.table_id
        (results_dir / f"{identifier}.txt").write_text(result.render() + "\n")
        return result

    return _record


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def pytest_sessionfinish(session, exitstatus):
    """Append the session's benchmark timings to the run ledger.

    A run asked to save its results (pytest-benchmark's
    ``--benchmark-save`` / ``--benchmark-autosave``, as the Makefile's
    ledger-recording ``bench-*`` targets pass) leaves one ``"bench"``
    entry per measurement in ``results/ledger/`` at the repo root, so
    ``repro-obs regress`` can flag harness slowdowns and
    ``repro-obs export-bench`` can snapshot the trajectory; any other
    run leaves the tracked ledger untouched. Best effort by design: a
    missing plugin, an errored benchmark or an unwritable ledger never
    fails the session.
    """
    config = session.config
    bench_session = getattr(config, "_benchmarksession", None)
    benchmarks = getattr(bench_session, "benchmarks", None)
    saving = config.getoption("benchmark_save", None) or config.getoption(
        "benchmark_autosave", None)
    if not benchmarks or not saving:
        return
    try:
        from repro.obs.ledger import RunLedger, entry_from_benchmark

        ledger = RunLedger(Path(__file__).resolve().parent.parent / "results" / "ledger")
        recorded = 0
        for bench in benchmarks:
            if getattr(bench, "has_error", False):
                continue
            stats = getattr(bench, "stats", None)
            seconds = getattr(stats, "min", None)
            if seconds is None:
                continue
            extra = dict(getattr(bench, "extra_info", None) or {})
            ledger.append(entry_from_benchmark(bench.name, float(seconds), extra))
            recorded += 1
        if recorded:
            print(f"\n# ledger: {recorded} benchmark(s) -> {ledger.directory}")
    except Exception as exc:  # pragma: no cover - telemetry must not fail the run
        print(f"\n# ledger: benchmark recording skipped ({exc!r})")
