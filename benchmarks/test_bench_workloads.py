"""Workload trace recording vs the six-list recorder it replaced.

Not a paper figure — this pins the set-up cost of every uncached sweep:
the nine SPEC-analog testing traces (scale 1, seed offset 0) recorded
through the packed-log :class:`~repro.trace.events.TraceBuilder` must be
**bit-identical** to the same workloads recorded through the reference
probe and builder kept in ``tests/reference_recorder.py``, and at least
1.5x faster end to end (the algorithms included). The two timings and
their ratio land in ``benchmark.extra_info`` and, through the session
hook in ``conftest.py``, in the persistent run ledger.

Run from the repository root (``python -m pytest benchmarks/...``) so
the ``tests`` package is importable.
"""

import time

from repro.workloads import base
from repro.workloads.suite import all_workloads
from tests.reference_recorder import ReferenceBuilder, ReferenceProbe, assert_same_trace

MIN_SPEEDUP = 1.5
ROUNDS = 3


def _record_all():
    started = time.perf_counter()
    traces = [workload.generate("testing") for workload in all_workloads().values()]
    return traces, time.perf_counter() - started


def _best_of(rounds):
    best_s, traces = float("inf"), None
    for _ in range(rounds):
        traces, seconds = _record_all()
        best_s = min(best_s, seconds)
    return traces, best_s


def test_bench_workload_recording_speedup(benchmark, monkeypatch):
    packed, packed_s = _best_of(ROUNDS)
    with monkeypatch.context() as patch:
        patch.setattr(base, "TraceBuilder", ReferenceBuilder)
        patch.setattr(base, "BranchProbe", ReferenceProbe)
        reference, reference_s = _best_of(ROUNDS)
    for trace, expected in zip(packed, reference):
        assert_same_trace(trace, expected)
    speedup = reference_s / packed_s
    benchmark.extra_info["records"] = sum(len(trace) for trace in packed)
    benchmark.extra_info["reference_s"] = round(reference_s, 3)
    benchmark.extra_info["packed_s"] = round(packed_s, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= MIN_SPEEDUP, (
        f"packed recorder only {speedup:.2f}x faster "
        f"(reference {reference_s:.2f}s, packed {packed_s:.2f}s)"
    )
    # The ledger records the packed recorder's wall time as the measurement.
    benchmark.pedantic(_record_all, rounds=1, iterations=1)
