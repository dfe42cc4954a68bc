"""Streamed-container throughput vs the one-shot materialized path.

Not a paper figure — this pins the headline property of the streaming
trace substrate (``repro.trace.stream``, see docs/traces.md): driving
the vectorized backend block-by-block from an mmap-backed ``.btrs``
container at the default block size (2^16 records) must stay within
``MAX_OVERHEAD`` of simulating the fully materialized in-memory trace
in a single kernel pass, while remaining **bit-identical**. The
streamed pass pays what the one-shot pass does not: each block's six
columns are decoded out of the packed records into fresh arrays (not
views of the mapped file), and each block carries its state into the
next. The one-shot pass starts from the trace's stored arrays, with no
list->ndarray conversion. The measured overheads land in
``benchmark.extra_info`` and, through the session hook in
``conftest.py``, in the persistent run ledger, so
``repro-obs export-bench`` snapshots them into ``BENCH_*.json``.
"""

import random
import time

import pytest

from repro.predictors.registry import make_predictor
from repro.sim import kernels, simulate_vectorized
from repro.sim.kernels import simulate_vectorized_stream
from repro.trace.events import TraceBuilder
from repro.trace.stream import open_stream, save_source

N_BRANCHES = 1_000_000
N_SITES = 800
BLOCK_SIZE = 1 << 16
#: Streamed wall time may exceed materialized by at most 10%.
MAX_OVERHEAD = 1.10

#: The flagship kernelized schemes and Figure 9's set-associative configs.
SCHEMES = {
    "gag-12": "gag-12",
    "pag-12-dm": "pag-12-a2-512x1",
    "pag-12-512x4": "pag-12-512x4",
    "pap-6-512x4": "pap-6-512x4",
}


@pytest.fixture(scope="module")
def million_trace():
    """~1M biased conditional branches over 800 sites, trap every 50k."""
    rng = random.Random(42)
    builder = TraceBuilder(name="bench-stream", source="synthetic")
    sites = [0x40_0000 + 8 * i for i in range(N_SITES)]
    biases = [rng.random() for _ in range(N_SITES)]
    for i in range(N_BRANCHES):
        index = rng.randrange(N_SITES)
        pc = sites[index]
        if i % 50_000 == 49_999:
            builder.trap()
        target = pc - 128 if index % 3 else pc + 128
        builder.branch(pc, rng.random() < biases[index], target=target, work=4)
    trace = builder.build()
    # Warm the cached list->ndarray conversion: shared by the
    # materialized pass, so steady-state throughput excludes it.
    trace.as_arrays()
    return trace


@pytest.fixture(scope="module")
def container_path(million_trace, tmp_path_factory):
    """The same million branches as an on-disk ``.btrs`` container."""
    path = tmp_path_factory.mktemp("stream") / "bench.btrs"
    save_source(million_trace, path, block_size=BLOCK_SIZE)
    return path


def _cold(trace):
    """Drop the kernels' memo and ``trace``'s residency words, so the
    next whole-trace pass builds every layout and input itself (and
    replays each set-associative LRU)."""
    kernels._LAYOUT_MEMO.clear()
    trace.as_arrays().residency.clear()


@pytest.mark.parametrize("label", list(SCHEMES), ids=list(SCHEMES))
def test_bench_stream_overhead(benchmark, million_trace, container_path, label):
    name = SCHEMES[label]

    # Each one-shot pass starts cold (``_cold``), so it builds its own
    # layout and inputs, as every streamed pass does.
    materialized_s = []
    reference = None
    for _ in range(3):
        _cold(million_trace)
        t0 = time.perf_counter()
        reference = simulate_vectorized(make_predictor(name), million_trace)
        materialized_s.append(time.perf_counter() - t0)

    with open_stream(container_path) as source:
        streamed_s = []
        streamed = None
        for _ in range(3):
            t0 = time.perf_counter()
            streamed = simulate_vectorized_stream(
                make_predictor(name), source, block_size=BLOCK_SIZE
            )
            streamed_s.append(time.perf_counter() - t0)

        assert streamed == reference  # bit-identical, counts and all
        overhead = min(streamed_s) / min(materialized_s)
        benchmark.extra_info["branches"] = reference.conditional_branches
        benchmark.extra_info["block_size"] = BLOCK_SIZE
        benchmark.extra_info["materialized_s"] = round(min(materialized_s), 3)
        benchmark.extra_info["streamed_s"] = round(min(streamed_s), 3)
        benchmark.extra_info["overhead"] = round(overhead, 3)
        benchmark.extra_info["backend"] = "vectorized"
        assert overhead <= MAX_OVERHEAD, (
            f"{label}: streamed pass {overhead:.2f}x materialized "
            f"(materialized {min(materialized_s):.3f}s, "
            f"streamed {min(streamed_s):.3f}s, block {BLOCK_SIZE})"
        )
        # The ledger records the streamed wall time as the measurement.
        benchmark.pedantic(
            lambda: simulate_vectorized_stream(
                make_predictor(name), source, block_size=BLOCK_SIZE
            ),
            rounds=1,
            iterations=1,
        )
