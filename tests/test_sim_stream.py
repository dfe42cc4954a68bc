"""Streamed simulation: block-size independence and bounded memory.

The contract under test (see docs/traces.md): simulating any
``TraceSource`` at any ``block_size`` — on either backend — produces a
``SimulationResult`` bit-identical to simulating the fully
materialized trace in one pass, and peak resident memory tracks the
block size, not the stream length.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.predictors.registry import make_predictor
from repro.sim.engine import ContextSwitchConfig, simulate, simulate_with_backend
from repro.sim.kernels import (
    KernelUnavailable,
    kernel_supports,
    simulate_vectorized,
    simulate_vectorized_stream,
)
from repro.sim.runner import BenchmarkCase, run_case
from repro.trace.events import TraceBuilder
from repro.trace.stream import (
    IndexedSource,
    RecordStreamSource,
    bernoulli_outcomes,
    open_stream,
    save_source,
)
from repro.trace.synthetic import markov_records

from .test_sim_kernels import CONSTRUCTED, _wide_automaton_gag


def _synthetic_trace(seed=11, n=12_000, sites=64):
    """A trace exercising every streamed-state hazard: many sites,
    biased conditionals, traps, and non-conditional records."""
    rng = random.Random(seed)
    builder = TraceBuilder(name=f"synth-{seed}", dataset="d", source="test")
    pcs = [0x4000 + 16 * i for i in range(sites)]
    bias = {pc: rng.uniform(0.1, 0.9) for pc in pcs}
    for i in range(n):
        pc = rng.choice(pcs)
        builder.conditional(pc, rng.random() < bias[pc], work=rng.randrange(1, 6))
        if rng.random() < 0.01:
            builder.trap()
        if rng.random() < 0.05:
            builder.call(0x9000, target=0xA000, work=2)
    return builder.build()


TRACE = _synthetic_trace()
TRAINING = _synthetic_trace(seed=99, n=4_000)
#: Shorter trace for block_size=1 pins (one kernel pass per record).
SMALL = TRACE.head(1_500)

SCHEMES = [
    "gag-6",
    "gshare-8",
    "gap-5",
    "gap-18",
    "gsg-6",
    "pag-8-a2-ideal",
    "pag-8-a2-128x1",
    "psg-6-128x1",
    "pap-6-a2-128x1",
    "btb-a2",
    "always-taken",
    "sag-6x16",
    "sas-6x16",
    *CONSTRUCTED,  # set-associative first levels and the hybrids
]

CS_CONFIGS = [
    None,
    ContextSwitchConfig(interval=3_000),
    ContextSwitchConfig(interval=3_333, switch_on_traps=False),
]


def _build(name):
    if name in CONSTRUCTED:
        return CONSTRUCTED[name]()
    return make_predictor(name, TRAINING)


class TestBlockSizeIndependence:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("cs", CS_CONFIGS)
    def test_auto_backend_all_blocks(self, scheme, cs):
        baseline = simulate(_build(scheme), TRACE, context_switches=cs,
                            backend="auto")
        for bs in (4093, 1 << 16, None):
            result, backend = simulate_with_backend(
                _build(scheme), TRACE, context_switches=cs,
                backend="auto", block_size=bs,
            )
            assert result == baseline, (scheme, cs, bs, backend)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("cs", CS_CONFIGS)
    def test_block_size_one(self, scheme, cs):
        """The degenerate partition — every record its own block —
        exercises every state-carry seam on every block boundary."""
        baseline = simulate(_build(scheme), SMALL, context_switches=cs,
                            backend="auto")
        result = simulate(_build(scheme), SMALL, context_switches=cs,
                          backend="auto", block_size=1)
        assert result == baseline, (scheme, cs)

    @pytest.mark.parametrize("scheme", ["gag-6", "pag-8-a2-ideal", "btb-a2"])
    def test_python_backend_all_blocks(self, scheme):
        cs = CS_CONFIGS[1]
        baseline = simulate(_build(scheme), TRACE, context_switches=cs,
                            backend="python")
        for bs in (1, 4093, None):
            streamed = simulate(_build(scheme), TRACE, context_switches=cs,
                                backend="python", block_size=bs)
            assert streamed == baseline, (scheme, bs)

    @pytest.mark.parametrize("scheme", ["gag-6", "gshare-8", "pag-8-a2-128x1"])
    def test_warmup_and_per_site(self, scheme):
        baseline = simulate(_build(scheme), TRACE, context_switches=CS_CONFIGS[1],
                            track_per_site=True, warmup_branches=500,
                            backend="vectorized")
        result = simulate(_build(scheme), TRACE, context_switches=CS_CONFIGS[1],
                          track_per_site=True, warmup_branches=500,
                          backend="vectorized", block_size=997)
        assert result == baseline, scheme
        small_base = simulate(_build(scheme), SMALL, context_switches=CS_CONFIGS[1],
                              track_per_site=True, warmup_branches=300,
                              backend="vectorized")
        small = simulate(_build(scheme), SMALL, context_switches=CS_CONFIGS[1],
                         track_per_site=True, warmup_branches=300,
                         backend="vectorized", block_size=1)
        assert small == small_base, scheme


class TestMillionBranchPin:
    """The ISSUE's headline pin: a 1M-branch stream is bit-identical at
    block sizes {4093, 2^16, whole-trace} on the vectorized backend and
    under the interpreted loop, with warmup and context switches on."""

    @pytest.fixture(scope="class")
    def source(self):
        return IndexedSource(
            bernoulli_outcomes(0.7, seed=17), num_records=1_000_000,
            pcs=tuple(0x100 + 8 * i for i in range(64)), name="million",
        )

    @pytest.fixture(scope="class")
    def baseline(self, source):
        cs = ContextSwitchConfig(interval=500_000)
        # Materialized reference: one kernel pass over the whole stream.
        blocks = list(source.iter_blocks(None))
        trace = blocks[0].to_trace()
        return simulate(_build("gag-12"), trace, context_switches=cs,
                        warmup_branches=1_000, backend="vectorized")

    def test_vectorized_blocks(self, source, baseline):
        cs = ContextSwitchConfig(interval=500_000)
        for bs in (4093, 1 << 16, None):
            result = simulate(_build("gag-12"), source, context_switches=cs,
                              warmup_branches=1_000, backend="vectorized",
                              block_size=bs)
            assert result.correct_predictions == baseline.correct_predictions
            assert result == baseline, bs

    def test_interpreted_blocks(self, source, baseline):
        cs = ContextSwitchConfig(interval=500_000)
        result = simulate(_build("gag-12"), source, context_switches=cs,
                          warmup_branches=1_000, backend="python",
                          block_size=4093)
        assert result == baseline


class TestStreamedContainerSource:
    def test_btrs_simulates_identically(self, tmp_path):
        path = tmp_path / "t.btrs"
        save_source(TRACE, path)
        baseline = simulate(_build("pag-8-a2-ideal"), TRACE,
                            context_switches=CS_CONFIGS[1], backend="auto")
        with open_stream(path) as streamed:
            for backend in ("auto", "python"):
                result = simulate(_build("pag-8-a2-ideal"), streamed,
                                  context_switches=CS_CONFIGS[1],
                                  backend=backend, block_size=2048)
                assert result == baseline, backend

    def test_generator_source_simulates(self):
        source = RecordStreamSource(lambda: markov_records(0.9, 0.9, seed=2),
                                    name="markov").limit(20_000)
        blocks = list(source.iter_blocks(None))
        trace = blocks[0].to_trace()
        baseline = simulate(_build("gag-8"), trace, backend="auto")
        result = simulate(_build("gag-8"), source, backend="auto",
                          block_size=4096)
        assert result.correct_predictions == baseline.correct_predictions
        assert result.conditional_branches == baseline.conditional_branches

    def test_run_case_forwards_block_size(self):
        case = BenchmarkCase(name="synth", category="int", test_trace=TRACE,
                             training_trace=TRAINING)
        base = run_case(lambda training: _build("gag-6"), case)
        streamed = run_case(lambda training: _build("gag-6"), case,
                            block_size=1024)
        assert streamed == base


class TestStreamingDispatch:
    def test_unbounded_source_rejected(self):
        source = RecordStreamSource(lambda: markov_records(0.9, 0.9))
        with pytest.raises(ValueError, match="unbounded"):
            simulate(_build("gag-6"), source)
        with pytest.raises(ValueError):
            simulate_vectorized_stream(_build("gag-6"), source)

    def test_bad_block_size_rejected(self):
        with pytest.raises(ValueError):
            simulate(_build("gag-6"), TRACE, block_size=0)

    def test_stream_kernel_support_matrix(self):
        # Streaming covers exactly what the whole-trace kernels cover.
        assert kernel_supports(_build("pap-6-a2-128x1"))
        assert kernel_supports(_build("gap-18"))
        assert not kernel_supports(_wide_automaton_gag())

    def test_unsupported_falls_back_to_interpreted(self):
        result, backend = simulate_with_backend(
            _wide_automaton_gag(), TRACE, backend="auto", block_size=997)
        assert backend == "python"
        assert result == simulate(_wide_automaton_gag(), TRACE, backend="python")

    def test_vectorized_refuses_unsupported_streaming(self):
        with pytest.raises(KernelUnavailable):
            simulate_vectorized_stream(_wide_automaton_gag(), TRACE)

    def test_non_monotone_instret_across_blocks_refused(self):
        builder = TraceBuilder(name="bad", source="test")
        for taken in (True, False, True, False):
            builder.conditional(0x10, taken, work=3)
        trace = builder.build()

        class ShuffledBlocks:
            meta = trace.meta
            num_records = trace.num_records

            def iter_blocks(self, block_size=None):
                blocks = list(trace.iter_blocks(2))
                yield from reversed(blocks)

            def iter_tuples(self):
                for block in self.iter_blocks():
                    yield from block.iter_tuples()

        with pytest.raises(KernelUnavailable, match="instret"):
            simulate_vectorized_stream(
                _build("gag-6"), ShuffledBlocks(),
                context_switches=ContextSwitchConfig(interval=100),
            )

    def test_materialized_trace_without_block_size_unchanged(self):
        # The non-streaming fast path: same entry point, same result.
        a = simulate(_build("gag-6"), TRACE, backend="auto")
        b = simulate_vectorized(_build("gag-6"), TRACE)
        assert a == b


_RSS_SCRIPT = """
import resource, sys
from repro.predictors.registry import make_predictor
from repro.sim.engine import simulate
from repro.trace.stream import IndexedSource, bernoulli_outcomes


def peak_rss_kb():
    # VmHWM is this process's own high-water mark. ru_maxrss is wrong
    # here: a posix_spawn'ed child shares the parent's mm until exec,
    # so it inherits the parent's peak (the whole pytest session).
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


backend = sys.argv[1]
source = IndexedSource(
    bernoulli_outcomes(0.7, seed=5), num_records=10_000_000,
    pcs=tuple(0x100 + 8 * i for i in range(128)), name="rss",
)
result = simulate(make_predictor("gag-12", None), source,
                  backend=backend, block_size=1 << 16)
assert result.conditional_branches == 10_000_000, result
print(peak_rss_kb())
"""


class TestBoundedMemory:
    """A 10M-branch stream (260 MB of packed records; far more
    materialized) must simulate within a block-sized memory envelope."""

    @pytest.mark.parametrize("backend", ["vectorized", "python"])
    def test_10m_branch_rss_bounded(self, backend):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _RSS_SCRIPT, backend],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        peak_kb = int(proc.stdout.strip().splitlines()[-1])
        # Interpreter + numpy baseline is ~100 MB; the stream adds only
        # block-sized working sets. Materializing 10M records would
        # need >500 MB, so the bound also proves nothing materialized.
        assert peak_kb < 400_000, f"peak RSS {peak_kb} KB ({backend})"
