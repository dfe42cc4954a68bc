"""Randomised oracle for the columnar per-trace passes.

The trace statistics, the per-site bias and profile, and the Static
Training presets are NumPy tallies. The reference implementations below
are the per-record loops they replaced, kept verbatim. Hypothesis draws
random traces (empty ones, ones with no conditional record, single-site
ones, any mix of the four branch classes) and history widths 1–16, and
requires ``==`` on every result, for in-memory traces and for a
non-``Trace`` source streamed at a drawn block size.

The same traces pin the result-cache key: :func:`trace_digest` must stay
the sha256 of the ``.btb`` serialization, cached or not, streamed or not.

The example budget comes from the hypothesis profile named by
``HYPOTHESIS_PROFILE`` (see ``conftest.py``).
"""

import hashlib
import os
import random
from collections import Counter
from typing import Dict

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.static_training import train_global_presets, train_per_address_presets
from repro.core.history import history_mask
from repro.core.twolevel import TwoLevelConfig, _PerAddressBase
from repro.predictors.static import profile_directions
from repro.sim.parallel import trace_digest
from repro.trace.io import dumps
from repro.trace.events import BranchClass, Trace, TraceArrays, TraceMeta
from repro.trace.stats import TraceStats, compute_stats, per_site_bias

PROFILE = settings(
    settings.get_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1")),
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Reference per-record loops
# ----------------------------------------------------------------------

def reference_compute_stats(trace) -> TraceStats:
    class_counts: Counter = Counter()
    static_sites = set()
    taken_conditional = 0
    trap_count = 0
    dynamic = 0
    for pc, taken, cls, _target, _instret, trap in trace.iter_tuples():
        class_counts[BranchClass(cls)] += 1
        dynamic += 1
        if cls == BranchClass.CONDITIONAL:
            static_sites.add(pc)
            if taken:
                taken_conditional += 1
        if trap:
            trap_count += 1
    return TraceStats(
        name=trace.meta.name,
        dataset=trace.meta.dataset,
        dynamic_branches=dynamic,
        dynamic_conditional=class_counts.get(BranchClass.CONDITIONAL, 0),
        static_conditional_sites=len(static_sites),
        total_instructions=trace.meta.total_instructions,
        class_counts=dict(class_counts),
        taken_conditional=taken_conditional,
        trap_count=trap_count,
    )


def reference_per_site_bias(trace) -> Dict[int, float]:
    taken: Counter = Counter()
    total: Counter = Counter()
    for pc, was_taken, cls, _target, _instret, _trap in trace.iter_tuples():
        if cls != BranchClass.CONDITIONAL:
            continue
        total[pc] += 1
        if was_taken:
            taken[pc] += 1
    return {pc: taken[pc] / total[pc] for pc in total}


def reference_profile_directions(trace) -> Dict[int, bool]:
    taken: Counter = Counter()
    total: Counter = Counter()
    for pc, was_taken, cls, _target, _instret, _trap in trace.iter_tuples():
        if cls != BranchClass.CONDITIONAL:
            continue
        total[pc] += 1
        if was_taken:
            taken[pc] += 1
    return {pc: taken[pc] * 2 >= total[pc] for pc in total}


def reference_global_presets(trace, history_bits: int) -> Dict[int, bool]:
    mask = history_mask(history_bits)
    ghr = mask
    taken_counts: Counter = Counter()
    total_counts: Counter = Counter()
    for _pc, taken, cls, _target, _instret, _trap in trace.iter_tuples():
        if cls != BranchClass.CONDITIONAL:
            continue
        total_counts[ghr] += 1
        if taken:
            taken_counts[ghr] += 1
        ghr = ((ghr << 1) | (1 if taken else 0)) & mask
    return {
        pattern: taken_counts[pattern] * 2 >= total_counts[pattern]
        for pattern in total_counts
    }


class _TrainingFirstLevel(_PerAddressBase):
    """A first level only, replaying the reference per-address training."""

    name = "training-first-level"

    def pattern_for(self, pc: int) -> int:
        return self._access_entry(pc).value

    def record(self, pc: int, taken: bool) -> None:
        entry = self.bht.peek(pc)
        if entry is None:
            entry = self._access_entry(pc)
        self._advance_history(entry, taken)

    def predict(self, pc: int, target: int = 0) -> bool:  # pragma: no cover
        raise NotImplementedError("training structure does not predict")

    def update(self, pc: int, taken: bool, target: int = 0) -> None:  # pragma: no cover
        raise NotImplementedError("training structure does not predict")


def reference_per_address_presets(trace, history_bits: int) -> Dict[int, bool]:
    config = TwoLevelConfig(history_bits=history_bits, bht_entries=None)
    first_level = _TrainingFirstLevel(config)
    taken_counts: Counter = Counter()
    total_counts: Counter = Counter()
    for pc, taken, cls, _target, _instret, _trap in trace.iter_tuples():
        if cls != BranchClass.CONDITIONAL:
            continue
        pattern = first_level.pattern_for(pc)
        total_counts[pattern] += 1
        if taken:
            taken_counts[pattern] += 1
        first_level.record(pc, taken)
    return {
        pattern: taken_counts[pattern] * 2 >= total_counts[pattern]
        for pattern in total_counts
    }


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

class _Blocked:
    """A non-``Trace`` source that yields ``trace`` in blocks of a fixed
    size, whatever block size the consumer asks for."""

    def __init__(self, trace: Trace, block_size: int) -> None:
        self.meta = trace.meta
        self._trace = trace
        self._block_size = block_size

    @property
    def num_records(self) -> int:
        return len(self._trace)

    def iter_blocks(self, block_size=None):
        return self._trace.iter_blocks(self._block_size)

    def iter_tuples(self):
        return self._trace.iter_tuples()


@st.composite
def traces(draw) -> Trace:
    """A random trace: up to 3000 records over a pool of 1–40 pcs (small
    and wide), drawn from a random non-empty subset of branch classes."""
    n = draw(st.integers(0, 3000))
    pool_size = draw(st.integers(1, 40))
    pc_space = draw(st.sampled_from([64, 1 << 40]))
    classes = sorted(draw(st.sets(st.sampled_from(list(BranchClass)), min_size=1)))
    p_taken = draw(st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]))
    p_trap = draw(st.sampled_from([0.0, 0.05]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pool = rng.sample(range(pc_space), pool_size)
    pc = [rng.choice(pool) for _ in range(n)]
    return Trace(
        TraceMeta(name="drawn", dataset="hyp", source="test", total_instructions=5 * n),
        pc=pc,
        taken=[rng.random() < p_taken for _ in range(n)],
        cls=[int(rng.choice(classes)) for _ in range(n)],
        target=[p + rng.randrange(-64, 64) for p in pc],
        instret=[5 * (i + 1) for i in range(n)],
        trap=[rng.random() < p_trap for _ in range(n)],
    )


# ----------------------------------------------------------------------
# The gate
# ----------------------------------------------------------------------

@PROFILE
@given(trace=traces(), block_size=st.integers(1, 4000))
def test_stats_and_bias_match_reference(trace, block_size):
    stats = reference_compute_stats(trace)
    bias = reference_per_site_bias(trace)
    assert compute_stats(trace) == stats
    assert per_site_bias(trace) == bias
    streamed = _Blocked(trace, block_size)
    assert compute_stats(streamed) == stats
    assert per_site_bias(streamed) == bias


@PROFILE
@given(trace=traces(), history_bits=st.integers(1, 16))
def test_profile_and_presets_match_reference(trace, history_bits):
    assert profile_directions(trace) == reference_profile_directions(trace)
    assert train_global_presets(trace, history_bits) == reference_global_presets(
        trace, history_bits
    )
    assert train_per_address_presets(trace, history_bits) == reference_per_address_presets(
        trace, history_bits
    )


def test_training_converts_an_in_memory_trace_once(monkeypatch):
    built = []
    init = TraceArrays.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TraceArrays, "__init__", counting_init)
    # The trace converts its columns once, when it is built.
    trace = Trace(TraceMeta(name="t"), [4, 8, 4], [True, False, True], [0, 0, 0],
                  [0, 0, 0], [1, 2, 3], [False] * 3)
    assert len(built) == 1 and trace._arrays is built[0]
    stored = built.pop()
    # A streamed source is profiled block by block, never through the
    # trace's arrays.
    profile_directions(_Blocked(trace, 2))
    assert len(built) == 2 and trace._arrays is stored
    built.clear()
    # The profile and both presets read the stored arrays.
    profile_directions(trace)
    train_global_presets(trace, 4)
    train_per_address_presets(trace, 4)
    assert built == [] and trace._arrays is stored


@PROFILE
@given(trace=traces(), block_size=st.integers(1, 4000))
def test_trace_digest_is_the_btb_sha256(trace, block_size):
    expected = hashlib.sha256(dumps(trace)).hexdigest()
    assert trace_digest(_Blocked(trace, block_size)) == expected
    assert trace_digest(trace) == expected
    assert trace_digest(trace) == expected  # the cached digest
