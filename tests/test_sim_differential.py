"""Randomised differential gate for the carried-state kernels.

Hypothesis draws short traces, a registry configuration, a block size and
a context-switch model, then requires ``==`` on the
:class:`~repro.sim.results.SimulationResult` between the interpreted
engine on the materialized trace and the vectorized backend, whole-trace
and folded over blocks. The traces use few pcs per BHT set, so LRU epochs
are contended, and put traps at and next to block boundaries; switch
intervals both divide and straddle the block size. Inputs the kernels
must refuse raise :class:`~repro.sim.kernels.KernelUnavailable` under an
explicit ``backend="vectorized"`` at every block size, and
``backend="auto"`` returns the interpreted result for them.

The example budget comes from the hypothesis profile named by
``HYPOTHESIS_PROFILE`` (see ``conftest.py``): a small derandomized one by
default, a larger ``ci`` one in the CI gate.
"""

import dataclasses
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.automata import A2, LAST_TIME, saturating_counter
from repro.core.perset import SAgPredictor, SAsPredictor
from repro.core.twolevel import GAgPredictor, make_pag, make_pap
from repro.predictors.btb import BTBPredictor
from repro.predictors.extensions import GselectPredictor, TournamentPredictor
from repro.predictors.registry import make_predictor
from repro.sim import ContextSwitchConfig, KernelUnavailable, simulate, simulate_with_backend
from repro.trace.events import BranchClass, Trace, TraceBuilder, TraceMeta

PROFILE = settings(
    settings.get_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1")),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _training_trace():
    rng = random.Random(5)
    builder = TraceBuilder(name="train", source="test")
    for _ in range(400):
        pc = rng.randrange(48)
        builder.conditional(pc, rng.random() < 0.3 + (pc % 5) / 10, work=1)
    return builder.build()


TRAINING = _training_trace()

#: A 2-bit counter that predicts against its own state: every run past
#: its three-step head sits at a fixed point that mispredicts, so the
#: sparse scorer's whole-tail branch fires (no paper automaton reaches
#: one).
CONTRARIAN = dataclasses.replace(
    saturating_counter(2), name="contrarian",
    predictions=tuple(not p for p in saturating_counter(2).predictions),
)

#: Small geometries (4 sets of 4 ways, 8 direct-mapped sets) so a pool of
#: a few dozen pcs contends for ways, plus paper-sized configurations.
SCHEMES = {
    "gag-4": lambda: GAgPredictor(4),
    "gshare-5": lambda: make_predictor("gshare-5"),
    "gap-18": lambda: make_predictor("gap-18"),
    "gselect": lambda: GselectPredictor(4, 3),
    "gsg-4": lambda: make_predictor("gsg-4", TRAINING),
    "psg-4-16x4": lambda: make_predictor("psg-4-16x4", TRAINING),
    "pag-4-16x4": lambda: make_pag(4, A2, 16, 4),
    "pag-4-16x4-contrarian": lambda: make_pag(4, CONTRARIAN, 16, 4),
    "pag-5-8x1": lambda: make_pag(5, A2, 8, 1),
    "pag-4-ideal": lambda: make_pag(4, A2, None),
    "pag-12-512x4": lambda: make_predictor("pag-12-512x4"),
    "pap-3-16x4": lambda: make_pap(3, A2, 16, 4),
    "pap-3-16x4-keep": lambda: make_pap(3, LAST_TIME, 16, 4, reset_pht_on_evict=False),
    "pap-3-8x1": lambda: make_pap(3, A2, 8, 1),
    "pap-3-8x1-keep": lambda: make_pap(3, A2, 8, 1, reset_pht_on_evict=False),
    "pap-3-ideal": lambda: make_pap(3, A2, None),
    "pap-6-512x4": lambda: make_predictor("pap-6-512x4"),
    "btb-16x4": lambda: BTBPredictor(16, 4, A2),
    "btb-8x1-lt": lambda: BTBPredictor(8, 1, LAST_TIME),
    "btb-a2": lambda: make_predictor("btb-a2"),
    "sag-4x4": lambda: SAgPredictor(4, 4),
    "sas-3x4": lambda: SAsPredictor(3, 4),
    "tournament": lambda: TournamentPredictor(
        make_pag(4, A2, 16, 4), GselectPredictor(3, 2), chooser_bits=3
    ),
}


@st.composite
def cases(draw, decreasing=False):
    """``(trace, block_size, context_switches)``; with ``decreasing``, a
    short trace whose clock steps back once, under context switches."""
    n = draw(st.integers(2, 40) if decreasing else st.integers(1, 160))
    block_size = draw(st.one_of(st.integers(1, 8), st.integers(9, 48)))
    pool = draw(st.lists(st.integers(0, 63), min_size=1, max_size=24, unique=True))
    boundaries = range(block_size, n, block_size)
    traps = set(draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=4)))
    if boundaries:
        for edge in draw(st.lists(st.sampled_from(list(boundaries)), max_size=3)):
            traps.add(min(edge + draw(st.integers(-1, 1)), n - 1))
    pcs, taken, cls, instret = [], [], [], []
    clock = 0
    for i in range(n):
        clock += draw(st.sampled_from((1, 1, 1, 2, 5)))
        call = draw(st.integers(0, 9)) == 0
        pcs.append(64 + i if call else draw(st.sampled_from(pool)))
        taken.append(call or draw(st.booleans()))
        cls.append(int(BranchClass.CALL if call else BranchClass.CONDITIONAL))
        instret.append(clock)
    if decreasing:
        dip = draw(st.integers(1, n - 1))
        instret[dip] = instret[dip - 1] - draw(st.integers(1, 3))
    trace = Trace(
        meta=TraceMeta(name="differential"),
        pc=pcs, taken=taken, cls=cls, target=[0] * n, instret=instret,
        trap=[i in traps for i in range(n)],
    )
    if decreasing:
        return trace, block_size, ContextSwitchConfig(interval=draw(st.integers(1, 40)))
    # Intervals in instructions: multiples of the block size divide it
    # on unit-step stretches, other values straddle it.
    interval = draw(st.one_of(
        st.integers(1, 4).map(lambda m: m * block_size),
        st.integers(1, 3 * block_size + 3),
    ))
    context_switches = draw(st.one_of(
        st.none(),
        st.builds(ContextSwitchConfig, interval=st.just(interval),
                  switch_on_traps=st.booleans()),
    ))
    return trace, block_size, context_switches


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@PROFILE
@given(case=cases(), warmup=st.integers(0, 40), track=st.booleans())
def test_vectorized_equals_interpreted(scheme, case, warmup, track):
    trace, block_size, context_switches = case
    make = SCHEMES[scheme]
    options = dict(context_switches=context_switches, track_per_site=track,
                   warmup_branches=warmup)
    expected = simulate(make(), trace, backend="python", **options)
    for size in (None, block_size):
        assert simulate(make(), trace, backend="vectorized", block_size=size,
                        **options) == expected, size


def _wide_automaton_gag():
    """An 8-state automaton: beyond the packed codes, so no kernel."""
    return GAgPredictor(4, saturating_counter(3))


@PROFILE
@given(case=cases(decreasing=True))
def test_decreasing_clock_is_refused(case):
    trace, _block_size, context_switches = case
    _assert_refused(lambda: make_pag(4, A2, 16, 4), trace, context_switches)


@PROFILE
@given(case=cases())
def test_predictor_without_kernel_is_refused(case):
    trace, _block_size, context_switches = case
    _assert_refused(_wide_automaton_gag, trace, context_switches)


def _assert_refused(make, trace, context_switches):
    for size in (None, *range(1, len(trace) + 1)):
        with pytest.raises(KernelUnavailable):
            simulate(make(), trace, context_switches=context_switches,
                     backend="vectorized", block_size=size)
    result, used = simulate_with_backend(make(), trace, context_switches=context_switches,
                                         backend="auto")
    assert used == "python"
    assert result == simulate(make(), trace, context_switches=context_switches,
                              backend="python")
