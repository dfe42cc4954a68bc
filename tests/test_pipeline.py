"""Tests for the §3.1 pipeline-timing model (speculative history).

``simulate_delayed`` scores GAg directly. The squash-and-repredict
wrapper it replaced, ``SpeculativeTwoLevel`` with its loops, lives on in
``tests/reference_pipeline.py``; the tests of its plumbing run there.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.automata import (
    A1,
    A2,
    A3,
    A4,
    LAST_TIME,
    PRESET_NOT_TAKEN,
    PRESET_TAKEN,
    AutomatonSpec,
)
from repro.core.twolevel import make_gag, make_pag, make_pap
from repro.obs import Probe
from repro.sim.engine import simulate
from repro.sim.pipeline import RecoveryPolicy, simulate_delayed
from repro.trace import synthetic
from repro.trace.events import BranchClass, Trace, TraceMeta
from tests import reference_pipeline as reference
from tests.reference_pipeline import SpeculativeTwoLevel

PROFILE = settings(settings.get_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1")))

REGISTERED_AUTOMATA = [LAST_TIME, A1, A2, A3, A4, PRESET_TAKEN, PRESET_NOT_TAKEN]

# Predicts the opposite of the pattern's last outcome, so a correct
# update flips its prediction: lambda(delta(S, lambda(S))) != lambda(S).
ANTI_LAST_TIME = AutomatonSpec(
    name="AntiLT",
    bits=1,
    initial_state=1,
    transitions=((1, 0), (1, 0)),
    predictions=(False, True),
)


def _mixed_trace(length=20_000):
    sources = [synthetic.loop_source(t) for t in (3, 5, 7)] + [
        synthetic.pattern_source([True, True, False]),
    ]
    return synthetic.interleaved(sources, length=length)


def _oracle(trace, k, latency, policy=None, automaton=A2):
    """The squash loop's outcome for GAg-``k`` under ``policy``."""
    speculative = None
    if policy is not None:
        speculative = SpeculativeTwoLevel(make_gag(k, automaton), policy)
    return reference.simulate_delayed(make_gag(k, automaton), trace, latency, speculative)


class TestEquivalenceAtZeroLatency:
    @pytest.mark.parametrize(
        "factory",
        [lambda: make_gag(8), lambda: make_pag(8), lambda: make_pap(6)],
        ids=["gag", "pag", "pap"],
    )
    def test_speculative_repair_matches_baseline(self, factory):
        trace = _mixed_trace(8_000)
        baseline = simulate(factory(), trace)
        wrapped = SpeculativeTwoLevel(factory(), RecoveryPolicy.REPAIR)
        speculative = simulate(wrapped, trace)
        assert speculative.correct_predictions == baseline.correct_predictions

    def test_delayed_zero_matches_engine(self):
        trace = _mixed_trace(8_000)
        baseline = simulate(make_pag(8), trace)
        delayed = reference.simulate_delayed(make_pag(8), trace, resolution_latency=0)
        assert delayed.result.correct_predictions == baseline.correct_predictions
        gag = simulate(make_gag(8), trace).correct_predictions
        assert simulate_delayed(trace, 8, 0).correct_predictions == gag
        assert simulate_delayed(trace, 8, 0, RecoveryPolicy.REPAIR).correct_predictions == gag


class TestStaleHistoryHurts:
    def test_plain_predictor_degrades_with_latency(self):
        trace = _mixed_trace()
        at_zero = simulate_delayed(trace, 10, 0).accuracy
        at_eight = simulate_delayed(trace, 10, 8).accuracy
        assert at_eight < at_zero - 0.02

    def test_speculative_update_recovers_most_of_it(self):
        trace = _mixed_trace()
        latency = 8
        stale = simulate_delayed(trace, 10, latency).accuracy
        speculative = simulate_delayed(trace, 10, latency, RecoveryPolicy.REPAIR).accuracy
        at_zero = simulate_delayed(trace, 10, 0).accuracy
        assert speculative > stale
        # Speculation closes most of the gap to immediate resolution.
        assert (at_zero - speculative) < 0.5 * (at_zero - stale)

    def test_repair_beats_no_recovery(self):
        trace = _mixed_trace()
        latency = 6

        def run(policy):
            return simulate_delayed(trace, 10, latency, policy).accuracy

        assert run(RecoveryPolicy.REPAIR) >= run(RecoveryPolicy.NONE)

    def test_recoveries_counted(self):
        trace = synthetic.biased_trace(2_000, taken_probability=0.5, seed=1)
        wrapper = SpeculativeTwoLevel(make_gag(6), RecoveryPolicy.REPAIR)
        outcome = reference.simulate_delayed(make_gag(6), trace, 4, speculative=wrapper)
        assert outcome.recoveries == outcome.result.mispredictions
        # Every fetch *and* every squash-re-fetch issues a speculative
        # update, so the count is at least one per dynamic branch.
        assert wrapper.speculative_updates >= len(trace)
        # One recovery per final misprediction of the forward pass.
        forward = simulate_delayed(trace, 6, 4, RecoveryPolicy.REPAIR)
        assert forward.mispredictions == outcome.recoveries
        assert forward.conditional_branches == outcome.result.conditional_branches


class TestValidationAndPlumbing:
    def test_negative_latency_rejected(self):
        trace = _mixed_trace(100)
        with pytest.raises(ValueError):
            simulate_delayed(trace, 4, -1)
        with pytest.raises(ValueError):
            simulate_delayed(trace, 4, -1, RecoveryPolicy.REPAIR)
        with pytest.raises(ValueError):
            reference.simulate_delayed(make_gag(4), trace, -1)

    def test_context_switch_passthrough(self):
        wrapper = SpeculativeTwoLevel(make_pag(6))
        wrapper.predict(0xA)
        wrapper.update(0xA, True)
        wrapper.on_context_switch()
        assert wrapper.inner.bht.peek(0xA) is None

    def test_name_mentions_policy(self):
        wrapper = SpeculativeTwoLevel(make_gag(6), RecoveryPolicy.REINITIALISE)
        assert "reinitialise" in wrapper.name
        trace = _mixed_trace(100)
        assert "reinitialise" in simulate_delayed(
            trace, 6, 2, RecoveryPolicy.REINITIALISE
        ).predictor_name

    def test_update_without_predict_tolerated(self):
        wrapper = SpeculativeTwoLevel(make_pag(6))
        wrapper.update(0xB, True)  # engine-discipline violation
        assert wrapper.inner.bht.peek(0xB) is not None

    def test_reinitialise_policy_fills_with_outcome(self):
        wrapper = SpeculativeTwoLevel(make_gag(4), RecoveryPolicy.REINITIALISE)
        # Force a misprediction: initial state predicts taken.
        prediction, context = wrapper.predict_tagged(0xA)
        assert prediction is True
        wrapper.resolve(0xA, False, context)
        assert wrapper.inner.ghr == 0b0000


class _Predictions(Probe):
    """Collects the engine's immediate-update predictions in order."""

    def __init__(self) -> None:
        self.predicted = []
        self.taken = []

    def on_branch(self, pc, predicted, taken, instret):
        self.predicted.append(predicted)
        self.taken.append(taken)


@st.composite
def _random_traces(draw):
    n = draw(st.integers(0, 300))
    pcs = draw(st.lists(st.integers(0, 15), min_size=n, max_size=n))
    classes = draw(st.lists(st.sampled_from(list(BranchClass)), min_size=n, max_size=n))
    taken = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return Trace(
        meta=TraceMeta(name="stale-gag"),
        pc=pcs, taken=taken, cls=[int(c) for c in classes], target=[0] * n,
        instret=list(range(1, n + 1)), trap=[False] * n,
    )


class TestStaleUpdateClosedForm:
    """Paper §3.1: with updates applied D branches late, GAg predicts
    branch ``i`` from the state the immediate-update run had before
    branch ``i - D``, so its delayed predictions are the immediate ones
    shifted by D (branches before the first resolution all see the
    initial state, i.e. ``pred[0]``). PAg does not satisfy the
    identity: its per-address registers lag differently, each by the
    number of *its own* branches still in flight rather than by D.
    """

    @PROFILE
    @given(trace=_random_traces(), k=st.integers(1, 12), latency=st.integers(0, 12))
    def test_gag_delayed_score_is_the_shifted_immediate_score(self, trace, k, latency):
        probe = _Predictions()
        simulate(make_gag(k), trace, probe=probe)
        pred, taken = probe.predicted, probe.taken
        expected = sum(pred[max(i - latency, 0)] == taken[i] for i in range(len(taken)))
        delayed = simulate_delayed(trace, k, resolution_latency=latency)
        assert delayed.correct_predictions == expected
        assert delayed.conditional_branches == len(taken)


class TestRepairEqualsImmediate:
    """Under ``REPAIR`` every final prediction uses the exact outcome
    history, and the only updates it misses are those of the records
    after the last squash, all predicted correctly. An automaton that
    keeps its prediction after a correct update (``lambda(delta(S,
    lambda(S))) == lambda(S)``) cannot be moved by them, so GAg under
    ``REPAIR`` makes exactly the immediate predictions at any D.
    """

    @pytest.mark.parametrize("automaton", REGISTERED_AUTOMATA, ids=lambda a: a.name)
    def test_registered_automata_keep_their_prediction(self, automaton):
        for state, prediction in enumerate(automaton.predictions):
            assert automaton.predict(automaton.next_state(state, prediction)) == prediction

    @pytest.mark.parametrize("automaton", REGISTERED_AUTOMATA, ids=lambda a: a.name)
    @PROFILE
    @given(trace=_random_traces(), k=st.integers(1, 12), latency=st.integers(0, 16))
    def test_repair_count_is_the_immediate_count(self, automaton, trace, k, latency):
        immediate = simulate(make_gag(k, automaton), trace)
        repair = simulate_delayed(trace, k, latency, RecoveryPolicy.REPAIR, automaton)
        assert repair.correct_predictions == immediate.correct_predictions
        assert repair.conditional_branches == immediate.conditional_branches

    def test_a_flipping_automaton_departs_from_immediate(self):
        assert ANTI_LAST_TIME.predict(ANTI_LAST_TIME.next_state(0, False)) is True
        trace = _mixed_trace(2_000)
        immediate = simulate(make_gag(4, ANTI_LAST_TIME), trace).correct_predictions
        for latency in (1, 4, 8):
            repair = simulate_delayed(trace, 4, latency, RecoveryPolicy.REPAIR, ANTI_LAST_TIME)
            oracle = _oracle(trace, 4, latency, RecoveryPolicy.REPAIR, ANTI_LAST_TIME)
            assert repair.correct_predictions != immediate
            assert repair.correct_predictions == oracle.result.correct_predictions
