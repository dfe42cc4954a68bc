"""Tests for the §3.1 pipeline-timing model (speculative history)."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.twolevel import make_gag, make_pag, make_pap
from repro.obs import Probe
from repro.sim.engine import simulate
from repro.sim.pipeline import (
    RecoveryPolicy,
    SpeculativeTwoLevel,
    simulate_delayed,
)
from repro.trace import synthetic
from repro.trace.events import BranchClass, Trace, TraceMeta


def _mixed_trace(length=20_000):
    sources = [synthetic.loop_source(t) for t in (3, 5, 7)] + [
        synthetic.pattern_source([True, True, False]),
    ]
    return synthetic.interleaved(sources, length=length)


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
        delayed = simulate_delayed(make_pag(8), trace, resolution_latency=0)
        assert delayed.result.correct_predictions == baseline.correct_predictions


class TestStaleHistoryHurts:
    def test_plain_predictor_degrades_with_latency(self):
        trace = _mixed_trace()
        at_zero = simulate_delayed(make_gag(10), trace, 0).result.accuracy
        at_eight = simulate_delayed(make_gag(10), trace, 8).result.accuracy
        assert at_eight < at_zero - 0.02

    def test_speculative_update_recovers_most_of_it(self):
        trace = _mixed_trace()
        latency = 8
        stale = simulate_delayed(make_gag(10), trace, latency).result.accuracy
        speculative = simulate_delayed(
            make_gag(10),
            trace,
            latency,
            speculative=SpeculativeTwoLevel(make_gag(10), RecoveryPolicy.REPAIR),
        ).result.accuracy
        at_zero = simulate_delayed(make_gag(10), trace, 0).result.accuracy
        assert speculative > stale
        # Speculation closes most of the gap to immediate resolution.
        assert (at_zero - speculative) < 0.5 * (at_zero - stale)

    def test_repair_beats_no_recovery(self):
        trace = _mixed_trace()
        latency = 6

        def run(policy):
            return simulate_delayed(
                make_gag(10),
                trace,
                latency,
                speculative=SpeculativeTwoLevel(make_gag(10), policy),
            ).result.accuracy

        assert run(RecoveryPolicy.REPAIR) >= run(RecoveryPolicy.NONE)

    def test_recoveries_counted(self):
        trace = synthetic.biased_trace(2_000, taken_probability=0.5, seed=1)
        wrapper = SpeculativeTwoLevel(make_gag(6), RecoveryPolicy.REPAIR)
        outcome = simulate_delayed(make_gag(6), trace, 4, speculative=wrapper)
        assert outcome.recoveries == outcome.result.mispredictions
        # Every fetch *and* every squash-re-fetch issues a speculative
        # update, so the count is at least one per dynamic branch.
        assert wrapper.speculative_updates >= len(trace)


class TestValidationAndPlumbing:
    def test_negative_latency_rejected(self):
        trace = _mixed_trace(100)
        with pytest.raises(ValueError):
            simulate_delayed(make_gag(4), trace, -1)

    def test_context_switch_passthrough(self):
        wrapper = SpeculativeTwoLevel(make_pag(6))
        wrapper.predict(0xA)
        wrapper.update(0xA, True)
        wrapper.on_context_switch()
        assert wrapper.inner.bht.peek(0xA) is None

    def test_name_mentions_policy(self):
        wrapper = SpeculativeTwoLevel(make_gag(6), RecoveryPolicy.REINITIALISE)
        assert "reinitialise" in wrapper.name

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

    @settings(settings.get_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1")))
    @given(trace=_random_traces(), k=st.integers(1, 12), latency=st.integers(0, 12))
    def test_gag_delayed_score_is_the_shifted_immediate_score(self, trace, k, latency):
        probe = _Predictions()
        simulate(make_gag(k), trace, probe=probe)
        pred, taken = probe.predicted, probe.taken
        expected = sum(pred[max(i - latency, 0)] == taken[i] for i in range(len(taken)))
        delayed = simulate_delayed(make_gag(k), trace, resolution_latency=latency)
        assert delayed.result.correct_predictions == expected
