"""Tests for the predictability-bound oracles."""

import pytest

from repro.analysis.bounds import bias_bound, history_bound, predictability_bounds
from repro.analysis.interference import (
    SecondLevelInterference,
    first_level_interference,
    second_level_interference,
)
from repro.core.twolevel import make_pag
from repro.predictors.btb import btb_a2
from repro.predictors.static import ProfileGuided
from repro.sim.engine import simulate
from repro.trace import synthetic
from repro.trace.events import TraceBuilder
from repro.trace.transforms import merge


class TestBiasBound:
    def test_constant_branch_is_fully_biased(self):
        builder = TraceBuilder()
        for _ in range(50):
            builder.conditional(0xA, True)
        assert bias_bound(builder.build()) == 1.0

    def test_alternating_branch_is_half(self):
        trace = synthetic.periodic_trace([True, False], repeats=100)
        assert bias_bound(trace) == pytest.approx(0.5)

    def test_matches_in_sample_profile_oracle(self):
        # Profiling on the SAME trace it is scored on = the bias bound.
        trace = synthetic.biased_trace(5000, taken_probability=0.7, seed=3)
        oracle = ProfileGuided.trained_on(trace)
        assert simulate(oracle, trace).accuracy == pytest.approx(bias_bound(trace))

    def test_upper_bounds_profile_and_loose_on_btb(self):
        trace = synthetic.loop_trace(iterations=400, trip_count=4)
        bound = bias_bound(trace)
        assert simulate(btb_a2(), trace).accuracy <= bound + 1e-9

    def test_empty(self):
        assert bias_bound(TraceBuilder().build()) == 0.0


class TestHistoryBound:
    def test_loop_fully_predictable_with_enough_history(self):
        trace = synthetic.loop_trace(iterations=300, trip_count=4)
        assert history_bound(trace, 4) == pytest.approx(1.0, abs=0.01)

    def test_loop_not_predictable_with_too_little_history(self):
        # trip 8 loop: a 3-bit self-history cannot see the exit coming
        # (the last 3 outcomes are TTT both mid-loop and pre-exit).
        trace = synthetic.loop_trace(iterations=300, trip_count=8)
        shallow = history_bound(trace, 3)
        deep = history_bound(trace, 8)
        assert deep > shallow
        assert deep > 0.99

    def test_monotone_in_history_bits(self):
        trace = synthetic.interleaved(
            [synthetic.loop_source(t) for t in (3, 6, 9)], length=12_000
        )
        bounds = [history_bound(trace, k) for k in (1, 3, 6, 10)]
        for earlier, later in zip(bounds, bounds[1:]):
            assert later >= earlier - 1e-9

    def test_at_least_bias_bound(self):
        trace = synthetic.markov_trace(5000, 0.9, 0.8, seed=4)
        assert history_bound(trace, 6) >= bias_bound(trace) - 1e-9

    def test_upper_bounds_real_pag_on_stationary_trace(self):
        # On *stationary* behaviour the static oracle is a true ceiling;
        # only phase changes let adaptive counters exceed it.
        trace = synthetic.interleaved(
            [synthetic.loop_source(t) for t in (3, 5, 7)], length=20_000
        )
        bound = history_bound(trace, 8)
        measured = simulate(make_pag(8), trace).accuracy
        assert measured <= bound + 1e-9

    def test_adaptive_beats_static_oracle_on_phase_change(self):
        # Phase 1: always taken, so context 111111 -> T dominates the
        # whole-trace majority. Phase 2: a trip-7 loop, where the same
        # all-ones context deterministically precedes the exit (N). The
        # static oracle must mispredict every phase-2 exit; an adaptive
        # counter relearns the context after two misses.
        pc = 0x1000  # both phases must be the SAME static branch
        phase1 = synthetic.periodic_trace([True], repeats=6000, pc=pc)
        phase2 = synthetic.loop_trace(iterations=860, trip_count=7, pc=pc)
        trace = merge([phase1, phase2])
        bound = history_bound(trace, 6)
        measured = simulate(make_pag(6), trace).accuracy
        assert measured > bound + 0.01

    def test_global_mode_differs_from_per_address(self):
        # Correlated pair: GLOBAL history sees A's outcome before B;
        # B's self-history is useless. The global bound must be higher.
        trace = synthetic.correlated_pair_trace(6000, seed=9)
        per_address = history_bound(trace, 6, per_address=True)
        global_mode = history_bound(trace, 6, per_address=False)
        assert global_mode > per_address + 0.1


class TestPredictabilityBounds:
    def test_bundle(self):
        trace = synthetic.loop_trace(iterations=200, trip_count=5)
        bounds = predictability_bounds(trace, 6)
        assert bounds.history_bits == 6
        assert bounds.conditional_branches == len(trace)
        assert bounds.history_headroom == pytest.approx(
            bounds.history_bound - bounds.bias_bound
        )
        # A trip-5 loop: bias gets 4/5, history gets ~all of it.
        assert bounds.bias_bound == pytest.approx(0.8)
        assert bounds.history_bound > 0.99


class TestRegisterConventions:
    """The bound and the interference passes read different per-address
    registers on purpose. Both start all ones; ``history_bound`` then
    only shifts, while the interference passes use PAg's outcome
    extension (the first update fills the register with its outcome).
    One hand-built trace at k=2 tells the two apart:

    ====  ======  =============  ==================  ======
    rec   branch  shift-only     outcome extension   global
    ====  ======  =============  ==================  ======
    0     A  N    11             11                  11
    1     A  N    10             00                  10
    2     A  T    00             00                  00
    3     B  N    11             11                  01
    4     B  N    10             00                  10
    ====  ======  =============  ==================  ======
    """

    @pytest.fixture
    def trace(self):
        builder = TraceBuilder()
        for pc, taken in ((0xA, False), (0xA, False), (0xA, True), (0xB, False),
                          (0xB, False)):
            builder.conditional(pc, taken)
        return builder.build()

    def test_history_bound_only_shifts(self, trace):
        # Shift-only: five distinct (branch, register) contexts, all
        # right. Outcome extension would put A's records 1 and 2 in one
        # (A, 00) context with one N and one T: 4/5.
        assert history_bound(trace, 2) == 1.0

    def test_first_level_interference_extends_the_outcome(self, trace):
        # Extension: records 1, 3 and 4 differ from the global register.
        # Shift-only registers would differ only at record 3.
        assert first_level_interference(trace, 2).polluted_lookups == 3

    def test_second_level_interference_extends_the_outcome(self, trace):
        # Extension: B's records write 11 (after A's N) and 00 (after
        # A's T: destructive), in two shared entries. Shift-only would
        # use three entries, 10 after A's N: no destructive update.
        assert second_level_interference(trace, 2) == SecondLevelInterference(
            history_bits=2, entries_used=2, entries_shared=2, updates=5,
            cross_branch_updates=2, destructive_updates=1,
        )
