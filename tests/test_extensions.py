"""Tests for the post-paper predictors (gselect, tournament)."""

import pytest

from repro.core.twolevel import GsharePredictor, make_gag, make_pag
from repro.predictors.extensions import (
    GselectPredictor,
    TournamentPredictor,
    tournament_pag_gshare,
)
from repro.predictors.static import AlwaysNotTaken, AlwaysTaken
from repro.sim.engine import simulate
from repro.trace import synthetic
from repro.trace.events import TraceBuilder
from repro.trace.transforms import merge


class TestGselect:
    def test_index_concatenates(self):
        gselect = GselectPredictor(history_bits=4, address_bits=3)
        gselect.ghr = 0b1010
        assert gselect._index(0b101) == (0b101 << 4) | 0b1010

    def test_separates_branches_with_same_history(self):
        # A always taken, B always not taken, interleaved: a pure GAg
        # of the same total index width confuses them; gselect keys on
        # the address bits.
        builder = TraceBuilder()
        for _ in range(400):
            builder.conditional(0b0001, True)
            builder.conditional(0b0010, False)
        trace = builder.build()
        gselect = GselectPredictor(history_bits=2, address_bits=4)
        gag = make_gag(6)  # same 2^6 table budget
        assert simulate(gselect, trace).accuracy > simulate(gag, trace).accuracy

    def test_validation(self):
        with pytest.raises(ValueError):
            GselectPredictor(0, 4)
        with pytest.raises(ValueError):
            GselectPredictor(4, 0)

    def test_context_switch_resets_history(self):
        gselect = GselectPredictor(4, 4)
        gselect.update(0, False)
        gselect.on_context_switch()
        assert gselect.ghr == 0b1111

    def test_learns_global_correlation(self):
        trace = synthetic.correlated_pair_trace(8000, seed=5)
        accuracy = simulate(GselectPredictor(6, 6), trace).accuracy
        assert accuracy > 0.70


class TestTournament:
    def test_chooser_learns_better_component(self):
        # First component is always wrong, second always right.
        builder = TraceBuilder()
        for _ in range(100):
            builder.conditional(0xA, True)
        trace = builder.build()
        tournament = TournamentPredictor(AlwaysNotTaken(), AlwaysTaken())
        result = simulate(tournament, trace)
        # The chooser starts weakly on the first component; it needs a
        # couple of branches to swing over, then it is perfect.
        assert result.mispredictions <= 3

    def test_swings_back(self):
        builder = TraceBuilder()
        for _ in range(50):
            builder.conditional(0xA, True)  # favours AlwaysTaken
        for _ in range(50):
            builder.conditional(0xA, False)  # favours AlwaysNotTaken
        tournament = TournamentPredictor(AlwaysTaken(), AlwaysNotTaken())
        result = simulate(tournament, builder.build())
        assert result.accuracy > 0.9

    def test_per_branch_choosers(self):
        builder = TraceBuilder()
        for _ in range(200):
            builder.conditional(0xA, True)   # component 1 (AT) right here
            builder.conditional(0xB, False)  # component 2 (ANT) right here
        tournament = TournamentPredictor(AlwaysTaken(), AlwaysNotTaken())
        result = simulate(tournament, builder.build())
        assert result.accuracy > 0.95

    def test_disagreements_counted(self):
        builder = TraceBuilder()
        for _ in range(10):
            builder.conditional(0xA, True)
        tournament = TournamentPredictor(AlwaysTaken(), AlwaysNotTaken())
        simulate(tournament, builder.build())
        assert tournament.disagreements == 10

    def test_context_switch_propagates(self):
        tournament = tournament_pag_gshare()
        tournament.first.predict(0xA)
        tournament.first.update(0xA, True)
        tournament.on_context_switch()
        assert tournament.first.bht.peek(0xA) is None

    def test_never_worse_than_both_components_on_mixed_work(self):
        trace = synthetic.interleaved(
            [synthetic.loop_source(t) for t in (3, 5, 9)]
            + [synthetic.pattern_source([True, False])],
            length=30_000,
        )
        tournament = tournament_pag_gshare(10, 10, 10)
        combined = simulate(tournament, trace).accuracy
        pag = simulate(make_pag(10), trace).accuracy
        gshare = simulate(GsharePredictor(10), trace).accuracy
        assert combined >= min(pag, gshare) - 0.005

    def test_beats_pag_on_correlation_plus_locality(self):
        # Correlated pair (global wins) interleaved with private loops
        # (per-address wins): the tournament picks per-branch.
        pair = synthetic.correlated_pair_trace(6000, seed=2)
        loops = synthetic.interleaved(
            [synthetic.loop_source(4), synthetic.loop_source(6)], length=12_000
        )
        trace = merge([pair, loops])
        tournament = tournament_pag_gshare(8, 10, 10)
        combined = simulate(tournament, trace).accuracy
        pag_only = simulate(make_pag(8), trace).accuracy
        assert combined > pag_only - 0.01
