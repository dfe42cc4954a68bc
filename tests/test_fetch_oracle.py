"""Randomised oracle for the §3.2 fetch model.

``FetchEngine.run`` scores the front end from the trace's columns: the
direction from the engine's mispredicted conditional records, the RAS
from one loop over the calls and returns, and the BTAC from the
kernels' set-associative LRU replay of the accesses that install a
target. The per-record loop it replaced, with its stateful target
cache, is kept verbatim in ``tests/reference_fetch.py``. Hypothesis
draws traces of every branch class whose pcs crowd a few sets and whose
targets change (0 among them), a BTAC from ``4x1`` to ``512x4`` or none,
a RAS of depth 1, 2 or 32 or none, penalties, and a direction predictor
(PAg, GAg, PAp, always-taken, or a PAg subclass no kernel dispatches
on, which the engine replays with its interpreted loop); it then
requires equal :class:`~repro.sim.fetch.FetchStats` and equal RAS
counters.

The example budget comes from the hypothesis profile named by
``HYPOTHESIS_PROFILE`` (see ``conftest.py``).
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.automata import A2
from repro.core.twolevel import PAgPredictor, TwoLevelConfig, make_gag, make_pag, make_pap
from repro.predictors.static import AlwaysTaken
from repro.sim.fetch import BranchTargetCache, FetchEngine, FetchStats, ReturnAddressStack
from repro.sim.kernels import kernel_supports
from repro.trace.events import BranchClass, Trace, TraceBuilder, TraceMeta
from tests import reference_fetch as reference

PROFILE = settings(
    settings.get_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1")),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class _NoKernelPAg(PAgPredictor):
    """A PAg by behaviour whose exact type no kernel dispatches on."""


PREDICTORS = {
    "pag-4-16x4": lambda: make_pag(4, A2, 16, 4),
    "pag-6-ideal": lambda: make_pag(6, A2, None),
    "gag-5": lambda: make_gag(5),
    "pap-3-8x2": lambda: make_pap(3, A2, 8, 2),
    "always-taken": AlwaysTaken,
    "pag-4-16x4-no-kernel": lambda: _NoKernelPAg(
        TwoLevelConfig(history_bits=4, automaton=A2, bht_entries=16, bht_associativity=4)),
}

#: ``(entries, ways)``: direct-mapped to the paper's 512x4.
GEOMETRIES = [(4, 1), (4, 2), (4, 4), (8, 2), (16, 4), (64, 2), (512, 1), (512, 4)]


@st.composite
def _traces(draw):
    """Up to 300 records of every class. The pcs are drawn from at most
    16 tags over three neighbouring sets at a stride (1 up to 4096), so
    many pcs share a set at every geometry; targets change among four
    values, 0 (unknown) included."""
    n = draw(st.integers(0, 300))
    stride = draw(st.sampled_from([1, 4, 128, 512, 4096]))
    tags = draw(st.integers(1, 16))
    pcs = draw(st.lists(st.tuples(st.integers(0, tags - 1), st.integers(0, 2))
                        .map(lambda ts: ts[0] * stride + ts[1]), min_size=n, max_size=n))
    classes = draw(st.lists(st.sampled_from(list(BranchClass)), min_size=n, max_size=n))
    taken = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    targets = draw(st.lists(st.sampled_from([0, 0x100, 0x200, 0x300]), min_size=n, max_size=n))
    gaps = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    instret, clock = [], 0
    for gap in gaps:
        clock += gap
        instret.append(clock)
    return Trace(
        meta=TraceMeta(name="fetch"),
        pc=pcs, taken=taken, cls=[int(c) for c in classes], target=targets,
        instret=instret, trap=[False] * n,
    )


def _both(trace, scheme, geometry, depth, mispredict_penalty=5, taken_bubble=1):
    """``(got, want)``: ``(FetchStats, RAS counters)`` of the column replay
    and of the reference loop, each over freshly built components."""
    outs = []
    for engine, btac in ((FetchEngine, BranchTargetCache),
                         (reference.FetchEngine, reference.BranchTargetCache)):
        ras = None if depth is None else ReturnAddressStack(depth)
        stats = engine(PREDICTORS[scheme](), None if geometry is None else btac(*geometry),
                       ras, mispredict_penalty, taken_bubble).run(trace)
        counters = None if ras is None else (ras.pushes, ras.pops, ras.underflows,
                                             ras.overflows, len(ras))
        outs.append((stats, counters))
    return outs


def test_the_kernel_less_scheme_has_no_kernel():
    assert not kernel_supports(PREDICTORS["pag-4-16x4-no-kernel"]())
    assert kernel_supports(PREDICTORS["pag-4-16x4"]())


@PROFILE
@given(
    trace=_traces(),
    scheme=st.sampled_from(sorted(PREDICTORS)),
    geometry=st.one_of(st.none(), st.sampled_from(GEOMETRIES)),
    depth=st.sampled_from([None, 1, 2, 32]),
    mispredict_penalty=st.integers(0, 12),
    taken_bubble=st.integers(0, 3),
)
def test_fetch_matches_the_record_loop(trace, scheme, geometry, depth, mispredict_penalty,
                                       taken_bubble):
    got, want = _both(trace, scheme, geometry, depth, mispredict_penalty, taken_bubble)
    assert got == want


def test_empty_trace():
    trace = TraceBuilder(name="empty").build()
    for geometry in (None, (4, 1)):
        got, want = _both(trace, "pag-4-16x4", geometry, 2)
        assert got == want
        assert got[0] == FetchStats()


def test_no_taken_transfer_leaves_the_btac_stream_empty():
    """Not-taken conditionals only: nothing looks up or installs a
    target, whatever the predictor guessed."""
    builder = TraceBuilder(name="not-taken")
    for i in range(40):
        builder.conditional(0x40 + 4 * (i % 5), False, work=2)
    trace = builder.build()
    for scheme in ("always-taken", "pag-4-16x4"):
        got, want = _both(trace, scheme, (16, 4), 32)
        assert got == want
        stats = got[0]
        assert stats.taken_transfers == stats.target_bubbles == 0
        assert stats.btac_hit_rate == 0.0


def test_ras_overflow_and_underflow():
    """Three nested calls into a depth-2 stack, then four returns: the
    oldest return address is lost and the last pop underflows."""
    builder = TraceBuilder(name="ras")
    for site in (0x10, 0x20, 0x30):
        builder.call(site, 0x1000 + site)
    for site in (0x30, 0x20, 0x10, 0x00):
        builder.ret(0x2000 + site, site + 4)
    trace = builder.build()
    got, want = _both(trace, "gag-5", (4, 1), 2)
    assert got == want
    stats, (_pushes, _pops, underflows, overflows, _depth) = got
    assert (overflows, underflows) == (1, 2)
    assert (stats.ras_returns, stats.ras_return_hits) == (4, 2)


def test_contended_set_and_changing_targets():
    """Five pcs in one 4-way set and an indirect jump whose target
    alternates: true LRU evicts, and the alternating target bubbles on
    every lookup after its first install."""
    builder = TraceBuilder(name="contended")
    for round_ in range(6):
        for tag in range(5):
            builder.unconditional(tag * 4, 0x500 + tag)
        builder.unconditional(0x1, 0x700 + (round_ % 2))
    trace = builder.build()
    got, want = _both(trace, "always-taken", (16, 4), None)
    assert got == want
    assert 0.0 < got[0].btac_hit_rate < 1.0


def test_fetch_builds_no_record_lists(suite_cases):
    """The column replay never materialises the trace's Python lists."""
    trace = next(c for c in suite_cases if c.name == "tomcatv").test_trace
    trace._lists = None
    FetchEngine(make_pag(12), btac=BranchTargetCache(512, 4),
                ras=ReturnAddressStack(32)).run(trace)
    FetchEngine(make_pag(12)).run(trace)
    assert trace._lists is None


def test_btac_geometry_checks():
    btac = BranchTargetCache(512, 4)
    assert (btac.num_entries, btac.associativity, btac.num_sets) == (512, 4, 128)
    for entries, ways in ((0, 1), (4, 0), (6, 4)):
        with pytest.raises(ValueError):
            BranchTargetCache(entries, ways)
