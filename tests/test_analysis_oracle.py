"""Randomised oracle for the miss-analysis passes.

``misprediction_breakdown``, ``learning_curve``, ``per_site_report`` and
``attribute_scheme`` tally the engine's mispredicted records with NumPy.
The per-record loops they replaced are kept verbatim in
``tests/reference_analysis.py``. Hypothesis draws short traces (some
with traps at block edges, some whose clock steps back so the kernel
must decline), a context-switch model (none, the paper default, or a
small interval switching on traps) and a block size (``None``, 1 or
random), then requires ``==`` between each pass and its reference, for
in-memory traces and for a non-``Trace`` source streamed block-wise.
The schemes are registry configurations plus a predictor with no kernel,
which replays through the interpreted loop with a probe attached.

The example budget comes from the hypothesis profile named by
``HYPOTHESIS_PROFILE`` (see ``conftest.py``).
"""

import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.breakdown import learning_curve, misprediction_breakdown, per_site_report
from repro.analysis.predictability import attribute_scheme
from repro.core.automata import A2
from repro.core.twolevel import PAgPredictor, TwoLevelConfig, make_pag
from repro.predictors.registry import make_predictor
from repro.predictors.static import AlwaysTaken
from repro.sim.kernels import kernel_supports
from repro.trace.events import BranchClass, Trace, TraceBuilder, TraceMeta
from repro.trace.stream import IndexedSource, pattern_outcomes
from tests import reference_analysis as reference

PROFILE = settings(
    settings.get_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1")),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _training_trace():
    rng = random.Random(7)
    builder = TraceBuilder(name="train", source="test")
    for _ in range(300):
        pc = rng.randrange(24)
        builder.conditional(pc, rng.random() < 0.2 + (pc % 4) / 5, work=1)
    return builder.build()


TRAINING = _training_trace()


class _NoKernelPAg(PAgPredictor):
    """A PAg by behaviour whose exact type no kernel dispatches on."""


SCHEMES = {
    name: (lambda name=name: make_predictor(name, TRAINING))
    for name in (
        "gag-12", "pag-12", "pap-12", "gshare-12", "gselect-6+6", "tournament", "btb-a2",
        "pag-4-a2-16x4", "pap-3-8x1", "sag-4x4", "sas-3x4", "gsg-4", "psg-4",
        "btfn", "always-taken", "profile",
    )
}
SCHEMES["pag-4-16x4-no-kernel"] = lambda: _NoKernelPAg(
    TwoLevelConfig(history_bits=4, automaton=A2, bht_entries=16, bht_associativity=4)
)


def test_the_kernel_less_scheme_has_no_kernel():
    assert not kernel_supports(SCHEMES["pag-4-16x4-no-kernel"]())
    assert kernel_supports(make_pag(4, A2, 16, 4))


class _Streamed:
    """A non-``Trace`` source over ``trace``, read block by block."""

    def __init__(self, trace: Trace) -> None:
        self.meta = trace.meta
        self._trace = trace

    @property
    def num_records(self) -> int:
        return len(self._trace)

    def iter_blocks(self, block_size=None):
        return self._trace.iter_blocks(block_size)

    def iter_tuples(self):
        return self._trace.iter_tuples()


@st.composite
def cases(draw):
    """``(trace, context_switches, block_size, streamed)``."""
    from repro.sim.engine import ContextSwitchConfig

    n = draw(st.integers(0, 160))
    block_size = draw(st.one_of(st.none(), st.just(1), st.integers(2, 48)))
    pool = draw(st.lists(st.integers(0, 63), min_size=1, max_size=20, unique=True))
    edge = block_size or 16
    traps = set(draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=4)))
    traps |= {e + draw(st.integers(-1, 1)) for e in range(edge, n - 1, edge)
              if draw(st.integers(0, 3)) == 0}
    pcs, taken, cls, instret = [], [], [], []
    clock = 0
    for i in range(n):
        clock += draw(st.sampled_from((1, 1, 2, 5)))
        call = draw(st.integers(0, 9)) == 0
        pcs.append(64 + i if call else draw(st.sampled_from(pool)))
        taken.append(call or draw(st.booleans()))
        cls.append(int(BranchClass.CALL if call else BranchClass.CONDITIONAL))
        instret.append(clock)
    if n > 1 and draw(st.integers(0, 5)) == 0:
        # The clock steps back once: under context switches the kernel
        # declines, possibly after earlier blocks were replayed.
        dip = draw(st.integers(1, n - 1))
        instret[dip] = instret[dip - 1] - draw(st.integers(1, 3))
    trace = Trace(
        meta=TraceMeta(name="analysis-oracle"),
        pc=pcs, taken=taken, cls=cls, target=[0] * n, instret=instret,
        trap=[i in traps for i in range(n)],
    )
    context_switches = draw(st.sampled_from((
        None,
        ContextSwitchConfig(),
        ContextSwitchConfig(interval=draw(st.integers(1, 40)), switch_on_traps=True),
    )))
    return trace, context_switches, block_size, draw(st.booleans())


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@PROFILE
@given(case=cases(), windows=st.integers(1, 30), top=st.integers(0, 12))
def test_passes_match_reference_loops(scheme, case, windows, top):
    trace, context_switches, block_size, streamed = case
    make = SCHEMES[scheme]
    source = _Streamed(trace) if streamed else trace
    assert misprediction_breakdown(
        make(), source, context_switches=context_switches, block_size=block_size
    ) == reference.misprediction_breakdown(make(), trace, context_switches=context_switches)
    assert attribute_scheme(
        make(), source, context_switches=context_switches, block_size=block_size,
        scheme=scheme,
    ) == reference.attribute_scheme(
        make(), trace, context_switches=context_switches, scheme=scheme
    )
    assert learning_curve(make(), source, windows=windows, block_size=block_size) == (
        reference.learning_curve(make(), trace, windows=windows)
    )
    assert per_site_report(make(), source, top=top, block_size=block_size) == (
        reference.per_site_report(make(), trace, top=top)
    )


def test_sites_tied_on_misses_rank_by_first_miss():
    # AlwaysTaken misses 0xB at its 2nd record and 0xA at its 3rd:
    # both sites miss twice, and 0xB, which misses first, ranks first.
    builder = TraceBuilder()
    for pc, taken in ((0xA, True), (0xB, False), (0xA, True), (0xA, False),
                      (0xB, True), (0xB, False), (0xA, False), (0xC, False)):
        builder.conditional(pc, taken)
    trace = builder.build()
    reports = per_site_report(AlwaysTaken(), trace, top=2)
    assert [(site.pc, site.mispredictions) for site in reports] == [(0xB, 2), (0xA, 2)]
    assert reports == reference.per_site_report(AlwaysTaken(), trace, top=2)


@pytest.mark.parametrize("run", [
    lambda source: misprediction_breakdown(make_pag(4), source),
    lambda source: learning_curve(make_pag(4), source),
    lambda source: per_site_report(make_pag(4), source),
    lambda source: attribute_scheme(make_pag(4), source),
], ids=["misprediction_breakdown", "learning_curve", "per_site_report", "attribute_scheme"])
def test_unbounded_source_is_refused(run):
    unbounded = IndexedSource(pattern_outcomes([True, False]))
    with pytest.raises(ValueError, match=r"bound it with \.limit\(n\)"):
        run(unbounded)
    run(unbounded.limit(64))
