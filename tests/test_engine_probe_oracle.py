"""Randomised oracle for the engine's single interpreted loop.

Probed and unprobed runs share one loop in ``repro.sim.engine``; the
probed copy it replaced is kept verbatim in ``tests/reference_engine.py``.
Hypothesis draws short traces of mixed branch classes (some with traps,
some whose clock jumps across several probe windows at once), a
context-switch model (none, the paper default, or a small interval
switching on traps), a warm-up length, per-site tracking on or off, a
block size (``None``, 1 or random), an in-memory or streamed source and
a probe with or without an ``interval_instructions`` window. The engine
must return the reference's ``SimulationResult``, make the same
sequence of probe callbacks, and return the same result with no probe.

The example budget comes from the hypothesis profile named by
``HYPOTHESIS_PROFILE`` (see ``conftest.py``).
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.predictors.registry import make_predictor
from repro.sim.engine import ContextSwitchConfig, simulate
from repro.trace.events import BranchClass, Trace, TraceMeta
from tests import reference_engine as reference
from tests.test_analysis_oracle import TRAINING, _Streamed

PROFILE = settings(
    settings.get_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1")),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


SCHEMES = (
    "gag-12", "pag-12", "pap-12", "gshare-12", "gselect-6+6", "tournament", "btb-a2",
    "pag-4-a2-16x4", "sag-4x4", "psg-4", "btfn", "profile",
)

_NON_CONDITIONAL = (BranchClass.UNCONDITIONAL, BranchClass.CALL, BranchClass.RETURN)


class _CallLog:
    """A probe logging every callback it receives, in order."""

    def __init__(self, window) -> None:
        self.interval_instructions = window
        self.calls = []

    def on_run_start(self, predictor, trace) -> None:
        self.calls.append(("start", predictor.name, trace.meta.name))

    def on_branch(self, pc, predicted, taken, instret) -> None:
        self.calls.append(("branch", pc, predicted, taken, instret))

    def on_context_switch(self, instret) -> None:
        self.calls.append(("switch", instret))

    def on_interval(self, index, instret) -> None:
        self.calls.append(("interval", index, instret))

    def on_run_end(self, result) -> None:
        self.calls.append(("end", result))


@st.composite
def traces(draw):
    n = draw(st.integers(0, 160))
    pool = draw(st.lists(st.integers(0, 63), min_size=1, max_size=20, unique=True))
    pcs, taken, cls, instret, trap = [], [], [], [], []
    clock = 0
    for i in range(n):
        clock += draw(st.sampled_from((1, 1, 2, 5, 17)))
        kind = draw(st.sampled_from((BranchClass.CONDITIONAL,) * 3 + _NON_CONDITIONAL))
        conditional = kind is BranchClass.CONDITIONAL
        pcs.append(draw(st.sampled_from(pool)) if conditional else 64 + i)
        taken.append(draw(st.booleans()) if conditional else True)
        cls.append(int(kind))
        instret.append(clock)
        trap.append(draw(st.integers(0, 15)) == 0)
    return Trace(
        meta=TraceMeta(name="probe-oracle"),
        pc=pcs, taken=taken, cls=cls, target=[0] * n, instret=instret, trap=trap,
    )


context_switch_models = st.one_of(
    st.none(),
    st.just(ContextSwitchConfig()),
    st.integers(1, 40).map(lambda k: ContextSwitchConfig(interval=k, switch_on_traps=True)),
)


@pytest.mark.parametrize("scheme", SCHEMES)
@PROFILE
@given(
    trace=traces(),
    context_switches=context_switch_models,
    warmup=st.one_of(st.just(0), st.integers(1, 60)),
    track_per_site=st.booleans(),
    block_size=st.one_of(st.none(), st.just(1), st.integers(2, 48)),
    streamed=st.booleans(),
    window=st.one_of(st.none(), st.integers(1, 40)),
)
def test_loop_matches_probed_reference(
    scheme, trace, context_switches, warmup, track_per_site, block_size, streamed, window
):
    source = _Streamed(trace) if streamed else trace
    options = dict(
        context_switches=context_switches,
        track_per_site=track_per_site,
        warmup_branches=warmup,
        block_size=block_size,
    )
    probe = _CallLog(window)
    result = simulate(make_predictor(scheme, TRAINING), source, probe=probe, **options)
    expected_probe = _CallLog(window)
    expected = reference._simulate_probed(
        make_predictor(scheme, TRAINING), source, expected_probe, **options
    )
    assert result == expected
    assert probe.calls == expected_probe.calls
    assert simulate(make_predictor(scheme, TRAINING), source, **options) == result
