"""Randomised oracle for the §3.1 delayed-resolution model.

``simulate_delayed`` scores GAg's stale column from the kernel's
immediate predictions and its speculative columns with one forward
pass. The squash-and-repredict loops they replaced are kept verbatim in
``tests/reference_pipeline.py``. Hypothesis draws traces with every
branch class, colliding pcs and random traps, a history length 1–12, a
resolution latency 0–16 and an automaton (LT, A1–A4, or one whose
correct update flips its prediction), then requires the same correct
count as the oracle under stale history and each recovery policy.

The example budget comes from the hypothesis profile named by
``HYPOTHESIS_PROFILE`` (see ``conftest.py``).
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.automata import PAPER_AUTOMATA
from repro.sim.pipeline import RecoveryPolicy, simulate_delayed
from repro.trace.events import BranchClass, Trace, TraceMeta
from tests.test_pipeline import ANTI_LAST_TIME, _oracle

PROFILE = settings(
    settings.get_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1")),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

AUTOMATA = [*PAPER_AUTOMATA.values(), ANTI_LAST_TIME]


@st.composite
def _traces(draw):
    n = draw(st.integers(0, 400))
    pcs = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    classes = draw(st.lists(st.sampled_from(list(BranchClass)), min_size=n, max_size=n))
    bias = draw(st.floats(0.0, 1.0))
    taken = draw(st.lists(st.floats(0.0, 1.0).map(lambda u: u < bias), min_size=n, max_size=n))
    traps = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return Trace(
        meta=TraceMeta(name="delayed"),
        pc=pcs, taken=taken, cls=[int(c) for c in classes], target=[0] * n,
        instret=list(range(1, n + 1)), trap=traps,
    )


@pytest.mark.parametrize(
    "policy", [None, *RecoveryPolicy], ids=lambda p: getattr(p, "value", "stale")
)
@PROFILE
@given(
    trace=_traces(),
    k=st.integers(1, 12),
    latency=st.integers(0, 16),
    automaton=st.sampled_from(AUTOMATA),
)
def test_delayed_matches_the_squash_loop(policy, trace, k, latency, automaton):
    oracle = _oracle(trace, k, latency, policy, automaton)
    result = simulate_delayed(trace, k, latency, policy, automaton)
    assert result.correct_predictions == oracle.result.correct_predictions
    assert result.conditional_branches == oracle.result.conditional_branches
    assert result.predictor_name == oracle.result.predictor_name
