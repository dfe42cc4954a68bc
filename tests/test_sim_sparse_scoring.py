"""Sparse per-record scoring against the dense per-record reference.

The scanning kernels score a non-aggregate block by the indices of its
mispredicted records, which :func:`repro.sim.kernels._run_wrong_positions`
reads off the run states. The reference below is the dense formula the
kernels used before: every record's prediction from its run's entry
state and its offset in the run (capped at the fixed point ``f^3``).
Hypothesis draws group-sorted outcome arrays, group marks and optional
carried group states, for every registered scannable automaton, the
tournament chooser and a counter that predicts against its state
(every run tail of which mispredicts, unlike the paper automata's).

The example budget comes from the hypothesis profile named by
``HYPOTHESIS_PROFILE`` (see ``conftest.py``).
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check.automata import default_specs
from repro.core.automata import supports_vector_scan
from repro.sim.kernels import (
    CHOOSER_AUTOMATON,
    _find_runs,
    _run_wrong_positions,
    _runs_wrong_total,
    _scan,
    automaton_ops,
)

from .test_sim_differential import CONTRARIAN

PROFILE = settings(
    settings.get_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1")),
    suppress_health_check=[HealthCheck.too_slow],
)

SPECS = [spec for spec in default_specs() if supports_vector_scan(spec)]
SPECS += [CHOOSER_AUTOMATON, CONTRARIAN]


def _dense_predictions(n, runs, ops):
    """Every record's prediction, group-sorted: the state entering its
    run advanced by its offset in the run, at most three steps."""
    preds = np.empty((runs.first.shape[0], 4), dtype=np.bool_)
    for j in range(4):
        preds[:, j] = ops.pred4[ops.apply[ops.pow_codes[runs.out, j], runs.state0]]
    starts = np.zeros(n, dtype=np.bool_)
    starts[runs.first] = True
    run_id = np.cumsum(starts) - 1
    offset = np.minimum(np.arange(n) - runs.first[run_id], 3)
    return preds[run_id, offset]


@st.composite
def blocks(draw, spec):
    """``(out_u8, grp_new, group_init, order)``: outcomes as runs of up
    to 12 records so heads and tails both occur, group starts at random
    records, carried states (or None) per group, and a permutation
    standing in for the group sort."""
    pieces = draw(st.lists(st.tuples(st.booleans(), st.integers(1, 12)),
                           min_size=1, max_size=24))
    out = np.concatenate([np.full(length, taken, dtype=np.uint8)
                          for taken, length in pieces])
    n = out.shape[0]
    grp_new = np.zeros(n, dtype=np.bool_)
    grp_new[0] = True
    grp_new[draw(st.lists(st.integers(0, n - 1), max_size=8))] = True
    groups = int(np.count_nonzero(grp_new))
    group_init = draw(st.one_of(
        st.none(),
        st.lists(st.integers(0, spec.num_states - 1), min_size=groups, max_size=groups)
        .map(lambda states: np.array(states, dtype=np.uint8)),
    ))
    order = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    return out, grp_new, group_init, order


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
@PROFILE
@given(data=st.data())
def test_positions_equal_dense_mispredictions(spec, data):
    ops = automaton_ops(spec)
    out, grp_new, group_init, order = data.draw(blocks(spec))
    n = out.shape[0]
    runs = _find_runs(out, grp_new, ops, group_init)
    expected = np.flatnonzero(_dense_predictions(n, runs, ops) != out.view(np.bool_))
    positions = _run_wrong_positions(runs, ops)
    assert positions.dtype == np.int32
    assert np.unique(positions).shape[0] == positions.shape[0]
    assert set(positions.tolist()) == set(expected.tolist())
    # The aggregate path's closed-form count agrees.
    assert positions.shape[0] == _runs_wrong_total(runs, ops)
    # _scan maps the sorted positions back through ``order``.
    wrong, _runs = _scan(out, grp_new, order, ops, group_init, aggregate=False)
    assert wrong.dtype == np.int64
    assert sorted(wrong.tolist()) == sorted(order[expected].tolist())
    correct, _runs = _scan(out, grp_new, order, ops, group_init, aggregate=True)
    assert correct == n - expected.shape[0]
