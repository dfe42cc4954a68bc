"""Pipeline-timing effects on prediction (paper §3.1), for GAg.

The baseline engine resolves every branch before the next one is
predicted. A real pipeline does not: with resolution latency D, the
next D branches are predicted before the current one's outcome is
known, so the history a two-level predictor consults is *stale* unless
it is updated **speculatively** with predictions. The paper's §3.1
prescribes exactly that: shift the predicted direction into the
history, leave the pattern-table update until the outcome is known,
and on a misprediction squash the younger branches and either *repair*
or *reinitialise* the register.

:func:`simulate_delayed` scores GAg under that timing without
replaying the squashes:

* **stale** (``policy=None``) — record j is predicted from the state
  the immediate-update run had before record ``max(j - D, 0)``, so its
  prediction is that record's immediate one, read off the GAg kernel.
* **speculative** — record j's final prediction (the one after its
  last squash) reads the pattern table after the updates of records
  ``< m_j``, where ``m_j`` is one past the last mispredicted record
  among ``j - D .. j - 1``, or ``max(j - D, 0)`` when there is none.
  ``m_j`` never decreases, so one forward pass applies each update
  lazily, in order, with the history of that record's final
  prediction. The register starts all-ones; ``REPAIR`` shifts in the
  outcome, ``NONE`` the prediction, and ``REINITIALISE`` the outcome
  on a hit and the outcome through every bit on a miss.

The squash-and-repredict loop the forward pass replaces is kept as the
oracle in ``tests/reference_pipeline.py``.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from ..core.automata import A2, AutomatonSpec
from ..core.history import history_fill, history_mask
from ..core.twolevel import make_gag
from ..trace.events import Trace
from .engine import _outcomes_and_misses, _replay_mispredictions
from .results import SimulationResult

__all__ = ["RecoveryPolicy", "simulate_delayed"]


class RecoveryPolicy(enum.Enum):
    """What to do with speculative history after a misprediction."""

    REPAIR = "repair"
    REINITIALISE = "reinitialise"
    NONE = "none"


def simulate_delayed(
    trace: Trace,
    history_bits: int,
    resolution_latency: int,
    policy: Optional[RecoveryPolicy] = None,
    automaton: AutomatonSpec = A2,
) -> SimulationResult:
    """Score GAg on ``trace`` with outcomes arriving
    ``resolution_latency`` branches after their predictions: with stale
    history when ``policy`` is ``None``, else with speculative history
    recovered by ``policy``. A latency of 0 without a policy is the
    immediate-update run.

    Raises:
        ValueError: for a negative ``resolution_latency``.
    """
    if resolution_latency < 0:
        raise ValueError("resolution latency must be >= 0")
    gag = make_gag(history_bits, automaton)
    if policy is None:
        name = gag.name
        taken, wrong = _replay_mispredictions(gag, trace, _outcomes_and_misses)
        predicted = taken ^ wrong
        stale = predicted[np.maximum(np.arange(len(taken)) - resolution_latency, 0)]
        correct = int(np.count_nonzero(stale == taken))
    else:
        name = f"spec[{policy.value}]:{gag.name}"
        arrays = trace.as_arrays()
        taken = arrays.taken[arrays.cond_mask].view(np.uint8).tolist()
        correct = _speculative_correct(taken, history_bits, resolution_latency,
                                       policy, automaton)
    return SimulationResult(
        predictor_name=name,
        trace_name=trace.meta.name,
        dataset=trace.meta.dataset,
        conditional_branches=len(taken),
        correct_predictions=correct,
    )


def _speculative_correct(taken, history_bits, latency, policy, automaton) -> int:
    """The forward pass: correct final predictions of GAg with
    speculative history over the outcomes ``taken`` (ints 0/1)."""
    mask = history_mask(history_bits)
    step = [nxt for pair in automaton.transitions for nxt in pair]
    predicts = automaton.predictions
    states = [automaton.initial_state] * (1 << history_bits)
    history = [0] * len(taken)
    repair, reinitialise = policy is RecoveryPolicy.REPAIR, policy is RecoveryPolicy.REINITIALISE
    ghr = mask
    applied = correct = 0
    last_miss = -1 - latency
    for j, outcome in enumerate(taken):
        resolved = last_miss + 1 if last_miss >= j - latency else j - latency
        while applied < resolved:
            pattern = history[applied]
            states[pattern] = step[2 * states[pattern] + taken[applied]]
            applied += 1
        history[j] = ghr
        if predicts[states[ghr]] == outcome:
            correct += 1
            ghr = ((ghr << 1) | outcome) & mask
        else:
            last_miss = j
            if repair:
                ghr = ((ghr << 1) | outcome) & mask
            elif reinitialise:
                ghr = history_fill(outcome, history_bits)
            else:
                ghr = ((ghr << 1) | (1 - outcome)) & mask
    return correct
