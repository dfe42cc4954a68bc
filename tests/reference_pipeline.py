"""The squash-and-repredict pipeline model that the forward pass replaced.

:class:`SpeculativeTwoLevel` wraps GAg/PAg/PAp with speculative
first-level update and a mis-speculation policy; the loops of
:func:`simulate_delayed` replay a trace with resolution latency D,
either applying plain predictor updates D branches late (stale history)
or, with the wrapper, squashing and re-predicting the younger in-flight
branches on every misprediction. They are kept verbatim (formerly
``repro.sim.pipeline``) as the oracle for ``tests/test_pipeline.py``
and ``tests/test_pipeline_oracle.py``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple, Union

from repro.predictors.base import BranchPredictor
from repro.trace.events import BranchClass, Trace
from repro.sim.results import SimulationResult
from repro.sim.pipeline import RecoveryPolicy
from repro.core.history import history_fill, history_mask
from repro.core.twolevel import GAgPredictor, PAgPredictor, PApPredictor


class SpeculativeTwoLevel(BranchPredictor):
    """Speculative first-level update for a two-level predictor.

    ``predict`` shifts the *predicted* direction into the branch's
    history register immediately (so subsequent predictions see fresh
    history even before resolution); ``resolve`` applies the pattern-
    table update with the history the prediction used and recovers the
    register if the speculation was wrong.

    The wrapped predictor must be one of the two-level classes; its own
    ``predict``/``update`` are bypassed in favour of this protocol.
    """

    def __init__(
        self,
        inner: Union[GAgPredictor, PAgPredictor, PApPredictor],
        policy: RecoveryPolicy = RecoveryPolicy.REPAIR,
    ) -> None:
        self.inner = inner
        self.policy = policy
        self.history_bits = inner.history_bits
        self._mask = history_mask(self.history_bits)
        self.name = f"spec[{policy.value}]:{inner.name}"
        self.speculative_updates = 0
        self.recoveries = 0
        self._last: Optional[Tuple[int, Tuple[int, bool, bool]]] = None
        # Chosen once: the accessors run on every predict and resolve.
        if isinstance(inner, GAgPredictor):
            self._read_history, self._write_history = self._read_ghr, self._write_ghr
        if isinstance(inner, PApPredictor):
            self._pattern_table = self._slot_table

    # ------------------------------------------------------------------
    # First-level plumbing over the three variants
    # ------------------------------------------------------------------
    def _read_history(self, pc: int) -> Tuple[int, bool]:
        """(history value, fresh) for the branch, allocating on miss."""
        entry = self.inner._access_entry(pc)
        return entry.value, entry.fresh

    def _read_ghr(self, pc: int) -> Tuple[int, bool]:
        return self.inner.ghr, False

    def _write_ghr(self, pc: int, value: int, fresh: bool) -> None:
        self.inner.ghr = value & self._mask

    def _write_history(self, pc: int, value: int, fresh: bool) -> None:
        entry = self.inner.bht.peek(pc)
        if entry is None:
            entry = self.inner._access_entry(pc)
        entry.value = value & self._mask
        entry.fresh = fresh

    def _pattern_table(self, pc: int):
        return self.inner.pht

    def _slot_table(self, pc: int):
        entry = self.inner.bht.peek(pc)
        if entry is None:
            entry = self.inner._access_entry(pc)
        return self.inner.bank.table_for(entry.slot)

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def predict(self, pc: int, target: int = 0) -> bool:
        """Predict and speculatively advance the branch's history.

        Returns the prediction; the (pattern, prediction, fresh) tuple
        needed at resolve time is obtained via :meth:`predict_tagged`.
        """
        prediction, _context = self.predict_tagged(pc, target)
        return prediction

    def predict_tagged(self, pc: int, target: int = 0) -> Tuple[bool, Tuple[int, bool, bool]]:
        """Predict, speculate, and hand back the resolve context."""
        history, fresh = self._read_history(pc)
        table = self._pattern_table(pc)
        prediction = table.predict(history)
        # Speculative first-level update with the *predicted* outcome.
        if fresh:
            speculative = history_fill(prediction, self.history_bits)
        else:
            speculative = ((history << 1) | (1 if prediction else 0)) & self._mask
        self._write_history(pc, speculative, False)
        self.speculative_updates += 1
        context = (history, prediction, fresh)
        self._last = (pc, context)
        return prediction, context

    def resolve(self, pc: int, taken: bool, context: Tuple[int, bool, bool]) -> None:
        """Apply the outcome: pattern update + history recovery."""
        history, prediction, fresh = context
        self._pattern_table(pc).update(history, taken)
        if prediction == taken:
            return
        self.recoveries += 1
        if self.policy is RecoveryPolicy.REPAIR:
            if fresh:
                repaired = history_fill(taken, self.history_bits)
            else:
                repaired = ((history << 1) | (1 if taken else 0)) & self._mask
            self._write_history(pc, repaired, False)
        elif self.policy is RecoveryPolicy.REINITIALISE:
            self._write_history(pc, history_fill(taken, self.history_bits), False)
        # RecoveryPolicy.NONE: the wrong speculative bit stays.

    def update(self, pc: int, taken: bool, target: int = 0) -> None:
        """Immediate-resolution compatibility path (D = 0).

        Uses the context stashed by the most recent ``predict`` call,
        which the baseline engine guarantees was for this branch.
        """
        if self._last is None or self._last[0] != pc:
            # Engine discipline violated (update without predict):
            # fall back to a fresh prediction's context.
            self.predict_tagged(pc, target)
        assert self._last is not None
        _pc, context = self._last
        self._last = None
        self.resolve(pc, taken, context)

    def on_context_switch(self) -> None:
        self.inner.on_context_switch()


@dataclass(frozen=True)
class DelayedResult:
    """Outcome of a delayed-resolution simulation."""

    result: SimulationResult
    resolution_latency: int
    speculative: bool
    recoveries: int = 0


class _InFlight:
    """One unresolved branch in the delayed-resolution pipeline."""

    __slots__ = ("pc", "taken", "context", "prediction", "correct")

    def __init__(self, pc: int, taken: bool, context, prediction: bool) -> None:
        self.pc = pc
        self.taken = taken
        self.context = context
        self.prediction = prediction
        self.correct = prediction == taken


def simulate_delayed(
    predictor: BranchPredictor,
    trace: Trace,
    resolution_latency: int = 0,
    speculative: Optional[SpeculativeTwoLevel] = None,
) -> DelayedResult:
    """Replay ``trace`` with outcomes arriving ``resolution_latency``
    branches after their predictions.

    Two modes:

    * plain ``predictor`` — updates are simply applied D branches late,
      modelling *stale* history (the problem §3.1 identifies);
    * ``speculative`` wrapper — predictions update the first level
      speculatively; a misprediction **squashes** the younger in-flight
      branches exactly as a pipeline flush does: their speculative
      history writes are rolled back (checkpoint restore), the
      offending branch's register is recovered per the wrapper's
      policy, and the squashed branches are re-predicted with the
      corrected history. Their re-predictions are the architectural
      ones and are the ones scored.
    """
    if resolution_latency < 0:
        raise ValueError("resolution latency must be >= 0")
    conditional = 0
    correct = 0

    if speculative is None:
        pending: Deque = deque()
        cond_class = int(BranchClass.CONDITIONAL)
        for pc, taken, cls, target, _instret, _trap in trace.iter_tuples():
            if cls != cond_class:
                continue
            # Keep `resolution_latency` older branches unresolved while
            # this one is predicted with (stale) history.
            while len(pending) > resolution_latency:
                old_pc, old_taken = pending.popleft()
                predictor.update(old_pc, old_taken)
            prediction = predictor.predict(pc, target)
            pending.append((pc, taken))
            conditional += 1
            if prediction == taken:
                correct += 1
        while pending:
            old_pc, old_taken = pending.popleft()
            predictor.update(old_pc, old_taken)
        result = SimulationResult(
            predictor_name=predictor.name,
            trace_name=trace.meta.name,
            dataset=trace.meta.dataset,
            conditional_branches=conditional,
            correct_predictions=correct,
        )
        return DelayedResult(result, resolution_latency, speculative=False)

    wrapper = speculative
    pending_spec: Deque[_InFlight] = deque()

    def resolve_oldest() -> None:
        nonlocal correct
        record = pending_spec.popleft()
        if record.correct:
            # Pattern update only; speculative history was right.
            wrapper._pattern_table(record.pc).update(record.context[0], record.taken)
            correct += 1
            return
        # Misprediction: squash younger work. Roll back speculative
        # history writes youngest-first (checkpoint restore)...
        for young in reversed(pending_spec):
            history, _prediction, fresh = young.context
            wrapper._write_history(young.pc, history, fresh)
        squashed = list(pending_spec)
        pending_spec.clear()
        # ...apply the resolved outcome (pattern + recovery policy)...
        wrapper.resolve(record.pc, record.taken, record.context)
        # ...and re-fetch the squashed branches with corrected history.
        for young in squashed:
            prediction, context = wrapper.predict_tagged(young.pc)
            young.prediction = prediction
            young.context = context
            young.correct = prediction == young.taken
            pending_spec.append(young)

    cond_class = int(BranchClass.CONDITIONAL)
    for pc, taken, cls, target, _instret, _trap in trace.iter_tuples():
        if cls != cond_class:
            continue
        while len(pending_spec) > resolution_latency:
            resolve_oldest()
        prediction, context = wrapper.predict_tagged(pc, target)
        pending_spec.append(_InFlight(pc, taken, context, prediction))
        conditional += 1
    while pending_spec:
        resolve_oldest()

    result = SimulationResult(
        predictor_name=wrapper.name,
        trace_name=trace.meta.name,
        dataset=trace.meta.dataset,
        conditional_branches=conditional,
        correct_predictions=correct,
    )
    return DelayedResult(
        result=result,
        resolution_latency=resolution_latency,
        speculative=True,
        recoveries=wrapper.recoveries,
    )
