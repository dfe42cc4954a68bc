"""The per-record §3.2 fetch model that the column replay replaced.

:class:`BranchTargetCache` is the stateful target cache (lookups, hits,
installs and flushes on a :class:`~repro.core.history.CacheBHT`), and
:class:`FetchEngine` the loop that predicted and updated the direction
predictor record by record, consulted the return-address stack and the
cache, and charged the bubbles. Both are kept verbatim (formerly
``repro.sim.fetch``) as the oracle for ``tests/test_fetch.py`` and
``tests/test_fetch_oracle.py``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.history import CacheBHT
from repro.predictors.base import BranchPredictor
from repro.sim.fetch import FetchStats, ReturnAddressStack
from repro.trace.events import BranchClass, Trace


class BranchTargetCache:
    """Cached resolved targets, tagged and set-associative.

    Reuses the BHT cache machinery with the target address as payload.
    """

    def __init__(self, num_entries: int = 512, associativity: int = 4) -> None:
        self._cache = CacheBHT(num_entries, associativity, init_value=0)
        self.lookups = 0
        self.hits = 0
        self.correct = 0

    def predict_target(self, pc: int) -> Optional[int]:
        """The cached target for ``pc``, or None on miss."""
        self.lookups += 1
        entry = self._cache.peek(pc)
        if entry is None or entry.fresh:
            return None
        self.hits += 1
        return entry.value

    def record(self, pc: int, target: int) -> None:
        """Install/refresh the resolved target."""
        entry, _hit = self._cache.access(pc)
        entry.value = target
        entry.fresh = False

    def flush(self) -> None:
        self._cache.flush()

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class FetchEngine:
    """Direction predictor + BTAC + RAS with bubble accounting."""

    def __init__(
        self,
        predictor: BranchPredictor,
        btac: Optional[BranchTargetCache] = None,
        ras: Optional[ReturnAddressStack] = None,
        mispredict_penalty: int = 5,
        taken_bubble: int = 1,
    ) -> None:
        if mispredict_penalty < 0 or taken_bubble < 0:
            raise ValueError("penalties must be non-negative")
        self.predictor = predictor
        self.btac = btac
        self.ras = ras
        self.mispredict_penalty = mispredict_penalty
        self.taken_bubble = taken_bubble

    def run(self, trace: Trace) -> FetchStats:
        """Replay ``trace`` and account fetch bubbles."""
        stats = FetchStats()
        predictor = self.predictor
        btac = self.btac
        ras = self.ras
        last_instret = 0
        for pc, taken, cls, target, instret, _trap in trace.iter_tuples():
            stats.instructions += instret - last_instret
            last_instret = instret
            if cls == BranchClass.CONDITIONAL:
                stats.conditional_branches += 1
                prediction = predictor.predict(pc, target)
                predictor.update(pc, taken, target)
                if prediction != taken:
                    stats.mispredict_squashes += 1
                    stats.penalty_cycles += self.mispredict_penalty
                    if btac is not None and taken:
                        btac.record(pc, target)
                    continue
                stats.direction_correct += 1
                if taken:
                    self._charge_taken_transfer(stats, pc, target)
            elif cls == BranchClass.CALL:
                if ras is not None:
                    ras.push(pc + 4)
                self._charge_taken_transfer(stats, pc, target)
            elif cls == BranchClass.RETURN:
                stats.ras_returns += 1
                if ras is not None:
                    predicted = ras.pop()
                    if predicted is not None and (target == 0 or predicted == target):
                        stats.ras_return_hits += 1
                        stats.taken_transfers += 1
                        continue
                self._charge_taken_transfer(stats, pc, target)
            else:  # unconditional
                self._charge_taken_transfer(stats, pc, target)
        if btac is not None:
            stats.btac_hit_rate = btac.hit_rate
        return stats

    def _charge_taken_transfer(self, stats: FetchStats, pc: int, target: int) -> None:
        stats.taken_transfers += 1
        if self.btac is None:
            stats.target_bubbles += 1
            stats.penalty_cycles += self.taken_bubble
            return
        predicted_target = self.btac.predict_target(pc)
        if predicted_target is None or (target != 0 and predicted_target != target):
            stats.target_bubbles += 1
            stats.penalty_cycles += self.taken_bubble
        self.btac.record(pc, target)
