"""Target address caching and fetch-bubble accounting (paper §3.2).

Predicting the *direction* of a branch is not enough to keep a
pipeline's fetch engine busy: a predicted-taken branch still stalls
until the target address is known. The paper's fix is to cache target
addresses alongside the branch history ("one extra field in each entry
of the branch history table") so prediction and redirection happen in
the same cycle.

This module models that front end:

* :class:`BranchTargetCache` — a tagged, set-associative, true-LRU
  cache of resolved branch targets (the extra field of §3.2).
* :class:`ReturnAddressStack` — the natural companion for ``return``
  branches, whose targets a BTAC mispredicts whenever a subroutine is
  called from a new site (Kaeli & Emma, the paper's reference [4]).
* :class:`FetchEngine` — drives a direction predictor + BTAC + RAS over
  a trace and charges fetch bubbles:

  - ``mispredict_penalty`` cycles when the direction is wrong
    (speculative work squashed at resolve),
  - ``taken_bubble`` cycles when a correctly-predicted-taken (or
    unconditional) transfer has no cached target — the §3.2 bubble.

:meth:`FetchEngine.run` scores the trace's columns: the engine's
mispredicted records, one RAS loop over calls and returns, and the
kernels' LRU replay of the target installs. Like
:func:`repro.sim.engine.simulate`, it needs fresh components; the
record loop it replaced is the oracle in ``tests/reference_fetch.py``.

The summary statistic is **fetch cycles per instruction**; 1.0 is a
perfect front end. ``benchmarks/test_bench_fetch.py`` quantifies the
paper's argument that target caching removes most of the non-mispredict
bubbles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..predictors.base import BranchPredictor
from ..trace.events import BranchClass, Trace
from .engine import _outcomes_and_misses, _replay_mispredictions
from .kernels import _lru_metadata

__all__ = ["BranchTargetCache", "FetchEngine", "FetchStats", "ReturnAddressStack"]


class BranchTargetCache:
    """The geometry of a target cache indexed like a
    :class:`~repro.core.history.CacheBHT`."""

    def __init__(self, num_entries: int = 512, associativity: int = 4) -> None:
        if num_entries < 1:
            raise ValueError("num_entries must be >= 1")
        if associativity < 1:
            raise ValueError("associativity must be >= 1")
        if num_entries % associativity != 0:
            raise ValueError("num_entries must be a multiple of associativity")
        self.num_entries = num_entries
        self.associativity = associativity
        self.num_sets = num_entries // associativity


class ReturnAddressStack:
    """A bounded return-address stack.

    Calls push their fall-through address (we model it as the call's
    recorded target provider); returns pop. Overflow wraps (oldest entry
    lost), underflow predicts nothing — both as in simple hardware.
    """

    def __init__(self, depth: int = 16) -> None:
        if depth < 1:
            raise ValueError("RAS depth must be >= 1")
        self.depth = depth
        self._stack: List[int] = []
        self.pushes = 0
        self.pops = 0
        self.underflows = 0
        self.overflows = 0

    def push(self, return_address: int) -> None:
        self.pushes += 1
        if len(self._stack) == self.depth:
            self.overflows += 1
            del self._stack[0]
        self._stack.append(return_address)

    def pop(self) -> Optional[int]:
        self.pops += 1
        if not self._stack:
            self.underflows += 1
            return None
        return self._stack.pop()

    def flush(self) -> None:
        self._stack.clear()

    def __len__(self) -> int:
        return len(self._stack)


@dataclass
class FetchStats:
    """Front-end accounting for one trace replay."""

    instructions: int = 0
    conditional_branches: int = 0
    direction_correct: int = 0
    taken_transfers: int = 0
    target_bubbles: int = 0
    mispredict_squashes: int = 0
    penalty_cycles: int = 0
    btac_hit_rate: float = 0.0
    ras_return_hits: int = 0
    ras_returns: int = 0

    @property
    def direction_accuracy(self) -> float:
        if self.conditional_branches == 0:
            return 0.0
        return self.direction_correct / self.conditional_branches

    @property
    def fetch_cycles(self) -> int:
        """Idealised cycles: one per instruction plus every bubble."""
        return self.instructions + self.penalty_cycles

    @property
    def cycles_per_instruction(self) -> float:
        if self.instructions == 0:
            return 0.0
        return self.fetch_cycles / self.instructions

    @property
    def ras_accuracy(self) -> float:
        if self.ras_returns == 0:
            return 0.0
        return self.ras_return_hits / self.ras_returns


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
        """Args:
            predictor: the conditional direction predictor.
            btac: target cache; None models a front end without §3.2's
                target field (every taken transfer pays the bubble).
            ras: return-address stack; None sends returns to the BTAC.
            mispredict_penalty: squash cost of a wrong direction.
            taken_bubble: redirect cost of a taken transfer whose
                target was not supplied by BTAC/RAS.
        """
        if mispredict_penalty < 0 or taken_bubble < 0:
            raise ValueError("penalties must be non-negative")
        self.predictor = predictor
        self.btac = btac
        self.ras = ras
        self.mispredict_penalty = mispredict_penalty
        self.taken_bubble = taken_bubble

    def run(self, trace: Trace) -> FetchStats:
        """Replay ``trace`` and account fetch bubbles.

        The predictor, BTAC and RAS must be freshly built, as for
        :func:`repro.sim.engine.simulate`. A taken transfer looks up the
        BTAC unless the RAS supplied its target; each lookup, and each
        mispredicted taken conditional, then installs its target. A
        lookup's target is good when its pc is resident and the target
        is 0 or the one the pc's previous install left.
        """
        arrays = trace.as_arrays()
        cls, pc, target, cond = arrays.cls, arrays.pc, arrays.target, arrays.cond_mask
        taken, wrong = _replay_mispredictions(self.predictor, trace, _outcomes_and_misses)
        lookup = ~cond
        lookup[cond] = taken & ~wrong
        returns = cls == int(BranchClass.RETURN)
        # Calls push pc + 4; a return whose pop gives its target (or
        # whose target is 0) takes no lookup.
        supplied = []
        if self.ras is not None:
            call = int(BranchClass.CALL)
            at = np.flatnonzero((cls == call) | returns)
            for i, kind, site, to in zip(at.tolist(), cls[at].tolist(), pc[at].tolist(),
                                         target[at].tolist()):
                if kind == call:
                    self.ras.push(site + 4)
                else:
                    popped = self.ras.pop()
                    if popped is not None and (to == 0 or popped == to):
                        supplied.append(i)
        lookup[supplied] = False
        lookups = int(np.count_nonzero(lookup))
        good = hits = 0
        if self.btac is not None:
            install = lookup.copy()
            install[cond] |= taken & wrong
            at = np.flatnonzero(install)
            pcs, targets = pc[at], target[at]
            order1, miss, _evict, _slot = _lru_metadata(
                lambda: pcs, None, self.btac.num_sets, self.btac.associativity, None)
            hit = lookup[at]
            hit[order1] &= ~miss
            # A pc's first install misses, so a hit's neighbour in pc
            # order is its pc's previous install.
            by_pc = np.argsort(pcs, kind="stable")
            kept = np.zeros(at.shape[0], dtype=np.bool_)
            kept[by_pc[1:]] = targets[by_pc[1:]] == targets[by_pc[:-1]]
            hits = int(np.count_nonzero(hit))
            good = int(np.count_nonzero(hit & ((targets == 0) | kept)))
        squashes, bubbles = int(np.count_nonzero(wrong)), lookups - good
        return FetchStats(
            instructions=int(arrays.instret[-1]) if len(arrays) else 0,
            conditional_branches=wrong.shape[0],
            direction_correct=wrong.shape[0] - squashes,
            taken_transfers=lookups + len(supplied),
            target_bubbles=bubbles,
            mispredict_squashes=squashes,
            penalty_cycles=squashes * self.mispredict_penalty + bubbles * self.taken_bubble,
            btac_hit_rate=hits / lookups if hits else 0.0,
            ras_return_hits=len(supplied),
            ras_returns=int(np.count_nonzero(returns)),
        )

