"""Misprediction breakdown and learning curves.

The paper closes by noting the authors "are examining that 3 percent
[miss rate] to try to characterize it". This module does that
characterisation for any predictor on any trace:

* :func:`misprediction_breakdown` — classify every miss as

  - **cold** — the first few occurrences of its static branch (the
    predictor had nothing to go on),
  - **post-flush** — shortly after a context switch flushed the first
    level,
  - **steady-state** — everything else (pattern conflicts, inherent
    randomness, interference).

* :func:`learning_curve` — accuracy over consecutive windows of the
  trace, showing warm-up and phase behaviour.

* :func:`per_site_report` — the worst static branches with their bias
  and miss share, the actionable view for "where do the misses live?".

No pass replays the predictor itself. Each scores the engine's
mispredicted records, block by block, as the kernel fold of
:func:`repro.sim.simulate` produces them (or its interpreted loop,
probed, for a predictor with no kernel), and tallies them with NumPy. So
each pass needs a freshly built predictor, as
``simulate(backend="auto")`` does. Per-site counts carry across blocks,
so memory grows with the static sites and the misses, not the trace.

All passes stream over any bounded
:class:`repro.trace.stream.TraceSource`; the optional ``block_size``
walks the source in bounded blocks, and the result is block-size
invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..predictors.base import BranchPredictor
from ..sim.engine import ContextSwitchConfig, _replay_mispredictions
from ..sim.kernels import _change_marks, _stable_argsort, _start_indices
from ..trace.stream import TraceSource

__all__ = [
    "MispredictionBreakdown",
    "SiteReport",
    "learning_curve",
    "misprediction_breakdown",
    "per_site_report",
]

_COLD_OCCURRENCES = 4
_POST_FLUSH_WINDOW = 2  # per-branch occurrences after a flush counted as flush cost


@dataclass(frozen=True)
class MispredictionBreakdown:
    """Misses attributed to cold starts, flushes, and steady state."""

    total_branches: int
    total_misses: int
    cold_misses: int
    post_flush_misses: int
    steady_misses: int

    @property
    def accuracy(self) -> float:
        if self.total_branches == 0:
            return 0.0
        return 1.0 - self.total_misses / self.total_branches

    def shares(self) -> Dict[str, float]:
        """Fraction of all misses in each class."""
        if self.total_misses == 0:
            return {"cold": 0.0, "post_flush": 0.0, "steady": 0.0}
        return {
            "cold": self.cold_misses / self.total_misses,
            "post_flush": self.post_flush_misses / self.total_misses,
            "steady": self.steady_misses / self.total_misses,
        }


def misprediction_breakdown(
    predictor: BranchPredictor,
    trace: TraceSource,
    context_switches: Optional[ContextSwitchConfig] = None,
    block_size: Optional[int] = None,
) -> MispredictionBreakdown:
    """Simulate and classify every misprediction."""
    return _replay(predictor, trace, context_switches, block_size).breakdown()


def learning_curve(
    predictor: BranchPredictor,
    trace: TraceSource,
    windows: int = 20,
    block_size: Optional[int] = None,
) -> List[float]:
    """Accuracy per consecutive window of conditional branches."""
    if windows < 1:
        raise ValueError("windows must be >= 1")
    tally = _replay(predictor, trace, None, block_size)
    conditional = tally.total
    if conditional == 0:
        return []
    window_size = max(conditional // windows, 1)
    full, seen = divmod(conditional, window_size)
    misses = np.bincount(tally.miss_index // window_size, minlength=full + 1)
    curve = ((window_size - misses[:full]) / window_size).tolist()
    # A tiny tail remainder is statistically meaningless noise; only
    # report it when it is a substantial fraction of a window.
    if seen >= window_size // 4 and seen > 0:
        curve.append((seen - int(misses[full])) / seen)
    return curve


@dataclass(frozen=True)
class SiteReport:
    """One static branch in the per-site report."""

    pc: int
    executions: int
    mispredictions: int
    taken_rate: float

    @property
    def accuracy(self) -> float:
        if self.executions == 0:
            return 0.0
        return 1.0 - self.mispredictions / self.executions


def per_site_report(
    predictor: BranchPredictor,
    trace: TraceSource,
    top: int = 10,
    block_size: Optional[int] = None,
) -> List[SiteReport]:
    """The ``top`` static branches ranked by misprediction count; sites
    with equal counts keep the order of their first misprediction."""
    tally = _replay(predictor, trace, None, block_size)
    missed = np.flatnonzero(tally.misses)
    ranked = missed[np.lexsort((tally.first_miss[missed], -tally.misses[missed]))]
    return [
        SiteReport(
            pc=int(tally.sites[i]),
            executions=int(tally.executions[i]),
            mispredictions=int(tally.misses[i]),
            taken_rate=int(tally.taken[i]) / int(tally.executions[i]),
        )
        for i in ranked.tolist()[:top]
    ]


# ----------------------------------------------------------------------
# The shared tally over the engine's mispredicted records
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Tally:
    """Per-site counts of one replay, aligned with the sorted ``sites``."""

    sites: np.ndarray
    executions: np.ndarray
    taken: np.ndarray
    misses: np.ndarray
    first_miss: np.ndarray  # trace-order conditional index of each site's first miss
    miss_index: np.ndarray  # trace-order conditional indices of every miss, ascending
    cold: int
    post_flush: int

    @property
    def total(self) -> int:
        return int(self.executions.sum())

    def breakdown(self) -> MispredictionBreakdown:
        misses = int(self.miss_index.shape[0])
        return MispredictionBreakdown(
            total_branches=self.total,
            total_misses=misses,
            cold_misses=self.cold,
            post_flush_misses=self.post_flush,
            steady_misses=misses - self.cold - self.post_flush,
        )


def _replay(
    predictor: BranchPredictor,
    trace: TraceSource,
    context_switches: Optional[ContextSwitchConfig],
    block_size: Optional[int],
) -> _Tally:
    """Tally one replay of ``trace`` through a freshly built ``predictor``."""
    cs_enabled = context_switches is not None
    return _replay_mispredictions(
        predictor, trace, lambda blocks: _tally(blocks, cs_enabled),
        context_switches=context_switches, block_size=block_size,
    )


_EXEC, _TAKEN, _MISS, _FIRST, _FLUSH = range(5)


def _tally(blocks, cs_enabled: bool) -> _Tally:
    """Fold the replay's blocks into per-site counts and miss classes.

    A miss is cold when fewer than ``_COLD_OCCURRENCES`` earlier records
    share its pc, and (with context switches) post-flush otherwise when
    fewer than ``_POST_FLUSH_WINDOW`` earlier records share its pc and
    its flush segment. Both counts carry across blocks: the per-site
    executions, and the per-site counts within the last segment seen.
    """
    sites = np.empty(0, dtype=np.int64)
    cols = np.zeros((5, 0), dtype=np.int64)
    flush_seg = None
    base = 0
    cold = 0
    post_flush = 0
    miss_parts = []
    for pc, taken, seg, wrong in blocks:
        if pc.shape[0] == 0:
            continue
        block_sites, ids = np.unique(pc, return_inverse=True)
        merged = np.union1d(sites, block_sites)
        if merged.shape[0] > sites.shape[0]:
            grown = np.zeros((5, merged.shape[0]), dtype=np.int64)
            grown[_FIRST] = -1
            grown[:, np.searchsorted(merged, sites)] = cols
            sites, cols = merged, grown
        ids = np.searchsorted(sites, block_sites)[ids.reshape(-1)]
        wrong = np.sort(wrong.astype(np.int64, copy=False))
        missed = ids[wrong]
        is_cold = cols[_EXEC, missed] + _ranks(ids)[wrong] < _COLD_OCCURRENCES
        cold += int(np.count_nonzero(is_cold))
        if cs_enabled:
            in_segment = _ranks((seg - seg[0]).astype(np.int64) * sites.shape[0] + ids)
            if flush_seg is not None:
                carried = seg == flush_seg
                in_segment[carried] += cols[_FLUSH, ids[carried]]
            post_flush += int(np.count_nonzero(
                ~is_cold & (in_segment[wrong] < _POST_FLUSH_WINDOW)))
            if seg[-1] != flush_seg:
                flush_seg = seg[-1]
                cols[_FLUSH] = 0
            cols[_FLUSH] += np.bincount(ids[seg == flush_seg], minlength=sites.shape[0])
        cols[_EXEC] += np.bincount(ids, minlength=sites.shape[0])
        cols[_TAKEN] += np.bincount(ids[taken], minlength=sites.shape[0])
        cols[_MISS] += np.bincount(missed, minlength=sites.shape[0])
        first_sites, first_at = np.unique(missed, return_index=True)
        unset = cols[_FIRST, first_sites] < 0
        cols[_FIRST, first_sites[unset]] = base + wrong[first_at[unset]]
        miss_parts.append(base + wrong)
        base += pc.shape[0]
    return _Tally(
        sites=sites,
        executions=cols[_EXEC],
        taken=cols[_TAKEN],
        misses=cols[_MISS],
        first_miss=cols[_FIRST],
        miss_index=np.concatenate(miss_parts) if miss_parts else np.empty(0, np.int64),
        cold=cold,
        post_flush=post_flush,
    )


def _ranks(keys: np.ndarray) -> np.ndarray:
    """Each element's count of equal keys before it in the block."""
    order = _stable_argsort(keys)
    ranks = np.empty(keys.shape[0], dtype=np.int64)
    ranks[order] = np.arange(keys.shape[0]) - _start_indices(_change_marks(keys[order]))
    return ranks
