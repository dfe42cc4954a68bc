"""Trace statistics.

Computes the descriptive statistics the paper reports about its traces:

* Table 1 — number of static conditional branches per benchmark.
* Figure 4 — distribution of dynamic branch instructions over the four
  branch classes (the paper finds ~80 % conditional).
* Section 4.1 prose — fraction of dynamic instructions that are branches
  (~24 % for integer benchmarks, ~5 % for floating point).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, Mapping

import numpy as np

from .events import BranchClass, Trace, TraceArrays
from .stream import DEFAULT_BLOCK_SIZE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .stream import TraceSource


@dataclass(frozen=True)
class BranchClassMix:
    """Fractions of dynamic branches per class (sums to 1 when counts > 0)."""

    conditional: float
    unconditional: float
    call: float
    ret: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "cond": self.conditional,
            "uncond": self.unconditional,
            "call": self.call,
            "return": self.ret,
        }


@dataclass(frozen=True)
class TraceStats:
    """Descriptive statistics for one trace."""

    name: str
    dataset: str
    dynamic_branches: int
    dynamic_conditional: int
    static_conditional_sites: int
    total_instructions: int
    class_counts: Mapping[BranchClass, int] = field(default_factory=dict)
    taken_conditional: int = 0
    trap_count: int = 0

    @property
    def branch_fraction(self) -> float:
        """Fraction of dynamic instructions that are branches."""
        if self.total_instructions == 0:
            return 0.0
        return self.dynamic_branches / self.total_instructions

    @property
    def conditional_fraction(self) -> float:
        """Fraction of dynamic branches that are conditional (Figure 4)."""
        if self.dynamic_branches == 0:
            return 0.0
        return self.dynamic_conditional / self.dynamic_branches

    @property
    def taken_rate(self) -> float:
        """Fraction of conditional branches that are taken."""
        if self.dynamic_conditional == 0:
            return 0.0
        return self.taken_conditional / self.dynamic_conditional

    def class_mix(self) -> BranchClassMix:
        total = self.dynamic_branches or 1
        return BranchClassMix(
            conditional=self.class_counts.get(BranchClass.CONDITIONAL, 0) / total,
            unconditional=self.class_counts.get(BranchClass.UNCONDITIONAL, 0) / total,
            call=self.class_counts.get(BranchClass.CALL, 0) / total,
            ret=self.class_counts.get(BranchClass.RETURN, 0) / total,
        )


#: ``(sites, taken, total)`` before any block is tallied.
_EMPTY_TALLY = (np.empty(0, dtype=np.int64),) * 3


def column_blocks(trace: "TraceSource") -> Iterator[TraceArrays]:
    """The source's records as :class:`TraceArrays`.

    An in-memory :class:`Trace` yields its cached :meth:`Trace.as_arrays`,
    which the vectorized kernels build and reuse anyway; any other
    source yields one array set per :data:`DEFAULT_BLOCK_SIZE` block, so
    a streamed container folds through in bounded memory.
    """
    if isinstance(trace, Trace):
        yield trace.as_arrays()
        return
    for block in trace.iter_blocks(DEFAULT_BLOCK_SIZE):
        yield block.as_arrays()


def _add_sites(tally, arrays: TraceArrays):
    """Merge one block's per-site ``bincount`` tallies, taken over its
    :meth:`TraceArrays.conditional_site_ids`, into ``tally``."""
    block_sites, ids = arrays.conditional_site_ids()
    n = block_sites.shape[0]
    block = (
        block_sites,
        np.bincount(ids[arrays.taken[arrays.cond_mask]], minlength=n),
        np.bincount(ids, minlength=n),
    )
    sites = tally[0]
    if sites.shape[0] == 0:
        return block
    merged = np.union1d(sites, block_sites)
    old, new = np.searchsorted(merged, sites), np.searchsorted(merged, block_sites)
    counts = []
    for ours, theirs in zip(tally[1:], block[1:]):
        summed = np.zeros(merged.shape[0], dtype=np.int64)
        summed[old] = ours
        summed[new] += theirs
        counts.append(summed)
    return (merged, *counts)


def site_tally(blocks: Iterable[TraceArrays]):
    """``(sites, taken, total)`` over the conditional records of
    ``blocks``: the sorted distinct conditional pcs and, per site, how
    many of its executions were taken and how many there were. The
    running tally grows with the number of sites, never with the
    number of records.
    """
    tally = _EMPTY_TALLY
    for arrays in blocks:
        tally = _add_sites(tally, arrays)
    return tally


def compute_stats(trace: "TraceSource") -> TraceStats:
    """Compute :class:`TraceStats` for ``trace`` in one columnar pass.

    Class counts are a ``bincount`` over the class column, the site and
    taken counts come from the per-site tally of :func:`site_tally`, and
    traps are a ``count_nonzero``. Accepts any bounded
    :class:`~repro.trace.stream.TraceSource`: an in-memory trace reuses
    its cached arrays, and an mmap-backed container streams through in
    bounded memory, one block at a time.
    """
    # One bin per uint8 class code; BranchClass() below rejects unknown
    # codes with the same ValueError the record loop raised.
    class_counts = np.zeros(256, dtype=np.int64)
    trap_count = 0
    tally = _EMPTY_TALLY
    for arrays in column_blocks(trace):
        class_counts += np.bincount(arrays.cls, minlength=256)
        trap_count += int(np.count_nonzero(arrays.trap))
        tally = _add_sites(tally, arrays)
    sites, taken, _total = tally
    counts = {BranchClass(c): n for c, n in enumerate(class_counts.tolist()) if n}
    return TraceStats(
        name=trace.meta.name,
        dataset=trace.meta.dataset,
        dynamic_branches=sum(counts.values()),
        dynamic_conditional=counts.get(BranchClass.CONDITIONAL, 0),
        static_conditional_sites=int(sites.shape[0]),
        total_instructions=trace.meta.total_instructions,
        class_counts=counts,
        taken_conditional=int(taken.sum()),
        trap_count=trap_count,
    )


def per_site_bias(trace: "TraceSource") -> Dict[int, float]:
    """Taken-rate per static conditional branch site, from
    :func:`site_tally`.

    Useful for profiling-based prediction and interference analysis.
    Accepts any bounded :class:`~repro.trace.stream.TraceSource`.
    """
    sites, taken, total = site_tally(column_blocks(trace))
    return dict(zip(sites.tolist(), (taken / total).tolist()))
