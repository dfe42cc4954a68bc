"""Interference analysis.

The whole GAg -> PAg -> PAp progression of the paper is an interference
story: GAg suffers aliasing in *both* levels, PAg removes first-level
(history) interference, PAp also removes second-level (pattern)
interference. This module measures those quantities directly on a
trace, so the accuracy differences the figures show can be attributed.

* :func:`first_level_interference` — how often a branch's global-history
  pattern differs from what its private history would have been: the
  corruption GAg's shared register suffers.
* :func:`second_level_interference` — for a shared (global) pattern
  table, how many table entries are touched by multiple static branches
  and how often consecutive updates to an entry come from *different*
  branches with *disagreeing* outcomes (destructive aliasing, the kind
  that flips counters).
* :func:`bht_pressure` — hit/miss/eviction rates of a practical BHT for
  the trace's working set (what Figure 10 varies).

Each pass tallies, over any :class:`repro.trace.stream.TraceSource` and
block-size invariantly, the first level the kernels build: PAg's ideal-BHT
registers (all ones, then outcome extension on a branch's first update), GAg's
register, the BHT layout's miss and eviction marks; no context switches, at
most 24 history bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.history import CacheBHT, IdealBHT
from ..sim.kernels import (_global_history, _group_sort, _history_bits, _Keyed, _lasts,
                           _pa_history, _pa_layout, _pa_registers, _site_ids, _slot_carry,
                           _source_tallies, _upsert)
from ..trace.stream import TraceSource

__all__ = [
    "BHTPressure",
    "FirstLevelInterference",
    "SecondLevelInterference",
    "bht_pressure",
    "first_level_interference",
    "interference_report",
    "second_level_interference",
]


@dataclass(frozen=True)
class FirstLevelInterference:
    """How much a shared global history register is corrupted."""

    history_bits: int
    conditional_branches: int
    polluted_lookups: int
    """Lookups where global history != the branch's private history."""

    @property
    def pollution_rate(self) -> float:
        if self.conditional_branches == 0:
            return 0.0
        return self.polluted_lookups / self.conditional_branches


def first_level_interference(
    trace: TraceSource,
    history_bits: int,
    block_size: Optional[int] = None,
) -> FirstLevelInterference:
    """Compare the global history register against private ones: GAg's
    register and PAg's ideal-BHT registers before each lookup."""
    k = _history_bits(history_bits)
    ideal = IdealBHT()

    def kernel(run, carry):
        ghr, slots, polluted = carry or (None, None, 0)
        before, ghr = _global_history(run, k, (1 << k) - 1, ghr)
        layout, patterns_s, slots = _pa_history(run, ideal, k, slots)
        polluted += int(np.count_nonzero(patterns_s != before[layout.order]))
        return polluted, (ghr, slots, polluted)

    total, polluted = _source_tallies(kernel, trace, block_size)
    return FirstLevelInterference(
        history_bits=history_bits,
        conditional_branches=total,
        polluted_lookups=polluted or 0,
    )


@dataclass(frozen=True)
class SecondLevelInterference:
    """Aliasing in a shared (PAg-style) global pattern table."""

    history_bits: int
    entries_used: int
    entries_shared: int
    """Entries updated by more than one static branch."""
    updates: int
    cross_branch_updates: int
    """Updates where the previous update of the entry came from a
    different static branch."""
    destructive_updates: int
    """Cross-branch updates whose outcome disagrees with the previous
    update's outcome — the aliasing that actually flips counters."""

    @property
    def sharing_rate(self) -> float:
        if self.entries_used == 0:
            return 0.0
        return self.entries_shared / self.entries_used

    @property
    def destructive_rate(self) -> float:
        if self.updates == 0:
            return 0.0
        return self.destructive_updates / self.updates


def second_level_interference(
    trace: TraceSource,
    history_bits: int,
    block_size: Optional[int] = None,
) -> SecondLevelInterference:
    """Measure pattern-table aliasing under PAg first-level history:
    updates grouped by (pattern, time), each compared with the entry's
    previous writer (in the group or carried from an earlier block)."""
    k = _history_bits(history_bits)
    ideal = IdealBHT()

    def kernel(run, carry):
        slots, known, last, owners, cross, destructive = carry or (
            None, None, _Keyed(np.empty(0, np.int64)), np.empty(0, np.int64), 0, 0)
        layout = _pa_layout(run, ideal, slots)

        def patterns():
            # Built inside the sort, so the patterns die with it.
            nonlocal slots
            patterns_s, slots = _pa_registers(run, layout, k, slots)
            return patterns_s

        ids, known = _site_ids(run, known)
        order, grp_new, key_s, out_s = _group_sort(patterns, layout.out_s, layout.order)
        site_s = ids[order].astype(np.int64)
        heads = np.flatnonzero(grp_new)
        prev_site, prev_out = np.roll(site_s, 1), np.roll(out_s, 1)
        prev_site[heads], prev_out[heads] = last.get(key_s[heads], "site", "out")
        crossed = (prev_site >= 0) & (prev_site != site_s)
        cross += int(np.count_nonzero(crossed))
        destructive += int(np.count_nonzero(crossed & (prev_out != out_s)))
        owners = np.union1d(owners, key_s << 32 | site_s)
        lasts = _lasts(heads, run.n_c)
        last = _upsert(last, key_s[heads], site=site_s[lasts], out=out_s[lasts])
        return (owners, cross, destructive), (slots, known, last, owners, cross, destructive)

    updates, tally = _source_tallies(kernel, trace, block_size)
    owners, cross, destructive = tally or (np.empty(0, np.int64), 0, 0)
    _patterns, sites = np.unique(owners >> 32, return_counts=True)
    return SecondLevelInterference(
        history_bits=history_bits,
        entries_used=int(sites.shape[0]),
        entries_shared=int(np.count_nonzero(sites > 1)),
        updates=updates,
        cross_branch_updates=cross,
        destructive_updates=destructive,
    )


@dataclass(frozen=True)
class BHTPressure:
    """Working-set pressure on a practical branch history table."""

    num_entries: int
    associativity: int
    accesses: int
    hits: int
    evictions: int
    distinct_branches: int

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


def bht_pressure(
    trace: TraceSource,
    num_entries: int = 512,
    associativity: int = 4,
    block_size: Optional[int] = None,
) -> BHTPressure:
    """Replay the trace's conditional PCs through a BHT cache (the
    kernels' layout: ``ep_new`` marks misses, ``evict`` evictions)."""
    bht = CacheBHT(num_entries, associativity)

    def kernel(run, carry):
        slots, known, misses, evictions = carry or (None, None, 0, 0)
        layout = _pa_layout(run, bht, slots)
        _ids, known = _site_ids(run, known)
        misses += int(np.count_nonzero(layout.ep_new))
        evictions += int(np.count_nonzero(layout.evict))
        if not run.final:
            slots = _slot_carry(run, layout, slots)
        return (misses, evictions, known.keys.shape[0]), (slots, known, misses, evictions)

    accesses, tally = _source_tallies(kernel, trace, block_size)
    misses, evictions, distinct = tally or (0, 0, 0)
    return BHTPressure(
        num_entries=num_entries,
        associativity=associativity,
        accesses=accesses,
        hits=accesses - misses,
        evictions=evictions,
        distinct_branches=distinct,
    )


def interference_report(
    trace: TraceSource,
    history_bits: int = 12,
    block_size: Optional[int] = None,
) -> str:
    """A human-readable interference summary for one trace."""
    first = first_level_interference(trace, history_bits, block_size=block_size)
    second = second_level_interference(trace, history_bits, block_size=block_size)
    pressure = bht_pressure(trace, block_size=block_size)
    lines = [
        f"Interference report: {trace.meta.name} (k={history_bits})",
        f"  first level : {first.pollution_rate * 100:6.2f}% of lookups see a "
        f"global history that differs from the branch's own",
        f"  second level: {second.sharing_rate * 100:6.2f}% of used pattern entries "
        f"shared by >1 branch; {second.destructive_rate * 100:5.2f}% of updates are "
        f"destructive cross-branch writes",
        f"  BHT 512x4   : {pressure.hit_rate * 100:6.2f}% hit rate over "
        f"{pressure.distinct_branches} static branches "
        f"({pressure.evictions} evictions)",
    ]
    return "\n".join(lines)
