"""First-level branch history: history registers and branch history tables.

The first level of a two-level predictor records the directions of
recent branches in k-bit shift registers. GAg keeps a single **global
history register**; PAg and PAp keep one register per static branch in a
**per-address branch history table (BHT)** which, in any real
implementation, is a tagged cache (the paper simulates direct-mapped and
4-way set-associative 256/512-entry tables plus an infinite "ideal" one).

This module provides:

* history-register bit manipulation helpers,
* :class:`BHTEntry` — one (tag, history, LRU) record,
* :class:`IdealBHT` — unbounded, never evicts (the paper's IBHT),
* :class:`CacheBHT` — set-associative/direct-mapped with true-LRU
  replacement, per the paper's §3.3,
* hit/miss statistics used to explain the Fig 10 accuracy differences.

The paper's initialisation protocol (§4.2) is honoured by callers via
the ``fresh`` flag: a newly-allocated history register is set to all 1s
(branches are taken-biased); after the *first* resolution of the branch
that missed, the outcome bit is extended through the whole register
rather than shifted in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple


def history_mask(bits: int) -> int:
    """All-ones mask for a ``bits``-wide history register."""
    if bits < 1:
        raise ValueError("history register needs at least one bit")
    return (1 << bits) - 1


def history_update(value: int, taken: bool, bits: int) -> int:
    """Shift ``taken`` into the least-significant end of the register."""
    return ((value << 1) | (1 if taken else 0)) & history_mask(bits)


def history_fill(taken: bool, bits: int) -> int:
    """A register with ``taken`` extended through every bit position.

    This is the paper's post-miss initialisation: "After the result of
    the branch which causes the branch history table miss is known, the
    result bit is extended throughout the history register."
    """
    return history_mask(bits) if taken else 0


def history_bits_string(value: int, bits: int) -> str:
    """Render a register as the paper writes patterns, e.g. ``11100101``."""
    return format(value & history_mask(bits), f"0{bits}b")


@dataclass
class BHTEntry:
    """One branch-history-table entry.

    Attributes:
        tag: upper address bits identifying the resident branch.
        value: the entry payload — a history-register value for
            two-level schemes, or an automaton state for BTB designs.
        fresh: True until the entry's first update after allocation
            (drives the outcome-extension initialisation).
        slot: stable physical slot index (set * associativity + way);
            PAp hangs one pattern history table off each slot.
        lru: last-use tick for LRU replacement.
        valid: whether the entry currently holds a branch.
    """

    tag: int = 0
    value: int = 0
    fresh: bool = True
    slot: int = 0
    lru: int = 0
    valid: bool = False


@dataclass
class BHTStats:
    """Access statistics for a branch history table."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    flushes: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def as_dict(self) -> Dict[str, float]:
        """JSON-compatible snapshot (used by the observability probes)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "flushes": self.flushes,
            "hit_rate": self.hit_rate,
        }

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.flushes = 0


class IdealBHT:
    """The paper's IBHT: one history register per static branch, no
    capacity limit, no tags, no evictions."""

    def __init__(self, init_value: int = 0) -> None:
        self._init_value = init_value
        self._entries: Dict[int, BHTEntry] = {}
        self._next_slot = 0
        self.stats = BHTStats()

    @property
    def num_entries(self) -> int:
        return len(self._entries)

    @property
    def occupancy(self) -> int:
        """Resident entries — for the ideal table, every branch seen."""
        return len(self._entries)

    def access(self, pc: int) -> Tuple[BHTEntry, bool]:
        """Find (or allocate) the entry for ``pc``.

        Returns:
            (entry, hit) — ``hit`` is False when the entry was allocated
            by this access.
        """
        entry = self._entries.get(pc)
        if entry is not None:
            self.stats.hits += 1
            return entry, True
        self.stats.misses += 1
        entry = BHTEntry(
            tag=pc,
            value=self._init_value,
            fresh=True,
            slot=self._next_slot,
            valid=True,
        )
        self._next_slot += 1
        self._entries[pc] = entry
        return entry, False

    def peek(self, pc: int) -> Optional[BHTEntry]:
        """Look up without allocating or touching statistics."""
        return self._entries.get(pc)

    def probe_victim(self, pc: int) -> Tuple[int, bool]:
        """Read-only: the (slot, would_evict) a missing ``pc`` would get.

        The ideal BHT never evicts; a miss always opens a brand-new slot.
        """
        return self._next_slot, False

    def flush(self) -> None:
        """Context switch: drop all history (slots are retired too)."""
        self._entries.clear()
        self.stats.flushes += 1

    def entries_snapshot(self) -> Dict[int, Tuple[int, bool, int, bool]]:
        """``pc -> (value, fresh, slot, valid)`` for every resident entry.

        A cheap, copy-safe dump used by the vectorized-backend
        equivalence tests to assert kernels never mutate first-level
        state.
        """
        return {
            pc: (entry.value, entry.fresh, entry.slot, entry.valid)
            for pc, entry in self._entries.items()
        }

    def __iter__(self) -> Iterator[BHTEntry]:
        return iter(self._entries.values())


class CacheBHT:
    """A practical branch history table (paper §3.3).

    A ``num_entries``-entry, ``associativity``-way set-associative cache
    with true-LRU replacement within each set. ``associativity=1`` gives
    the direct-mapped configurations. The low bits of the branch address
    index the set; the remaining bits are the tag.
    """

    def __init__(
        self,
        num_entries: int,
        associativity: int = 1,
        init_value: int = 0,
    ) -> None:
        if num_entries < 1:
            raise ValueError("num_entries must be >= 1")
        if associativity < 1:
            raise ValueError("associativity must be >= 1")
        if num_entries % associativity != 0:
            raise ValueError("num_entries must be a multiple of associativity")
        self.num_entries = num_entries
        self.associativity = associativity
        self.num_sets = num_entries // associativity
        self._init_value = init_value
        self._tick = 0
        self.stats = BHTStats()
        self.evicted_slots: List[int] = []

    @cached_property
    def _sets(self) -> List[List[BHTEntry]]:
        """Each set's ways, built on first use: the vectorized kernels
        read only the geometry, so a predictor they replay never builds
        them."""
        return [
            [
                BHTEntry(slot=set_index * self.associativity + way)
                for way in range(self.associativity)
            ]
            for set_index in range(self.num_sets)
        ]

    def _locate(self, pc: int) -> Tuple[List[BHTEntry], int]:
        set_index = pc % self.num_sets
        tag = pc // self.num_sets
        return self._sets[set_index], tag

    def access(self, pc: int) -> Tuple[BHTEntry, bool]:
        """Find (or allocate, evicting LRU) the entry for ``pc``.

        Returns:
            (entry, hit). On a miss the returned entry is freshly
            initialised; if a valid victim was displaced its slot id is
            appended to :attr:`evicted_slots` so PAp can reinitialise the
            slot's pattern table.
        """
        entries, tag = self._locate(pc)
        self._tick += 1
        for entry in entries:
            if entry.valid and entry.tag == tag:
                entry.lru = self._tick
                self.stats.hits += 1
                return entry, True
        self.stats.misses += 1
        victim = self._select_victim(entries)
        if victim.valid:
            self.stats.evictions += 1
            self.evicted_slots.append(victim.slot)
        victim.tag = tag
        victim.value = self._init_value
        victim.fresh = True
        victim.valid = True
        victim.lru = self._tick
        return victim, False

    @staticmethod
    def _select_victim(entries: List[BHTEntry]) -> BHTEntry:
        """LRU victim choice within a set (invalid ways claimed first)."""
        victim = entries[0]
        for entry in entries[1:]:
            if not victim.valid:
                break
            if not entry.valid or entry.lru < victim.lru:
                victim = entry
        return victim

    def peek(self, pc: int) -> Optional[BHTEntry]:
        """Look up without allocating, LRU update, or statistics."""
        entries, tag = self._locate(pc)
        for entry in entries:
            if entry.valid and entry.tag == tag:
                return entry
        return None

    def probe_victim(self, pc: int) -> Tuple[int, bool]:
        """Read-only: the (slot, would_evict) a miss on ``pc`` would take.

        Lets predictors reason about the consequences of a future miss
        (e.g. PAp's pattern-table reset policy) without mutating the
        table the way :meth:`access` does.
        """
        entries, _tag = self._locate(pc)
        victim = self._select_victim(entries)
        return victim.slot, victim.valid

    def flush(self) -> None:
        """Context switch: invalidate every entry (paper §4.2)."""
        for entries in self._sets:
            for entry in entries:
                entry.valid = False
                entry.fresh = True
        self.stats.flushes += 1

    def drain_evicted_slots(self) -> List[int]:
        """Return and clear the list of slots whose occupant changed."""
        slots = self.evicted_slots
        self.evicted_slots = []
        return slots

    def entries_snapshot(self) -> Dict[int, Tuple[int, bool, int, bool]]:
        """``slot -> (value, fresh, tag, valid)`` for every way.

        Invalid ways are included (their stale tags matter to LRU victim
        choice); see :meth:`IdealBHT.entries_snapshot` for the intended
        use by equivalence tests.
        """
        return {
            entry.slot: (entry.value, entry.fresh, entry.tag, entry.valid)
            for entries in self._sets
            for entry in entries
        }

    def __iter__(self) -> Iterator[BHTEntry]:
        for entries in self._sets:
            for entry in entries:
                if entry.valid:
                    yield entry

    @property
    def occupancy(self) -> int:
        return sum(1 for _ in self)


def make_bht(
    num_entries: Optional[int],
    associativity: int = 1,
    init_value: int = 0,
):
    """Factory: ``num_entries=None`` yields the ideal BHT."""
    if num_entries is None:
        return IdealBHT(init_value=init_value)
    return CacheBHT(num_entries, associativity, init_value=init_value)
