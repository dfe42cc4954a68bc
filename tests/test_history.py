"""Unit tests for history registers and branch history tables."""

import pytest

from repro.core.automata import A2
from repro.core.history import (
    CacheBHT,
    IdealBHT,
    history_bits_string,
    history_fill,
    history_mask,
    history_update,
    make_bht,
)
from repro.core.twolevel import make_pag
from repro.sim import simulate
from repro.trace import synthetic


class TestHistoryRegisterOps:
    def test_mask(self):
        assert history_mask(1) == 0b1
        assert history_mask(4) == 0b1111
        assert history_mask(12) == 0xFFF

    def test_mask_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            history_mask(0)

    def test_update_shifts_into_lsb(self):
        # The paper: R_c enters the least significant position.
        value = 0b0000
        value = history_update(value, True, 4)
        assert value == 0b0001
        value = history_update(value, False, 4)
        assert value == 0b0010
        value = history_update(value, True, 4)
        assert value == 0b0101

    def test_update_drops_oldest_bit(self):
        value = 0b1111
        assert history_update(value, False, 4) == 0b1110

    def test_fill_extends_outcome(self):
        assert history_fill(True, 6) == 0b111111
        assert history_fill(False, 6) == 0

    def test_bits_string_matches_paper_notation(self):
        assert history_bits_string(0b11100101, 8) == "11100101"
        assert history_bits_string(0b1, 4) == "0001"


class TestIdealBHT:
    def test_allocates_on_first_access(self):
        bht = IdealBHT(init_value=0b111)
        entry, hit = bht.access(0x4000)
        assert not hit
        assert entry.value == 0b111
        assert entry.fresh

    def test_hits_on_second_access(self):
        bht = IdealBHT()
        bht.access(0x4000)
        entry, hit = bht.access(0x4000)
        assert hit

    def test_never_evicts(self):
        bht = IdealBHT()
        for pc in range(10_000):
            bht.access(pc)
        assert bht.num_entries == 10_000
        assert bht.stats.evictions == 0

    def test_distinct_slots(self):
        bht = IdealBHT()
        slots = {bht.access(pc)[0].slot for pc in range(100)}
        assert len(slots) == 100

    def test_peek_does_not_allocate(self):
        bht = IdealBHT()
        assert bht.peek(0x1234) is None
        assert bht.num_entries == 0
        assert bht.stats.accesses == 0

    def test_flush_clears_everything(self):
        bht = IdealBHT()
        bht.access(1)
        bht.access(2)
        bht.flush()
        assert bht.num_entries == 0
        assert bht.stats.flushes == 1

    def test_stats_hit_rate(self):
        bht = IdealBHT()
        bht.access(1)
        bht.access(1)
        bht.access(1)
        bht.access(2)
        assert bht.stats.hits == 2
        assert bht.stats.misses == 2
        assert bht.stats.hit_rate == 0.5


class TestCacheBHT:
    def test_validates_geometry(self):
        with pytest.raises(ValueError):
            CacheBHT(0)
        with pytest.raises(ValueError):
            CacheBHT(8, 0)
        with pytest.raises(ValueError):
            CacheBHT(10, 4)  # not a multiple

    def test_direct_mapped_conflict(self):
        bht = CacheBHT(4, 1)
        # pcs 0 and 4 map to the same set in a 4-set direct-mapped table.
        bht.access(0)
        entry, hit = bht.access(4)
        assert not hit
        _entry, hit = bht.access(0)
        assert not hit  # got evicted by pc=4
        assert bht.stats.evictions >= 1

    def test_set_associative_avoids_that_conflict(self):
        bht = CacheBHT(8, 4)  # 2 sets, 4 ways
        bht.access(0)
        bht.access(2)  # same set (pc % 2 == 0), different tag
        _entry, hit = bht.access(0)
        assert hit

    def test_lru_evicts_least_recent(self):
        bht = CacheBHT(4, 4)  # one set, four ways
        for pc in (10, 20, 30, 40):
            bht.access(pc)
        bht.access(10)  # refresh 10; 20 is now LRU
        bht.access(50)  # evicts 20
        assert bht.peek(20) is None
        assert bht.peek(10) is not None
        assert bht.peek(30) is not None

    def test_eviction_reports_slot(self):
        bht = CacheBHT(1, 1)
        bht.access(0)
        bht.access(1)
        slots = bht.drain_evicted_slots()
        assert slots == [0]
        assert bht.drain_evicted_slots() == []

    def test_slot_ids_stable_per_physical_way(self):
        bht = CacheBHT(8, 2)
        entry_a, _ = bht.access(0)
        slot_a = entry_a.slot
        bht.flush()
        entry_b, _ = bht.access(0)
        assert entry_b.slot == slot_a

    def test_new_entry_initialised(self):
        bht = CacheBHT(4, 2, init_value=0b1111)
        entry, hit = bht.access(123)
        assert not hit
        assert entry.valid
        assert entry.fresh
        assert entry.value == 0b1111

    def test_flush_invalidates(self):
        bht = CacheBHT(8, 2)
        bht.access(3)
        bht.flush()
        assert bht.peek(3) is None
        assert bht.occupancy == 0

    def test_peek_no_stats(self):
        bht = CacheBHT(8, 2)
        bht.access(3)
        before = bht.stats.accesses
        bht.peek(3)
        bht.peek(99)
        assert bht.stats.accesses == before

    def test_occupancy_and_iteration(self):
        bht = CacheBHT(8, 2)
        for pc in range(5):
            bht.access(pc)
        assert bht.occupancy == 5
        assert len(list(bht)) == 5

    def test_tag_disambiguates_same_set(self):
        bht = CacheBHT(8, 2)  # 4 sets
        entry_a, _ = bht.access(1)
        entry_a.value = 111
        entry_b, _ = bht.access(5)  # same set, different tag
        entry_b.value = 222
        assert bht.peek(1).value == 111
        assert bht.peek(5).value == 222

    def test_hit_rate_converges_for_small_working_set(self):
        bht = CacheBHT(16, 4)
        for _round in range(100):
            for pc in range(8):
                bht.access(pc)
        assert bht.stats.hit_rate > 0.98

    def test_ways_are_built_on_first_use(self):
        """The vectorized kernels read only the geometry, so a predictor
        they replay never builds its ways; the interpreted engine builds
        them at its first access."""
        trace = synthetic.loop_trace(iterations=50, trip_count=3)
        replayed = make_pag(6, A2, 64, 4)
        interpreted = make_pag(6, A2, 64, 4)
        assert "_sets" not in vars(replayed.bht)
        assert (simulate(replayed, trace, backend="vectorized")
                == simulate(interpreted, trace, backend="python"))
        assert "_sets" not in vars(replayed.bht)
        assert [len(ways) for ways in vars(interpreted.bht)["_sets"]] == [4] * 16
        assert replayed.bht.entries_snapshot() == CacheBHT(64, 4).entries_snapshot()


class TestMakeBHT:
    def test_none_gives_ideal(self):
        assert isinstance(make_bht(None), IdealBHT)

    def test_sized_gives_cache(self):
        bht = make_bht(256, 4)
        assert isinstance(bht, CacheBHT)
        assert bht.num_entries == 256
        assert bht.associativity == 4
