"""Oracle gate for the set-associative first level's LRU replay.

``repro.sim.kernels._lru_metadata`` derives every conditional record's BHT
miss, eviction and physical slot without replaying the set one access at a
time. This test replays the same records through
:meth:`repro.core.history.CacheBHT.access` — flushing at every context
switch, exactly as the interpreted engine does — and requires the two to
agree record for record, on whole traces and on traces split into blocks
whose carried ways seed the next block's first epoch.

Hypothesis draws the associativity, a few sets, ``a+1 .. 3a`` tags per set
and epochs of at least ``2**12`` events, so contended epochs run through
every lifting level of the replay. Each (epoch, set) follows one pattern:
the cyclic ``a+1``-tag thrash (every access misses), uniform draws, a
local mix that mostly revisits recent tags, or a long phase over fewer
tags than ways, whose exit evicts tags touched ``2**12`` events earlier.
The replay runs its contended epochs in batches of about
``kernels._REPLAY_BATCH`` positions; each example also draws a batch
size of one position (every epoch alone), ``2**12`` or the default, so
epochs meet the batch boundaries in every way. The example budget comes
from the hypothesis profile named by ``HYPOTHESIS_PROFILE`` (see
``conftest.py``).

Block-local record indices are int32, but a streamed block's carried
slots record their last access's global record index (``rec``), which
orders the next block's LRU seeds. The width test folds PAg and PAp
over the same blocks twice, once with the global indices shifted past
``2**31``, and requires the same mispredictions and the same carry with
``rec`` shifted by the offset. Flush counts (``seg_c``) are int32 below
``2**31`` and int64 from there, so a second width test starts the flush
count just below ``2**31`` and requires the same mispredictions and the
same carry with the int64 flush stamps shifted.
"""

import os
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.automata import A2
from repro.core.history import CacheBHT
from repro.core.twolevel import make_pag, make_pap
from repro.sim import ContextSwitchConfig
from repro.sim import kernels
from repro.trace.events import TraceBuilder

PROFILE = settings(
    settings.get_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1")),
    suppress_health_check=[HealthCheck.too_slow],
)

#: Flushes fire at traps only; the interval never elapses.
SWITCHES = ContextSwitchConfig(interval=1 << 40, switch_on_traps=True)

MIN_EPOCH_EVENTS = 1 << 12
PATTERNS = ("thrash", "uniform", "local", "phase")


def _epoch_tags(rng: random.Random, pool, assoc: int, pattern: str, length: int):
    """At least ``length`` events of one set in one epoch, no two
    adjacent alike."""
    if pattern == "thrash":
        cycle = pool[: assoc + 1]
        return [cycle[i % len(cycle)] for i in range(length)]
    if pattern == "phase":
        # Every tag, then ``length`` events over fewer tags than ways,
        # then every tag again: the tail's victims were last touched
        # more than ``length`` events earlier.
        loop = pool[: max(assoc - 1, 2)]
        tail = rng.sample(pool, len(pool))
        tags = pool + [loop[i % len(loop)] for i in range(length)] + tail
        return [t for i, t in enumerate(tags) if i == 0 or t != tags[i - 1]]
    tags = []
    recent = []
    while len(tags) < length:
        if pattern == "local" and recent and rng.random() < 0.7:
            tag = rng.choice(recent)
        else:
            tag = rng.choice(pool)
        if tags and tag == tags[-1]:
            continue
        tags.append(tag)
        recent = (recent + [tag])[-assoc:]
    return tags


def _build_trace(seed: int, assoc: int, num_sets: int, epochs: int, patterns,
                 tag_base: int = 0, tag_step: int = 1):
    """A trace whose epochs (separated by traps) interleave every set's
    events, each event repeated for one to three records; a drawn tag
    ``t`` is ``tag_base + t * tag_step`` in the pc."""
    rng = random.Random(seed)
    pools = []
    for _ in range(num_sets):
        size = rng.randint(assoc + 1, 3 * assoc)
        pools.append(rng.sample(range(1, 400), size))
    builder = TraceBuilder(name="lru-oracle", source="test")
    for epoch in range(epochs):
        if epoch:
            builder.trap()
        queues = []
        for s in range(num_sets):
            length = MIN_EPOCH_EVENTS + rng.randrange(256)
            pattern = patterns[(epoch * num_sets + s) % len(patterns)]
            tags = _epoch_tags(rng, pools[s], assoc, pattern, length)
            queues.append([(tag_base + tag * tag_step) * num_sets + s
                           for tag in tags for _ in range(rng.randint(1, 3))])
        cursors = [0] * num_sets
        live = list(range(num_sets))
        while live:
            s = rng.choice(live)
            builder.conditional(queues[s][cursors[s]], rng.random() < 0.5, work=1)
            cursors[s] += 1
            if cursors[s] == len(queues[s]):
                live.remove(s)
    return builder.build()


def _oracle(trace, bht: CacheBHT):
    """Per-record ``(miss, evict, slot)`` from the reference cache,
    flushed before every trapping record."""
    pcs, _taken, _cls, _target, _instret, traps = trace.columns
    miss = np.empty(len(pcs), dtype=np.bool_)
    evict = np.empty(len(pcs), dtype=np.bool_)
    slot = np.empty(len(pcs), dtype=np.int64)
    for i, (pc, trap) in enumerate(zip(pcs, traps)):
        if trap:
            bht.flush()
        entry, hit = bht.access(pc)
        evicted = bht.drain_evicted_slots()
        miss[i] = not hit
        evict[i] = entry.slot in evicted
        slot[i] = entry.slot
    return miss, evict, slot


def _replay(trace, bht: CacheBHT, cuts):
    """Per-record ``(miss, evict, slot)`` from ``_lru_metadata``, block
    by block at ``cuts``, in trace order."""
    bounds = [0, *cuts, len(trace)]
    outs = ([], [], [])
    carry = None
    prev_epoch = None
    fires = 0
    seen = 0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        block = trace.select(range(lo, hi))
        run = kernels._Run(block, SWITCHES, False, 0, prev_epoch=prev_epoch,
                           fires_base=fires, t0=seen, final=False)
        order, miss_r, evict_r, slot_r = kernels._lru_metadata(
            lambda: kernels._gathered_pcs(run), run.seg_c, bht.num_sets, bht.associativity,
            carry)
        for out, values in zip(outs, (miss_r, evict_r, slot_r)):
            at = np.empty_like(values)
            at[order] = values
            out.append(at)
        carry = kernels._slot_carry(run, kernels._assoc_layout(run, bht, carry), carry)
        prev_epoch, fires, seen = run.last_epoch, run.fires_end, seen + run.n_c
    return tuple(np.concatenate(out) for out in outs)


@st.composite
def lru_cases(draw):
    assoc = draw(st.sampled_from([2, 3, 4, 8]))
    num_sets = draw(st.integers(1, 3))
    epochs = draw(st.integers(1, 2))
    patterns = draw(st.lists(st.sampled_from(PATTERNS), min_size=1, max_size=4))
    seed = draw(st.integers(0, 2**32 - 1))
    trace = _build_trace(seed, assoc, num_sets, epochs, patterns)
    cuts = sorted(set(draw(st.lists(st.integers(1, len(trace) - 1), max_size=3))))
    batch = draw(st.sampled_from([1, 1 << 12, kernels._REPLAY_BATCH]))
    return assoc, num_sets, trace, cuts, batch


@PROFILE
@given(case=lru_cases())
def test_lru_metadata_matches_cache_bht(case):
    assoc, num_sets, trace, cuts, batch = case
    bht = CacheBHT(num_sets * assoc, assoc)
    with mock.patch.object(kernels, "_REPLAY_BATCH", batch):
        miss, evict, slot = _replay(trace, bht, cuts)
    want_miss, want_evict, want_slot = _oracle(trace, CacheBHT(num_sets * assoc, assoc))
    assert np.array_equal(miss, want_miss)
    assert np.array_equal(evict, want_evict)
    assert np.array_equal(slot, want_slot)


@pytest.mark.parametrize("tag_base, tag_step", [(-(1 << 40), 1 << 16), (1 << 40, 1 << 20)],
                         ids=["negative", "past-2**32"])
def test_lru_metadata_matches_cache_bht_on_wide_pcs(tag_base, tag_step):
    """Tags far from 0 (negative pcs, pcs past ``2**32``) whose low 16
    bits all agree replay like the reference cache."""
    assoc, num_sets = 4, 2
    trace = _build_trace(5, assoc, num_sets, 2, PATTERNS, tag_base, tag_step)
    bht = CacheBHT(num_sets * assoc, assoc)
    got = _replay(trace, bht, [len(trace) // 2])
    want = _oracle(trace, CacheBHT(num_sets * assoc, assoc))
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("switches", [None, SWITCHES], ids=["no-switches", "switches"])
def test_lru_metadata_on_zero_records(switches):
    """An empty stream replays to empty arrays, like the reference cache,
    whether it carries flush segments or none."""
    trace = TraceBuilder(name="empty", source="test").build()
    bht = CacheBHT(8, 4)
    run = kernels._Run(trace, switches, False, 0)
    for seg_c in (run.seg_c, None):
        order, miss, evict, slot = kernels._lru_metadata(
            lambda: kernels._gathered_pcs(run), seg_c, bht.num_sets, bht.associativity, None)
        assert order.shape == (0,)
        want = _oracle(trace, CacheBHT(8, 4))
        assert all(np.array_equal(a, b) for a, b in zip((miss, evict, slot), want))


def test_thrash_epoch_misses_on_every_event():
    """The cyclic ``a+1``-tag pattern defeats true LRU: after the fill,
    every event evicts the tag it needs next."""
    assoc = 4
    trace = _build_trace(7, assoc, 1, 1, ["thrash"])
    bht = CacheBHT(assoc, assoc)
    miss, evict, slot = _replay(trace, bht, [len(trace) // 3])
    pcs = np.asarray(trace.columns[0])
    first = np.ones(len(pcs), dtype=np.bool_)
    first[1:] = pcs[1:] != pcs[:-1]
    assert np.array_equal(miss, first)
    assert np.count_nonzero(evict) == np.count_nonzero(first) - assoc
    assert set(slot.tolist()) == set(range(assoc))


def _fold_blocks(predictor, trace, cuts, offset, fires=0):
    """Each block's sorted mispredicted indices and the final carry of
    ``predictor``'s kernel, with the blocks' global record indices
    starting at ``offset`` and their flush count at ``fires``; and each
    block's ``seg_c`` dtype."""
    kernel = kernels._kernel_for(predictor)
    bounds = [0, *cuts, len(trace)]
    carry = None
    prev_epoch = None
    seen = offset
    wrong = []
    dtypes = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        run = kernels._Run(trace.select(range(lo, hi)), SWITCHES, True, 0,
                           prev_epoch=prev_epoch, fires_base=fires, t0=seen, final=False)
        block_wrong, carry = kernel(run, carry)
        wrong.append(np.sort(block_wrong))
        dtypes.append(run.seg_c.dtype)
        prev_epoch, fires, seen = run.last_epoch, run.fires_end, seen + run.n_c
    return wrong, carry, dtypes


@pytest.mark.parametrize("make", [make_pag, make_pap], ids=["pag", "pap"])
@pytest.mark.parametrize("where", ["straddles", "beyond"])
def test_carried_recency_survives_global_indices_past_int32(make, where):
    """A block starting at ``t0 >= 2**31`` gives the result and carry of
    the same block at a small ``t0``, with ``rec`` shifted: the carried
    slot columns stay int64 whatever the block-local indices are."""
    assoc, num_sets = 4, 2
    trace = _build_trace(11, assoc, num_sets, 2, ["thrash", "uniform", "local"])
    cuts = [len(trace) // 3, 2 * len(trace) // 3]
    first_block = int(trace.select(range(cuts[0])).as_arrays().cond_mask.sum())
    # The second block starts 5 records below 2**31, or all start past it.
    offset = (1 << 31) - first_block - 5 if where == "straddles" else 1 << 33
    want_wrong, want, _ = _fold_blocks(make(4, A2, num_sets * assoc, assoc), trace, cuts, 0)
    got_wrong, got, _ = _fold_blocks(make(4, A2, num_sets * assoc, assoc), trace, cuts, offset)
    assert all(np.array_equal(a, b) for a, b in zip(got_wrong, want_wrong))
    slots, want_slots = got[0], want[0]
    assert np.array_equal(slots.keys, want_slots.keys)
    assert slots.cols.keys() == want_slots.cols.keys()
    for name, column in slots.cols.items():
        shift = offset if name == "rec" else 0
        assert np.array_equal(column, want_slots.cols[name] + shift), name
    assert slots.cols["rec"].dtype == slots.cols["stamp"].dtype == np.int64
    assert int(slots.cols["rec"].max()) >= 1 << 31
    store, want_store = got[1], want[1]
    assert np.array_equal(store.keys, want_store.keys)
    assert np.array_equal(store.cols["state"], want_store.cols["state"])
    assert got[2:] == want[2:]


@pytest.mark.parametrize("make", [make_pag, make_pap], ids=["pag", "pap"])
def test_carried_stamps_survive_flush_counts_past_int32(make):
    """Blocks whose flush count crosses ``2**31`` give the result and
    carry of the same blocks counted from 0, with the stamps shifted:
    ``seg_c`` widens to int64 in the block that reaches ``2**31`` and
    the carried stamps are int64 throughout."""
    assoc, num_sets = 4, 2
    trace = _build_trace(11, assoc, num_sets, 2, ["thrash", "uniform", "local"])
    cuts = [len(trace) // 3, 2 * len(trace) // 3]
    want_wrong, want, want_dtypes = _fold_blocks(make(4, A2, num_sets * assoc, assoc),
                                                 trace, cuts, 0)
    assert want_dtypes == [np.int32] * 3
    # The first block ends one flush below 2**31; the second flushes.
    first = kernels._Run(trace.select(range(cuts[0])), SWITCHES, True, 0, final=False)
    offset = (1 << 31) - 1 - first.fires_end
    got_wrong, got, dtypes = _fold_blocks(make(4, A2, num_sets * assoc, assoc),
                                          trace, cuts, 0, fires=offset)
    assert dtypes == [np.int32, np.int64, np.int64]
    assert all(np.array_equal(a, b) for a, b in zip(got_wrong, want_wrong))
    slots, want_slots = got[0], want[0]
    assert np.array_equal(slots.keys, want_slots.keys)
    for name, column in slots.cols.items():
        shift = offset if name == "stamp" else 0
        assert np.array_equal(column, want_slots.cols[name] + shift), name
    assert slots.cols["stamp"].dtype == np.int64
    assert int(slots.cols["stamp"].max()) >= 1 << 31
