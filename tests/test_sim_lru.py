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
The example budget comes from the hypothesis profile named by
``HYPOTHESIS_PROFILE`` (see ``conftest.py``).
"""

import os
import random

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.history import CacheBHT
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


def _build_trace(seed: int, assoc: int, num_sets: int, epochs: int, patterns):
    """A trace whose epochs (separated by traps) interleave every set's
    events, each event repeated for one to three records."""
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
            queues.append([tag * num_sets + s for tag in tags for _ in range(rng.randint(1, 3))])
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
        order, miss_r, evict_r, slot_r = kernels._lru_metadata(run, bht, carry)
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
    return assoc, num_sets, trace, cuts


@PROFILE
@given(case=lru_cases())
def test_lru_metadata_matches_cache_bht(case):
    assoc, num_sets, trace, cuts = case
    bht = CacheBHT(num_sets * assoc, assoc)
    miss, evict, slot = _replay(trace, bht, cuts)
    want_miss, want_evict, want_slot = _oracle(trace, CacheBHT(num_sets * assoc, assoc))
    assert np.array_equal(miss, want_miss)
    assert np.array_equal(evict, want_evict)
    assert np.array_equal(slot, want_slot)


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
