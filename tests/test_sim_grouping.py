"""Oracles for the kernels' grouping helpers in :mod:`repro.sim.kernels`.

``_outcome_window`` builds every record's history window in log depth
from doubling ORs; the reference is the ``k``-pass shifted-add loop it
replaced, kept here. ``_group_sort`` groups pattern keys with one sort of
packed ``key | trace index | outcome`` words; the reference is a stable
argsort of the keys plus the gathers it replaced, for trace-order keys,
slot-order keys whose groups each lie in one slot block (PAp, SAs),
slot-order keys scattered back to trace order (PAg, SAg), with and
without the trace-order indices, with and without the sorted keys
(a final block with no store reads its group starts off the sorted
words), and for keys wide enough to force the argsort fallback. Both
paths return int32 trace indices. ``_stable_argsort`` itself (radix
passes over a span below ``2**32``) equals NumPy's stable argsort for
negative keys, keys past ``2**32`` and wider spans.

The example budget comes from the hypothesis profile named by
``HYPOTHESIS_PROFILE`` (see ``conftest.py``).
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import kernels

PROFILE = settings(
    settings.get_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1")),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _window_reference(out_u8, k):
    """The ``k`` shifted adds: bit ``b - 1`` holds the outcome ``b``
    records back."""
    n = out_u8.shape[0]
    window = np.zeros(n, dtype=np.int32)
    lifted = out_u8.astype(np.int32)
    for back in range(1, k + 1):
        window[back:] += lifted[:-back] << np.int32(back - 1)
    return window


@PROFILE
@given(n=st.one_of(st.integers(0, 4), st.integers(5, 600)), k=st.integers(1, 24),
       seed=st.integers(0, 2 ** 32 - 1))
def test_outcome_window_matches_the_shifted_add_loop(n, k, seed):
    out = np.random.default_rng(seed).integers(0, 2, n).astype(np.uint8)
    got = kernels._outcome_window(out, k)
    assert got.dtype == np.int32
    assert np.array_equal(got, _window_reference(out, k))


@PROFILE
@given(n=st.integers(1, 400), span_bits=st.sampled_from([1, 8, 16, 17, 31, 32, 33, 62]),
       low=st.sampled_from([0, 5, -(1 << 40), 1 << 40, -(1 << 62)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stable_argsort_matches_numpy_for_any_span(n, span_bits, low, seed):
    """The radix argsort equals NumPy's stable argsort for negative keys,
    keys past ``2**32`` with a narrow span, and spans too wide for it."""
    rng = np.random.default_rng(seed)
    keys = low + rng.integers(0, 1 << span_bits, n, dtype=np.int64)
    assert np.array_equal(kernels._stable_argsort(keys), np.argsort(keys, kind="stable"))


def _reference(keys, out, base):
    """Today's path: a stable argsort in the given order, then gathers."""
    order = kernels._stable_argsort(keys)
    key_s = keys[order]
    out_s = out[order]
    if base is not None:
        order = base[order]
    return order, kernels._change_marks(key_s), key_s, out_s


def _assert_same(got, want, need_order):
    order, grp_new, key_s, out_s = got
    if need_order:
        # int32 on the fused word sort and the argsort fallback alike.
        assert order.dtype == np.int32 and np.array_equal(order, want[0])
    else:
        assert order is None
    assert np.array_equal(grp_new, want[1])
    assert np.array_equal(key_s, want[2])
    assert out_s.dtype == np.uint8 and np.array_equal(out_s, want[3])


@st.composite
def grouping_cases(draw):
    """``(rng, n, key_bits)``: narrow keys take the fused sort, keys of
    48-62 bits force the fallback for every ``n``."""
    n = draw(st.integers(1, 500))
    key_bits = draw(st.one_of(st.integers(1, 20), st.integers(48, 62)))
    return np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), n, key_bits


def _fused(key_bits, n):
    return key_bits + (n - 1).bit_length() + 1 <= 63


@pytest.fixture
def no_argsort_when_fused(monkeypatch):
    """Fail if a case that fits the packed word reaches the fallback."""
    original = kernels._stable_argsort
    state = {"fused": True}

    def guarded(keys):
        assert not state["fused"], "narrow keys took the argsort fallback"
        return original(keys)

    monkeypatch.setattr(kernels, "_stable_argsort", guarded)
    return state


@PROFILE
@given(case=grouping_cases(), need_order=st.booleans())
def test_trace_order_keys(case, need_order):
    rng, n, key_bits = case
    keys = rng.integers(0, 1 << key_bits, n, dtype=np.int64)
    keys[rng.integers(0, n)] = (1 << key_bits) - 1
    out = rng.integers(0, 2, n).astype(np.uint8)
    want = _reference(keys, out, None)
    _assert_same(kernels._group_sort(keys, out, need_order=need_order), want, need_order)


@PROFILE
@given(case=grouping_cases(), need_order=st.booleans(), data=st.data())
def test_slot_order_keys_grouped_within_slot_blocks(case, need_order, data):
    """PAp and SAs: each table's records live in one slot block, where
    the slot-sorted ``base`` order is chronological."""
    rng, n, key_bits = case
    slots = rng.integers(0, data.draw(st.integers(1, 40)), n)
    base = np.argsort(slots, kind="stable")
    slot_s = slots[base]
    # Tables split each slot block at random episode starts; the key
    # puts the table above the pattern bits.
    new_table = kernels._change_marks(slot_s) | (rng.random(n) < 0.05)
    table = np.cumsum(new_table) - 1
    k = max(key_bits - int(table[-1]).bit_length(), 0)
    keys = (table << k) | rng.integers(0, 1 << k, n)
    out = rng.integers(0, 2, n).astype(np.uint8)
    want = _reference(keys, out, base)
    got = kernels._group_sort(keys, out, base, need_order=need_order)
    _assert_same(got, want, need_order)


@PROFILE
@given(case=grouping_cases(), need_order=st.booleans(), data=st.data())
def test_slot_order_keys_tied_in_trace_order(case, need_order, data):
    """PAg and SAg: a pattern's records span slots, so ties must break
    by trace index, as a stable sort of the keys scattered back to trace
    order does."""
    rng, n, key_bits = case
    slots = rng.integers(0, data.draw(st.integers(1, 40)), n)
    base = np.argsort(slots, kind="stable")
    keys = rng.integers(0, 1 << key_bits, n, dtype=np.int64)
    out = rng.integers(0, 2, n).astype(np.uint8)
    trace_keys = np.empty_like(keys)
    trace_keys[base] = keys
    trace_out = np.empty_like(out)
    trace_out[base] = out
    want = _reference(trace_keys, trace_out, None)
    got = kernels._group_sort(keys, out, base, need_order=need_order)
    _assert_same(got, want, need_order)


@PROFILE
@given(case=grouping_cases(), need_order=st.booleans(), slot_order=st.booleans())
def test_a_final_block_without_sorted_keys_groups_alike(case, need_order, slot_order):
    """A final block with no store asks for no ``key_s``: its group
    starts come from adjacent sorted words, and must equal the keyed
    call's, as must the outcomes and the trace order."""
    rng, n, key_bits = case
    keys = rng.integers(0, 1 << key_bits, n, dtype=np.int64)
    out = rng.integers(0, 2, n).astype(np.uint8)
    base = None
    want = _reference(keys, out, None)
    if slot_order:
        # The same records listed in a random order: ties still break
        # by trace index.
        base = rng.permutation(n).astype(np.int32)
        keys, out = keys[base], out[base]
    keyed = kernels._group_sort(keys.copy(), out, base, need_order=need_order)
    _assert_same(keyed, want, need_order)
    order, grp_new, key_s, out_s = kernels._group_sort(keys.copy(), out, base,
                                                       need_order=need_order,
                                                       need_keys=False)
    assert key_s is None
    _assert_same((order, grp_new, want[2], out_s), want, need_order)


def test_narrow_keys_never_reach_the_fallback(no_argsort_when_fused):
    rng = np.random.default_rng(0)
    for n, key_bits in ((1, 62), (2, 61), (1000, 20), (1 << 16, 46)):
        no_argsort_when_fused["fused"] = _fused(key_bits, n)
        keys = rng.integers(0, 1 << key_bits, n, dtype=np.int64)
        keys[0] = (1 << key_bits) - 1
        out = rng.integers(0, 2, n).astype(np.uint8)
        base = rng.permutation(n)
        for args in ((out,), (out, base)):
            # The fused sort builds its words in an int64 ``keys``.
            assert np.array_equal(kernels._group_sort(keys.copy(), *args)[2], np.sort(keys))
    # One bit wider than the word holds: the fallback.
    no_argsort_when_fused["fused"] = False
    keys[0] = 1 << 47
    assert np.array_equal(kernels._group_sort(keys.copy(), out)[2], np.sort(keys))
