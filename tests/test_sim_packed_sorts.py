"""Differential properties of the kernels' packed-word sorts.

``_stable_argsort`` sorts the unique words ``(key - low) << s | index``
in ``uint32`` when the key span and the index fit 32 bits, in
``uint64`` when they fit 64, and falls back to NumPy's stable argsort
beyond; it must equal ``np.argsort(kind="stable")`` on every path, for
empty and one-record input, negative keys and keys at or past
``2**32``. ``_group_sort`` packs ``key | trace index | outcome`` into
``uint32`` words when they fit ``_NARROW_WORD_BITS`` and into int64 ones
otherwise; forcing the wide words (``_NARROW_WORD_BITS = 0``) must give
identical ``(order, grp_new, key_s, out_s)``, with and without a
``base`` order, and a key builder must give what the keys themselves
give.

The example budget comes from the hypothesis profile named by
``HYPOTHESIS_PROFILE`` (see ``conftest.py``).
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import kernels
from repro.trace.events import _stable_argsort

PROFILE = settings(
    settings.get_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1")),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _word_bits(keys):
    """The bits of ``_stable_argsort``'s packed word for ``keys``."""
    n = keys.shape[0]
    return (int(keys.max()) - int(keys.min())).bit_length() + (n - 1).bit_length()


@st.composite
def argsort_keys(draw):
    """Keys whose span picks one path: uint32 words, uint64 words or the
    fallback, at a low end that is zero, negative or past ``2**32``."""
    n = draw(st.integers(0, 400))
    path = draw(st.sampled_from(["uint32", "uint64", "fallback"]))
    s = max(n - 1, 0).bit_length()
    span_bits = {
        "uint32": draw(st.integers(0, max(32 - s, 0))),
        "uint64": draw(st.integers(33 - s, 64 - s)),
        "fallback": draw(st.integers(65 - s, 63)) if s >= 2 else 63,
    }[path]
    low = draw(st.sampled_from([0, 7, -(1 << 40), (1 << 32) + 3, -(1 << 63)]))
    if path == "fallback":
        low = -(1 << 62)
    low = max(low, -(1 << 63))
    high = min(low + (1 << span_bits) - 1, (1 << 63) - 1)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    keys = rng.integers(low, high, n, dtype=np.int64, endpoint=True)
    if n >= 2:
        # Pin both ends so the span is the drawn one; repeat a key so
        # ties occur.
        keys[0], keys[-1] = low, high
        keys[rng.integers(0, n)] = keys[rng.integers(0, n)]
    return keys


@PROFILE
@given(keys=argsort_keys())
def test_stable_argsort_equals_numpys_stable_argsort(keys):
    got = _stable_argsort(keys)
    assert got.dtype == np.intp
    assert np.array_equal(got, np.argsort(keys, kind="stable"))


def test_stable_argsort_takes_each_path():
    """One case per word type, checked against the path it must take."""
    rng = np.random.default_rng(0)
    cases = [
        np.empty(0, dtype=np.int64),
        np.array([-5], dtype=np.int64),
        rng.integers(-(1 << 40), -(1 << 40) + 500, 1000),  # negative, uint32 words
        rng.integers(1 << 33, (1 << 33) + (1 << 20), 1000),  # past 2**32, uint32 words
        rng.integers(0, 1 << 40, 1000),  # uint64 words
        rng.integers(-(1 << 62), 1 << 62, 1000),  # the fallback
        rng.integers(0, 1 << 16, 1000).astype(np.uint16),
    ]
    paths = []
    for keys in cases:
        assert np.array_equal(_stable_argsort(keys), np.argsort(keys, kind="stable"))
        if keys.shape[0] > 1:
            bits = _word_bits(keys)
            paths.append("uint32" if bits <= 32 else "uint64" if bits <= 64 else "fallback")
    assert set(paths) == {"uint32", "uint64", "fallback"}


def test_stable_argsort_leaves_its_keys_alone():
    keys = np.array([3, -1, 3, 2], dtype=np.int64)
    keys.flags.writeable = False
    assert _stable_argsort(keys).tolist() == [1, 3, 0, 2]


@st.composite
def group_cases(draw):
    """``(keys, out, base)`` whose packed words fit 32 bits, so both word
    types apply; ``base`` is None or a random trace order."""
    n = draw(st.integers(1, 600))
    s = (n - 1).bit_length()
    key_bits = draw(st.integers(0, 31 - s))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    keys = rng.integers(0, 1 << key_bits, n, dtype=np.int64)
    out = rng.integers(0, 2, n).astype(np.uint8)
    base = None
    if draw(st.booleans()):
        base = rng.permutation(n).astype(draw(st.sampled_from([np.int32, np.int64])))
    return keys, out, base


def _sorted(keys, out, base, need_order, need_keys):
    return kernels._group_sort(keys, out, base, need_order=need_order, need_keys=need_keys)


def _assert_identical(got, want):
    for a, b in zip(got, want):
        if b is None:
            assert a is None
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b)


@PROFILE
@given(case=group_cases(), need_order=st.booleans(), need_keys=st.booleans(),
       dtype=st.sampled_from([np.int64, np.int32, np.uint16]))
def test_group_sort_words_32_and_64_bits_agree(case, need_order, need_keys, dtype):
    keys, out, base = case
    keys = keys.astype(dtype)
    narrow = _sorted(keys.copy(), out, base, need_order, need_keys)
    saved = kernels._NARROW_WORD_BITS
    kernels._NARROW_WORD_BITS = 0  # every word int64
    try:
        wide = _sorted(keys.copy(), out, base, need_order, need_keys)
    finally:
        kernels._NARROW_WORD_BITS = saved
    _assert_identical(narrow, wide)
    # A builder the sort calls gives what its keys give.
    _assert_identical(_sorted(keys.copy, out, base, need_order, need_keys), narrow)
    order, grp_new, key_s, out_s = narrow
    if need_order:
        assert order.dtype == np.int32
        want = np.lexsort((np.arange(keys.shape[0]) if base is None else base, keys))
        assert np.array_equal(order, want if base is None else base[want])
    if need_keys:
        assert key_s.dtype == np.int64
    assert out_s.dtype == np.uint8 and grp_new.dtype == np.bool_


@pytest.mark.parametrize("n, key_bits, narrow", [
    (1, 31, True), (1, 32, False), (1 << 16, 15, True), (1 << 16, 16, False),
    (1 << 20, 11, True), (1 << 20, 12, False),
])
def test_group_sort_picks_uint32_words_exactly_when_they_fit(n, key_bits, narrow, monkeypatch):
    """The word is ``uint32`` when key bits + index bits + 1 <= 32: the
    masked word is then the int32 order itself, a view of the words."""
    rng = np.random.default_rng(n + key_bits)
    keys = rng.integers(0, 1 << key_bits, n, dtype=np.int64)
    keys[0] = (1 << key_bits) - 1
    out = rng.integers(0, 2, n).astype(np.uint8)
    order = kernels._group_sort(keys.copy(), out, need_keys=False)[0]
    assert order.dtype == np.int32
    assert (order.base is not None) == narrow
    monkeypatch.setattr(kernels, "_NARROW_WORD_BITS", 0)
    assert np.array_equal(kernels._group_sort(keys.copy(), out, need_keys=False)[0], order)
