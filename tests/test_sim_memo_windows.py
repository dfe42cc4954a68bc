"""The memo's outcome windows: as narrow as the longest history asked.

A whole-trace run keeps one outcome window per layout (and one in trace
order) in the trace's memo. It is ``uint8`` while no history longer than
8 bits has asked for it, ``uint16`` up to 16 bits, and int32 (24 bits)
beyond; a longer history rebuilds it wider in its place, and a shorter
one reads the wider window's low bits. These tests run a longer history
after a shorter one on one trace (GAg-18 and gshare-20 after GAg-8,
PAg-16 after PAg-4) and require each result to equal a fresh-memo run
and the interpreted engine, and pin the window dtypes along the way.
"""

import numpy as np
import pytest

from repro.predictors.registry import make_predictor
from repro.sim import ContextSwitchConfig, kernels, simulate

from .test_sim_layout_memo import MEMO, _trace

SWITCHES = ContextSwitchConfig(interval=400, switch_on_traps=True)


@pytest.fixture(autouse=True)
def _empty_memo():
    MEMO.clear()
    yield
    MEMO.clear()


@pytest.fixture(scope="module")
def trace():
    return _trace(11, n=12_000, pcs=200, name="windows")


def _run(scheme, trace, backend="vectorized"):
    return simulate(make_predictor(scheme), trace, context_switches=SWITCHES,
                    track_per_site=True, backend=backend)


def _windows():
    return MEMO.current[1].windows


@pytest.mark.parametrize("short, long", [("gag-8", "gag-18"), ("gag-8", "gshare-20"),
                                         ("pag-4-ideal", "pag-16-ideal"),
                                         ("pag-4-512x1", "pag-16-512x1")])
def test_a_longer_history_widens_the_window_and_scores_alike(short, long, trace):
    _run(short, trace)
    narrow = dict(_windows())
    assert narrow and all(window.dtype == np.uint8 for window in narrow.values())
    widened = _run(long, trace)
    wide = _windows()
    assert set(wide) == set(narrow)
    bits = int(long.split("-")[1])
    want = np.uint16 if bits <= 16 else np.int32
    assert all(wide[key].dtype == want for key in wide)
    MEMO.clear()
    assert widened == _run(long, trace)
    assert widened == _run(long, trace, backend="python")


def test_a_shorter_history_reads_the_wider_window(trace):
    first = _run("gag-18", trace)
    window = _windows()[None]
    assert window.dtype == np.int32 and not window.flags.writeable
    short = _run("gag-5", trace)
    assert _windows()[None] is window
    assert _run("gag-12", trace) is not None and _windows()[None] is window
    MEMO.clear()
    assert short == _run("gag-5", trace)
    assert _windows()[None].dtype == np.uint8
    assert first == _run("gag-18", trace, backend="python")


@pytest.mark.parametrize("k, dtype", [(1, np.uint8), (8, np.uint8), (9, np.uint16),
                                      (16, np.uint16), (17, np.int32), (24, np.int32)])
def test_window_dtype_pins(k, dtype, trace):
    run = kernels._Run(trace, None, False, 0, memo=True)
    ghr, _carry = kernels._global_history(run, k, (1 << k) - 1, None)
    assert run.memo.windows[None].dtype == dtype
    # The registers come in the window's dtype.
    assert ghr.dtype == dtype
    assert kernels._window_type(k) == (8 * np.dtype(dtype).itemsize if k <= 16 else 24, dtype)
