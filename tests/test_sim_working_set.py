"""The kernels' per-record working set, pinned in bytes per record.

How long a trace fits in memory is set by what a whole-trace kernel call
holds and allocates per conditional record. These tests measure both
with ``tracemalloc`` (NumPy reports its array buffers to it) on the
``gcc`` testing trace, about 370k conditional records, for a
per-address and a global scheme with per-site tracking:

* **held**: what the first call leaves behind, which is the trace's
  memo (its run columns, restart distances, outcome windows and
  first-level layout, and the per-site tally) plus the cached site ids;
* **scan peak**: the high-water mark of a second call, which the memo
  serves, above what the first call left: the pattern keys, the group
  sort, the run scan and the scoring.

The caps sit about 20% above the readings of the narrow working set:
``uint16`` windows for 16-bit histories, keys built inside the sort
and dead once its words are, ``uint32`` words where they fit, int32
run starts and mispredicted positions, no cumsum that copies its input.
Readings 16.3 / 14.9 (``pap-16-512x1``) and 8.3 / 14.0 (``gap-16``)
B/record; the int32 record indices before them read 18.3 / 35.1 and
10.3 / 23.4, the int64 ones 35.3 / 64.7 and 22.3 / 36.6. The dtype pins
name the columns that carry the saving.

The set-associative first level's LRU replay (``_residency_words`` over
the whole trace, the pcs' gather included) is pinned the same way, at
``256x4`` under the default context switches and ``512x4`` without:
its peak above what the run already holds. Its caps sit about 20% above
the readings with packed-word argsorts and ``_running_count`` (31.8 and
31.7 B/record); the radix argsorts before them read 51.1 and 42.9, and
the replay before narrowing about 175 and 161.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.history import CacheBHT, IdealBHT
from repro.predictors.registry import make_predictor
from repro.sim import ContextSwitchConfig, kernels, simulate
from repro.workloads.suite import all_workloads

#: scheme -> (held, scan peak) caps in bytes per conditional record.
CAPS = {
    "pap-16-512x1": (19.5, 18.0),
    "gap-16": (10.0, 17.0),
}


#: (BHT entries, ways, context switches) -> cap on the LRU replay's peak
#: in bytes per conditional record.
LRU_CAPS = {
    (256, 4, True): 38.0,
    (512, 4, False): 38.0,
}


@pytest.fixture(scope="module")
def trace():
    return all_workloads()["gcc"].generate("testing", scale=1)


def _readings(scheme, trace):
    """``(held, scan peak)`` of whole-trace calls, in B/record."""
    arrays = trace.as_arrays()
    n = int(np.count_nonzero(arrays.cond_mask))
    assert n >= 200_000
    # A first call outside the measurement imports what the kernels
    # import lazily; then the memo and the cached site ids start empty.
    simulate(make_predictor(scheme), trace, track_per_site=True, backend="vectorized")
    kernels._LAYOUT_MEMO.clear()
    arrays._sites = arrays._site_ids = None
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        first = simulate(make_predictor(scheme), trace, track_per_site=True,
                         backend="vectorized")
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        second = simulate(make_predictor(scheme), trace, track_per_site=True,
                          backend="vectorized")
        peak = tracemalloc.get_traced_memory()[1] - base - held
    finally:
        tracemalloc.stop()
        kernels._LAYOUT_MEMO.clear()
    assert first == second
    return held / n, peak / n


@pytest.mark.parametrize("scheme", sorted(CAPS))
def test_whole_trace_working_set_per_record(scheme, trace):
    held, peak = _readings(scheme, trace)
    held_cap, peak_cap = CAPS[scheme]
    over = [f"{what} {value:.1f} B/record > {cap}"
            for what, value, cap in (("memo", held, held_cap), ("scan", peak, peak_cap))
            if value > cap]
    assert not over, ", ".join(over)


@pytest.mark.parametrize("entries, ways, cs", sorted(LRU_CAPS),
                         ids=lambda value: str(value))
def test_lru_replay_working_set_per_record(entries, ways, cs, trace):
    switches = ContextSwitchConfig() if cs else None
    bht = CacheBHT(entries, ways)
    # A first replay outside the measurement; the measured run gathers
    # its pcs afresh.
    kernels._residency_words(kernels._Run(trace, switches, False, 0), bht)
    run = kernels._Run(trace, switches, False, 0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        words = kernels._residency_words(run, bht)
        peak = (tracemalloc.get_traced_memory()[1] - base) / run.n_c
    finally:
        tracemalloc.stop()
    assert words.shape == (run.n_c,)
    cap = LRU_CAPS[entries, ways, cs]
    assert peak <= cap, f"LRU replay {peak:.1f} B/record > {cap}"


def test_record_indices_are_int32(trace):
    arrays = trace.as_arrays()
    assert arrays.conditional_site_ids()[1].dtype == np.int32
    cs = ContextSwitchConfig()
    kernels._LAYOUT_MEMO.clear()
    runs = [kernels._Run(trace, cs, False, 0, memo=True),
            kernels._Run(trace, cs, False, 0, final=False),
            kernels._Run(trace, None, False, 0)]
    kernels._LAYOUT_MEMO.clear()
    assert runs[0].memo is not None and runs[0].switches > 0
    assert all(run.seg_c.dtype == np.int32 for run in runs)
    wide = kernels._Run(trace, cs, False, 0, fires_base=(1 << 31) - 1, final=False)
    assert wide.seg_c.dtype == np.int64 and wide.fires_end >= 1 << 31
    assert np.array_equal(wide.seg_c, runs[1].seg_c.astype(np.int64) + (1 << 31) - 1)
    run = kernels._Run(trace, None, True, 0)
    orders = [kernels._build_layout(run, bht, None).order
              for bht in (IdealBHT(), CacheBHT(512, 1), CacheBHT(512, 4))]
    assert all(order.dtype == np.int32 and order.shape == (run.n_c,) for order in orders)
    keys = arrays.pc[arrays.cond_mask] % 4096
    for base in (None, orders[-1]):
        order, _grp_new, _key_s, _out_s = kernels._group_sort(keys.copy(), run.out_u8, base)
        assert order.dtype == np.int32


def test_narrow_working_set_dtypes(trace):
    """Memo windows by history length, registers in the window's dtype,
    int32 run starts and mispredicted positions, int32 orders off
    ``uint32`` words, and intp argsorts."""
    kernels._LAYOUT_MEMO.clear()
    try:
        run = kernels._Run(trace, None, True, 0, memo=True)
        layout = kernels._pa_layout(run, CacheBHT(512, 1), None)
        for k, dtype in ((4, np.uint8), (12, np.uint16), (16, np.uint16), (18, np.int32)):
            patterns = kernels._pa_patterns(run, layout, k, None)
            assert patterns.dtype == dtype
            assert run.memo.windows[layout].dtype == dtype
            ghr, _carry = kernels._global_history(run, k, (1 << k) - 1, None)
            assert ghr.dtype == dtype == run.memo.windows[None].dtype
        ops = kernels.automaton_ops(make_predictor("pag-4").automaton)
        keys = kernels._pa_patterns(run, layout, 4, None)
        order, grp_new, _key_s, out_s = kernels._group_sort(keys, layout.out_s, layout.order,
                                                            need_keys=False)
        # 4 pattern bits + 19 index bits + 1: a uint32 word, whose
        # masked value is the int32 order itself.
        assert order.dtype == np.int32 and order.base is not None
        runs = kernels._find_runs(out_s, grp_new, ops)
        assert runs.first.dtype == runs.length.dtype == np.int32
        assert runs.lcap.dtype == runs.out.dtype == runs.state0.dtype == np.uint8
        assert kernels._run_wrong_positions(runs, ops).dtype == np.int32
        assert kernels._stable_argsort(layout.m).dtype == np.intp
    finally:
        kernels._LAYOUT_MEMO.clear()
