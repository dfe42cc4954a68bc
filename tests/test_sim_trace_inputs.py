"""The scheme-independent kernel inputs memoized per trace.

A whole-trace kernel call (:func:`repro.sim.kernels._kernel_blocks` with
one final block) takes more than its first-level layout from the trace's
memo: its run's columns (outcomes and flush segments) per
context-switch model, one outcome window in trace order and one per
memoized layout (as narrow as the longest history asked of it, see
``tests/test_sim_memo_windows.py``), the global register's restart
distances, and the per-site execution tally per warmup. These tests
require the windows, widened as the history grows, to give the
per-length build's global and per-address history patterns
(hypothesis, every history length 1-24, context switches none / on /
traps-off, a per-record register loop as the global oracle),
memo-served columns to equal fresh ones and be
read-only, one column build per trace and context-switch model in a
matrix, the inputs to die with the trace and with ``clear()``, streamed,
carried and training calls to neither read nor fill them, shared
per-site tallies never to leak between results, and the ``inputs`` and
``scan`` spans to say what ran.

The example budget comes from the hypothesis profile named by
``HYPOTHESIS_PROFILE`` (see ``conftest.py``).
"""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.automata import A2
from repro.core.static_training import train_global_presets, train_per_address_presets
from repro.core.twolevel import make_gag, make_pag
from repro.obs.spans import recording
from repro.predictors.registry import make_predictor
from repro.sim import ContextSwitchConfig, kernels, simulate
from repro.sim.parallel import spec
from repro.sim.runner import BenchmarkCase, run_case, run_matrix

from .test_sim_layout_memo import MEMO, PROFILE, SWITCHES, _bht, _random_trace, _trace

CONTEXT_SWITCHES = (None, SWITCHES, ContextSwitchConfig(7, False))

COLUMNS = ("out_bool", "seg_c", "n_c", "switches", "fires_end", "last_epoch")


@pytest.fixture(autouse=True)
def _empty_memo():
    """Start every test from an empty memo (other tests leave theirs)."""
    MEMO.clear()


def _whole_run(trace, cs=None, track_per_site=False, warmup=0):
    """A run as the kernel block loop builds it for a whole trace."""
    return kernels._Run(trace, cs, track_per_site, warmup, memo=True)


def _reference_ghr(run, k, reset):
    """The global register before each conditional record, one record at
    a time: it restarts at ``reset`` wherever the flush segment changes."""
    mask = (1 << k) - 1
    register, segment, patterns = reset, None, []
    for taken, seg in zip(run.out_bool.tolist(), run.seg_c.tolist()):
        if seg != segment:
            register, segment = reset, seg
        patterns.append(register)
        register = ((register << 1) | taken) & mask
    return np.array(patterns, dtype=np.int64)


@st.composite
def input_cases(draw):
    """A trace, a context-switch model and a first level: the ideal BHT,
    1-64 direct-mapped sets or 1-64 sets x 2-8 ways."""
    n = draw(st.integers(1, 300))
    pool = draw(st.lists(st.integers(0, 511), min_size=1, max_size=60, unique=True))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    trace = _random_trace(np.random.default_rng(seed), n, pool)
    sets = draw(st.one_of(st.none(), st.integers(1, 64)))
    ways = draw(st.integers(1, 8))
    return trace, draw(st.sampled_from(CONTEXT_SWITCHES)), _bht(sets, ways)


@PROFILE
@given(case=input_cases())
def test_full_width_windows_equal_the_per_length_build(case):
    trace, cs, bht = case
    MEMO.clear()
    run = _whole_run(trace, cs)
    if run.n_c == 0:
        return
    fresh = kernels._Run(trace, cs, False, 0)
    assert fresh.memo is None
    layout = kernels._pa_layout(run, bht, None)
    fresh_layout = kernels._build_layout(fresh, bht, None)
    for k in range(1, kernels._MAX_HISTORY_BITS + 1):
        for reset in (0, (1 << k) - 1):
            ghr, _carry = kernels._global_history(run, k, reset, None)
            want, _carry = kernels._global_history(fresh, k, reset, None)
            assert np.array_equal(ghr, want)
            assert np.array_equal(ghr, _reference_ghr(fresh, k, reset))
        got = kernels._pa_patterns(run, layout, k, None)
        assert np.array_equal(got, kernels._pa_patterns(fresh, fresh_layout, k, None))
    memo = run.memo
    assert set(memo.windows) == {None, layout}
    assert set(memo.since) == {run.cs}
    for array in (*memo.windows.values(), *memo.since.values()):
        assert not array.flags.writeable
    assert memo.windows[None].dtype == np.int32
    assert memo.since[run.cs].dtype == np.uint8


@pytest.mark.parametrize("cs", CONTEXT_SWITCHES, ids=["nocs", "cs", "traps-off"])
def test_memo_served_columns_equal_fresh_ones_and_are_read_only(cs):
    trace = _trace(40)
    fresh = kernels._Run(trace, cs, False, 0)
    served = _whole_run(trace, cs)
    for name in COLUMNS:
        got, want = getattr(served, name), getattr(fresh, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want), name
            assert not got.flags.writeable, name
        else:
            assert got == want, name
    assert not served.out_u8.flags.writeable
    if cs is None:
        assert served.seg_c.strides == (0,)
    # The pcs are gathered per run, not held by the memo.
    assert np.array_equal(served.pc_c, fresh.pc_c)
    assert all(column is not served.pc_c for column in served.memo.columns[served.cs])
    # A second whole-trace run, scored differently, shares the arrays.
    again = _whole_run(trace, cs, track_per_site=True, warmup=10)
    assert again.memo is served.memo
    assert all(getattr(again, name) is getattr(served, name) for name in ("out_bool", "seg_c"))


def test_only_whole_trace_runs_use_the_memo():
    trace = _trace(41)
    for kwargs in ({"final": False}, {"t0": 3}, {"prev_epoch": 0}, {"fires_base": 2}):
        assert kernels._Run(trace, SWITCHES, False, 0, memo=True, **kwargs).memo is None
    assert kernels._Run(trace, SWITCHES, False, 0).memo is None
    assert MEMO.current is None
    assert _whole_run(trace, SWITCHES).memo is MEMO.current[1]


def _count_column_builds(monkeypatch):
    """Record ``(arrays id, cs)`` for every whole-trace column build."""
    calls = []
    original = kernels._TraceMemo.run_columns

    def counted(self, arrays, context_switches, cs):
        columns, source = original(self, arrays, context_switches, cs)
        if source == "build":
            calls.append((id(arrays), cs))
        return columns, source

    monkeypatch.setattr(kernels._TraceMemo, "run_columns", counted)
    return calls


INPUT_SCHEMES = ("gag-6", "gshare-8", "gap-4", "pag-6-ideal", "pap-4-64x1", "pag-6-64x4",
                 "btb-a2")


def test_a_matrix_builds_each_traces_columns_once(monkeypatch):
    cases = [BenchmarkCase(f"c{seed}", "int", _trace(seed, n=1500), None)
             for seed in (42, 43, 44)]
    builders = {name: spec(name) for name in INPUT_SCHEMES}
    calls = _count_column_builds(monkeypatch)
    plain = run_matrix(builders, cases)
    assert len(calls) == len(set(calls)) == len(cases)
    switched = run_matrix(builders, cases, context_switches=SWITCHES)
    assert len(calls) == len(set(calls)) == 2 * len(cases)
    assert plain == run_matrix(builders, cases, backend="python")
    assert switched == run_matrix(builders, cases, context_switches=SWITCHES,
                                  backend="python")


def test_inputs_die_with_the_trace():
    trace = _trace(45)
    for cs in (None, SWITCHES):
        simulate(make_gag(8, A2), trace, context_switches=cs, track_per_site=True,
                 backend="vectorized")
        simulate(make_pag(6, A2, 64, 4), trace, context_switches=cs, backend="vectorized")
    memo = MEMO.current[1]
    arrays = [*memo.windows.values(), *memo.since.values(),
              *(column for columns in memo.columns.values() for column in columns
                if isinstance(column, np.ndarray) and column.base is None)]
    assert len(memo.windows) == 3 and len(memo.columns) == 2 and memo.seen
    refs = [weakref.ref(array) for array in arrays]
    del arrays, memo, trace
    gc.collect()
    assert MEMO.current is None
    assert all(ref() is None for ref in refs)


def test_clear_drops_the_inputs():
    """What keeps the kernel benchmarks' timed runs cold."""
    trace = _trace(46)
    first = _whole_run(trace)
    simulate(make_pag(6, A2, None), trace, backend="vectorized")
    assert MEMO.current[1] is first.memo and first.memo.windows
    MEMO.clear()
    assert MEMO.current is None
    with recording() as recorder:
        again = _whole_run(trace)
    assert again.memo is not first.memo
    assert again.out_bool is not first.out_bool
    assert again.memo.windows == {} and again.memo.layouts == {}
    assert [span.args["source"] for span in recorder.spans if span.name == "inputs"] == [
        "build"]


def test_streamed_carried_and_training_calls_leave_the_memo_alone(monkeypatch):
    trace = _trace(47, n=4000)
    expected = simulate(make_pag(6, A2, 64, 4), trace, context_switches=SWITCHES,
                        backend="python")

    def streamed_and_training():
        assert simulate(make_pag(6, A2, 64, 4), trace, context_switches=SWITCHES,
                        backend="vectorized", block_size=997) == expected
        simulate(make_gag(8, A2), trace, backend="vectorized", block_size=500)
        train_global_presets(trace, 8)
        train_per_address_presets(trace, 6)
        make_predictor("psg-6-64x4", trace)

    streamed_and_training()
    assert MEMO.current is None
    # With the trace's inputs memoized, the same calls neither read nor
    # add to them.
    assert simulate(make_pag(6, A2, 64, 4), trace, context_switches=SWITCHES,
                    backend="vectorized") == expected
    pair = MEMO.current
    memo = pair[1]
    before = {name: dict(getattr(memo, name)) for name in kernels._TraceMemo.__slots__}
    touched = []
    for name in ("run_columns", "since_restart", "window"):
        original = getattr(kernels._TraceMemo, name)
        monkeypatch.setattr(kernels._TraceMemo, name,
                            lambda self, *args, _f=original, _n=name:
                            touched.append(_n) or _f(self, *args))
    streamed_and_training()
    assert touched == []
    assert MEMO.current is pair
    assert {name: dict(getattr(memo, name)) for name in kernels._TraceMemo.__slots__} == before


def test_shared_site_tallies_never_leak_between_results():
    trace = _trace(48)
    case = BenchmarkCase("tally", "int", trace, None)
    expected = {name: run_case(spec(name), case, track_per_site=True, backend="python")
                for name in ("pag-6-ideal", "gag-8")}
    first = run_case(spec("pag-6-ideal"), case, track_per_site=True, backend="vectorized")
    assert first == expected["pag-6-ideal"]
    for pc in first.per_site_executions:
        first.per_site_executions[pc] += 1000
    first.per_site_executions[-1] = 1
    first.per_site_mispredictions.clear()
    second = run_case(spec("gag-8"), case, track_per_site=True, backend="vectorized")
    assert second == expected["gag-8"]
    assert second.per_site_executions is not first.per_site_executions
    for warmup in (0, 50, 10 ** 6):
        want = simulate(make_gag(8, A2), trace, track_per_site=True, warmup_branches=warmup,
                        backend="python")
        for _ in range(2):
            got = simulate(make_gag(8, A2), trace, track_per_site=True,
                           warmup_branches=warmup, backend="vectorized")
            assert got == want
            got.per_site_executions.clear()
    assert set(MEMO.current[1].seen) == {0, 50, 10 ** 6}


def test_spans_name_the_inputs_source_and_each_scan():
    trace = _trace(49)
    with recording() as recorder:
        simulate(make_gag(8, A2), trace, backend="vectorized")
        simulate(make_pag(6, A2, 64, 4), trace, backend="vectorized")
        simulate(make_pag(6, A2, 64, 4), trace, context_switches=SWITCHES,
                 backend="vectorized")
        simulate(make_gag(8, A2), trace, backend="vectorized", block_size=1000)
    spans = [span for span in recorder.spans if span.name in ("inputs", "scan")]
    assert all(span.cat == "kernel" for span in spans)
    assert [span.args["source"] for span in spans if span.name == "inputs"] == [
        "build", "memo", "build"]
    blocks = -(-len(trace) // 1000)
    assert sum(span.name == "scan" for span in spans) == 3 + blocks
    assert all("source" not in span.args for span in spans if span.name == "scan")
