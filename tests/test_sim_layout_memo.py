"""The first-level layout memo of :mod:`repro.sim.kernels`.

Every whole-trace kernel call takes its ideal, direct-mapped or
set-associative BHT layout from a one-trace memo that belongs to the
trace's cached ``TraceArrays``: it is keyed by the geometry and the
context-switch model, holds the arrays only weakly, and serves separate
``simulate`` / ``run_case`` calls and matrices alike. These tests require
a memo-served layout to equal a fresh build array for array (hypothesis,
over random traces, first levels and context-switch models), the schemes
that read it to return the interpreted engine's results, its arrays to be
read-only, reuse across calls, one build per first level in a sweep, at
most one trace's layouts alive, their release when the trace is
collected, streamed and carried calls to bypass it, and concurrent calls
to stay correct.

Behind the memo, each live trace keeps one residency word per
conditional record for every set-associative first level it was replayed
at. These tests also require the words to decode to
:func:`~repro.sim.kernels._lru_metadata`'s output and the layout rebuilt
from them to equal a fresh build (hypothesis, with BHTs on both sides of
the ``uint16`` bound), one LRU replay per trace, geometry and
context-switch model across matrices, read-only words released with the
trace, streamed and carried calls that neither read nor fill them, and a
traced sweep's ``layout`` spans to name where each layout came from.

The example budget comes from the hypothesis profile named by
``HYPOTHESIS_PROFILE`` (see ``conftest.py``).
"""

import gc
import multiprocessing
import os
import sys
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.automata import A2
from repro.core.history import CacheBHT, IdealBHT
from repro.core.twolevel import make_pag, make_pap
from repro.obs.spans import recording
from repro.predictors.btb import BTBPredictor
from repro.predictors.registry import make_predictor
from repro.sim import ContextSwitchConfig, kernels, simulate
from repro.sim.parallel import spec
from repro.sim.runner import BenchmarkCase, run_case, run_matrix
from repro.trace import synthetic
from repro.trace.events import BranchClass, Trace, TraceMeta

PROFILE = settings(
    settings.get_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1")),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

MEMO = kernels._LAYOUT_MEMO
SWITCHES = ContextSwitchConfig(interval=40, switch_on_traps=True)


@pytest.fixture(autouse=True)
def _empty_memo():
    """Start every test from an empty memo (other tests leave theirs)."""
    MEMO.clear()


def _random_trace(rng, n, pool, name="memo"):
    """``n`` records over ``pool``'s pcs, with calls, traps and a clock."""
    pcs, taken, cls, instret, trap = [], [], [], [], []
    clock = 0
    for i in range(n):
        clock += int(rng.choice((1, 1, 2, 5)))
        call = rng.random() < 0.1
        pcs.append(10_000 + i if call else int(rng.choice(pool)))
        taken.append(call or bool(rng.random() < 0.5))
        cls.append(int(BranchClass.CALL if call else BranchClass.CONDITIONAL))
        instret.append(clock)
        trap.append(bool(rng.random() < 0.01))
    return Trace(meta=TraceMeta(name=name), pc=pcs, taken=taken, cls=cls,
                 target=[0] * n, instret=instret, trap=trap)


def _trace(seed, n=3000, pcs=300, name="memo"):
    rng = np.random.default_rng(seed)
    return _random_trace(rng, n, list(range(pcs)), name)


def _layouts_equal(got, want):
    for name in kernels._Layout.__slots__:
        a, b = getattr(got, name), getattr(want, name)
        if a is None or b is None:
            assert a is None and b is None, name
        elif isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        else:
            assert a == b, name


def _bht(sets, ways):
    """An ideal BHT for ``sets=None``, else ``sets`` x ``ways``."""
    return IdealBHT() if sets is None else CacheBHT(sets * ways, ways)


def _count_builds(monkeypatch):
    """Record the BHT of every memo miss (a fresh layout, built or
    rebuilt from residency words)."""
    calls = []
    original = kernels._whole_layout
    monkeypatch.setattr(kernels, "_whole_layout",
                        lambda *args: calls.append(args[1]) or original(*args))
    return calls


@st.composite
def memo_cases(draw):
    """A trace and a sequence of ``(num_sets, assoc, cs)`` lookups over
    the ideal BHT (``num_sets`` None), 1-64 direct-mapped sets and 1-64
    sets x 2-8 ways. Each field comes from a short drawn list, so
    lookups repeat and keys differing in one field only are common."""
    n = draw(st.integers(1, 400))
    pool = draw(st.lists(st.integers(0, 511), min_size=1, max_size=80, unique=True))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    trace = _random_trace(np.random.default_rng(seed), n, pool)
    sets = draw(st.lists(st.one_of(st.none(), st.integers(1, 64)), min_size=1, max_size=3))
    ways = draw(st.lists(st.integers(1, 8), min_size=1, max_size=2))
    switches = (None, SWITCHES, ContextSwitchConfig(7, False))
    lookup = st.tuples(st.sampled_from(sets), st.sampled_from(ways), st.sampled_from(switches))
    return trace, draw(st.lists(lookup, min_size=1, max_size=8))


@PROFILE
@given(case=memo_cases())
def test_memo_served_layout_equals_fresh_build(case):
    trace, lookups = case
    for num_sets, assoc, cs in lookups:
        bht = _bht(num_sets, assoc)
        run = kernels._Run(trace, cs, False, 0)
        if run.n_c == 0:
            continue
        served = kernels._pa_layout(run, bht, None)
        assert served is kernels._pa_layout(kernels._Run(trace, cs, False, 0), bht, None)
        _layouts_equal(served, kernels._build_layout(run, bht, None))
    if MEMO.current is not None:
        assert MEMO.current[0]() is trace.as_arrays()


def _shared_first_level(entries, ways):
    return {
        "pag": lambda: make_pag(6, A2, entries, ways),
        "pap": lambda: make_pap(4, A2, entries, ways),
        "psg": lambda: make_predictor(
            "psg-6-" + ("ideal" if entries is None else f"{entries}x{ways}"),
            _trace(9, n=2000, name="train")),
        "btb": lambda: BTBPredictor(entries, ways, A2),
    }


@pytest.mark.parametrize("context_switches", [None, SWITCHES], ids=["nocs", "cs"])
def test_schemes_sharing_a_geometry_are_unchanged_by_the_memo(context_switches, monkeypatch):
    """PAg, PAp, PSg and the BTB read one memoized layout per first level
    (the BTB only for a practical BHT: it has no ideal form) and still
    return the interpreted engine's results."""
    trace = _trace(1)
    calls = _count_builds(monkeypatch)
    for entries, ways in ((None, 1), (64, 1), (64, 4)):
        schemes = _shared_first_level(entries, ways)
        if entries is None:
            del schemes["btb"]
        expected = {name: simulate(make(), trace, context_switches=context_switches,
                                   backend="python")
                    for name, make in schemes.items()}
        predictors = {name: make() for name, make in schemes.items()}
        del calls[:]
        got = {name: simulate(predictor, trace, context_switches=context_switches,
                              backend="vectorized")
               for name, predictor in predictors.items()}
        assert got == expected
        assert len(calls) == 1


def test_memoized_layout_arrays_are_read_only():
    trace = _trace(2)
    for bht in (IdealBHT(), CacheBHT(64, 1), CacheBHT(64 * 4, 4)):
        layout = kernels._pa_layout(kernels._Run(trace, None, False, 0), bht, None)
        arrays = {name: getattr(layout, name) for name in kernels._Layout.__slots__
                  if isinstance(getattr(layout, name), np.ndarray)}
        assert set(arrays) == {"order", "out_s", "ep_new", "m", "blk_new", "evict"}
        for name, array in arrays.items():
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]


def test_reused_across_separate_simulate_and_run_case_calls(monkeypatch):
    trace = _trace(3)
    case = BenchmarkCase("memo", "int", trace, None)
    expected = [simulate(make_predictor(name), trace, backend="python")
                for name in ("pag-6-64x4", "pap-4-64x4", "pag-6-ideal", "pap-4-ideal")]
    calls = _count_builds(monkeypatch)
    got = [
        simulate(make_pag(6, A2, 64, 4), trace, backend="vectorized"),
        run_case(spec("pap-4-64x4"), case, backend="vectorized"),
        simulate(make_pag(6, A2, None), trace, backend="vectorized"),
        run_case(spec("pap-4-ideal"), case, backend="vectorized"),
    ]
    assert got == expected
    assert len(calls) == 2


def test_a_sweep_builds_one_layout_per_first_level(monkeypatch):
    """PAg/PAp x {ideal, 512x1} x 4 history lengths, each its own
    ``run_case`` call on one trace with per-site tracking: two builds."""
    case = BenchmarkCase("memo", "int", _trace(4, n=4000), None)
    calls = _count_builds(monkeypatch)
    for bits in (4, 8, 12, 16):
        for scheme in ("pag", "pap"):
            for bht in ("ideal", "512x1"):
                run_case(spec(f"{scheme}-{bits}-{bht}"), case, track_per_site=True,
                         backend="vectorized")
    assert [type(bht).__name__ for bht in calls] == ["IdealBHT", "CacheBHT"]


def test_holds_one_traces_layouts_at_most():
    first, second = _trace(6), _trace(7)
    for entries in (64 * 4, 32 * 4):
        simulate(make_pag(6, A2, entries, 4), first, backend="vectorized")
    simulate(make_pag(6, A2, 64 * 4, 4), first, context_switches=SWITCHES,
             backend="vectorized")
    simulate(make_pag(6, A2, None), first, backend="vectorized")
    simulate(make_pag(6, A2, 64, 1), first, backend="vectorized")
    ref, memo = MEMO.current
    assert ref() is first.as_arrays()
    assert set(memo.layouts) == {(64, 4, None), (32, 4, None), (64, 4, (40, True)),
                                 (None, None, None), (64, 1, None)}
    simulate(make_pag(6, A2, 64 * 4, 4), second, backend="vectorized")
    ref, memo = MEMO.current
    assert ref() is second.as_arrays()
    assert list(memo.layouts) == [(64, 4, None)]


def test_released_when_the_trace_is_collected():
    trace = _trace(8)
    simulate(make_pap(4, A2, None), trace, backend="vectorized")
    assert MEMO.current is not None
    del trace
    gc.collect()
    assert MEMO.current is None


@pytest.mark.parametrize("records", [600, 5000])
def test_streamed_calls_never_read_or_fill_the_memo(records, monkeypatch):
    trace = _trace(5, n=records)
    expected = simulate(make_pap(4, A2, 64, 4), trace, context_switches=SWITCHES,
                        backend="python")
    lookups = []
    original = kernels._LayoutMemo.layout
    monkeypatch.setattr(kernels._LayoutMemo, "layout",
                        lambda self, *args: lookups.append(1) or original(self, *args))
    for entries, ways in ((64, 4), (None, 1), (64, 1)):
        streamed = simulate(make_pap(4, A2, entries, ways), trace,
                            context_switches=SWITCHES, backend="vectorized",
                            block_size=997)
        assert MEMO.current is None
        if ways == 4:
            assert streamed == expected
    assert lookups == []


def test_carried_and_non_final_calls_bypass_the_memo():
    trace = _trace(9)
    bht = CacheBHT(64 * 4, 4)
    open_block = kernels._Run(trace, None, False, 0, final=False)
    layout = kernels._pa_layout(open_block, bht, None)
    assert MEMO.current is None
    assert layout.order.flags.writeable
    carry = kernels._slot_carry(open_block, layout, None)
    resumed = kernels._pa_layout(kernels._Run(trace, None, False, 0), bht, carry)
    assert MEMO.current is None
    assert resumed.order.flags.writeable


# ----------------------------------------------------------------------
# Residency words
# ----------------------------------------------------------------------

@st.composite
def word_cases(draw):
    """A trace over pcs up to ``2**16`` and a set-associative geometry:
    1-64 sets, or 4096 / 8192 sets (at and past the ``uint16`` word's
    ``2**14`` entries), x 2-8 ways, with or without context switches."""
    n = draw(st.integers(1, 400))
    pool = draw(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=80, unique=True))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    trace = _random_trace(np.random.default_rng(seed), n, pool)
    sets = draw(st.one_of(st.integers(1, 64), st.sampled_from((4096, 8192))))
    ways = draw(st.integers(2, 8))
    cs = draw(st.sampled_from((None, SWITCHES, ContextSwitchConfig(7, False))))
    return trace, sets, ways, cs


@PROFILE
@given(case=word_cases())
def test_layout_rebuilt_from_words_equals_fresh_build(case):
    trace, sets, ways, cs = case
    bht = CacheBHT(sets * ways, ways)
    run = kernels._Run(trace, cs, False, 0)
    if run.n_c == 0:
        return
    first, source = MEMO.layout(run, bht)
    assert source == "replay"
    words = trace.as_arrays().residency[(sets, ways, run.cs)]
    assert words.dtype == (np.uint16 if sets * ways <= 1 << 14 else np.uint32)
    order1, miss, evict, slot = kernels._lru_metadata(
        lambda: kernels._gathered_pcs(run), run.seg_c, sets, ways, None)
    assert np.array_equal(words[order1] >> 2, slot)
    assert np.array_equal((words[order1] >> 1) & 1, miss)
    assert np.array_equal(words[order1] & 1, evict)
    MEMO.clear()
    rebuilt, source = MEMO.layout(kernels._Run(trace, cs, False, 0), bht)
    assert source == "words"
    fresh = kernels._build_layout(run, bht, None)
    _layouts_equal(first, fresh)
    _layouts_equal(rebuilt, fresh)


def _count_replays(monkeypatch):
    """Record ``(pcs, num_sets, associativity, flush segments)`` per LRU
    replay, the pcs and segments as bytes."""
    calls = []
    original = kernels._lru_metadata

    def counted(pcs, seg_c, num_sets, assoc, carry):
        pcs = pcs()
        calls.append((pcs.tobytes(), num_sets, assoc, seg_c.tobytes()))
        return original(lambda: pcs, seg_c, num_sets, assoc, carry)

    monkeypatch.setattr(kernels, "_lru_metadata", counted)
    return calls


WORD_SCHEMES = ("pag-6-64x4", "pap-4-64x4", "btb-a2", "pag-4-32x2", "pag-6-ideal",
                "pap-4-64x1")


def test_matrices_replay_each_lru_once_per_trace(monkeypatch):
    """Two matrices over the same cases, with another trace simulated
    between them, replay each (trace, geometry, cs) once."""
    cases = [BenchmarkCase(f"w{seed}", "int", _trace(seed, n=1500), None)
             for seed in (30, 31)]
    builders = {name: spec(name) for name in WORD_SCHEMES}
    calls = _count_replays(monkeypatch)
    first = run_matrix(builders, cases)
    switched = run_matrix(builders, cases, context_switches=SWITCHES)
    other = _trace(32)
    simulate(make_pag(6, A2, 64, 4), other, backend="vectorized")
    assert MEMO.current[0]() is other.as_arrays()
    assert run_matrix(builders, cases) == first
    assert run_matrix(builders, cases, context_switches=SWITCHES) == switched
    assert first == run_matrix(builders, cases, backend="python")
    # Three set-associative geometries (btb-a2 is 512x4) x two cs models
    # x two cases, plus the other trace's one.
    assert len(calls) == len(set(calls)) == 3 * 2 * 2 + 1


def test_words_are_read_only_and_released_with_the_trace():
    trace = _trace(33)
    for cs in (None, SWITCHES):
        simulate(make_pap(4, A2, 64, 4), trace, context_switches=cs, backend="vectorized")
    residency = trace.as_arrays().residency
    assert set(residency) == {(16, 4, None), (16, 4, (40, True))}
    refs = []
    for words in residency.values():
        assert words.dtype == np.uint16
        with pytest.raises(ValueError, match="read-only"):
            words[0] = words[0]
        refs.append(weakref.ref(words))
    del words, residency, trace
    gc.collect()
    assert MEMO.current is None
    assert [ref() for ref in refs] == [None, None]


def test_streamed_and_carried_calls_neither_read_nor_fill_the_words(monkeypatch):
    trace = _trace(34, n=5000)
    bht = CacheBHT(64, 4)
    key = (16, 4, (40, True))
    expected = simulate(make_pap(4, A2, 64, 4), trace, context_switches=SWITCHES,
                        backend="python")
    touched = []
    for name in ("_residency_words", "_words_layout"):
        original = getattr(kernels, name)
        monkeypatch.setattr(kernels, name,
                            lambda *args, _f=original, _n=name: touched.append(_n) or _f(*args))
    streamed = simulate(make_pap(4, A2, 64, 4), trace, context_switches=SWITCHES,
                        backend="vectorized", block_size=997)
    assert streamed == expected
    open_block = kernels._Run(trace, SWITCHES, False, 0, final=False)
    carry = kernels._slot_carry(open_block, kernels._pa_layout(open_block, bht, None), None)
    kernels._pa_layout(kernels._Run(trace, SWITCHES, False, 0), bht, carry)
    assert touched == []
    assert trace.as_arrays().residency == {}
    # With the words present, the same calls still leave them unread.
    assert simulate(make_pap(4, A2, 64, 4), trace, context_switches=SWITCHES,
                    backend="vectorized") == expected
    assert touched == ["_residency_words", "_words_layout"]
    words = trace.as_arrays().residency[key]
    MEMO.clear()
    del touched[:]
    assert simulate(make_pap(4, A2, 64, 4), trace, context_switches=SWITCHES,
                    backend="vectorized", block_size=997) == expected
    kernels._pa_layout(kernels._Run(trace, SWITCHES, False, 0), bht, carry)
    assert touched == []
    assert trace.as_arrays().residency == {key: words}


def test_a_traced_pair_of_sweeps_replays_each_key_once():
    """One ``layout`` span per call; the second sweep rebuilds each
    set-associative layout from words and replays nothing."""
    cases = [BenchmarkCase(f"s{seed}", "int", _trace(seed, n=1500), None)
             for seed in (35, 36)]
    builders = {name: spec(name) for name in WORD_SCHEMES}
    with recording() as recorder:
        first = run_matrix(builders, cases)
        second = run_matrix(builders, cases)
    assert second == first
    sources = Counter(span.args["source"] for span in recorder.spans
                      if span.name == "layout")
    # Per sweep and case: three set-associative geometries, two others.
    assert sources == {"replay": 3 * 2, "words": 3 * 2, "build": 2 * 2 * 2,
                       "memo": 2 * 2 * (len(WORD_SCHEMES) - 5)}


def _cases():
    return [
        BenchmarkCase(name, "int", synthetic.loop_trace(iterations=150, trip_count=trip,
                                                         name=name), None)
        for name, trip in (("a", 3), ("b", 5))
    ]


class TestMemoScope:
    def test_serves_calls_outside_a_matrix_and_matrices_alike(self, monkeypatch):
        calls = _count_builds(monkeypatch)
        cases = _cases()
        simulate(make_pag(6, A2, 64, 4), cases[0].test_trace, backend="vectorized")
        assert len(calls) == 1
        run_matrix({"pag": lambda _training: make_pag(6, A2, 64, 4),
                    "pap": spec("pap-4-64x4")}, cases)
        # The first case's layout was already memoized; the second
        # case's is built once for both schemes.
        assert len(calls) == 2
        assert MEMO.current[0]() is cases[1].test_trace.as_arrays()
        del cases
        gc.collect()
        assert MEMO.current is None

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_empty_after_a_builder_raises(self, n_workers):
        """A failed matrix leaves no layouts behind once its traces go."""
        built = []

        def builder(training):
            built.append(training)
            if len(built) == 2:
                raise RuntimeError("builder failed")
            return make_pag(6, A2, 64, 4)

        with pytest.raises(RuntimeError, match="builder failed"):
            run_matrix({"pag": spec("pag-6-512x4"), "boom": builder}, _cases(),
                       n_workers=n_workers)
        gc.collect()
        assert MEMO.current is None

    def test_empty_after_a_worker_raises(self):
        with pytest.raises(Exception, match="unknown predictor"):
            run_matrix({"pag": spec("pag-6-512x4"), "bad": spec("no-such-scheme")},
                       _cases(), n_workers=2)
        gc.collect()
        assert MEMO.current is None

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_pool_workers_run_cells_under_the_memo(self, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        builders = {name: spec(name) for name in ("pag-6-512x4", "pap-4-512x4",
                                                  "pag-6-ideal", "pap-4-512x1")}
        serial = run_matrix(builders, _cases())
        previous = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method(method, force=True)
        try:
            pooled = run_matrix(builders, _cases(), n_workers=2)
        finally:
            multiprocessing.set_start_method(previous, force=True)
        assert pooled == serial
        assert pooled == run_matrix(builders, _cases(), backend="python")

    def test_concurrent_matrices_in_threads(self):
        """More threads than cores with a short switch interval: matrices
        and direct calls over different traces share one memo, and none
        may see another trace's layouts or inputs."""
        cases = [BenchmarkCase(f"t{seed}", "int", _trace(seed, n=2000), None)
                 for seed in range(10, 16)]
        builders = {name: spec(name) for name in ("pag-6-64x4", "pap-4-64x4", "btb-a2",
                                                  "pag-6-ideal", "pap-4-64x1", "gag-8")}
        expected = [run_matrix(builders, [case], backend="python") for case in cases]

        def churn(seed):
            trace = _trace(seed, n=500)
            want = simulate(make_pap(4, A2, None), trace, backend="python")
            for _ in range(20):
                assert simulate(make_pap(4, A2, None), trace, backend="vectorized") == want

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                churned = pool.map(churn, range(20, 24), timeout=120)
                got = list(pool.map(lambda case: run_matrix(builders, [case]),
                                    cases * 3, timeout=120))
                list(churned)
        finally:
            sys.setswitchinterval(interval)
        assert got == expected * 3
        if MEMO.current is not None:
            live = MEMO.current[0]()
            assert any(live is case.test_trace.as_arrays() for case in cases)
