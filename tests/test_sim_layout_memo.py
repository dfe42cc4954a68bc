"""The first-level layout memo of :mod:`repro.sim.kernels`.

While :func:`repro.sim.parallel.execute_matrix` runs its cells, whole-trace
set-associative layouts come from a one-trace memo keyed by the trace's
cached ``TraceArrays``, the geometry and the context-switch model. These
tests require a memo-served layout to equal a fresh build array for array
(hypothesis, over random traces, geometries and context-switch models), the
schemes that read it to return ``==`` results inside and outside the memo,
its arrays to be read-only, the memo to exist only inside a matrix, streamed
calls to bypass it, and at most one trace's layouts to be alive.

The example budget comes from the hypothesis profile named by
``HYPOTHESIS_PROFILE`` (see ``conftest.py``).
"""

import multiprocessing
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.automata import A2
from repro.core.history import CacheBHT
from repro.core.twolevel import make_pag, make_pap
from repro.predictors.btb import BTBPredictor
from repro.predictors.registry import make_predictor
from repro.sim import ContextSwitchConfig, kernels, simulate
from repro.sim.parallel import spec
from repro.sim.runner import BenchmarkCase, run_matrix
from repro.trace import synthetic
from repro.trace.events import BranchClass, Trace, TraceMeta

from .memo_probe import MemoProbe

PROFILE = settings(
    settings.get_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1")),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

MEMO = kernels._LAYOUT_MEMO
SWITCHES = ContextSwitchConfig(interval=40, switch_on_traps=True)


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


@st.composite
def memo_cases(draw):
    """A trace and a sequence of ``(num_sets, assoc, cs)`` lookups at
    1-64 sets x 2-8 ways. Each field comes from a short drawn list, so
    lookups repeat and keys differing in one field only are common."""
    n = draw(st.integers(1, 400))
    pool = draw(st.lists(st.integers(0, 511), min_size=1, max_size=80, unique=True))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    trace = _random_trace(np.random.default_rng(seed), n, pool)
    sets = draw(st.lists(st.integers(1, 64), min_size=1, max_size=2))
    ways = draw(st.lists(st.integers(2, 8), min_size=1, max_size=2))
    switches = (None, SWITCHES, ContextSwitchConfig(7, False))
    lookup = st.tuples(st.sampled_from(sets), st.sampled_from(ways), st.sampled_from(switches))
    return trace, draw(st.lists(lookup, min_size=1, max_size=8))


@PROFILE
@given(case=memo_cases())
def test_memo_served_layout_equals_fresh_build(case):
    trace, lookups = case
    with kernels._layout_memo():
        for num_sets, assoc, cs in lookups:
            bht = CacheBHT(num_sets * assoc, assoc)
            run = kernels._Run(trace, cs, False, 0)
            if run.n_c == 0:
                continue
            served = kernels._pa_layout(run, bht, None)
            assert served is kernels._pa_layout(kernels._Run(trace, cs, False, 0), bht, None)
            _layouts_equal(served, kernels._assoc_layout(run, bht, None))
    assert MEMO.depth == 0 and MEMO.current is None


SHARED_GEOMETRY = {
    "pag": lambda: make_pag(6, A2, 64, 4),
    "pap": lambda: make_pap(4, A2, 64, 4),
    "psg": lambda: make_predictor("psg-6-64x4", _trace(9, n=2000, name="train")),
    "btb": lambda: BTBPredictor(64, 4, A2),
}


@pytest.mark.parametrize("context_switches", [None, SWITCHES], ids=["nocs", "cs"])
def test_schemes_sharing_a_geometry_are_unchanged_by_the_memo(context_switches, monkeypatch):
    trace = _trace(1)
    options = dict(context_switches=context_switches, backend="vectorized")
    outside = {name: simulate(make(), trace, **options)
               for name, make in SHARED_GEOMETRY.items()}
    calls = []
    original = kernels._lru_metadata
    monkeypatch.setattr(kernels, "_lru_metadata",
                        lambda *args: calls.append(1) or original(*args))
    with kernels._layout_memo():
        inside = {name: simulate(make(), trace, **options)
                  for name, make in SHARED_GEOMETRY.items()}
    assert inside == outside
    assert len(calls) == 1


def test_memoized_layout_arrays_are_read_only():
    trace = _trace(2)
    bht = CacheBHT(64 * 4, 4)
    with kernels._layout_memo():
        layout = kernels._pa_layout(kernels._Run(trace, None, False, 0), bht, None)
        arrays = {name: getattr(layout, name) for name in kernels._Layout.__slots__
                  if isinstance(getattr(layout, name), np.ndarray)}
        assert set(arrays) == {"order", "out_s", "ep_new", "ep_start", "m", "blk_new",
                               "evict"}
        for name, array in arrays.items():
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]


def _cases():
    return [
        BenchmarkCase(name, "int", synthetic.loop_trace(iterations=150, trip_count=trip,
                                                         name=name), None)
        for name, trip in (("a", 3), ("b", 5))
    ]


class TestMemoScope:
    def test_off_outside_a_matrix_and_empty_after_it(self):
        depths = []

        def builder(_training):
            depths.append(MEMO.depth)
            return make_pag(6, A2, 64, 4)

        assert MEMO.depth == 0 and MEMO.current is None
        trace = _trace(3)
        simulate(make_pag(6, A2, 64, 4), trace, backend="vectorized")
        assert MEMO.current is None
        run_matrix({"pag": builder, "pap": spec("pap-4-512x4")}, _cases())
        assert depths == [1, 1]
        assert MEMO.depth == 0 and MEMO.current is None

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_empty_after_a_builder_raises(self, n_workers):
        built = []

        def builder(training):
            built.append(training)
            if len(built) == 2:
                raise RuntimeError("builder failed")
            return make_pag(6, A2, 64, 4)

        with pytest.raises(RuntimeError, match="builder failed"):
            run_matrix({"pag": spec("pag-6-512x4"), "boom": builder}, _cases(),
                       n_workers=n_workers)
        assert MEMO.depth == 0 and MEMO.current is None

    def test_empty_after_a_worker_raises(self):
        with pytest.raises(Exception, match="unknown predictor"):
            run_matrix({"pag": spec("pag-6-512x4"), "bad": spec("no-such-scheme")},
                       _cases(), n_workers=2)
        assert MEMO.depth == 0 and MEMO.current is None

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_pool_workers_run_cells_under_the_memo(self, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        builders = {name: MemoProbe(name) for name in ("pag-6-512x4", "pap-4-512x4")}
        serial = run_matrix(builders, _cases())
        previous = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method(method, force=True)
        try:
            pooled = run_matrix(builders, _cases(), n_workers=2)
        finally:
            multiprocessing.set_start_method(previous, force=True)
        assert pooled == serial

    def test_concurrent_matrices_in_threads(self):
        """More threads than cores with a short switch interval: matrices
        over different traces must not see each other's layouts, and a
        lost update of the scope count would leave the memo on."""
        cases = [BenchmarkCase(f"t{seed}", "int", _trace(seed, n=2000), None)
                 for seed in range(10, 16)]
        builders = {name: spec(name) for name in ("pag-6-64x4", "pap-4-64x4", "btb-a2")}
        expected = [run_matrix(builders, [case]) for case in cases]

        def churn(_):
            for _ in range(3000):
                with kernels._layout_memo():
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                churned = pool.map(churn, range(4), timeout=120)
                got = list(pool.map(lambda case: run_matrix(builders, [case]),
                                    cases * 3, timeout=120))
                list(churned)
        finally:
            sys.setswitchinterval(interval)
        assert got == expected * 3
        assert MEMO.depth == 0 and MEMO.current is None

    def test_nested_scopes_empty_only_at_the_outermost(self):
        trace = _trace(4)
        with kernels._layout_memo():
            with kernels._layout_memo():
                simulate(make_pag(6, A2, 64, 4), trace, backend="vectorized")
            assert MEMO.depth == 1 and MEMO.current is not None
        assert MEMO.depth == 0 and MEMO.current is None


@pytest.mark.parametrize("records", [600, 5000])
def test_streamed_calls_never_read_or_fill_the_memo(records, monkeypatch):
    trace = _trace(5, n=records)
    expected = simulate(make_pap(4, A2, 64, 4), trace, context_switches=SWITCHES,
                        backend="vectorized")
    lookups = []
    original = kernels._LayoutMemo.layout
    monkeypatch.setattr(kernels._LayoutMemo, "layout",
                        lambda self, *args: lookups.append(1) or original(self, *args))
    with kernels._layout_memo():
        streamed = simulate(make_pap(4, A2, 64, 4), trace, context_switches=SWITCHES,
                            backend="vectorized", block_size=997)
        assert MEMO.current is None
    assert streamed == expected
    assert lookups == []


def test_holds_one_traces_layouts_at_most():
    first, second = _trace(6), _trace(7)
    with kernels._layout_memo():
        for entries in (64 * 4, 32 * 4):
            simulate(make_pag(6, A2, entries, 4), first, backend="vectorized")
        simulate(make_pag(6, A2, 64 * 4, 4), first, context_switches=SWITCHES,
                 backend="vectorized")
        arrays, layouts = MEMO.current
        assert arrays is first.as_arrays()
        assert set(layouts) == {(64, 4, None), (32, 4, None), (64, 4, (40, True))}
        simulate(make_pag(6, A2, 64 * 4, 4), second, backend="vectorized")
        arrays, layouts = MEMO.current
        assert arrays is second.as_arrays()
        assert list(layouts) == [(64, 4, None)]
        # Ideal and direct-mapped first levels are never memoized.
        simulate(make_pag(6, A2, None), second, backend="vectorized")
        simulate(make_pag(6, A2, 64, 1), second, backend="vectorized")
        assert list(MEMO.current[1]) == [(64, 4, None)]
