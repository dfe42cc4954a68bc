"""Equivalence pins for the vectorized fast-path kernels.

The contract under test: for every predictor with a kernel,
:func:`repro.sim.kernels.simulate_vectorized` returns a
:class:`~repro.sim.results.SimulationResult` **bit-identical** to the
interpreted engine — same aggregate counts, same per-site dictionaries,
same context-switch count — across context-switch configurations,
warmup windows and per-site tracking. Schemes without a kernel must
fail loudly under ``backend="vectorized"`` and silently fall back under
``backend="auto"``.
"""

import random

import pytest

from repro.core.automata import A2, LAST_TIME, saturating_counter
from repro.core.twolevel import GAgPredictor, make_pag, make_pap
from repro.predictors.btb import BTBPredictor
from repro.predictors.extensions import GselectPredictor, TournamentPredictor
from repro.predictors.registry import make_predictor, paper_table3_specs
from repro.sim import (
    ContextSwitchConfig,
    KernelUnavailable,
    kernel_supports,
    simulate,
    simulate_vectorized,
    simulate_with_backend,
)
from repro.sim.runner import BenchmarkCase, run_case
from repro.trace.events import BranchClass, TraceBuilder


def synthetic_trace(seed=11, n=12_000, sites=96, name="synth"):
    """A dense mixed trace: biased conditionals, traps, call/return."""
    rng = random.Random(seed)
    builder = TraceBuilder(name=name, dataset="unit", source="synthetic")
    pcs = [0x40_0000 + 8 * i for i in range(sites)]
    for i in range(n):
        pc = rng.choice(pcs)
        if rng.random() < 0.01:
            builder.trap()
        if rng.random() < 0.05:
            builder.branch(pc ^ 0x4, True, BranchClass.CALL, target=pc + 256, work=2)
            continue
        bias = (pc >> 3) % 10 / 10.0
        taken = rng.random() < bias
        target = pc - 128 if (pc >> 3) % 3 else pc + 128
        builder.branch(pc, taken, target=target, work=rng.randrange(1, 6))
    return builder.build()


TRACE = synthetic_trace()
TRAINING = synthetic_trace(seed=99, n=6_000, name="synth-train")

#: Kernel schemes the registry names cannot express: set-associative
#: first levels (both associativities, with and without the PHT reset
#: on eviction), a 4-way BTB, and the hybrids.
CONSTRUCTED = {
    "pag-a2-assoc2": lambda: make_pag(7, A2, 64, 2),
    "pap-a2-assoc4": lambda: make_pap(5, A2, 32, 4),
    "pap-lt-assoc4-noreset": lambda: make_pap(5, LAST_TIME, 32, 4, reset_pht_on_evict=False),
    "btb-assoc4": lambda: BTBPredictor(64, 4, A2),
    "gselect": lambda: GselectPredictor(6, 4),
    "tournament": lambda: TournamentPredictor(
        make_pag(6, A2, 32, 2), GselectPredictor(5, 3), chooser_bits=8
    ),
}

#: Registry names covering every kernel family and automaton, plus the
#: practical first-level variants (ideal / direct-mapped).
KERNEL_SCHEMES = [
    "gag-6",
    "gag-8",
    "gag-12",
    "gag-6-lt",
    "gag-6-a1",
    "gag-6-a3",
    "gag-6-a4",
    "gshare-8",
    "gap-5",
    "gsg-6",
    "psg-6-ideal",
    "psg-6-128x1",
    "pag-8-a2-ideal",
    "pag-8-a2-128x1",
    "pap-6-lt-ideal",
    "pap-6-a2-128x1",
    "always-taken",
    "always-not-taken",
    "btfn",
    "profile",
    "sas-6x16",
    *CONSTRUCTED,
]

CS_CONFIGS = [
    None,
    ContextSwitchConfig(interval=3_000),
    ContextSwitchConfig(interval=3_333, switch_on_traps=False),
]


def build(name):
    if name in CONSTRUCTED:
        return CONSTRUCTED[name]()
    return make_predictor(name, TRAINING)


def assert_equivalent(make, trace, cs=None, warmup=0, track=False):
    reference = simulate(
        make(),
        trace,
        context_switches=cs,
        track_per_site=track,
        warmup_branches=warmup,
        backend="python",
    )
    fast = simulate_vectorized(
        make(),
        trace,
        context_switches=cs,
        track_per_site=track,
        warmup_branches=warmup,
    )
    assert fast == reference
    return reference


@pytest.mark.parametrize("cs", CS_CONFIGS, ids=["none", "traps", "no-traps"])
@pytest.mark.parametrize("name", KERNEL_SCHEMES)
def test_kernel_matches_engine(name, cs):
    assert kernel_supports(build(name))
    assert_equivalent(lambda: build(name), TRACE, cs=cs)


@pytest.mark.parametrize(
    "name",
    ["gag-8", "gshare-8", "pag-8-a2-128x1", "btfn", "pag-a2-assoc2", "tournament", "gselect"],
)
def test_kernel_matches_engine_warmup_and_per_site(name):
    cs = ContextSwitchConfig(interval=3_000)
    result = assert_equivalent(
        lambda: build(name), TRACE, cs=cs, warmup=500, track=True
    )
    assert result.per_site_executions


def test_direct_mapped_btb_matches_engine():
    for automaton in (A2, LAST_TIME):
        for cs in CS_CONFIGS:
            assert_equivalent(
                lambda: BTBPredictor(128, 1, automaton), TRACE, cs=cs
            )
            assert_equivalent(
                lambda: BTBPredictor(128, 1, automaton),
                TRACE,
                cs=cs,
                warmup=500,
                track=True,
            )


def test_kernel_does_not_mutate_predictor():
    predictor = build("pag-8-a2-128x1")
    before = predictor.bht.entries_snapshot()
    simulate_vectorized(predictor, TRACE)
    assert predictor.bht.entries_snapshot() == before
    gag = build("gag-6")
    pht_before = gag.pht.states_snapshot()
    simulate_vectorized(gag, TRACE, context_switches=ContextSwitchConfig(interval=3000))
    assert gag.pht.states_snapshot() == pht_before
    assert gag.ghr == (1 << gag.history_bits) - 1  # untouched taken-biased fill


def test_kernel_does_not_mutate_assoc_bht_or_tournament():
    assoc = build("pag-a2-assoc2")
    before = assoc.bht.entries_snapshot()
    simulate_vectorized(assoc, TRACE, context_switches=ContextSwitchConfig(interval=3000))
    assert assoc.bht.entries_snapshot() == before
    tournament = build("tournament")
    simulate_vectorized(tournament, TRACE)
    assert tournament._choosers == [1] * len(tournament._choosers)
    assert tournament.disagreements == 0
    assert tournament.second.ghr == tournament.second._history_mask


def test_every_paper_registry_scheme_is_kernel_supported():
    """Every Table 3 row at 12 bits, plus the extensions (``gselect-4+6``
    is the CONSTRUCTED gselect), has a kernel, and runs on it whole-trace
    and streamed — block size 1 on a short prefix, 997 and 2**16 on the
    whole trace."""
    extensions = ["gap-18", "tournament", "sag-6x16", "sas-6x16", "gselect-4+6"]
    cs = ContextSwitchConfig(interval=3_000)
    for name in [*(str(scheme) for scheme in paper_table3_specs(history_bits=12)), *extensions]:
        assert kernel_supports(make_predictor(name, TRAINING)), name
        for trace, sizes in ((TRACE.head(200), (1,)), (TRACE, (None, 997, 1 << 16))):
            expected = simulate(make_predictor(name, TRAINING), trace, context_switches=cs,
                                backend="python")
            for size in sizes:
                streamed = simulate(make_predictor(name, TRAINING), trace, context_switches=cs,
                                    backend="vectorized", block_size=size)
                assert streamed == expected, (name, size)


def _wide_automaton_gag():
    """A GAg on an 8-state automaton: beyond the packed-code state limit,
    so no kernel can exist (dispatch is on exact type + scannability)."""
    return GAgPredictor(6, saturating_counter(3))


def _tournament_with_wide_component():
    """A hybrid is only kernelized when both of its components are."""
    return TournamentPredictor(_wide_automaton_gag(), GselectPredictor(5, 3))


def test_unsupported_predictor_raises_and_auto_falls_back():
    unsupported = _wide_automaton_gag()
    assert not kernel_supports(unsupported)
    with pytest.raises(KernelUnavailable):
        simulate_vectorized(unsupported, TRACE)
    with pytest.raises(KernelUnavailable):
        simulate(_wide_automaton_gag(), TRACE, backend="vectorized")
    result, used = simulate_with_backend(
        _wide_automaton_gag(), TRACE, backend="auto"
    )
    assert used == "python"
    assert result == simulate(_wide_automaton_gag(), TRACE, backend="python")


def test_tournament_with_unsupported_component_falls_back():
    assert not kernel_supports(_tournament_with_wide_component())
    with pytest.raises(KernelUnavailable):
        simulate_vectorized(_tournament_with_wide_component(), TRACE)
    with pytest.raises(KernelUnavailable):
        simulate(_tournament_with_wide_component(), TRACE, backend="vectorized")
    result, used = simulate_with_backend(
        _tournament_with_wide_component(), TRACE, backend="auto"
    )
    assert used == "python"
    assert result == simulate(_tournament_with_wide_component(), TRACE, backend="python")


def test_unsupported_predictor_falls_back_through_run_case():
    """The runner hands its backend to the engine unchanged: an explicit
    kernel request fails loudly, ``auto`` scores the interpreted way."""
    case = BenchmarkCase(
        name="unsupported", category="int", test_trace=TRACE, training_trace=TRAINING
    )
    with pytest.raises(KernelUnavailable):
        run_case(lambda _t: _wide_automaton_gag(), case, backend="vectorized")
    result = run_case(lambda _t: _wide_automaton_gag(), case, backend="auto")
    assert result == simulate(_wide_automaton_gag(), TRACE, backend="python")


def test_supported_predictor_routes_to_kernel():
    result, used = simulate_with_backend(build("gag-6"), TRACE, backend="auto")
    assert used == "vectorized"
    assert result == simulate(build("gag-6"), TRACE, backend="python")


def test_probe_forces_interpreted_backend():
    from repro.obs import StreakHistogramProbe

    result, used = simulate_with_backend(
        build("gag-6"), TRACE, probe=StreakHistogramProbe(), backend="auto"
    )
    assert used == "python"
    assert result == simulate(build("gag-6"), TRACE, backend="python")


def test_probe_with_explicit_vectorized_backend_raises():
    """An explicit kernel request cannot honour a probe: it fails loudly
    instead of silently running the interpreted loop."""
    from repro.obs import StreakHistogramProbe

    with pytest.raises(KernelUnavailable):
        simulate(build("gag-8"), TRACE, backend="vectorized", probe=StreakHistogramProbe())


def test_invalid_backend_rejected():
    with pytest.raises(ValueError):
        simulate(build("gag-6"), TRACE, backend="numpy")


def test_empty_and_unconditional_traces():
    empty = TraceBuilder(name="empty").build()
    builder = TraceBuilder(name="calls-only")
    for i in range(50):
        builder.branch(0x1000 + 8 * i, True, BranchClass.CALL, work=3)
    calls_only = builder.build()
    for trace in (empty, calls_only):
        for cs in (None, ContextSwitchConfig(interval=50)):
            assert_equivalent(lambda: build("gag-6"), trace, cs=cs, track=True)


def test_warmup_exceeding_trace_matches_engine():
    assert_equivalent(
        lambda: build("gag-6"), TRACE, warmup=10 ** 9
    )


def test_non_monotone_instret_unsupported_only_with_context_switches():
    from repro.trace.events import Trace, TraceMeta

    n = 100
    instret = [2 * (i + 1) for i in range(n)]
    instret[50] = 0  # corrupt the retirement counter
    trace = Trace(
        meta=TraceMeta(name="weird"),
        pc=[0x2000] * n,
        taken=[i % 2 == 0 for i in range(n)],
        cls=[int(BranchClass.CONDITIONAL)] * n,
        target=[0] * n,
        instret=instret,
        trap=[False] * n,
    )
    assert_equivalent(lambda: build("gag-6"), trace)  # cs off: irrelevant
    with pytest.raises(KernelUnavailable):
        simulate_vectorized(
            build("gag-6"), trace, context_switches=ContextSwitchConfig(interval=10)
        )
    # backend="auto" still completes via the interpreted loop.
    result, used = simulate_with_backend(
        build("gag-6"),
        trace,
        context_switches=ContextSwitchConfig(interval=10),
        backend="auto",
    )
    assert used == "python"


def test_workload_trace_equivalence(small_cases):
    """Real generated workloads (with training traces) pin equivalence."""
    for case in small_cases:
        for name in ("gag-8", "pag-8-a2-128x1", "gshare-8", "btfn"):
            make = lambda: make_predictor(name, case.training_trace)  # noqa: E731
            if not kernel_supports(make()):
                continue
            assert_equivalent(make, case.test_trace)
            assert_equivalent(
                make,
                case.test_trace,
                cs=ContextSwitchConfig(interval=5_000),
                warmup=200,
                track=True,
            )
