"""The per-record analysis loops that the miss tallies replaced.

``misprediction_breakdown``, ``learning_curve`` and ``per_site_report``
(from :mod:`repro.analysis.breakdown`) and ``attribute_scheme`` (from
:mod:`repro.analysis.predictability`) each replayed the predictor
through a private interpreted loop with its own context-switch cadence.
They are kept verbatim as the oracle for ``tests/test_analysis_oracle.py``.

``first_level_interference``, ``second_level_interference`` and
``bht_pressure`` (from :mod:`repro.analysis.interference`) and
``bias_bound`` and ``history_bound`` (from :mod:`repro.analysis.bounds`)
re-simulated the first level (global and per-address registers, the LRU
``CacheBHT``) in per-record dict loops. They are kept verbatim as the
oracle for ``tests/test_interference_oracle.py``.
"""

from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.breakdown import (
    _COLD_OCCURRENCES,
    _POST_FLUSH_WINDOW,
    MispredictionBreakdown,
    SiteReport,
)
from repro.analysis.interference import (
    BHTPressure,
    FirstLevelInterference,
    SecondLevelInterference,
)
from repro.analysis.predictability import SchemeAttribution
from repro.core.history import CacheBHT, history_mask
from repro.predictors.base import BranchPredictor
from repro.sim.engine import ContextSwitchConfig
from repro.trace.events import BranchClass, Trace
from repro.trace.stream import TraceSource, iter_source_tuples

_COND = int(BranchClass.CONDITIONAL)


def misprediction_breakdown(
    predictor: BranchPredictor,
    trace: TraceSource,
    context_switches: Optional[ContextSwitchConfig] = None,
    block_size: Optional[int] = None,
) -> MispredictionBreakdown:
    """Simulate and classify every misprediction."""
    occurrences: Dict[int, int] = {}
    since_flush: Dict[int, int] = {}
    total = 0
    misses = 0
    cold = 0
    post_flush = 0
    cs_enabled = context_switches is not None
    interval = context_switches.interval if cs_enabled else 0
    switch_on_traps = context_switches.switch_on_traps if cs_enabled else False
    next_switch = interval
    cond_class = int(BranchClass.CONDITIONAL)

    for pc, taken, cls, target, instret, trap in iter_source_tuples(trace, block_size):
        if cs_enabled and ((trap and switch_on_traps) or instret >= next_switch):
            predictor.on_context_switch()
            if instret >= next_switch:
                # Absolute interval boundaries, matching the engine's
                # fixed context-switch cadence (see repro.sim.engine).
                next_switch += interval * ((instret - next_switch) // interval + 1)
            since_flush = {}
        if cls != cond_class:
            continue
        prediction = predictor.predict(pc, target)
        predictor.update(pc, taken, target)
        total += 1
        count = occurrences.get(pc, 0)
        occurrences[pc] = count + 1
        flush_count = since_flush.get(pc, 0)
        since_flush[pc] = flush_count + 1
        if prediction == taken:
            continue
        misses += 1
        if count < _COLD_OCCURRENCES:
            cold += 1
        elif cs_enabled and flush_count < _POST_FLUSH_WINDOW:
            post_flush += 1
    return MispredictionBreakdown(
        total_branches=total,
        total_misses=misses,
        cold_misses=cold,
        post_flush_misses=post_flush,
        steady_misses=misses - cold - post_flush,
    )


def learning_curve(
    predictor: BranchPredictor,
    trace: TraceSource,
    windows: int = 20,
    block_size: Optional[int] = None,
) -> List[float]:
    """Accuracy per consecutive window of conditional branches."""
    if windows < 1:
        raise ValueError("windows must be >= 1")
    cond_class = int(BranchClass.CONDITIONAL)
    counter = getattr(trace, "num_conditional", None)
    if counter is not None:
        conditional = counter()
    else:
        # Generic sources lack Trace's cached count: one cheap
        # counting pass (no predictor state touched) sizes the windows.
        conditional = sum(
            1
            for _pc, _taken, cls, _target, _instret, _trap in iter_source_tuples(
                trace, block_size
            )
            if cls == cond_class
        )
    if conditional == 0:
        return []
    window_size = max(conditional // windows, 1)
    curve: List[float] = []
    correct = 0
    seen = 0
    for pc, taken, cls, target, _instret, _trap in iter_source_tuples(trace, block_size):
        if cls != cond_class:
            continue
        prediction = predictor.predict(pc, target)
        predictor.update(pc, taken, target)
        correct += prediction == taken
        seen += 1
        if seen == window_size:
            curve.append(correct / seen)
            correct = 0
            seen = 0
    # A tiny tail remainder is statistically meaningless noise; only
    # report it when it is a substantial fraction of a window.
    if seen >= window_size // 4 and seen > 0:
        curve.append(correct / seen)
    return curve


def per_site_report(
    predictor: BranchPredictor,
    trace: TraceSource,
    top: int = 10,
    block_size: Optional[int] = None,
) -> List[SiteReport]:
    """The ``top`` static branches ranked by misprediction count."""
    executions: Dict[int, int] = {}
    taken_counts: Dict[int, int] = {}
    miss_counts: Dict[int, int] = {}
    cond_class = int(BranchClass.CONDITIONAL)
    for pc, taken, cls, target, _instret, _trap in iter_source_tuples(trace, block_size):
        if cls != cond_class:
            continue
        prediction = predictor.predict(pc, target)
        predictor.update(pc, taken, target)
        executions[pc] = executions.get(pc, 0) + 1
        if taken:
            taken_counts[pc] = taken_counts.get(pc, 0) + 1
        if prediction != taken:
            miss_counts[pc] = miss_counts.get(pc, 0) + 1
    ranked = sorted(miss_counts.items(), key=lambda item: -item[1])[:top]
    return [
        SiteReport(
            pc=pc,
            executions=executions[pc],
            mispredictions=misses,
            taken_rate=taken_counts.get(pc, 0) / executions[pc],
        )
        for pc, misses in ranked
    ]


def attribute_scheme(
    predictor: BranchPredictor,
    source: TraceSource,
    context_switches: Optional[Any] = None,
    block_size: Optional[int] = None,
    scheme: str = "",
) -> SchemeAttribution:
    """Replay one predictor, collecting per-site hits and miss classes.

    A single streaming pass combining
    :func:`repro.analysis.breakdown.misprediction_breakdown` (same
    cold / post-flush / steady classification and context-switch
    cadence) with per-site correct counts, so the per-cluster winner
    table costs one replay per scheme.
    """
    occurrences: Dict[int, int] = {}
    since_flush: Dict[int, int] = {}
    site_correct: Dict[int, int] = {}
    total = 0
    misses = 0
    cold = 0
    post_flush = 0
    cs_enabled = context_switches is not None
    interval = context_switches.interval if cs_enabled else 0
    switch_on_traps = context_switches.switch_on_traps if cs_enabled else False
    next_switch = interval
    for pc, taken, cls, target, instret, trap in iter_source_tuples(
        source, block_size
    ):
        if cs_enabled and ((trap and switch_on_traps) or instret >= next_switch):
            predictor.on_context_switch()
            if instret >= next_switch:
                next_switch += interval * ((instret - next_switch) // interval + 1)
            since_flush = {}
        if cls != _COND:
            continue
        prediction = predictor.predict(pc, target)
        predictor.update(pc, taken, target)
        total += 1
        count = occurrences.get(pc, 0)
        occurrences[pc] = count + 1
        flush_count = since_flush.get(pc, 0)
        since_flush[pc] = flush_count + 1
        if prediction == taken:
            site_correct[pc] = site_correct.get(pc, 0) + 1
            continue
        misses += 1
        if count < _COLD_OCCURRENCES:
            cold += 1
        elif cs_enabled and flush_count < _POST_FLUSH_WINDOW:
            post_flush += 1
    return SchemeAttribution(
        scheme=scheme or type(predictor).__name__,
        executions=total,
        correct=total - misses,
        breakdown=MispredictionBreakdown(
            total_branches=total,
            total_misses=misses,
            cold_misses=cold,
            post_flush_misses=post_flush,
            steady_misses=misses - cold - post_flush,
        ),
        site_correct=site_correct,
        site_executions=dict(occurrences),
    )


def first_level_interference(
    trace: TraceSource,
    history_bits: int,
    block_size: Optional[int] = None,
) -> FirstLevelInterference:
    """Compare the global history register against private ones.

    Both registers follow the paper's initialisation (all ones, then
    outcome extension for the private registers on first update).
    """
    mask = history_mask(history_bits)
    global_history = mask
    private: Dict[int, int] = {}
    seen: Dict[int, bool] = {}
    polluted = 0
    total = 0
    for pc, taken, cls, _target, _instret, _trap in iter_source_tuples(trace, block_size):
        if cls != BranchClass.CONDITIONAL:
            continue
        total += 1
        private_history = private.get(pc, mask)
        if private_history != global_history:
            polluted += 1
        global_history = ((global_history << 1) | (1 if taken else 0)) & mask
        if pc not in seen:
            private[pc] = mask if taken else 0  # outcome extension
            seen[pc] = True
        else:
            private[pc] = ((private[pc] << 1) | (1 if taken else 0)) & mask
    return FirstLevelInterference(
        history_bits=history_bits,
        conditional_branches=total,
        polluted_lookups=polluted,
    )


def second_level_interference(
    trace: TraceSource,
    history_bits: int,
    block_size: Optional[int] = None,
) -> SecondLevelInterference:
    """Measure pattern-table aliasing under PAg first-level history."""
    mask = history_mask(history_bits)
    private: Dict[int, int] = {}
    fresh: Dict[int, bool] = {}
    owners: Dict[int, set] = defaultdict(set)
    last_writer: Dict[int, int] = {}
    last_outcome: Dict[int, bool] = {}
    updates = 0
    cross = 0
    destructive = 0
    for pc, taken, cls, _target, _instret, _trap in iter_source_tuples(trace, block_size):
        if cls != BranchClass.CONDITIONAL:
            continue
        pattern = private.get(pc, mask)
        updates += 1
        owners[pattern].add(pc)
        previous_writer = last_writer.get(pattern)
        if previous_writer is not None and previous_writer != pc:
            cross += 1
            if last_outcome[pattern] != taken:
                destructive += 1
        last_writer[pattern] = pc
        last_outcome[pattern] = taken
        if pc not in fresh:
            private[pc] = mask if taken else 0
            fresh[pc] = True
        else:
            private[pc] = ((private[pc] << 1) | (1 if taken else 0)) & mask
    shared = sum(1 for pcs in owners.values() if len(pcs) > 1)
    return SecondLevelInterference(
        history_bits=history_bits,
        entries_used=len(owners),
        entries_shared=shared,
        updates=updates,
        cross_branch_updates=cross,
        destructive_updates=destructive,
    )


def bht_pressure(
    trace: TraceSource,
    num_entries: int = 512,
    associativity: int = 4,
    block_size: Optional[int] = None,
) -> BHTPressure:
    """Replay the trace's conditional PCs through a BHT cache."""
    bht = CacheBHT(num_entries, associativity)
    distinct = set()
    for pc, _taken, cls, _target, _instret, _trap in iter_source_tuples(trace, block_size):
        if cls != BranchClass.CONDITIONAL:
            continue
        distinct.add(pc)
        bht.access(pc)
    return BHTPressure(
        num_entries=num_entries,
        associativity=associativity,
        accesses=bht.stats.accesses,
        hits=bht.stats.hits,
        evictions=bht.stats.evictions,
        distinct_branches=len(distinct),
    )


def bias_bound(trace: Trace) -> float:
    """Accuracy of the static per-branch majority-direction oracle."""
    taken: Dict[int, int] = defaultdict(int)
    total: Dict[int, int] = defaultdict(int)
    for pc, was_taken, cls, _t, _i, _tr in trace.iter_tuples():
        if cls != BranchClass.CONDITIONAL:
            continue
        total[pc] += 1
        if was_taken:
            taken[pc] += 1
    correct = sum(max(taken[pc], total[pc] - taken[pc]) for pc in total)
    denominator = sum(total.values())
    return correct / denominator if denominator else 0.0


def history_bound(trace: Trace, history_bits: int, per_address: bool = True) -> float:
    """Accuracy of the static majority oracle per (branch, k-history)
    context — the ceiling for fixed mappings, beatable by adaptive ones
    on phase-changing behaviour.

    Args:
        per_address: contexts keyed by the branch's own history (the
            PAg/PAp ceiling); False keys by global history (GAg ceiling).
    """
    mask = history_mask(history_bits)
    counts: Dict[Tuple[int, int], list] = defaultdict(lambda: [0, 0])
    histories: Dict[int, int] = {}
    global_history = mask
    for pc, taken, cls, _t, _i, _tr in trace.iter_tuples():
        if cls != BranchClass.CONDITIONAL:
            continue
        if per_address:
            history = histories.get(pc, mask)
            counts[(pc, history)][1 if taken else 0] += 1
            histories[pc] = ((history << 1) | (1 if taken else 0)) & mask
        else:
            counts[(pc, global_history)][1 if taken else 0] += 1
            global_history = ((global_history << 1) | (1 if taken else 0)) & mask
    correct = sum(max(not_taken, taken) for not_taken, taken in counts.values())
    denominator = sum(a + b for a, b in counts.values())
    return correct / denominator if denominator else 0.0
