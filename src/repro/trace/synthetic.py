"""Parametric synthetic branch traces.

These generators produce branch streams whose predictability properties
are known in closed form, which makes them ideal for unit tests and for
demonstrating *why* the two-level schemes win:

* :func:`loop_trace` — a loop branch taken ``n-1`` times then not taken,
  repeated. Any history register of length >= n predicts it perfectly
  after warm-up; a per-branch 2-bit counter mispredicts once per
  iteration of the exit.
* :func:`periodic_trace` — an arbitrary repeating direction pattern.
* :func:`biased_trace` — i.i.d. Bernoulli outcomes; no predictor can
  beat the bias, so measured accuracy should approach ``max(p, 1-p)``.
* :func:`correlated_pair_trace` — branch B's outcome equals branch A's
  previous outcome; global-history predictors (GAg) capture this, pure
  per-address ones cannot.
* :func:`markov_trace` — outcomes from a two-state Markov chain.
* :func:`interleaved` — round-robin interleaving of per-site generators,
  exercising first-level history interference.

Each materializing generator has an indefinitely-streaming ``*_records``
twin (:func:`loop_records`, :func:`periodic_records`,
:func:`biased_records`, :func:`markov_records`) yielding the same record
stream as plain tuples without bound — wrap one in
:class:`repro.trace.stream.RecordStreamSource` and ``.limit(n)`` it to
simulate or save arbitrarily long workloads in bounded memory.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, Sequence, Tuple

from .events import BranchClass, Trace, TraceBuilder

__all__ = [
    "OutcomeSource",
    "alternating_source",
    "biased_records",
    "biased_trace",
    "correlated_pair_trace",
    "interleaved",
    "loop_records",
    "loop_source",
    "loop_trace",
    "markov_records",
    "markov_trace",
    "pattern_source",
    "periodic_records",
    "periodic_trace",
]

#: One streamed branch record: ``(pc, taken, cls, target, instret, trap)``.
RecordTuple = Tuple[int, bool, int, int, int, bool]


def loop_trace(
    iterations: int,
    trip_count: int,
    pc: int = 0x1000,
    name: str = "loop",
    work_per_branch: int = 4,
) -> Trace:
    """A backward loop branch: taken ``trip_count - 1`` times, then exits.

    Args:
        iterations: how many times the whole loop is entered.
        trip_count: loop trip count (>= 1); the branch is taken
            ``trip_count - 1`` times then falls through once.
        pc: static site id of the loop branch.
        name: trace name.
        work_per_branch: non-branch instructions accounted per branch.
    """
    if trip_count < 1:
        raise ValueError("trip_count must be >= 1")
    builder = TraceBuilder(name=name, source="synthetic")
    for _ in range(iterations):
        for _ in range(trip_count - 1):
            builder.conditional(pc, True, work=work_per_branch)
        builder.conditional(pc, False, work=work_per_branch)
    return builder.build()


def periodic_trace(
    pattern: Sequence[bool],
    repeats: int,
    pc: int = 0x2000,
    name: str = "periodic",
    work_per_branch: int = 4,
) -> Trace:
    """A single branch following ``pattern`` repeated ``repeats`` times."""
    if not pattern:
        raise ValueError("pattern must be non-empty")
    builder = TraceBuilder(name=name, source="synthetic")
    for _ in range(repeats):
        for outcome in pattern:
            builder.conditional(pc, bool(outcome), work=work_per_branch)
    return builder.build()


def biased_trace(
    length: int,
    taken_probability: float,
    pc: int = 0x3000,
    seed: int = 0,
    name: str = "biased",
    work_per_branch: int = 4,
) -> Trace:
    """A single branch with i.i.d. outcomes, P(taken) = ``taken_probability``."""
    if not 0.0 <= taken_probability <= 1.0:
        raise ValueError("taken_probability must be within [0, 1]")
    rng = random.Random(seed)
    builder = TraceBuilder(name=name, source="synthetic")
    for _ in range(length):
        builder.conditional(pc, rng.random() < taken_probability, work=work_per_branch)
    return builder.build()


def correlated_pair_trace(
    length: int,
    pc_a: int = 0x4000,
    pc_b: int = 0x4010,
    taken_probability: float = 0.5,
    seed: int = 0,
    name: str = "correlated-pair",
    work_per_branch: int = 4,
) -> Trace:
    """Two alternating branches where B repeats A's outcome.

    Branch A's outcomes are i.i.d.; branch B always resolves to whatever A
    just did. A global-history predictor sees A's outcome in the history
    register when predicting B and can predict B perfectly; a per-address
    predictor sees only B's own (i.i.d.-looking) history.
    """
    rng = random.Random(seed)
    builder = TraceBuilder(name=name, source="synthetic")
    for _ in range(length):
        outcome_a = rng.random() < taken_probability
        builder.conditional(pc_a, outcome_a, work=work_per_branch)
        builder.conditional(pc_b, outcome_a, work=work_per_branch)
    return builder.build()


def markov_trace(
    length: int,
    p_stay_taken: float = 0.9,
    p_stay_not_taken: float = 0.9,
    pc: int = 0x5000,
    seed: int = 0,
    name: str = "markov",
    work_per_branch: int = 4,
) -> Trace:
    """A single branch driven by a two-state Markov chain.

    ``p_stay_taken`` is P(taken | previous taken); ``p_stay_not_taken``
    is P(not taken | previous not taken). High stay probabilities make
    the stream bursty, rewarding hysteresis (A2 over Last-Time).
    """
    rng = random.Random(seed)
    builder = TraceBuilder(name=name, source="synthetic")
    state = True
    for _ in range(length):
        stay = p_stay_taken if state else p_stay_not_taken
        if rng.random() >= stay:
            state = not state
        builder.conditional(pc, state, work=work_per_branch)
    return builder.build()


OutcomeSource = Callable[[int], bool]


def interleaved(
    sources: Sequence[OutcomeSource],
    length: int,
    base_pc: int = 0x6000,
    pc_stride: int = 0x10,
    name: str = "interleaved",
    work_per_branch: int = 4,
) -> Trace:
    """Round-robin interleave per-site outcome sources into one trace.

    Each entry of ``sources`` is a callable mapping the per-site
    occurrence index to an outcome; site ``i`` gets pc
    ``base_pc + i * pc_stride``. Interleaving several perfectly periodic
    sources produces a stream where a *global* history register suffers
    cross-branch interference while per-address registers do not —
    exactly the GAg-vs-PAg contrast of the paper.
    """
    if not sources:
        raise ValueError("need at least one source")
    builder = TraceBuilder(name=name, source="synthetic")
    counts = [0] * len(sources)
    for step in range(length):
        site = step % len(sources)
        outcome = bool(sources[site](counts[site]))
        counts[site] += 1
        builder.conditional(base_pc + site * pc_stride, outcome, work=work_per_branch)
    return builder.build()


def alternating_source() -> OutcomeSource:
    """Outcome source: T, NT, T, NT, ..."""
    return lambda i: i % 2 == 0

def loop_source(trip_count: int) -> OutcomeSource:
    """Outcome source that behaves like a loop branch of ``trip_count``."""
    if trip_count < 1:
        raise ValueError("trip_count must be >= 1")
    return lambda i: (i % trip_count) != trip_count - 1


def pattern_source(pattern: Sequence[bool]) -> OutcomeSource:
    """Outcome source repeating an explicit pattern."""
    if not pattern:
        raise ValueError("pattern must be non-empty")
    materialized = [bool(b) for b in pattern]
    return lambda i: materialized[i % len(materialized)]


# ----------------------------------------------------------------------
# Indefinite record streams (the out-of-core twins of the builders)
# ----------------------------------------------------------------------

_COND = int(BranchClass.CONDITIONAL)


def loop_records(
    trip_count: int, pc: int = 0x1000, work_per_branch: int = 4
) -> Iterator[RecordTuple]:
    """Endless :func:`loop_trace` record stream: taken ``trip_count - 1``
    times, not taken once, forever."""
    if trip_count < 1:
        raise ValueError("trip_count must be >= 1")
    instret = 0
    occurrence = 0
    while True:
        taken = (occurrence % trip_count) != trip_count - 1
        occurrence += 1
        instret += work_per_branch + 1
        yield (pc, taken, _COND, 0, instret, False)


def periodic_records(
    pattern: Sequence[bool], pc: int = 0x2000, work_per_branch: int = 4
) -> Iterator[RecordTuple]:
    """Endless :func:`periodic_trace` record stream repeating ``pattern``."""
    if not pattern:
        raise ValueError("pattern must be non-empty")
    materialized = [bool(b) for b in pattern]
    instret = 0
    occurrence = 0
    while True:
        taken = materialized[occurrence % len(materialized)]
        occurrence += 1
        instret += work_per_branch + 1
        yield (pc, taken, _COND, 0, instret, False)


def biased_records(
    taken_probability: float,
    pc: int = 0x3000,
    seed: int = 0,
    work_per_branch: int = 4,
) -> Iterator[RecordTuple]:
    """Endless :func:`biased_trace` record stream (same seed, same
    outcomes: the first ``n`` records match ``biased_trace(n, p)``)."""
    if not 0.0 <= taken_probability <= 1.0:
        raise ValueError("taken_probability must be within [0, 1]")
    rng = random.Random(seed)
    instret = 0
    while True:
        instret += work_per_branch + 1
        yield (pc, rng.random() < taken_probability, _COND, 0, instret, False)


def markov_records(
    p_stay_taken: float = 0.9,
    p_stay_not_taken: float = 0.9,
    pc: int = 0x5000,
    seed: int = 0,
    work_per_branch: int = 4,
) -> Iterator[RecordTuple]:
    """Endless :func:`markov_trace` record stream (same seed, same chain)."""
    rng = random.Random(seed)
    state = True
    instret = 0
    while True:
        stay = p_stay_taken if state else p_stay_not_taken
        if rng.random() >= stay:
            state = not state
        instret += work_per_branch + 1
        yield (pc, state, _COND, 0, instret, False)
