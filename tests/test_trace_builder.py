"""Randomised oracle for the packed-log trace recorder.

:class:`TraceBuilder` keeps one packed int per call and decodes the log
with NumPy in :meth:`TraceBuilder.build`; :class:`BranchProbe` appends
its conditional records to that log directly. The reference recorders
in ``reference_recorder.py`` are the six-list builder and the probe
they replaced, kept verbatim. Hypothesis draws random operation
sequences (every branch class, pcs and targets inside and outside
int64, negative targets, ``work`` too wide for a packed word,
``instructions(0 … 2**40)``, traps, a trailing trap, the empty
builder) and requires the same columns, element types, ``meta.total_instructions``, ``len(builder)``
and midway ``builder.instret``. A trace whose values fit the canonical
dtypes must carry prebuilt arrays equal to a fresh conversion; for any
other, the builder and the reference both raise the same
``TraceFormatError``, naming the column, the record and the range.

Workload testing traces are also regenerated with the reference probe
and compared column for column.

The example budget comes from the hypothesis profile named by
``HYPOTHESIS_PROFILE`` (see ``conftest.py``). The default ``tier1``
profile compares seven workloads at seed offset 0; the ``ci`` profile
compares all nine at seed offsets 0 and 1 (``gcc`` and ``li`` alone
hold half the suite's records and take two thirds of the time).
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.trace.events import BranchClass, TraceBuilder, TraceFormatError
from repro.workloads import base
from repro.workloads.base import BranchProbe
from repro.workloads.suite import BENCHMARK_ORDER, get_workload
from tests.reference_recorder import (
    ReferenceBuilder,
    ReferenceProbe,
    assert_same_build,
    assert_same_trace,
)

PROFILE_NAME = os.environ.get("HYPOTHESIS_PROFILE", "tier1")
PROFILE = settings(
    settings.get_profile(PROFILE_NAME),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
FULL = PROFILE_NAME != "tier1"
SEED_OFFSETS = (0, 1) if FULL else (0,)
WORKLOADS = BENCHMARK_ORDER if FULL else tuple(
    name for name in BENCHMARK_ORDER if name not in ("gcc", "li"))


# ----------------------------------------------------------------------
# Builder operation sequences
# ----------------------------------------------------------------------

_EDGES = [-(1 << 63) - 1, -(1 << 63), (1 << 63) - 1, 1 << 63, 1 << 64]
_values = st.one_of(
    st.sampled_from([0, 0x1000, 0x1004, 0x1040, -0x40]),  # shared slots
    st.integers(-(1 << 70), 1 << 70),
    st.sampled_from(_EDGES),
)
_works = st.one_of(st.integers(0, 8), st.integers(0, 1 << 70), st.just((1 << 31) - 1))
_classes = st.sampled_from(list(BranchClass))

_ops = st.one_of(
    st.tuples(st.just("branch"), _values, st.booleans(), _classes, _values, _works),
    st.tuples(st.just("conditional"), _values, st.booleans(), _works),
    st.tuples(st.sampled_from(["unconditional", "call", "ret"]), _values, _values, _works),
    st.tuples(st.just("instructions"), st.one_of(st.integers(0, 4), st.integers(0, 1 << 40))),
    st.tuples(st.just("trap")),
    st.tuples(st.just("check")),
)


def _apply(builder, op):
    kind = op[0]
    if kind == "branch":
        _, pc, taken, cls, target, work = op
        return builder.branch(pc, taken, cls, target=target, work=work)
    if kind == "conditional":
        _, pc, taken, work = op
        return builder.conditional(pc, taken, work=work)
    if kind in ("unconditional", "call", "ret"):
        _, pc, target, work = op
        return getattr(builder, kind)(pc, target=target, work=work)
    if kind == "instructions":
        return builder.instructions(op[1])
    if kind == "trap":
        return builder.trap()
    return (len(builder), builder.instret)


@PROFILE
@given(ops=st.lists(_ops, max_size=60), narrow=st.booleans())
def test_builder_matches_reference(ops, narrow):
    if narrow:  # most traces stay within int64, so their arrays get checked too
        ops = [op for op in ops if all(
            -(1 << 63) <= v < 1 << 31 for v in op[1:] if type(v) is int)]
    builder, reference = TraceBuilder("t", "d", "s"), ReferenceBuilder("t", "d", "s")
    for op in ops:
        assert _apply(builder, op) == _apply(reference, op)
    assert (len(builder), builder.instret) == (len(reference), reference.instret)
    # Wide values (narrow=False) raise on both sides, naming the same record.
    assert_same_build(builder, reference)
    # Building is repeatable and leaves the builder open for more records.
    assert_same_build(builder, reference, total_instructions=7)
    builder.conditional(0x2000, True)
    reference.conditional(0x2000, True)
    assert_same_build(builder, reference)


def test_empty_and_trailing_trap():
    assert_same_trace(TraceBuilder().build(), ReferenceBuilder().build())
    builder, reference = TraceBuilder(), ReferenceBuilder()
    for recorder in (builder, reference):
        recorder.conditional(0x10, True, work=2)
        recorder.instructions(5)
        recorder.trap()
    assert builder.instret == reference.instret == 9
    assert_same_trace(builder.build(), reference.build())


def test_wide_values_are_rejected_naming_the_record():
    builder, reference = TraceBuilder(), ReferenceBuilder()
    for recorder in (builder, reference):
        recorder.conditional(0x10, True)
        recorder.branch(1 << 63, True, BranchClass.CALL, target=-(1 << 63) - 1)
    for recorder in (builder, reference):
        with pytest.raises(TraceFormatError, match=r"record 1: pc=9223372036854775808 "
                                                   r"does not fit the int64 column"):
            recorder.build()
    builder, reference = TraceBuilder(), ReferenceBuilder()
    for recorder in (builder, reference):
        recorder.conditional(0x10, True)
        recorder.call(0x20, target=-(1 << 63) - 1)
    for recorder in (builder, reference):
        with pytest.raises(TraceFormatError, match=r"record 1: target=-9223372036854775809 "):
            recorder.build()
    # Words past int64 that still sum within it decode exactly; a clock
    # past int64 is rejected at the first record it reaches.
    builder, reference = TraceBuilder(), ReferenceBuilder()
    for recorder in (builder, reference):
        recorder.conditional(0x10, False, work=1 << 40)
        recorder.instructions(1 << 80)
    assert_same_build(builder, reference)
    assert builder.build().meta.total_instructions == (1 << 80) + (1 << 40) + 1
    for recorder in (builder, reference):
        recorder.conditional(0x10, True)
        with pytest.raises(TraceFormatError, match=rf"record 1: instret={(1 << 80) + (1 << 40) + 2} "):
            recorder.build()


# ----------------------------------------------------------------------
# Probe operation sequences
# ----------------------------------------------------------------------

_labels = st.sampled_from(["a", "b", "c", "d"])
_probe_ops = st.one_of(
    st.tuples(st.just("cond"), _labels, st.booleans(), st.integers(0, 9), st.booleans()),
    st.tuples(st.just("loop"), _labels, st.integers(0, 4), st.integers(0, 9),
              st.integers(0, 5)),
    st.tuples(st.just("while_"), _labels, st.booleans(), st.integers(0, 9)),
    st.tuples(st.sampled_from(["call", "ret", "jump"]), _labels, st.integers(0, 9)),
    st.tuples(st.just("work"), st.integers(0, 9)),
    st.tuples(st.just("trap")),
)


def _drive(probe, ops):
    outcomes = []
    for op in ops:
        kind = op[0]
        if kind == "cond":
            outcomes.append(probe.cond(op[1], op[2], work=op[3], backward=op[4]))
        elif kind == "loop":
            # A body that records too, and sometimes leaves the loop early.
            _, label, count, work, stop = op
            for index in probe.loop(label, count, work=work):
                probe.cond(label + "-body", index % 2 == 0)
                if index == stop:
                    break
        elif kind == "while_":
            outcomes.append(probe.while_(op[1], op[2], work=op[3]))
        elif kind in ("call", "ret", "jump"):
            getattr(probe, kind)(op[1], work=op[2])
        elif kind == "work":
            probe.work(op[1])
        else:
            probe.trap()
    return outcomes, probe.num_sites


@PROFILE
@given(ops=st.lists(_probe_ops, max_size=40))
def test_probe_matches_reference(ops):
    builder, reference = TraceBuilder(), ReferenceBuilder()
    got = _drive(BranchProbe("ns", builder), ops)
    want = _drive(ReferenceProbe("ns", reference), ops)
    assert got == want
    assert (len(builder), builder.instret) == (len(reference), reference.instret)
    assert_same_trace(builder.build(), reference.build())


# ----------------------------------------------------------------------
# Whole workloads
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed_offset", SEED_OFFSETS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_trace_matches_reference_probe(monkeypatch, name, seed_offset):
    workload = get_workload(name)
    trace = workload.generate("testing", scale=1, seed_offset=seed_offset)
    monkeypatch.setattr(base, "TraceBuilder", ReferenceBuilder)
    monkeypatch.setattr(base, "BranchProbe", ReferenceProbe)
    expected = workload.generate("testing", scale=1, seed_offset=seed_offset)
    # Equal columns and metadata imply an equal content digest.
    assert_same_trace(trace, expected, digest=False)
