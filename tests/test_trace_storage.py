"""How an in-memory trace is stored: once, as its NumPy columns.

A :class:`Trace` stores the read-only arrays of its
:class:`TraceArrays`; the plain Python lists per-record loops iterate
are built on the first list access and cached. These tests pin that:

* **Count pin.** ``run_matrix`` on kernels over three suite cases, the
  content digest, the trace writers and the worker spool build no list
  on any trace.
* **Memory pin.** A builder-built trace costs at most 40 bytes per
  record (27 of arrays); with its lists it used to cost ~108.
* **Round trip.** Hypothesis draws records and requires the builder,
  ``Trace(...)``, the ``.btb`` and ``.btr`` readers, a ``.btrs``
  container's ``materialize`` / ``head`` and ``select`` / ``head`` /
  ``conditional_only`` to give equal arrays, equal lazily built lists of
  canonical ``int`` / ``bool`` elements, and equal content digests.
* **Wide values.** A value outside its column's dtype is rejected where
  the records enter: ``Trace(...)``, ``TraceBuilder.build``,
  ``read_text``, ``trace_from_records`` and
  ``RecordStreamSource.iter_blocks`` raise ``TraceFormatError`` naming
  the column, the record and the allowed range.

The example budget comes from the hypothesis profile named by
``HYPOTHESIS_PROFILE`` (see ``conftest.py``).
"""

import gc
import io
import os
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.parallel import _spool_traces, spec
from repro.sim.runner import BenchmarkCase, run_matrix
from repro.trace.events import BranchClass, Trace, TraceArrays, TraceBuilder, TraceMeta
from repro.trace.events import BranchRecord
from repro.trace.io import (
    TraceFormatError,
    read_binary,
    read_text,
    save_trace,
    trace_from_records,
    write_binary,
    write_text,
)
from repro.trace.stats import compute_stats
from repro.trace.stream import RecordStreamSource, content_digest, open_stream, save_source
from repro.workloads.suite import get_workload

PROFILE = settings(
    settings.get_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1")),
    suppress_health_check=[HealthCheck.too_slow],
)

_NAMES = ("pc", "taken", "cls", "target", "instret", "trap")
_DTYPES = (np.int64, np.bool_, np.uint8, np.int64, np.int64, np.bool_)
_TYPES = (int, bool, int, int, int, bool)


def _count_list_builds(monkeypatch):
    """Patch :attr:`Trace.columns` to record every trace that builds its
    lists; returns the list of those traces."""
    built = []
    columns = Trace.columns.fget

    def counting(trace):
        if trace._lists is None:
            built.append(trace)
        return columns(trace)

    monkeypatch.setattr(Trace, "columns", property(counting))
    return built


# ----------------------------------------------------------------------
# Count pin
# ----------------------------------------------------------------------

#: Kernel schemes over every first-level kind, static training, a BTB
#: and a hybrid.
_SCHEMES = ("gag-10", "gshare-8", "gap-6", "pag-8-512x4", "pap-6-512x1",
            "pag-10", "sag-6x4", "gsg-8", "psg-8-512x4", "btb-a2", "tournament")


def test_kernel_sweep_writers_and_digests_build_no_lists(monkeypatch, tmp_path):
    cases = []
    for name in ("spice2g6", "tomcatv", "fpppp"):
        workload = get_workload(name)
        cases.append(BenchmarkCase(
            name=name, category=workload.category,
            test_trace=workload.generate("testing"),
            training_trace=workload.generate("training") if workload.has_training else None,
        ))
    traces = [trace for case in cases
              for trace in (case.test_trace, case.training_trace) if trace is not None]
    assert len(traces) == 4
    built = _count_list_builds(monkeypatch)

    matrix = run_matrix({name: spec(name) for name in _SCHEMES}, cases,
                        backend="vectorized")
    # gsg/psg have no training trace on tomcatv and fpppp.
    telemetry = matrix.telemetry
    assert (telemetry.simulations, telemetry.unavailable) == (len(_SCHEMES) * len(cases) - 4, 4)
    for trace in traces:
        compute_stats(trace)
        content_digest(trace)
        save_trace(trace, tmp_path / "t.btb")
        save_trace(trace, tmp_path / "t.btr")
        save_trace(trace, tmp_path / "t.btrs")
        save_source(trace, tmp_path / "s.btb")
    _spool_traces({case.name: case for case in cases}, tmp_path)
    assert built == []
    assert all(trace._lists is None for trace in traces)

    # The first per-record loop builds the lists once, and only then.
    trace = traces[0]
    assert list(trace.iter_tuples())[:3] == list(zip(*trace.columns))[:3]
    assert built == [trace]


# ----------------------------------------------------------------------
# Memory pin
# ----------------------------------------------------------------------

def test_builder_trace_costs_at_most_40_bytes_per_record():
    workload = get_workload("doduc")
    workload.generate("testing")  # warm import-time and workload caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = workload.generate("testing")
        gc.collect()
        stored = tracemalloc.get_traced_memory()[0] - before
        assert trace.columns
        with_lists = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    per_record = stored / len(trace)
    assert len(trace) > 100_000
    assert per_record <= 40, f"{per_record:.1f} B per record"
    # The lists are the ~145 B per record that only per-record loops pay.
    assert with_lists / len(trace) > per_record + 100


# ----------------------------------------------------------------------
# Round trip
# ----------------------------------------------------------------------

_int64 = st.integers(-(1 << 63), (1 << 63) - 1)
_records = st.lists(
    st.tuples(
        st.one_of(st.sampled_from([0x40, 0x44, 0x80]), _int64),  # pc
        st.booleans(),
        st.sampled_from(list(BranchClass)),
        st.one_of(st.just(0), _int64),  # target
        st.integers(0, 1 << 20),  # work
        st.booleans(),  # a trap before the branch
    ),
    max_size=300,
)


def _build(records, meta):
    """The trace a builder records, and the columns it must hold."""
    builder = TraceBuilder(meta.name, meta.dataset, meta.source)
    expected = tuple([] for _ in _NAMES)
    instret, trapped = 0, False
    for pc, taken, cls, target, work, trap in records:
        if trap:
            builder.trap()
            instret, trapped = instret + 1, True
        builder.branch(pc, taken, cls, target=target, work=work)
        instret += work + 1
        row = (pc, taken or cls is not BranchClass.CONDITIONAL, int(cls), target, instret, trapped)
        for column, value in zip(expected, row):
            column.append(value)
        trapped = False
    return builder.build(total_instructions=meta.total_instructions), expected


def _assert_stores(trace, meta, expected, digest):
    """``trace`` stores arrays equal to ``expected`` and no lists; its
    lazily built lists equal ``expected`` with canonical element types."""
    assert trace.meta == meta
    assert len(trace) == trace.num_records == len(expected[0])
    assert trace._lists is None, "lists are built only on first access"
    arrays = trace.as_arrays()
    for name, dtype, want in zip(_NAMES, _DTYPES, expected):
        got = getattr(arrays, name)
        assert got.dtype == dtype and not got.flags.writeable, name
        assert np.array_equal(got, np.asarray(want, dtype=dtype)), name
    assert np.array_equal(arrays.cond_mask, arrays.cls == 0)
    assert trace.num_conditional() == int(arrays.cond_mask.sum())
    assert content_digest(trace) == digest
    assert trace._lists is None, "neither the digest nor the counts build lists"
    for column, kind, want in zip(trace.columns, _TYPES, expected):
        assert column == want
        assert all(type(value) is kind for value in column)


@PROFILE
@given(records=_records, data=st.data())
def test_every_producer_stores_the_same_arrays_and_lists(records, data):
    meta = TraceMeta("t", "d", "workload", total_instructions=data.draw(st.integers(0, 1 << 40)))
    built, expected = _build(records, meta)
    digest = content_digest(Trace(meta, *expected))
    _assert_stores(built, meta, expected, digest)
    _assert_stores(Trace(meta, *expected), meta, expected, digest)
    _assert_stores(Trace(meta, *(np.asarray(c, dtype=d) for c, d in zip(expected, _DTYPES))),
                   meta, expected, digest)

    binary = io.BytesIO()
    write_binary(built, binary)
    _assert_stores(read_binary(io.BytesIO(binary.getvalue())), meta, expected, digest)
    text = io.StringIO()
    write_text(built, text)
    _assert_stores(read_text(io.StringIO(text.getvalue())), meta, expected, digest)

    n = data.draw(st.integers(-3, len(records) + 3))
    head = tuple(column[:n] for column in expected)
    head_digest = content_digest(Trace(meta, *head))
    _assert_stores(built.head(n), meta, head, head_digest)
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "t.btrs"
        save_source(built, path, block_size=data.draw(st.integers(1, 64)))
        with open_stream(path) as streamed:
            _assert_stores(streamed.materialize(), meta, expected, digest)
            stream_head = tuple(column[:max(n, 0)] for column in expected)
            _assert_stores(streamed.head(n), meta, stream_head,
                           content_digest(Trace(meta, *stream_head)))

    rows = data.draw(st.lists(st.integers(0, max(len(records) - 1, 0)), max_size=40)
                     if records else st.just([]))
    picked = tuple([column[i] for i in rows] for column in expected)
    _assert_stores(built.select(rows), meta, picked, content_digest(Trace(meta, *picked)))
    keep = [i for i, cls in enumerate(expected[2]) if cls == BranchClass.CONDITIONAL]
    conditional = tuple([column[i] for i in keep] for column in expected)
    _assert_stores(built.conditional_only(), meta, conditional,
                   content_digest(Trace(meta, *conditional)))
    assert built.static_branch_sites() == sorted(set(conditional[0]))
    assert all(type(pc) is int for pc in built.static_branch_sites())


def test_blocks_are_array_slices_and_the_whole_block_shares_the_arrays():
    meta = TraceMeta("t")
    trace = Trace(meta, [4, 8, 4], [True, False, True], [0, 1, 0], [0, 9, 0],
                  [1, 2, 3], [False, True, False])
    whole, = trace.iter_blocks()
    assert whole.as_arrays() is trace.as_arrays()
    blocks = list(trace.iter_blocks(2))
    assert [block.start for block in blocks] == [0, 2]
    assert all(isinstance(column, np.ndarray) for block in blocks for column in block.columns)
    assert [list(block.iter_tuples()) for block in blocks] == [
        [(4, True, 0, 0, 1, False), (8, False, 1, 9, 2, True)], [(4, True, 0, 0, 3, False)]]
    assert blocks[1].to_trace().columns == ([4], [True], [0], [0], [3], [False])
    assert trace._lists is None
    # The constructor copies: the caller's arrays stay writeable and apart.
    pc = np.array([4, 8, 4], dtype=np.int64)
    copied = Trace(meta, pc, [True] * 3, [0] * 3, [0] * 3, [1, 2, 3], [False] * 3)
    pc[0] = 99
    assert pc.flags.writeable and copied.as_arrays().pc[0] == 4


# ----------------------------------------------------------------------
# Wide values
# ----------------------------------------------------------------------

_INT64 = "int64 column (allowed range [-9223372036854775808, 9223372036854775807])"


@pytest.mark.parametrize("column,value,allowed,dtype", [
    pytest.param("pc", 1 << 63, _INT64, None, id="pc"),
    pytest.param("cls", 256, "uint8 column (allowed range [0, 255])", None, id="cls"),
    pytest.param("target", -(1 << 63) - 1, _INT64, None, id="target"),
    pytest.param("instret", 1 << 70, _INT64, None, id="instret"),
    # NumPy columns whose cast to the column dtype would wrap or truncate.
    pytest.param("pc", 1 << 63, _INT64, np.uint64, id="pc-uint64"),
    pytest.param("instret", 1.9e19, _INT64, np.float64, id="instret-float64"),
    pytest.param("instret", float("nan"), _INT64, np.float64, id="instret-nan"),
    pytest.param("target", 2.5, _INT64, np.float64, id="target-fraction"),
])
def test_wide_values_are_rejected_at_every_entry(column, value, allowed, dtype):
    good = dict(zip(_NAMES, (0x10, True, 0, 0x40, 5, False)))
    narrow = [tuple(good.values())] * 4
    rows = list(narrow)
    rows[2] = tuple(dict(good, **{column: value}).values())

    def rejected(index):
        return pytest.raises(TraceFormatError, match=re.escape(
            f"record {index}: {column}={value} does not fit the {allowed}"))

    if dtype is not None:
        columns = [np.array(values, dtype=dtype) if name == column else values
                   for name, values in zip(_NAMES, zip(*rows))]
        with rejected(2):
            Trace(TraceMeta("wide"), *columns)
        with rejected(2):
            TraceArrays(columns)
        return
    with rejected(2):
        Trace(TraceMeta("wide"), *zip(*rows))
    builder = TraceBuilder()
    for index, (pc, taken, cls, target, instret, _trap) in enumerate(rows):
        # Three records retire 3 instructions before the wide one's work.
        work = instret - 3 if column == "instret" and index == 2 else 0
        builder.branch(pc, taken, cls, target=target, work=work)
    with rejected(2):
        builder.build()
    with rejected(2):
        trace_from_records(BranchRecord(*row) for row in rows)
    if column != "cls":  # the text format spells the class by name
        text = "# total_instructions=9\n" + "".join(
            f"{pc} {int(taken)} cond {target} {instret} {int(trap)}\n"
            for pc, taken, _cls, target, instret, trap in rows)
        with rejected(2):
            read_text(io.StringIO(text))
    # A generator's records are counted from the start of the stream.
    source = RecordStreamSource(lambda: iter(narrow + rows), num_records=8)
    blocks = source.iter_blocks(4)
    assert len(next(blocks)) == 4
    with rejected(6):
        next(blocks)
