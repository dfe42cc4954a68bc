"""Randomised oracle for the array-based trace transforms.

``window``, ``skip_warmup``, ``filter_sites``, ``subsample_sites`` and
``split_phases`` compute their record indices on a trace's arrays
(slices, ``cond_mask``, ``np.isin``, one predicate call per distinct
conditional pc). The per-record loops they replaced are kept below,
verbatim but for reading plain record tuples, as the oracle: each
transform must return the records the loop selects, with the trace's
metadata, and must leave both the trace and its result without Python
lists (``_lists is None``).

The example budget comes from the hypothesis profile named by
``HYPOTHESIS_PROFILE`` (see ``conftest.py``).
"""

import os

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.trace.events import BranchClass, Trace, TraceMeta
from repro.trace.transforms import (
    filter_sites,
    skip_warmup,
    split_phases,
    subsample_sites,
    window,
)

PROFILE = settings(
    settings.get_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1")),
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# The per-record loops the transforms replaced
# ----------------------------------------------------------------------

def reference_window(records, start, count):
    return list(range(min(start, len(records)), min(start + count, len(records))))


def reference_skip_warmup(records, conditional_branches):
    seen = 0
    cut = 0
    for index, (_pc, _taken, cls, _target, _instret, _trap) in enumerate(records):
        if cls == BranchClass.CONDITIONAL:
            seen += 1
            if seen > conditional_branches:
                cut = index
                break
    else:
        cut = len(records)
    return list(range(cut, len(records)))


def reference_filter_sites(records, sites, keep):
    site_set = set(sites)
    indices = []
    for index, (pc, _taken, cls, _target, _instret, _trap) in enumerate(records):
        if cls != BranchClass.CONDITIONAL:
            indices.append(index)
            continue
        if (pc in site_set) == keep:
            indices.append(index)
    return indices


def reference_split_phases(records, phases):
    size = max(len(records) // phases, 1)
    pieces = []
    for start in range(0, len(records), size):
        pieces.append(list(range(start, min(start + size, len(records)))))
        if len(pieces) == phases:
            # Fold any remainder into the final phase.
            remainder = list(range(start + size, len(records)))
            if remainder:
                pieces[-1] = list(range(start, len(records)))
            break
    return pieces


def reference_subsample_sites(records, predicate):
    indices = []
    for index, (pc, _taken, cls, _target, _instret, _trap) in enumerate(records):
        if cls != BranchClass.CONDITIONAL or predicate(pc):
            indices.append(index)
    return indices


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------

_PCS = (0x40, 0x44, 0x80, 0x84, -0x10, 1 << 40)
_records = st.lists(
    st.tuples(
        st.sampled_from(_PCS),
        st.booleans(),
        st.sampled_from([int(c) for c in BranchClass] + [0, 0]),  # mostly conditional
        st.sampled_from([0, 0x100]),
        st.integers(0, 3),  # instructions since the previous record
        st.booleans(),
    ),
    max_size=120,
)


def _trace(rows):
    """A trace of ``rows`` and its records as plain tuples."""
    instret, records = 0, []
    for pc, taken, cls, target, work, trap in rows:
        instret += work + 1
        records.append((pc, taken or cls != 0, cls, target, instret, trap))
    meta = TraceMeta("t", "d", "synthetic", total_instructions=instret + 5)
    columns = [list(column) for column in zip(*records)] or [[]] * 6
    return Trace(meta, *columns), records


def _assert_selects(result, trace, records, indices):
    """``result`` holds exactly ``records[indices]``, with ``trace``'s
    metadata, and neither trace has built its lists."""
    assert trace._lists is None and result._lists is None
    assert result.meta == trace.meta
    expected = [records[i] for i in indices]
    got = result.as_arrays()
    for position, (name, dtype) in enumerate(zip(
            ("pc", "taken", "cls", "target", "instret", "trap"),
            (np.int64, np.bool_, np.uint8, np.int64, np.int64, np.bool_))):
        want = np.asarray([record[position] for record in expected], dtype=dtype)
        assert np.array_equal(getattr(got, name), want), name
    assert result._lists is None


@PROFILE
@given(rows=_records, data=st.data())
def test_transforms_match_the_record_loops(rows, data):
    trace, records = _trace(rows)
    n = len(records)

    start = data.draw(st.integers(0, n + 3))
    count = data.draw(st.integers(0, n + 3))
    _assert_selects(window(trace, start, count), trace, records,
                    reference_window(records, start, count))

    skip = data.draw(st.integers(0, n + 2))
    _assert_selects(skip_warmup(trace, skip), trace, records,
                    reference_skip_warmup(records, skip))

    sites = data.draw(st.lists(st.sampled_from(_PCS + (0x999, 1 << 70)), max_size=4))
    keep = data.draw(st.booleans())
    _assert_selects(filter_sites(trace, sites, keep=keep), trace, records,
                    reference_filter_sites(records, sites, keep))

    modulus = data.draw(st.integers(1, 5))
    calls = []

    def predicate(pc):
        calls.append(pc)
        return pc % modulus == 0

    _assert_selects(subsample_sites(trace, predicate), trace, records,
                    reference_subsample_sites(records, lambda pc: pc % modulus == 0))
    # One call per distinct conditional pc, not one per record.
    conditional_pcs = {record[0] for record in records if record[2] == BranchClass.CONDITIONAL}
    assert sorted(calls) == sorted(conditional_pcs)

    phases = data.draw(st.integers(1, 8))
    pieces = split_phases(trace, phases)
    expected = reference_split_phases(records, phases)
    assert len(pieces) == len(expected)
    for piece, indices in zip(pieces, expected):
        _assert_selects(piece, trace, records, indices)
