"""Randomised oracle for the interference and bound analyses.

``first_level_interference``, ``second_level_interference``,
``bht_pressure``, ``bias_bound`` and ``history_bound`` tally the first
level the vectorized kernels build (global and per-address registers,
BHT layouts), folded over the kernels' block loop. The per-record loops
they replaced are kept verbatim in ``tests/reference_analysis.py``.
Hypothesis draws interleaved traces over a pool of branch sites that
collide in every BHT set (so the 512x4, 256x1 and 64x2 tables all
evict), a history length (1-12 and 20) and a block size (``None``, 1,
an odd size or one past the trace), then requires ``==`` between each
analysis and its reference, dataclass for dataclass, for an in-memory
``Trace``, a ``StreamedTrace`` container and a ``.limit(n)``
``RecordStreamSource``. The bounds take no block size, so their streamed
sources serve the drawn block size whatever size is asked for, which
walks their carried tallies across the same block edges.

The example budget comes from the hypothesis profile named by
``HYPOTHESIS_PROFILE`` (see ``conftest.py``).
"""

import itertools
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.bounds import bias_bound, history_bound
from repro.analysis.interference import (
    bht_pressure,
    first_level_interference,
    second_level_interference,
)
from repro.trace.events import BranchClass, Trace, TraceMeta
from repro.trace.stream import RecordStreamSource, open_stream, save_source
from tests import reference_analysis as reference

PROFILE = settings(
    settings.get_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1")),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

BHTS = ((512, 4), (256, 1), (64, 2))
HISTORY_BITS = list(range(1, 13)) + [20]


class _FixedBlocks:
    """A source over ``inner`` that serves ``block_size``-record blocks
    whatever size is asked for."""

    def __init__(self, inner, block_size) -> None:
        self.meta = inner.meta
        self.num_records = inner.num_records
        self._inner = inner
        self._block_size = block_size

    def iter_blocks(self, block_size=None):
        return self._inner.iter_blocks(self._block_size)

    def iter_tuples(self):
        return self._inner.iter_tuples()


@st.composite
def traces(draw):
    """An interleaved trace: each record picks a site from a pool whose
    pcs share a few set indices (tags ``* 128`` apart), with calls mixed
    in."""
    n = draw(st.integers(0, 300))
    sites = st.tuples(st.integers(0, 5), st.integers(0, 15))
    pool = draw(st.lists(sites.map(lambda site: site[0] + 128 * site[1]),
                         min_size=1, max_size=40, unique=True))
    bias = {pc: draw(st.sampled_from((0.1, 0.5, 0.9))) for pc in pool}
    pcs, taken, cls = [], [], []
    for i in range(n):
        if draw(st.integers(0, 9)) == 0:
            pcs.append(4096 + i)
            taken.append(True)
            cls.append(int(BranchClass.CALL))
            continue
        pc = draw(st.sampled_from(pool))
        pcs.append(pc)
        taken.append(draw(st.floats(0, 1)) < bias[pc])
        cls.append(int(BranchClass.CONDITIONAL))
    return Trace(
        meta=TraceMeta(name="interference-oracle"),
        pc=pcs, taken=taken, cls=cls, target=[0] * n, instret=list(range(1, n + 1)),
        trap=[False] * n,
    )


def _sources(trace, directory):
    """The trace in memory, as a ``.btrs`` container and as a bounded
    record generator (an endless cycle of its records, limited)."""
    path = Path(directory) / "trace.btrs"
    save_source(trace, path)
    records = list(trace.iter_tuples())
    cycled = RecordStreamSource(lambda: itertools.cycle(records), name=trace.meta.name)
    return {"trace": trace, "streamed": open_stream(path), "records": cycled.limit(len(trace))}


@PROFILE
@given(
    trace=traces(),
    k=st.sampled_from(HISTORY_BITS),
    block_size=st.one_of(
        st.none(), st.just(1), st.integers(1, 40).map(lambda half: 2 * half + 1),
        st.just(10**9),
    ),
    source_kind=st.sampled_from(("trace", "streamed", "records")),
)
def test_analyses_match_reference_loops(trace, k, block_size, source_kind):
    with tempfile.TemporaryDirectory() as directory:
        source = _sources(trace, directory)[source_kind]
        assert first_level_interference(source, k, block_size=block_size) == (
            reference.first_level_interference(trace, k)
        )
        assert second_level_interference(source, k, block_size=block_size) == (
            reference.second_level_interference(trace, k)
        )
        for entries, ways in BHTS:
            assert bht_pressure(source, entries, ways, block_size=block_size) == (
                reference.bht_pressure(trace, entries, ways)
            )
        blocked = source if block_size is None else _FixedBlocks(source, block_size)
        assert bias_bound(blocked) == reference.bias_bound(trace)
        for per_address in (True, False):
            assert history_bound(blocked, k, per_address=per_address) == (
                reference.history_bound(trace, k, per_address=per_address)
            )


@pytest.mark.parametrize("analysis", [
    lambda trace, k: first_level_interference(trace, k),
    lambda trace, k: second_level_interference(trace, k),
    lambda trace, k: history_bound(trace, k),
    lambda trace, k: history_bound(trace, k, per_address=False),
], ids=["first_level", "second_level", "history_bound", "history_bound_global"])
def test_history_beyond_the_kernels_limit_is_refused(analysis):
    # The kernels window at most 24 history bits; there is no fallback
    # loop, so a longer register is a ValueError that names the limit.
    trace = Trace(meta=TraceMeta(name="limit"), pc=[1, 2, 1], taken=[True, False, True],
                  cls=[int(BranchClass.CONDITIONAL)] * 3, target=[0] * 3,
                  instret=[1, 2, 3], trap=[False] * 3)
    with pytest.raises(ValueError, match=r"1\.\.24"):
        analysis(trace, 25)
    with pytest.raises(ValueError, match=r"1\.\.24"):
        analysis(trace, 0)
    analysis(trace, 24)


def test_unbounded_source_is_refused():
    endless = RecordStreamSource(lambda: itertools.repeat((1, True, 0, 0, 1, False)))
    with pytest.raises(ValueError, match=r"bound it with \.limit\(n\)"):
        bht_pressure(endless)
    assert bht_pressure(endless.limit(5)).accesses == 5
