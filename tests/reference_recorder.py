"""The trace recorders that the packed-log :class:`TraceBuilder` replaced.

``ReferenceBuilder`` is the six-list builder and ``ReferenceProbe`` the
probe over it, kept verbatim as the oracle for
``tests/test_trace_builder.py`` and the speed pin in
``benchmarks/test_bench_workloads.py``, with the comparison both use.
The reference builder hands the six lists it recorded to the public
``Trace`` constructor, which converts them exactly or raises
:class:`TraceFormatError` naming the first record that does not fit.
"""

from typing import Dict, List, Optional, Set

import numpy as np
import pytest

from repro.trace.events import BranchClass, Trace, TraceFormatError, TraceMeta
from repro.trace.stream import content_digest
from repro.workloads.base import stable_site_id

_BRANCH_SPAN = 64


class ReferenceBuilder:
    def __init__(self, name: str = "anonymous", dataset: str = "", source: str = "unknown") -> None:
        self._name = name
        self._dataset = dataset
        self._source = source
        self._instret = 0
        self._pending_trap = False
        self._pc: List[int] = []
        self._taken: List[bool] = []
        self._cls: List[int] = []
        self._target: List[int] = []
        self._instret_col: List[int] = []
        self._trap: List[bool] = []

    def __len__(self) -> int:
        return len(self._pc)

    @property
    def instret(self) -> int:
        return self._instret

    def instructions(self, count: int) -> None:
        if count < 0:
            raise ValueError("instruction count must be non-negative")
        self._instret += count

    def trap(self) -> None:
        self._pending_trap = True
        self._instret += 1

    def branch(self, pc, taken, branch_class=BranchClass.CONDITIONAL, target=0, work=0):
        if branch_class is not BranchClass.CONDITIONAL:
            taken = True
        self._instret += work + 1
        self._pc.append(pc)
        self._taken.append(bool(taken))
        self._cls.append(int(branch_class))
        self._target.append(target)
        self._instret_col.append(self._instret)
        self._trap.append(self._pending_trap)
        self._pending_trap = False
        return taken

    def conditional(self, pc, taken, work=0):
        return self.branch(pc, taken, BranchClass.CONDITIONAL, work=work)

    def unconditional(self, pc, target=0, work=0):
        self.branch(pc, True, BranchClass.UNCONDITIONAL, target=target, work=work)

    def call(self, pc, target=0, work=0):
        self.branch(pc, True, BranchClass.CALL, target=target, work=work)

    def ret(self, pc, target=0, work=0):
        self.branch(pc, True, BranchClass.RETURN, target=target, work=work)

    def build(self, total_instructions: Optional[int] = None) -> Trace:
        meta = TraceMeta(
            name=self._name,
            dataset=self._dataset,
            source=self._source,
            total_instructions=self._instret if total_instructions is None else total_instructions,
        )
        return Trace(meta, self._pc, self._taken, self._cls,
                     self._target, self._instret_col, self._trap)


class ReferenceProbe:
    def __init__(self, namespace: str, builder) -> None:
        self.namespace = namespace
        self.builder = builder
        self._sites: Dict[str, int] = {}
        self._backward: Set[str] = set()
        self._used_pcs: Set[int] = set()

    def site(self, label: str) -> int:
        pc = self._sites.get(label)
        if pc is None:
            salt = 0
            pc = stable_site_id(self.namespace, label, salt)
            while pc in self._used_pcs:
                salt += 1
                pc = stable_site_id(self.namespace, label, salt)
            self._sites[label] = pc
            self._used_pcs.add(pc)
        return pc

    @property
    def num_sites(self) -> int:
        return len(self._sites)

    def cond(self, label, taken, work=3, backward=False):
        pc = self.site(label)
        if backward:
            self._backward.add(label)
        target = pc - _BRANCH_SPAN if label in self._backward else pc + _BRANCH_SPAN
        self.builder.branch(pc, taken, BranchClass.CONDITIONAL, target=target, work=work)
        return taken

    def loop(self, label, count, work=3):
        for index in range(count):
            yield index
            self.cond(label, True, work=work, backward=True)
        self.cond(label, False, work=work, backward=True)

    def while_(self, label, condition, work=3):
        return self.cond(label, condition, work=work, backward=True)

    def call(self, label, work=2):
        pc = self.site(label)
        self.builder.call(pc, target=pc + _BRANCH_SPAN, work=work)

    def ret(self, label, work=1):
        pc = self.site(label)
        self.builder.ret(pc, work=work)

    def jump(self, label, work=1):
        pc = self.site(label)
        self.builder.unconditional(pc, target=pc + _BRANCH_SPAN, work=work)

    def trap(self):
        self.builder.trap()

    def work(self, count):
        self.builder.instructions(count)


def assert_same_build(builder, reference, **kwargs) -> None:
    """``builder.build(**kwargs)`` and ``reference.build(**kwargs)`` give
    the same trace (see :func:`assert_same_trace`), or both raise a
    :class:`TraceFormatError` with the same message: the same column,
    record and allowed range."""
    try:
        expected = reference.build(**kwargs)
    except TraceFormatError as exc:
        with pytest.raises(TraceFormatError) as raised:
            builder.build(**kwargs)
        assert str(raised.value) == str(exc)
    else:
        assert_same_trace(builder.build(**kwargs), expected)


def assert_same_trace(trace: Trace, expected: Trace, digest: bool = True) -> None:
    """``trace`` equals ``expected``, a reference recorder's trace, with
    equal metadata: it stores equal read-only arrays and has built no
    lists yet, and the lists ``trace.columns`` then gives equal the
    recorded ones column for column, element type for element type."""
    assert trace.meta == expected.meta
    assert len(trace) == len(expected)
    assert trace._lists is None, "a builder trace builds its lists only on demand"
    arrays, want_arrays = trace.as_arrays(), expected.as_arrays()
    for name in ("pc", "taken", "cls", "target", "instret", "trap", "cond_mask"):
        got, want = getattr(arrays, name), getattr(want_arrays, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert not got.flags.writeable
    for column, want in zip(trace.columns, expected.columns):
        assert column == want
        assert list(map(type, column)) == list(map(type, want))
    # The .btb header, and so the digest, holds an int64 instruction count.
    if digest and -(1 << 63) <= expected.meta.total_instructions < 1 << 63:
        assert content_digest(trace) == content_digest(expected)
