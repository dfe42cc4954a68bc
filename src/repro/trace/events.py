"""Branch trace events.

The unit of exchange between every trace producer (the SPEC-analog
workloads, the M88K-flavoured instruction-level simulator, and the
synthetic generators) and every consumer (the prediction engine, the
statistics collectors) is the :class:`BranchRecord`.

A record describes one *dynamic* branch: which static branch instruction
it came from (``pc``), what kind of branch it is (``branch_class``),
whether it was taken, where it went, how many dynamic instructions had
retired when it resolved (``instret`` — needed for the paper's
500 000-instruction context-switch model), and whether a trap was raised
at this point (the paper's other context-switch trigger).

Traces are stored column-wise in a :class:`Trace`, once, as NumPy
arrays (27 bytes per record, see :class:`TraceArrays`); plain Python
lists are built only for per-record loops. :class:`TraceBuilder` is the
append-only construction interface used by all producers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np


def _stable_argsort(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of integer keys as one sort of packed words.

    Each key, less the smallest, goes above its index: the words
    ``(key - low) << s | index`` (``s`` = bit width of ``n - 1``) are
    unique, so ``np.sort`` orders them by key with ties broken by index
    whatever its stability, and their low ``s`` bits are the
    permutation. The words are ``uint32`` when the key span and the
    index fit 32 bits, ``uint64`` when they fit 64; wider spans take
    NumPy's stable argsort. The permutation is intp, which gathers take
    without a conversion. On 1.48M keys (one core of an AVX-512 host)
    the ``uint32`` sort with its decode takes ~11 ms, against ~25 ms for
    NumPy's radix argsort of the same keys as ``uint16``; the ``uint64``
    one ~29 ms, against ~73 ms for two chained ``uint16`` radix passes
    and ~220 ms for a stable argsort of int64.
    """
    n = keys.shape[0]
    if n <= 1:
        return np.zeros(n, dtype=np.intp)
    low = int(keys.min())
    s = (n - 1).bit_length()
    bits = (int(keys.max()) - low).bit_length() + s
    if bits > 64:
        return np.argsort(keys, kind="stable")
    dtype = np.uint32 if bits <= 32 else np.uint64
    # Integer casts wrap, so ``key - low`` comes out right modulo the
    # word, which holds it.
    words = keys.astype(dtype)
    if low:
        words -= dtype(low % (1 << 8 * words.itemsize))
    words <<= s
    words |= np.arange(n, dtype=dtype)
    words.sort()
    words &= dtype((1 << s) - 1)
    if dtype is np.uint64:
        return words.view(np.int64).astype(np.intp, copy=False)
    return words.astype(np.intp)


class TraceFormatError(ValueError):
    """Raised when a trace file is malformed, or a record value does not
    fit its column's dtype."""


class BranchClass(enum.IntEnum):
    """Dynamic branch classes distinguished by the paper's Figure 4."""

    CONDITIONAL = 0
    UNCONDITIONAL = 1
    CALL = 2
    RETURN = 3

    @property
    def short_name(self) -> str:
        return _SHORT_NAMES[self]


_CONDITIONAL = BranchClass.CONDITIONAL

_SHORT_NAMES = {
    BranchClass.CONDITIONAL: "cond",
    BranchClass.UNCONDITIONAL: "uncond",
    BranchClass.CALL: "call",
    BranchClass.RETURN: "return",
}


@dataclass(frozen=True)
class BranchRecord:
    """One dynamic branch execution.

    Attributes:
        pc: address (or stable static site id) of the branch instruction.
        taken: the resolved direction. Unconditional branches, calls and
            returns are always taken.
        branch_class: conditional / unconditional / call / return.
        target: the resolved target address (0 when unknown/not modelled).
        instret: cumulative count of dynamic instructions retired up to
            and including this branch. Monotonically non-decreasing
            within a trace.
        trap: True when a trap (system call, fault) was raised at this
            point; the simulation engine treats traps as context-switch
            opportunities, as in the paper.
    """

    pc: int
    taken: bool
    branch_class: BranchClass = BranchClass.CONDITIONAL
    target: int = 0
    instret: int = 0
    trap: bool = False

    @property
    def is_conditional(self) -> bool:
        return self.branch_class is BranchClass.CONDITIONAL


@dataclass(frozen=True)
class TraceMeta:
    """Identifying metadata for a trace.

    Attributes:
        name: benchmark name, e.g. ``"eqntott"``.
        dataset: input dataset label, e.g. ``"int_pri_3.eqn"``.
        source: producer identifier (``"workload"``, ``"isa"``,
            ``"synthetic"``, ``"file"``).
        total_instructions: total dynamic instruction count of the run
            the trace was captured from (>= last record's ``instret``).
        extra: unknown metadata keys carried through by the text trace
            format, as a sorted tuple of ``(key, value)`` string pairs
            (a tuple keeps the dataclass hashable). The binary format
            does not serialize them.
    """

    name: str = "anonymous"
    dataset: str = ""
    source: str = "unknown"
    total_instructions: int = 0
    extra: Tuple[Tuple[str, str], ...] = ()


class Trace:
    """An immutable, column-wise store of branch records.

    A trace stores its records once, as the read-only NumPy columns of
    its :class:`TraceArrays` (27 bytes per record): the vectorized
    kernels, the statistics passes, the writers and the content digest
    all read them. Per-record Python loops (the interpreted engine, the
    fetch model) iterate tuples of native ints and bools through
    ``zip``, several times faster than indexing arrays, so the first
    list access (:attr:`columns`, :meth:`iter_tuples`, iteration,
    indexing) builds six plain lists with ``tolist()`` and caches them
    on the trace, about 145 bytes per record more on 64-bit CPython.
    The constructor converts (and so copies) the columns it is given,
    and raises :class:`TraceFormatError` naming the record when a value
    does not fit its array's dtype (a pc at or above ``2**63``, say).
    """

    __slots__ = ("meta", "_arrays", "_lists", "_digest")

    def __init__(
        self,
        meta: TraceMeta,
        pc: Sequence[int],
        taken: Sequence[bool],
        cls: Sequence[int],
        target: Sequence[int],
        instret: Sequence[int],
        trap: Sequence[bool],
    ) -> None:
        self._adopt(meta, TraceArrays((pc, taken, cls, target, instret, trap), copy=True))

    @classmethod
    def _from_arrays(cls, meta: TraceMeta, arrays: "TraceArrays") -> "Trace":
        """A trace that stores ``arrays`` as they are."""
        trace = cls.__new__(cls)
        trace._adopt(meta, arrays)
        return trace

    def _adopt(self, meta: TraceMeta, arrays: "TraceArrays") -> None:
        self.meta = meta
        self._arrays = arrays
        # The six list columns, built on the first list access.
        self._lists = None
        # sha256 hex digest, cached by repro.trace.stream.content_digest.
        self._digest: Optional[str] = None

    def __len__(self) -> int:
        return len(self._arrays)

    def __iter__(self) -> Iterator[BranchRecord]:
        for pc, taken, cls, target, instret, trap in self.iter_tuples():
            yield BranchRecord(
                pc=pc,
                taken=taken,
                branch_class=BranchClass(cls),
                target=target,
                instret=instret,
                trap=trap,
            )

    def __getitem__(self, index: int) -> BranchRecord:
        pc, taken, cls, target, instret, trap = self.columns
        return BranchRecord(
            pc=pc[index],
            taken=taken[index],
            branch_class=BranchClass(cls[index]),
            target=target[index],
            instret=instret[index],
            trap=trap[index],
        )

    def iter_tuples(self) -> Iterator[Tuple[int, bool, int, int, int, bool]]:
        """Yield ``(pc, taken, cls, target, instret, trap)`` tuples.

        This is the hot path of the interpreted engine; it iterates the
        cached list columns (see :attr:`columns`).
        """
        return zip(*self.columns)

    @property
    def columns(self) -> Tuple[List[int], List[bool], List[int], List[int], List[int], List[bool]]:
        """The columns (pc, taken, cls, target, instret, trap) as plain
        Python lists of ``int`` and ``bool``.

        Built from the arrays with ``tolist()`` on first access and
        cached on the trace, so only per-record loops pay for them.
        """
        if self._lists is None:
            self._lists = tuple(column.tolist() for column in self._arrays.columns)
        return self._lists

    def as_arrays(self) -> "TraceArrays":
        """The trace's read-only :class:`TraceArrays`.

        The vectorized simulation backend (:mod:`repro.sim.kernels`)
        consumes traces through this API, and every simulation of the
        trace shares the one instance.
        """
        return self._arrays

    # ------------------------------------------------------------------
    # TraceSource protocol (see repro.trace.stream)
    # ------------------------------------------------------------------
    @property
    def num_records(self) -> int:
        """Record count (``TraceSource`` protocol; always known here)."""
        return len(self)

    def iter_blocks(self, block_size: Optional[int] = None) -> Iterator["TraceBlock"]:
        """Yield the trace as :class:`TraceBlock` windows.

        Blocks hold slices of the trace's arrays. ``block_size=None``
        yields the whole trace as a single block that shares the trace's
        :class:`TraceArrays`, so the vectorized engine pays no conversion
        twice. An empty trace yields no blocks. This makes an in-memory
        :class:`Trace` a valid :class:`repro.trace.stream.TraceSource`.
        """
        n = len(self)
        if block_size is not None and block_size < 1:
            raise ValueError("block_size must be >= 1")
        if n == 0:
            return
        if block_size is None or block_size >= n:
            yield TraceBlock(self.meta, 0, self._arrays)
            return
        for start in range(0, n, block_size):
            yield TraceBlock(self.meta, start, self._arrays[start:start + block_size])

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def conditional_only(self) -> "Trace":
        """A new trace containing only conditional-branch records."""
        return self.select(np.flatnonzero(self._arrays.cond_mask))

    def select(self, indices: Union[Sequence[int], slice]) -> "Trace":
        """A new trace containing only the records at ``indices``: a
        sequence of record indices, gathered from the arrays, or a
        slice, whose arrays are views of this trace's (read-only)
        arrays."""
        if not isinstance(indices, slice):
            indices = np.asarray(indices, dtype=np.intp)
        return Trace._from_arrays(self.meta, self._arrays[indices])

    def head(self, n: int) -> "Trace":
        """A new trace containing the first ``n`` records, as views of
        this trace's arrays."""
        return self.select(slice(n))

    def static_branch_sites(self) -> List[int]:
        """Sorted distinct PCs of *conditional* branches in the trace."""
        return np.unique(self._arrays.pc[self._arrays.cond_mask]).tolist()

    def num_conditional(self) -> int:
        return int(np.count_nonzero(self._arrays.cond_mask))

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.meta.name!r}, dataset={self.meta.dataset!r}, "
            f"records={len(self)}, conditional={self.num_conditional()})"
        )


class TraceArrays:
    """Read-only columnar NumPy form of a trace's records.

    One array per record column (``int64`` pc, target and instret,
    ``uint8`` class, ``bool`` taken and trap: 27 bytes per record), plus
    the derived products every vectorized consumer needs: the
    conditional-record mask and (lazily) the dense site-id relabelling
    of conditional PCs. This is the one form in which a :class:`Trace`
    and every :class:`TraceBlock` store their records; converting
    columns to it is where a value outside the dtypes is rejected.

    ``residency`` holds the vectorized kernels' set-associative BHT
    residency words for this trace, keyed by ``(num_sets,
    associativity, context-switch model)``: one read-only unsigned word
    per conditional record, filled by :mod:`repro.sim.kernels` on a
    trace's first whole-trace replay at that geometry, so they live
    exactly as long as these arrays.
    """

    __slots__ = ("pc", "taken", "cls", "target", "instret", "trap",
                 "cond_mask", "_sites", "_site_ids", "residency", "__weakref__")

    def __init__(self, columns, *, copy: bool = False, start: int = 0) -> None:
        """Convert ``columns``, the six record columns ``(pc, taken,
        cls, target, instret, trap)`` as lists or arrays.

        Arrays already carrying their canonical dtype are adopted
        without copying and frozen in place, unless ``copy`` is set.

        Raises:
            ValueError: when the columns differ in length.
            TraceFormatError: when a value does not fit its dtype, naming
                the column, the record (counted from ``start``) and the
                allowed range.
        """
        lengths = {len(column) for column in columns}
        if len(lengths) != 1:
            raise ValueError(f"column lengths differ: {sorted(lengths)}")
        convert = np.array if copy else np.asarray
        pc, taken, cls, target, instret, trap = columns
        self.pc = _convert("pc", pc, np.int64, convert, start)
        self.taken = convert(taken, dtype=np.bool_)
        self.cls = _convert("cls", cls, np.uint8, convert, start)
        self.target = _convert("target", target, np.int64, convert, start)
        self.instret = _convert("instret", instret, np.int64, convert, start)
        self.trap = convert(trap, dtype=np.bool_)
        self.cond_mask = self.cls == int(BranchClass.CONDITIONAL)
        for column in (*self.columns, self.cond_mask):
            column.flags.writeable = False
        self._sites = None
        self._site_ids = None
        self.residency = {}

    @property
    def columns(self):
        """The six record arrays ``(pc, taken, cls, target, instret, trap)``."""
        return (self.pc, self.taken, self.cls, self.target, self.instret, self.trap)

    def __len__(self) -> int:
        return int(self.pc.shape[0])

    def __getitem__(self, rows) -> "TraceArrays":
        """The records at ``rows``: a slice gives views of these arrays,
        an index array a gathered copy."""
        return TraceArrays(tuple(column[rows] for column in self.columns))

    def conditional_site_ids(self):
        """``(sites, ids)``: sorted distinct conditional PCs and, for
        every conditional record in trace order, the index of its PC in
        ``sites``: int32, unless the trace has over ``2**31`` sites.
        Computed once and cached."""
        if self._sites is None:
            pcs = self.pc[self.cond_mask]
            order = _stable_argsort(pcs)
            pcs = pcs[order]
            new = np.empty(pcs.shape[0], dtype=np.bool_)
            new[:1] = True
            np.not_equal(pcs[1:], pcs[:-1], out=new[1:])
            sites = pcs[new]
            del pcs
            sites.flags.writeable = False
            ids = np.empty(order.shape[0], dtype=np.int32 if sites.shape[0] <= 1 << 31 else np.int64)
            rank = new.astype(ids.dtype)
            np.cumsum(rank, out=rank)
            rank -= 1
            ids[order] = rank
            ids.flags.writeable = False
            self._sites, self._site_ids = sites, ids
        return self._sites, self._site_ids


def _convert(name: str, values, dtype, convert, start: int):
    """``values`` as a ``dtype`` array; a value outside the dtype raises
    :class:`TraceFormatError` naming the first such record.

    A NumPy column whose dtype casts to ``dtype`` unsafely (``uint64``
    to ``int64``, floats to integers) is checked elementwise, since
    NumPy's cast would wrap or truncate silently: a value that does not
    survive the cast (out of range, NaN, non-integral) is rejected.
    """
    info = np.iinfo(dtype)
    if isinstance(values, np.ndarray) and values.dtype.kind in "uif" \
            and not np.can_cast(values.dtype, dtype):
        with np.errstate(invalid="ignore"):
            cast = values.astype(dtype)
            wrong = (cast.astype(values.dtype) != values) | ((cast < 0) != (values < 0))
        if not wrong.any():
            return cast
        bad = int(np.argmax(wrong))
    else:
        try:
            return convert(values, dtype=dtype)
        except (OverflowError, TypeError, ValueError):
            bad = next((index for index, value in enumerate(values)
                        if not info.min <= value <= info.max), None)
            if bad is None:
                raise
    raise TraceFormatError(
        f"record {start + bad}: {name}={values[bad]} does not fit the "
        f"{info.dtype} column (allowed range [{info.min}, {info.max}])"
    ) from None


class TraceBlock:
    """A bounded, immutable window of consecutive trace records.

    Blocks are the unit of exchange of the streaming trace layer
    (:mod:`repro.trace.stream`): every :class:`TraceSource` yields its
    records as a sequence of blocks whose memory footprint is bounded
    by the block size, never by the trace length. A block carries the
    owning trace's :class:`TraceMeta`, the absolute index of its first
    record (``start``), and its records as a read-only
    :class:`TraceArrays` (a slice of an in-memory trace's arrays, decoded
    from a streamed container, or converted from a generator's records).
    """

    __slots__ = ("meta", "start", "_arrays")

    def __init__(self, meta: TraceMeta, start: int, arrays: TraceArrays) -> None:
        self.meta = meta
        self.start = int(start)
        self._arrays = arrays

    def __len__(self) -> int:
        return len(self._arrays)

    @property
    def columns(self):
        """The record arrays ``(pc, taken, cls, target, instret, trap)``."""
        return self._arrays.columns

    def iter_tuples(self) -> Iterator[Tuple[int, bool, int, int, int, bool]]:
        """Yield ``(pc, taken, cls, target, instret, trap)`` tuples.

        The columns are converted to Python scalars once per call
        (``tolist``), so the interpreted engine iterates native tuples
        exactly as it does over an in-memory :class:`Trace`.
        """
        return zip(*(column.tolist() for column in self._arrays.columns))

    def as_arrays(self) -> TraceArrays:
        """The block's read-only :class:`TraceArrays`."""
        return self._arrays

    def to_trace(self) -> Trace:
        """Materialize the block as a standalone :class:`Trace` (which
        copies its columns)."""
        return Trace(self.meta, *self._arrays.columns)

    def __repr__(self) -> str:
        return f"TraceBlock(start={self.start}, records={len(self)})"


# A TraceBuilder log word packs one builder event into a Python int. The
# bits from _CODE_BITS up count the instructions the event retires; the
# low bits are its code. Code 2 * slot + taken (slot >= 1) is a branch
# record of that slot, code 0 retires instructions only, code 1 a trap.
_CODE_BITS = 32
_CODE_MASK = (1 << _CODE_BITS) - 1
_TRAP_WORD = 1 << _CODE_BITS | 1
_INT64_MAX = (1 << 63) - 1


class TraceBuilder:
    """Append-only builder used by all trace producers.

    Producers call :meth:`branch` (or the convenience wrappers) for every
    dynamic branch and :meth:`instructions` to account for non-branch
    instructions executed between branches; ``instret`` values are
    derived automatically.

    The builder keeps one packed log word per call (see ``_CODE_BITS``)
    and a slot table of the distinct ``(pc, class, target)`` triples the
    words point into. :meth:`build` decodes the whole log with NumPy:
    ``instret`` is a cumulative sum, and pc, class and target are
    gathers from the slot table. The decoded arrays are what the trace
    stores; :meth:`build` raises :class:`TraceFormatError` naming the
    record when a value does not fit their dtypes.
    """

    def __init__(self, name: str = "anonymous", dataset: str = "", source: str = "unknown") -> None:
        self._name = name
        self._dataset = dataset
        self._source = source
        self._log: List[int] = []
        self._events = 0  # log words that are not branch records
        self._slots: Dict[Tuple[int, int, int], int] = {}  # (pc, cls, target) -> code
        self._slot_columns: Tuple[List, List, List] = ([0], [0], [0])  # pc, cls, target
        self._recent: Dict[int, tuple] = {}  # pc -> (target, branch_class, code) seen last
        self._counted = 0  # log words already summed into _instret
        self._instret = 0

    def __len__(self) -> int:
        return len(self._log) - self._events

    @property
    def instret(self) -> int:
        """Dynamic instructions retired so far."""
        log = self._log
        if self._counted < len(log):
            self._instret += sum(word >> _CODE_BITS for word in islice(log, self._counted, None))
            self._counted = len(log)
        return self._instret

    def instructions(self, count: int) -> None:
        """Account for ``count`` non-branch instructions retiring."""
        if count < 0:
            raise ValueError("instruction count must be non-negative")
        if not count:
            return
        log = self._log
        # Runs of instruction-only words (one per instruction from the ISA
        # simulator) merge into one, unless `instret` has summed it already.
        if self._counted < len(log) and not log[-1] & _CODE_MASK:
            log[-1] += count << _CODE_BITS
        else:
            log.append(count << _CODE_BITS)
            self._events += 1

    def trap(self) -> None:
        """Record that a trap occurs before the next branch record."""
        self._log.append(_TRAP_WORD)
        self._events += 1

    def _slot(self, pc: int, branch_class: int, target: int) -> int:
        """The record code (taken bit clear) of a slot, allocated on first use."""
        key = (pc, int(branch_class), target)
        code = self._slots.get(key)
        if code is None:
            code = 2 * len(self._slot_columns[0])
            if code > _CODE_MASK:
                raise OverflowError("too many distinct (pc, class, target) triples")
            self._slots[key] = code
            for column, value in zip(self._slot_columns, key):
                column.append(value)
        return code

    def branch(
        self,
        pc: int,
        taken: bool,
        branch_class: BranchClass = BranchClass.CONDITIONAL,
        target: int = 0,
        work: int = 0,
    ) -> bool:
        """Record a dynamic branch.

        Args:
            pc: static site id / address.
            taken: resolved direction.
            branch_class: branch class; non-conditional classes force
                ``taken=True``.
            target: resolved target (optional).
            work: non-branch instructions retired immediately before
                this branch (convenience for producers that account for
                work per-branch rather than via :meth:`instructions`).

        Returns:
            ``taken`` unchanged, so instrumented code can write
            ``if probe.branch(pc, x < y):`` and keep its own semantics.

        Raises:
            ValueError: when ``work`` is negative.
        """
        entry = self._recent.get(pc)
        if entry is None or entry[0] != target or entry[1] is not branch_class:
            entry = self._recent[pc] = (target, branch_class, self._slot(pc, branch_class, target))
        if work < 0:
            raise ValueError("work must be non-negative")
        if branch_class is not _CONDITIONAL:
            taken = True
        word = work + 1 << _CODE_BITS | entry[2]
        self._log.append(word | 1 if taken else word)
        return taken

    def conditional(self, pc: int, taken: bool, work: int = 0) -> bool:
        return self.branch(pc, taken, BranchClass.CONDITIONAL, work=work)

    def unconditional(self, pc: int, target: int = 0, work: int = 0) -> None:
        self.branch(pc, True, BranchClass.UNCONDITIONAL, target=target, work=work)

    def call(self, pc: int, target: int = 0, work: int = 0) -> None:
        self.branch(pc, True, BranchClass.CALL, target=target, work=work)

    def ret(self, pc: int, target: int = 0, work: int = 0) -> None:
        self.branch(pc, True, BranchClass.RETURN, target=target, work=work)

    def build(self, total_instructions: Optional[int] = None) -> Trace:
        """Freeze the builder into an immutable :class:`Trace`.

        Raises:
            TraceFormatError: when a record's pc, class, target or
                ``instret`` does not fit its array's dtype.
        """
        log = self._log
        # int64 decoding is exact while no word nor partial sum passes
        # 2**63 - 1; otherwise the words split in Python, and the clock
        # sums as exact Python ints for TraceArrays to convert or reject.
        try:
            words = np.array(log, dtype=np.int64)
            exact = not log or len(log) * (int(words.max()) >> _CODE_BITS) <= _INT64_MAX
        except OverflowError:
            exact = False
        if exact:
            codes = words & _CODE_MASK
            clock = np.cumsum(words >> _CODE_BITS)
        else:
            codes = np.array([word & _CODE_MASK for word in log], dtype=np.int64)
            clock = list(accumulate(word >> _CODE_BITS for word in log))
        records = np.flatnonzero(codes > 1)
        traps_so_far = np.cumsum(codes == 1)[records]
        record_codes = codes[records]
        slots = record_codes >> 1
        taken = (record_codes & 1).astype(np.bool_)
        trap = np.diff(traps_so_far, prepend=0) > 0
        instret = clock[records] if exact else [clock[i] for i in records.tolist()]
        if total_instructions is None:
            total_instructions = int(clock[-1]) if log else 0
        meta = TraceMeta(
            name=self._name,
            dataset=self._dataset,
            source=self._source,
            total_instructions=total_instructions,
        )
        slot_pc, slot_cls, slot_target = self._slot_columns
        return Trace._from_arrays(meta, TraceArrays((
            _gather(slot_pc, np.int64, slots), taken,
            _gather(slot_cls, np.uint8, slots),
            _gather(slot_target, np.int64, slots), instret, trap,
        )))


def _gather(table: List[int], dtype, slots):
    """The per-record values of a slot table column: gathered from an
    array when the table fits ``dtype``, otherwise as the exact ints, for
    :class:`TraceArrays` to reject naming the record."""
    try:
        return np.array(table, dtype=dtype)[slots]
    except OverflowError:
        return [table[slot] for slot in slots.tolist()]
