"""Streaming, out-of-core trace substrate.

The in-memory :class:`repro.trace.events.Trace` caps workload size at
whatever fits in RAM. This module removes that cap with three pieces:

* **The BTRS container** (``.btrs``) — a versioned, mmap-friendly
  binary file holding the same packed 26-byte records as the ``.btb``
  format, preceded by a fixed-size header that records where the data
  starts. :class:`TraceWriter` appends records incrementally and
  finalizes atomically; :func:`open_stream` maps a finished container
  back as a :class:`StreamedTrace` without loading it. The byte-level
  layout is specified in ``docs/traces.md``.
* **The ``TraceSource`` protocol** — anything with ``meta``,
  ``num_records``, ``iter_blocks(block_size)`` and ``iter_tuples()``.
  :class:`repro.trace.events.Trace`, :class:`StreamedTrace`,
  :class:`RecordStreamSource` (wrapping generator functions such as
  the record generators in :mod:`repro.trace.synthetic`) and
  :class:`IndexedSource` (closed-form array generation for streams of
  arbitrary length) all implement it, and
  :func:`repro.sim.engine.simulate` accepts any of them.
* **Bounded-memory helpers** — :func:`save_source` stream-copies a
  source to any trace format, and :func:`content_digest` computes the
  same sha256 the result cache keys on
  (:func:`repro.sim.parallel.trace_digest`) without materializing the
  records.

Memory guarantee: iterating a :class:`StreamedTrace` in blocks keeps
peak resident memory proportional to ``block_size`` (each block's
columns are copied out of the map and the consumed pages are released
with ``madvise(MADV_DONTNEED)`` where available), never to the trace
length. The RSS smoke test in ``tests/test_sim_stream.py`` pins this.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import struct
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Protocol, Sequence, Tuple, Union, runtime_checkable

import numpy as np

from .events import BranchRecord, Trace, TraceArrays, TraceBlock, TraceMeta
from .io import (
    _FLAG_TAKEN,
    _FLAG_TRAP,
    _RECORD,
    PathLike,
    TraceFormatError,
    _pack_records,
    _pack_string,
    _tmp_sibling,
    _unpack_records,
    _write_binary,
    _write_text,
    load_trace,
)

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "IndexedSource",
    "RecordStreamSource",
    "STREAM_MAGIC",
    "STREAM_VERSION",
    "StreamedTrace",
    "TraceSource",
    "TraceWriter",
    "bernoulli_outcomes",
    "content_digest",
    "iter_source_tuples",
    "open_stream",
    "open_trace_source",
    "pattern_outcomes",
    "save_source",
]

#: Default records per block for streamed iteration. 2^16 records is
#: ~1.7 MB of packed data — large enough that per-block kernel overhead
#: is amortized (see ``benchmarks/test_bench_stream.py``), small enough
#: that dozens of concurrent streams fit in cache.
DEFAULT_BLOCK_SIZE = 1 << 16

#: BTRS container magic / version (see ``docs/traces.md``).
STREAM_MAGIC = b"BTRS"
STREAM_VERSION = 1

#: Fixed header: magic, version, reserved, record count, data offset,
#: total instruction count. Strings (name/dataset/source) follow.
_STREAM_HEADER = struct.Struct("<4sHHQQq")

_RECORD_SIZE = _RECORD.size
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


@runtime_checkable
class TraceSource(Protocol):
    """What the simulation engine needs from a trace, streamed or not.

    Contract (see ``docs/traces.md`` for the full statement):

    * ``meta`` — the :class:`TraceMeta` identifying the stream.
    * ``num_records`` — total record count, or ``None`` when the
      source is unbounded (synthetic generators); unbounded sources
      must be bounded with ``limit(n)`` before simulation.
    * ``iter_blocks(block_size)`` — yield the records, in order,
      partitioned into :class:`TraceBlock` windows of at most
      ``block_size`` records; the partition must not change record
      content or order (simulating at any block size is bit-identical).
      ``block_size=None`` means "one block" for bounded sources.
    * ``iter_tuples()`` — yield plain ``(pc, taken, cls, target,
      instret, trap)`` tuples, equivalent to chaining the blocks.

    Iteration must be repeatable: each call starts from the first
    record again.
    """

    meta: TraceMeta

    @property
    def num_records(self) -> Optional[int]:
        """Total records, or ``None`` for an unbounded stream."""
        ...

    def iter_blocks(self, block_size: Optional[int] = None) -> Iterator[TraceBlock]:
        """Yield the records as bounded :class:`TraceBlock` windows."""
        ...

    def iter_tuples(self) -> Iterator[Tuple[int, bool, int, int, int, bool]]:
        """Yield ``(pc, taken, cls, target, instret, trap)`` tuples."""
        ...


def iter_source_tuples(
    source: TraceSource, block_size: Optional[int] = None
) -> Iterator[Tuple[int, bool, int, int, int, bool]]:
    """Yield a source's record tuples, optionally via block iteration.

    ``block_size=None`` defers to the source's own ``iter_tuples``;
    any explicit size walks ``iter_blocks(block_size)`` instead, which
    bounds peak memory for out-of-core sources. Both paths yield the
    identical record sequence (the :class:`TraceSource` contract), so
    analysis passes built on this helper are block-size invariant —
    ``tests/test_analysis.py`` pins that for the attribution layer.
    """
    if block_size is None:
        yield from source.iter_tuples()
        return
    for block in source.iter_blocks(block_size):
        yield from block.iter_tuples()


def _normalize_block_size(block_size: Optional[int], total: Optional[int]) -> int:
    if block_size is None:
        if total is None:
            raise ValueError(
                "iter_blocks(None) needs a bounded source; pass an explicit "
                "block_size or bound the stream with limit(n)"
            )
        return max(int(total), 1)
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    return int(block_size)


# ----------------------------------------------------------------------
# The BTRS container: writer
# ----------------------------------------------------------------------

class TraceWriter:
    """Incremental writer for the BTRS streamed-trace container.

    Records are appended in bounded batches and buffered to ~1 MB
    writes; nothing is visible at ``path`` until :meth:`finalize`
    patches the header (record count, total instructions), flushes,
    fsyncs and atomically renames the unique temporary sibling into
    place. A crashed or aborted write therefore never leaves a partial
    container at ``path``. Usable as a context manager: a clean exit
    finalizes, an exception aborts and removes the temporary.
    """

    _BUFFER_BYTES = 1 << 20

    def __init__(self, path: PathLike, name: str = "anonymous", dataset: str = "",
                 source: str = "stream") -> None:
        """Args:
            path: final container path (conventionally ``.btrs``).
            name / dataset / source: :class:`TraceMeta` identity fields
                stored in the header.
        """
        self._path = Path(path)
        self._tmp = _tmp_sibling(self._path)
        self._name = name
        self._dataset = dataset
        self._source = source
        self._count = 0
        self._last_instret = 0
        self._closed = False
        self._pending: list = []
        self._pending_bytes = 0
        strings = _pack_string(name) + _pack_string(dataset) + _pack_string(source)
        self._data_offset = _STREAM_HEADER.size + len(strings)
        self._file = self._tmp.open("wb")
        try:
            # Count and total are placeholders until finalize();
            # readers can never observe them because the file only
            # appears at `path` after the patched rename.
            self._file.write(_STREAM_HEADER.pack(
                STREAM_MAGIC, STREAM_VERSION, 0, 0, self._data_offset, 0
            ))
            self._file.write(strings)
        except BaseException:
            self.abort()
            raise

    @property
    def count(self) -> int:
        """Records appended so far."""
        return self._count

    @property
    def path(self) -> Path:
        """The final container path."""
        return self._path

    def append(self, record: BranchRecord) -> None:
        """Append one :class:`BranchRecord`."""
        self.append_tuples([(record.pc, record.taken, int(record.branch_class),
                             record.target, record.instret, record.trap)])

    def append_tuples(self, tuples: Iterable[Tuple[int, bool, int, int, int, bool]]) -> None:
        """Append an iterable of ``(pc, taken, cls, target, instret, trap)``."""
        pack = _RECORD.pack
        data = []
        last = self._last_instret
        n = 0
        try:
            for pc, taken, cls, target, instret, trap in tuples:
                flag = (_FLAG_TAKEN if taken else 0) | (_FLAG_TRAP if trap else 0)
                data.append(pack(pc, flag, cls, target, instret))
                last = instret
                n += 1
        except struct.error as exc:
            raise TraceFormatError(
                f"record {self._count + n} out of range: {exc}"
            ) from exc
        self._write(b"".join(data), n, last)

    def append_block(self, block: TraceBlock) -> None:
        """Append a :class:`TraceBlock`."""
        arrays = block.as_arrays()
        if len(arrays):
            self._write(_pack_records(arrays), len(arrays), int(arrays.instret[-1]))

    def append_trace(self, trace: Trace) -> None:
        """Append every record of an in-memory :class:`Trace`."""
        for block in trace.iter_blocks():
            self.append_block(block)

    def _write(self, payload: bytes, n: int, last_instret: int) -> None:
        if self._closed:
            raise ValueError("writer is closed")
        self._pending.append(payload)
        self._pending_bytes += len(payload)
        self._count += n
        if n:
            self._last_instret = int(last_instret)
        if self._pending_bytes >= self._BUFFER_BYTES:
            self._flush()

    def _flush(self) -> None:
        if self._pending:
            self._file.write(b"".join(self._pending))
            self._pending.clear()
            self._pending_bytes = 0

    def finalize(self, total_instructions: Optional[int] = None) -> Path:
        """Patch the header, fsync, and atomically publish the container.

        Args:
            total_instructions: the run's dynamic instruction count;
                defaults to the last appended record's ``instret``.

        Returns:
            The final path (now existing).
        """
        if self._closed:
            raise ValueError("writer is closed")
        total = self._last_instret if total_instructions is None else int(total_instructions)
        if not (_INT64_MIN <= total <= _INT64_MAX):
            raise TraceFormatError(f"total_instructions={total} out of range")
        self._flush()
        self._file.seek(0)
        self._file.write(_STREAM_HEADER.pack(
            STREAM_MAGIC, STREAM_VERSION, 0, self._count, self._data_offset, total
        ))
        self._file.flush()
        os.fsync(self._file.fileno())
        self._file.close()
        self._closed = True
        os.replace(self._tmp, self._path)
        return self._path

    def abort(self) -> None:
        """Discard everything written; removes the temporary file."""
        if self._closed:
            return
        self._closed = True
        try:
            self._file.close()
        finally:
            try:
                self._tmp.unlink()
            except OSError:
                pass

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            if not self._closed:
                self.finalize()
        else:
            self.abort()


# ----------------------------------------------------------------------
# The BTRS container: reader
# ----------------------------------------------------------------------

class StreamedTrace:
    """An mmap-backed, bounded-memory view of a BTRS container.

    Satisfies the :class:`TraceSource` protocol. Header and metadata
    are validated eagerly (bad magic, unsupported version, or a file
    shorter than ``data_offset + 26 * record_count`` raise
    :class:`TraceFormatError`); record data is only touched as blocks
    are iterated. Each yielded block owns copies of its columns, and
    the pages the block was decoded from are released back to the OS
    (``madvise(MADV_DONTNEED)``) before the next block is produced, so
    resident memory tracks the block size, not the file size.
    """

    def __init__(self, path: PathLike) -> None:
        self._path = Path(path)
        self._file = self._path.open("rb")
        try:
            self._read_header()
        except BaseException:
            self._file.close()
            raise
        self._mmap: Optional[mmap.mmap] = None

    def _read_header(self) -> None:
        header = self._file.read(_STREAM_HEADER.size)
        if len(header) != _STREAM_HEADER.size:
            raise TraceFormatError("truncated container header")
        magic, version, _, count, data_offset, total = _STREAM_HEADER.unpack(header)
        if magic != STREAM_MAGIC:
            raise TraceFormatError(f"bad container magic {magic!r}")
        if version != STREAM_VERSION:
            raise TraceFormatError(f"unsupported container version {version}")
        name = self._read_string()
        dataset = self._read_string()
        source = self._read_string()
        if data_offset < self._file.tell():
            raise TraceFormatError("data offset overlaps the container header")
        size = os.fstat(self._file.fileno()).st_size
        need = data_offset + _RECORD_SIZE * count
        if size < need:
            raise TraceFormatError(
                f"truncated container: header promises {count} records "
                f"({need} bytes), file holds {size}"
            )
        self.meta = TraceMeta(name=name, dataset=dataset, source=source,
                              total_instructions=total)
        self._count = count
        self._data_offset = data_offset

    def _read_string(self) -> str:
        raw = self._file.read(4)
        if len(raw) != 4:
            raise TraceFormatError("truncated container header string")
        (length,) = struct.unpack("<I", raw)
        data = self._file.read(length)
        if len(data) != length:
            raise TraceFormatError("truncated container header string")
        return data.decode("utf-8")

    @property
    def path(self) -> Path:
        """The container file."""
        return self._path

    @property
    def num_records(self) -> int:
        """Record count from the header (``TraceSource`` protocol)."""
        return self._count

    @property
    def data_offset(self) -> int:
        """Byte offset of the first packed record (from the header)."""
        return self._data_offset

    def __len__(self) -> int:
        return self._count

    def iter_blocks(self, block_size: Optional[int] = None) -> Iterator[TraceBlock]:
        """Yield the records as blocks of at most ``block_size``.

        ``None`` yields everything as one block (the bounded-memory
        guarantee then degenerates to the file size — pass an explicit
        size, e.g. :data:`DEFAULT_BLOCK_SIZE`, for large containers).
        """
        bs = _normalize_block_size(block_size, self._count)
        if self._count == 0:
            return
        if self._mmap is None:
            self._mmap = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        mm = self._mmap
        released = self._data_offset
        for start in range(0, self._count, bs):
            m = min(bs, self._count - start)
            offset = self._data_offset + start * _RECORD_SIZE
            # Decode straight out of the map; the block's arrays own
            # their memory, so the pages can be released.
            block = TraceBlock(self.meta, start, _unpack_records(mm, m, offset))
            try:
                yield block
            finally:  # also when the consumer stops early (head)
                released = self._release(released, offset + m * _RECORD_SIZE)

    def _release(self, released: int, upto: int) -> int:
        """Drop consumed, fully-read pages from resident memory."""
        if not (hasattr(mmap, "MADV_DONTNEED") and self._mmap is not None):
            return upto  # pragma: no cover - non-Linux fallback
        page = mmap.PAGESIZE
        lo = (released // page) * page
        hi = (upto // page) * page
        if hi > lo:
            try:
                self._mmap.madvise(mmap.MADV_DONTNEED, lo, hi - lo)
            except (OSError, ValueError):  # pragma: no cover - advisory only
                pass
        return upto

    def iter_tuples(self) -> Iterator[Tuple[int, bool, int, int, int, bool]]:
        """Stream plain record tuples (bounded by the default block size)."""
        for block in self.iter_blocks(DEFAULT_BLOCK_SIZE):
            yield from block.iter_tuples()

    def materialize(self) -> Trace:
        """Load the whole container into an in-memory :class:`Trace`."""
        return self.head(self._count)

    def head(self, n: int) -> Trace:
        """The first ``n`` records as an in-memory :class:`Trace`, decoded
        in one block straight into the trace's arrays."""
        n = max(0, min(int(n), self._count))
        if not n:
            return Trace(self.meta, [], [], [], [], [], [])
        blocks = self.iter_blocks(n)
        block = next(blocks)
        blocks.close()  # releases the pages the block was decoded from
        return Trace._from_arrays(self.meta, block.as_arrays())

    def close(self) -> None:
        """Release the map and the file handle."""
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "StreamedTrace":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (
            f"StreamedTrace(path={str(self._path)!r}, records={self._count}, "
            f"name={self.meta.name!r})"
        )


def open_stream(path: PathLike) -> StreamedTrace:
    """Open a BTRS container written by :class:`TraceWriter`.

    Validates the header eagerly; record data stays on disk until
    iterated. Raises :class:`TraceFormatError` for a malformed or
    truncated container.
    """
    return StreamedTrace(path)


# ----------------------------------------------------------------------
# Synthetic / generator-backed sources
# ----------------------------------------------------------------------

def _as_record_tuple(record) -> Tuple[int, bool, int, int, int, bool]:
    if isinstance(record, BranchRecord):
        return (record.pc, record.taken, int(record.branch_class),
                record.target, record.instret, record.trap)
    return tuple(record)


class RecordStreamSource:
    """A :class:`TraceSource` over a re-iterable record generator.

    Wraps a zero-argument factory returning a fresh iterator of
    :class:`BranchRecord` (or plain 6-tuples) — for example the
    ``*_records`` generators in :mod:`repro.trace.synthetic` — and
    exposes it through the block/tuple protocol. The factory may be
    infinite; such a source reports ``num_records=None`` and must be
    bounded with :meth:`limit` before it can be simulated or saved.
    """

    def __init__(self, factory: Callable[[], Iterable],
                 name: str = "stream", dataset: str = "", source: str = "synthetic",
                 num_records: Optional[int] = None,
                 total_instructions: int = 0) -> None:
        """Args:
            factory: zero-argument callable returning a fresh record
                iterator; called once per traversal.
            name / dataset / source: :class:`TraceMeta` identity.
            num_records: bound on the stream length (``None`` =
                unbounded); iteration stops at the bound even when the
                factory yields more.
            total_instructions: recorded in ``meta``; 0 when unknown.
        """
        self._factory = factory
        self._num_records = num_records
        self.meta = TraceMeta(name=name, dataset=dataset, source=source,
                              total_instructions=total_instructions)

    @property
    def num_records(self) -> Optional[int]:
        """The stream bound, or ``None`` when indefinite."""
        return self._num_records

    def limit(self, n: int, total_instructions: Optional[int] = None) -> "RecordStreamSource":
        """A bounded copy of this source stopping after ``n`` records."""
        return RecordStreamSource(
            self._factory,
            name=self.meta.name, dataset=self.meta.dataset, source=self.meta.source,
            num_records=int(n),
            total_instructions=(self.meta.total_instructions
                                if total_instructions is None else total_instructions),
        )

    def iter_tuples(self) -> Iterator[Tuple[int, bool, int, int, int, bool]]:
        """Stream normalized record tuples, honouring the bound."""
        remaining = self._num_records
        for record in self._factory():
            if remaining is not None:
                if remaining <= 0:
                    return
                remaining -= 1
            yield _as_record_tuple(record)

    def iter_blocks(self, block_size: Optional[int] = None) -> Iterator[TraceBlock]:
        """Buffer the generator into :class:`TraceBlock` s.

        Raises:
            TraceFormatError: when a record value does not fit its
                column, naming the record's index in the stream.
        """
        bs = _normalize_block_size(block_size, self._num_records)
        start = 0
        records = self.iter_tuples()
        while True:
            rows = list(islice(records, bs))
            if not rows:
                return
            yield TraceBlock(self.meta, start, TraceArrays(tuple(zip(*rows)), start=start))
            start += len(rows)


def _splitmix64(x):
    """SplitMix64 finalizer over a uint64 array — a stateless, seedable
    hash whose output for index ``i`` is independent of block
    partitioning (the partition-independence the equivalence pins rely
    on)."""
    z = (x + np.uint64(0x9E3779B97F4A7C15))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def bernoulli_outcomes(taken_probability: float, seed: int = 0):
    """Outcome function for :class:`IndexedSource`: i.i.d. Bernoulli
    directions, ``P(taken) = taken_probability``, derived from a
    SplitMix64 hash of (seed, index) so any sub-range of the stream is
    reproducible without generating its prefix."""
    if not 0.0 <= taken_probability <= 1.0:
        raise ValueError("taken_probability must be within [0, 1]")
    threshold = np.uint64(int(taken_probability * float(1 << 53)))

    def outcomes(indices):
        with np.errstate(over="ignore"):
            h = _splitmix64(indices.astype(np.uint64)
                            + np.uint64(seed) * np.uint64(0xD1B54A32D192ED03))
        return (h >> np.uint64(11)) < threshold

    return outcomes


def pattern_outcomes(pattern: Sequence[bool]):
    """Outcome function for :class:`IndexedSource`: the fixed direction
    ``pattern`` repeated indefinitely (``pattern[i % len]``)."""
    if not pattern:
        raise ValueError("pattern must be non-empty")
    materialized = np.asarray([bool(b) for b in pattern], dtype=np.bool_)

    def outcomes(indices):
        return materialized[indices % len(materialized)]

    return outcomes


class IndexedSource:
    """A closed-form synthetic :class:`TraceSource` of arbitrary length.

    Record ``i`` is a pure function of ``i``: the pc round-robins over
    ``pcs``, the direction comes from ``outcome_fn(indices)`` (see
    :func:`bernoulli_outcomes` / :func:`pattern_outcomes`), and
    ``instret[i] = (i + 1) * (work_per_branch + 1)`` — the same
    accounting the builder-based generators in
    :mod:`repro.trace.synthetic` produce for pure-conditional streams.
    Because nothing depends on earlier records, generating block
    ``[a, b)`` costs O(b - a): a 10M-branch stream needs no 10M-record
    buffer anywhere.
    """

    def __init__(self, outcome_fn: Callable, num_records: Optional[int] = None,
                 pcs: Sequence[int] = (0x9000,), work_per_branch: int = 4,
                 name: str = "indexed", dataset: str = "") -> None:
        """Args:
            outcome_fn: maps an int64 index array to a bool direction
                array of the same shape.
            num_records: stream bound (``None`` = unbounded).
            pcs: static site ids, assigned round-robin.
            work_per_branch: non-branch instructions per branch.
        """
        if not pcs:
            raise ValueError("need at least one pc")
        if work_per_branch < 0:
            raise ValueError("work_per_branch must be >= 0")
        self._outcome_fn = outcome_fn
        self._num_records = num_records
        self._pcs = np.asarray(list(pcs), dtype=np.int64)
        self._step = work_per_branch + 1
        total = 0 if num_records is None else num_records * self._step
        self.meta = TraceMeta(name=name, dataset=dataset, source="synthetic",
                              total_instructions=total)

    @property
    def num_records(self) -> Optional[int]:
        """The stream bound, or ``None`` when indefinite."""
        return self._num_records

    def limit(self, n: int) -> "IndexedSource":
        """A bounded copy of this source stopping after ``n`` records."""
        clone = IndexedSource(
            self._outcome_fn, num_records=int(n), pcs=self._pcs.tolist(),
            work_per_branch=self._step - 1, name=self.meta.name,
            dataset=self.meta.dataset,
        )
        return clone

    def iter_blocks(self, block_size: Optional[int] = None) -> Iterator[TraceBlock]:
        """Generate blocks in closed form; any partition yields the
        identical record sequence."""
        bs = _normalize_block_size(block_size, self._num_records)
        total = self._num_records
        start = 0
        while total is None or start < total:
            m = bs if total is None else min(bs, total - start)
            idx = np.arange(start, start + m, dtype=np.int64)
            taken = np.asarray(self._outcome_fn(idx), dtype=np.bool_)
            yield TraceBlock(self.meta, start, TraceArrays((
                self._pcs[idx % len(self._pcs)],
                taken,
                np.zeros(m, dtype=np.uint8),
                np.zeros(m, dtype=np.int64),
                (idx + 1) * self._step,
                np.zeros(m, dtype=np.bool_),
            )))
            start += m

    def iter_tuples(self) -> Iterator[Tuple[int, bool, int, int, int, bool]]:
        """Stream plain record tuples (blocks of the default size)."""
        for block in self.iter_blocks(DEFAULT_BLOCK_SIZE):
            yield from block.iter_tuples()


# ----------------------------------------------------------------------
# Stream-copy, open-by-format, content digest
# ----------------------------------------------------------------------

def save_source(source: TraceSource, path: PathLike,
                block_size: Optional[int] = DEFAULT_BLOCK_SIZE) -> None:
    """Stream-copy any bounded :class:`TraceSource` to a trace file.

    The format is chosen by suffix exactly as in
    :func:`repro.trace.io.save_trace`: ``.btr`` text, ``.btrs``
    streamed container, anything else the ``.btb`` binary format. All
    three paths write through a temporary file and rename atomically,
    and none of them materializes more than one block at a time.
    :func:`repro.trace.io.save_trace` is this function on a trace.
    """
    path = Path(path)
    total = source.num_records
    if total is None:
        raise ValueError("cannot save an unbounded source; bound it with limit(n)")
    if path.suffix == ".btrs":
        writer = TraceWriter(path, name=source.meta.name, dataset=source.meta.dataset,
                             source=source.meta.source)
        with writer:
            for block in source.iter_blocks(block_size):
                writer.append_block(block)
            writer.finalize(total_instructions=source.meta.total_instructions)
        return
    tmp = _tmp_sibling(path)
    try:
        # fsync before publishing, exactly as TraceWriter.finalize does
        # for .btrs: os.replace alone orders the *name*, not the bytes,
        # so rename-only publication can survive a crash that the data
        # does not (found by res/replace-without-fsync).
        # Literal open modes: the resource lint (repro.check) reads them.
        if path.suffix == ".btr":
            with tmp.open("w") as stream:
                _write_text(source.meta, total, source.iter_blocks(block_size), stream)
                stream.flush()
                os.fsync(stream.fileno())
        else:
            with tmp.open("wb") as stream:
                _write_binary(source.meta, total, source.iter_blocks(block_size), stream.write)
                stream.flush()
                os.fsync(stream.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


def open_trace_source(path: PathLike, missing_meta: str = "warn") -> Union[Trace, StreamedTrace]:
    """Open a trace file as the cheapest suitable :class:`TraceSource`.

    BTRS containers (by ``.btrs`` suffix or by sniffing the 4-byte
    magic) open as a :class:`StreamedTrace` without loading records;
    everything else loads through :func:`repro.trace.io.load_trace`
    into an in-memory :class:`Trace` (which is also a valid source).

    When span tracing is enabled (:mod:`repro.obs.spans`) the open is
    recorded as an ``"open_trace"`` span carrying the dispatch decision
    — an mmap-backed open is near-free while a full load is a real
    trace_load phase, and the trace viewer should show which one ran.
    """
    # Deferred obs import: trace is a foundation package and must not
    # import obs at module scope.
    from ..obs.spans import get_recorder as _get_span_recorder

    recorder = _get_span_recorder()
    path = Path(path)
    streamed = path.suffix == ".btrs" or _sniff_stream_magic(path)
    span_id = (
        recorder.push("open_trace", cat="trace", file=path.name, streamed=streamed)
        if recorder is not None
        else 0
    )
    try:
        if streamed:
            return open_stream(path)
        return load_trace(path, missing_meta=missing_meta)
    finally:
        if recorder is not None:
            recorder.pop_through(span_id)


def _sniff_stream_magic(path: Path) -> bool:
    if path.suffix == ".btr":
        return False  # text format; never magic-prefixed
    try:
        with path.open("rb") as stream:
            return stream.read(4) == STREAM_MAGIC
    except OSError:
        return False


def content_digest(source: TraceSource,
                   block_size: Optional[int] = DEFAULT_BLOCK_SIZE) -> str:
    """sha256 of the source's canonical ``.btb`` serialization.

    Computed one block at a time, so a multi-gigabyte container digests
    in bounded memory, and the digest equals
    ``hashlib.sha256(repro.trace.io.dumps(materialized)).hexdigest()``,
    which is what lets streamed and in-memory copies of the same records
    share result-cache entries. This is the only digest implementation;
    :func:`repro.sim.parallel.trace_digest` is another name for it. An
    in-memory :class:`Trace` is immutable, so its digest is computed
    once and cached on it.
    """
    if isinstance(source, Trace) and source._digest is not None:
        return source._digest
    total = source.num_records
    if total is None:
        raise ValueError("cannot digest an unbounded source; bound it with limit(n)")
    digest = hashlib.sha256()
    _write_binary(source.meta, total, source.iter_blocks(block_size), digest.update)
    hexdigest = digest.hexdigest()
    if isinstance(source, Trace):
        source._digest = hexdigest
    return hexdigest
