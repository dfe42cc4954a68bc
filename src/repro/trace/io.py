"""Trace serialization.

Two interchangeable formats:

* **Text** (``.btr``) — one record per line, human-greppable, used in
  examples and documentation. Unknown ``# key=value`` metadata lines
  round-trip through :attr:`TraceMeta.extra` instead of being dropped.
* **Binary** (``.btb``) — packed little-endian records with a small
  header, 26 bytes/record, used by the trace cache. Reading and
  writing go through a NumPy structured dtype straight between the
  bytes and a trace's arrays; no Python list is built either way.

Both formats round-trip exactly (checked by property-based tests).
Every record of a :class:`Trace` fits the binary format, because its
arrays reject a value outside their dtypes when they are built (a
``pc`` outside the signed 64-bit range raises :class:`TraceFormatError`
naming the record). :func:`save_trace` writes through a temporary file,
so a failed save never leaves a truncated trace file on disk.
"""

from __future__ import annotations

import io
import os
import struct
import warnings
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Optional, TextIO, Union

import numpy as np

from .events import BranchClass, BranchRecord, Trace, TraceArrays, TraceFormatError, TraceMeta

_MAGIC = b"BTRC"
_VERSION = 1
_HEADER = struct.Struct("<4sHHQ")  # magic, version, reserved, record count
_RECORD = struct.Struct("<qBBqq")  # pc, flags, cls, target, instret
_FLAG_TAKEN = 0x01
_FLAG_TRAP = 0x02

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: Text-format metadata keys with first-class TraceMeta fields.
_KNOWN_META_KEYS = ("name", "dataset", "source", "total_instructions")

PathLike = Union[str, Path]


class TraceFormatWarning(UserWarning):
    """Emitted for recoverable trace-format problems (missing metadata)."""


# ----------------------------------------------------------------------
# Text format
# ----------------------------------------------------------------------

def write_text(trace: Trace, stream: TextIO) -> None:
    """Write ``trace`` to ``stream`` in the text format.

    Layout: a ``#``-prefixed metadata header, then one record per line:
    ``pc taken cls target instret trap``. Unknown metadata keys carried
    in :attr:`TraceMeta.extra` are re-emitted after the known ones.
    """
    _write_text(trace.meta, len(trace), trace.iter_blocks(_TEXT_BLOCK), stream)


#: Records per block when a trace's arrays are written as text.
_TEXT_BLOCK = 1 << 16


def _write_text(meta: TraceMeta, count: int, blocks: Iterable, stream: TextIO) -> None:
    """The text format of ``count`` records given as :class:`TraceBlock`
    ``blocks``; each block converts only its own columns to lists."""
    stream.write(f"# name={meta.name}\n")
    stream.write(f"# dataset={meta.dataset}\n")
    stream.write(f"# source={meta.source}\n")
    stream.write(f"# total_instructions={meta.total_instructions}\n")
    stream.write(f"# records={count}\n")
    for key, value in meta.extra:
        stream.write(f"# {key}={value}\n")
    for block in blocks:
        for pc, taken, cls, target, instret, trap in block.iter_tuples():
            stream.write(
                f"{pc} {int(taken)} {BranchClass(cls).short_name} {target} {instret} {int(trap)}\n"
            )


def read_text(stream: TextIO, missing_meta: str = "warn") -> Trace:
    """Read a trace written by :func:`write_text`.

    Args:
        stream: the text stream to parse.
        missing_meta: what to do when the header lacks a
            ``total_instructions`` line — ``"warn"`` (default) emits a
            :class:`TraceFormatWarning` and falls back to the last
            record's ``instret``, ``"error"`` raises
            :class:`TraceFormatError`, ``"ignore"`` silently applies
            the same fallback. A missing count used to default to 0,
            which silently disabled the periodic context-switch model
            and produced misleading ledger run ids downstream.

    Unknown ``# key=value`` lines are preserved in
    :attr:`TraceMeta.extra` (sorted by key) instead of being dropped. A
    field that does not fit its column raises :class:`TraceFormatError`
    naming the record (records count from 0 in line order).
    """
    if missing_meta not in ("warn", "error", "ignore"):
        raise ValueError(f"missing_meta must be 'warn', 'error' or 'ignore', got {missing_meta!r}")
    meta_fields = {"name": "anonymous", "dataset": "", "source": "file"}
    seen_keys = set()
    extra_fields = {}
    declared_records: Optional[int] = None
    short_to_cls = {c.short_name: c for c in BranchClass}
    pc, taken, cls, target, instret, trap = [], [], [], [], [], []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                key = key.strip()
                value = value.strip()
                seen_keys.add(key)
                if key in _KNOWN_META_KEYS:
                    meta_fields[key] = value
                elif key == "records":
                    try:
                        declared_records = int(value)
                    except ValueError as exc:
                        raise TraceFormatError(f"line {lineno}: bad records count {value!r}") from exc
                else:
                    extra_fields[key] = value
            continue
        parts = line.split()
        if len(parts) != 6:
            raise TraceFormatError(f"line {lineno}: expected 6 fields, got {len(parts)}")
        try:
            pc.append(int(parts[0]))
            taken.append(bool(int(parts[1])))
            cls.append(int(short_to_cls[parts[2]]))
            target.append(int(parts[3]))
            instret.append(int(parts[4]))
            trap.append(bool(int(parts[5])))
        except (ValueError, KeyError) as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from exc
    if declared_records is not None and declared_records != len(pc):
        raise TraceFormatError(
            f"header declares {declared_records} records but the stream holds {len(pc)}"
        )
    if "total_instructions" in seen_keys:
        try:
            total_instructions = int(meta_fields["total_instructions"])
        except ValueError as exc:
            raise TraceFormatError(f"bad total_instructions {meta_fields['total_instructions']!r}") from exc
    else:
        if missing_meta == "error":
            raise TraceFormatError(
                "metadata lacks total_instructions; the context-switch model "
                "needs the true dynamic instruction count"
            )
        total_instructions = instret[-1] if instret else 0
        if missing_meta == "warn":
            warnings.warn(
                "trace metadata lacks total_instructions; falling back to the "
                f"last record's instret ({total_instructions}) — re-save the "
                "trace to silence this",
                TraceFormatWarning,
                stacklevel=2,
            )
    meta = TraceMeta(
        name=meta_fields["name"],
        dataset=meta_fields["dataset"],
        source=meta_fields["source"],
        total_instructions=total_instructions,
        extra=tuple(sorted(extra_fields.items())),
    )
    return Trace(meta, pc, taken, cls, target, instret, trap)


# ----------------------------------------------------------------------
# Binary format
# ----------------------------------------------------------------------

def _record_dtype():
    """The NumPy structured dtype matching ``_RECORD`` byte-for-byte."""
    return np.dtype([
        ("pc", "<i8"), ("flags", "u1"), ("cls", "u1"),
        ("target", "<i8"), ("instret", "<i8"),
    ])


def _pack_records(arrays: TraceArrays) -> bytes:
    """Serialize one block's arrays to packed record bytes."""
    records = np.empty(len(arrays), dtype=_record_dtype())
    records["pc"] = arrays.pc
    records["cls"] = arrays.cls
    records["target"] = arrays.target
    records["instret"] = arrays.instret
    flags = arrays.taken.astype(np.uint8) * _FLAG_TAKEN
    flags |= arrays.trap.astype(np.uint8) * _FLAG_TRAP
    records["flags"] = flags
    return records.tobytes()


def _unpack_records(buffer, count: int = -1, offset: int = 0) -> TraceArrays:
    """Decode ``count`` packed records of ``buffer`` from byte
    ``offset`` into fresh arrays that own their memory (never views
    into ``buffer``, so it may be released at once)."""
    records = np.frombuffer(buffer, dtype=_record_dtype(), count=count, offset=offset)
    flags = records["flags"]
    return TraceArrays((
        records["pc"].astype(np.int64),
        (flags & _FLAG_TAKEN) != 0,
        records["cls"].astype(np.uint8),
        records["target"].astype(np.int64),
        records["instret"].astype(np.int64),
        (flags & _FLAG_TRAP) != 0,
    ))


def write_binary(trace: Trace, stream: BinaryIO) -> None:
    """Write ``trace`` to ``stream`` in the packed binary format.

    A ``total_instructions`` outside int64 raises
    :class:`TraceFormatError` and leaves the stream untouched.
    ``TraceMeta.extra`` keys are a text-format feature and are not
    serialized here.
    """
    _write_binary(trace.meta, len(trace), trace.iter_blocks(), stream.write)


def _write_binary(meta: TraceMeta, count: int, blocks: Iterable,
                  write: Callable[[bytes], object]) -> None:
    """Pass the ``.btb`` serialization of ``count`` records, given as
    :class:`TraceBlock` ``blocks``, to ``write`` piece by piece: the
    one ``.btb`` writer, behind :func:`write_binary`, ``save_source``
    and ``content_digest``. The header is checked before anything is
    passed on."""
    if not (_INT64_MIN <= meta.total_instructions <= _INT64_MAX):
        raise TraceFormatError(
            f"total_instructions={meta.total_instructions} does not fit the "
            f"binary trace format (allowed range [{_INT64_MIN}, {_INT64_MAX}])"
        )
    write(
        _HEADER.pack(_MAGIC, _VERSION, 0, count)
        + _pack_string(meta.name)
        + _pack_string(meta.dataset)
        + _pack_string(meta.source)
        + struct.pack("<q", meta.total_instructions)
    )
    for block in blocks:
        write(_pack_records(block.as_arrays()))


def read_binary(stream: BinaryIO) -> Trace:
    """Read a trace written by :func:`write_binary`."""
    header = stream.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise TraceFormatError("truncated header")
    magic, version, _, count = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise TraceFormatError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise TraceFormatError(f"unsupported version {version}")
    name = _read_string(stream)
    dataset = _read_string(stream)
    source = _read_string(stream)
    (total_instructions,) = struct.unpack("<q", _read_exact(stream, 8))
    meta = TraceMeta(name, dataset, source, total_instructions)
    payload = _read_exact(stream, _RECORD.size * count)
    return Trace._from_arrays(meta, _unpack_records(payload))


def _pack_string(value: str) -> bytes:
    data = value.encode("utf-8")
    return struct.pack("<I", len(data)) + data


def _read_string(stream: BinaryIO) -> str:
    (length,) = struct.unpack("<I", _read_exact(stream, 4))
    return _read_exact(stream, length).decode("utf-8")


def _read_exact(stream: BinaryIO, size: int) -> bytes:
    data = stream.read(size)
    if len(data) != size:
        raise TraceFormatError(f"truncated stream: wanted {size} bytes, got {len(data)}")
    return data


# ----------------------------------------------------------------------
# File-level helpers
# ----------------------------------------------------------------------

def _tmp_sibling(path: Path) -> Path:
    """A collision-free temporary sibling for atomic replacement.

    The pid + object-id suffix keeps concurrent writers of the *same*
    destination (parallel sweeps sharing a trace cache directory) from
    clobbering each other's in-flight temp file — with a fixed ``.tmp``
    name, one process's ``os.replace`` could publish another's
    half-written bytes.
    """
    return path.with_name(f"{path.name}.tmp-{os.getpid()}-{id(path):x}")


def save_trace(trace: Trace, path: PathLike) -> None:
    """Save ``trace`` to ``path``; format chosen by suffix.

    ``.btr`` selects the text format, ``.btrs`` the streamed container,
    anything else the binary format. This is
    :func:`repro.trace.stream.save_source` on the trace: the data is
    written to a uniquely-named temporary sibling file, fsynced and
    atomically renamed into place, so a failed save (full disk,
    interrupt) never leaves a partial trace file at ``path``, and
    concurrent savers never observe each other's partial writes.
    """
    # Deferred import: stream builds on this module.
    from .stream import save_source

    save_source(trace, path)


def _sniff_magic(path: Path) -> bytes:
    try:
        with path.open("rb") as stream:
            return stream.read(4)
    except OSError:
        return b""


def load_trace(path: PathLike, missing_meta: str = "warn") -> Trace:
    """Load a trace saved by :func:`save_trace`, fully materialized.

    ``missing_meta`` is forwarded to :func:`read_text` for text traces;
    the binary headers always carry ``total_instructions``. A streamed
    ``.btrs`` container (recognised by suffix or by its ``BTRS`` magic
    regardless of suffix) is materialized into memory — use
    :func:`repro.trace.stream.open_stream` (or
    :func:`~repro.trace.stream.open_trace_source`) to consume it in
    bounded memory instead.
    """
    path = Path(path)
    if path.suffix == ".btr":
        with path.open() as stream:
            return read_text(stream, missing_meta=missing_meta)
    if path.suffix == ".btrs" or _sniff_magic(path) == b"BTRS":
        from .stream import open_stream

        with open_stream(path) as streamed:
            return streamed.materialize()
    with path.open("rb") as stream:
        return read_binary(stream)


def trace_from_records(records: Iterable[BranchRecord], name: str = "anonymous", dataset: str = "", source: str = "records") -> Trace:
    """Build a trace from an iterable of :class:`BranchRecord`.

    ``instret`` values in the records are preserved verbatim.
    """
    pc, taken, cls, target, instret, trap = [], [], [], [], [], []
    for record in records:
        pc.append(record.pc)
        taken.append(record.taken)
        cls.append(int(record.branch_class))
        target.append(record.target)
        instret.append(record.instret)
        trap.append(record.trap)
    total = instret[-1] if instret else 0
    meta = TraceMeta(name=name, dataset=dataset, source=source, total_instructions=total)
    return Trace(meta, pc, taken, cls, target, instret, trap)


def dumps(trace: Trace) -> bytes:
    """Serialize ``trace`` to bytes (binary format)."""
    buffer = io.BytesIO()
    write_binary(trace, buffer)
    return buffer.getvalue()


def loads(data: bytes) -> Trace:
    """Deserialize a trace from bytes produced by :func:`dumps`."""
    return read_binary(io.BytesIO(data))
