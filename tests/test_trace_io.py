"""Tests for trace serialization (text + binary round-trips)."""

import io

import pytest

from repro.trace.events import BranchClass, BranchRecord, TraceBuilder
from repro.trace.io import (
    TraceFormatError,
    dumps,
    load_trace,
    loads,
    read_binary,
    read_text,
    save_trace,
    trace_from_records,
    write_binary,
    write_text,
)


def _sample_trace():
    builder = TraceBuilder(name="sample", dataset="d0", source="test")
    builder.conditional(0x1000, True, work=3)
    builder.trap()
    builder.conditional(0x1004, False, work=1)
    builder.call(0x2000, target=0x3000)
    builder.ret(0x3004)
    builder.unconditional(0x1010, target=0x1000)
    return builder.build()


def _traces_equal(a, b):
    assert a.meta == b.meta
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert left == right


class TestTextFormat:
    def test_round_trip(self):
        trace = _sample_trace()
        buffer = io.StringIO()
        write_text(trace, buffer)
        buffer.seek(0)
        _traces_equal(trace, read_text(buffer))

    def test_header_contains_metadata(self):
        buffer = io.StringIO()
        write_text(_sample_trace(), buffer)
        text = buffer.getvalue()
        assert "# name=sample" in text
        assert "# dataset=d0" in text

    def test_blank_lines_and_unknown_comments_ignored(self):
        buffer = io.StringIO()
        write_text(_sample_trace(), buffer)
        content = "# oddball comment\n\n" + buffer.getvalue()
        trace = read_text(io.StringIO(content))
        assert len(trace) == 5

    def test_malformed_line_raises_with_line_number(self):
        with pytest.raises(TraceFormatError, match="line 1"):
            read_text(io.StringIO("1 2 3\n"))

    def test_bad_class_name(self):
        with pytest.raises(TraceFormatError):
            read_text(io.StringIO("4096 1 weird 0 1 0\n"))


class TestBinaryFormat:
    def test_round_trip(self):
        trace = _sample_trace()
        buffer = io.BytesIO()
        write_binary(trace, buffer)
        buffer.seek(0)
        _traces_equal(trace, read_binary(buffer))

    def test_dumps_loads(self):
        trace = _sample_trace()
        _traces_equal(trace, loads(dumps(trace)))

    def test_bad_magic(self):
        data = bytearray(dumps(_sample_trace()))
        data[0:4] = b"NOPE"
        with pytest.raises(TraceFormatError, match="magic"):
            loads(bytes(data))

    def test_truncated_payload(self):
        data = dumps(_sample_trace())
        with pytest.raises(TraceFormatError, match="truncated"):
            loads(data[:-4])

    def test_truncated_header(self):
        with pytest.raises(TraceFormatError):
            loads(b"BT")

    def test_empty_trace_round_trip(self):
        trace = TraceBuilder(name="empty").build()
        restored = loads(dumps(trace))
        assert len(restored) == 0
        assert restored.meta.name == "empty"

    def test_unicode_metadata(self):
        builder = TraceBuilder(name="bénch✓", dataset="données")
        builder.conditional(1, True)
        restored = loads(dumps(builder.build()))
        assert restored.meta.name == "bénch✓"


class TestFileHelpers:
    def test_suffix_selects_format(self, tmp_path):
        trace = _sample_trace()
        text_path = tmp_path / "t.btr"
        binary_path = tmp_path / "t.btb"
        save_trace(trace, text_path)
        save_trace(trace, binary_path)
        assert text_path.read_text().startswith("# name=")
        assert binary_path.read_bytes()[:4] == b"BTRC"
        _traces_equal(trace, load_trace(text_path))
        _traces_equal(trace, load_trace(binary_path))

    def test_trace_from_records(self):
        records = [
            BranchRecord(pc=1, taken=True, instret=1),
            BranchRecord(pc=2, taken=False, branch_class=BranchClass.CALL, instret=5),
        ]
        trace = trace_from_records(records, name="manual")
        assert len(trace) == 2
        assert trace.meta.total_instructions == 5

    def test_large_trace_round_trip(self):
        builder = TraceBuilder(name="big")
        for i in range(20_000):
            builder.conditional(0x1000 + (i % 64) * 4, i % 3 != 0, work=2)
        trace = builder.build()
        _traces_equal(trace, loads(dumps(trace)))


class TestBinaryValidation:
    """Unrepresentable values fail loudly, before any bytes are written:
    a record value when the trace is built, ``total_instructions`` when
    the trace is written."""

    def _trace_with(self, **overrides):
        from repro.trace.events import Trace, TraceMeta

        columns = {
            "pc": [0x1000],
            "taken": [True],
            "cls": [int(BranchClass.CONDITIONAL)],
            "target": [0],
            "instret": [4],
            "trap": [False],
        }
        columns.update(overrides)
        return Trace(TraceMeta(name="bad"), **columns)

    @pytest.mark.parametrize(
        "column,value",
        [("pc", 1 << 63), ("target", -(1 << 63) - 1), ("instret", 1 << 70)],
    )
    def test_out_of_range_column_raises_before_writing(self, column, value):
        # The trace cannot be built, so there is nothing to write.
        with pytest.raises(TraceFormatError, match=f"record 0: {column}={value} "):
            self._trace_with(**{column: [value]})

    def test_out_of_range_total_instructions(self):
        from repro.trace.events import Trace, TraceMeta

        trace = Trace(
            TraceMeta(name="bad", total_instructions=1 << 64),
            [], [], [], [], [], [],
        )
        stream = io.BytesIO()
        with pytest.raises(TraceFormatError, match="total_instructions"):
            write_binary(trace, stream)
        assert stream.getvalue() == b""

    def _trace_with_total(self, total_instructions):
        from repro.trace.events import Trace, TraceMeta

        return Trace(TraceMeta(name="bad", total_instructions=total_instructions),
                     [0x1000], [True], [0], [0], [4], [False])

    def test_failed_save_leaves_no_file(self, tmp_path):
        trace = self._trace_with_total(1 << 64)
        path = tmp_path / "bad.btb"
        with pytest.raises(TraceFormatError):
            save_trace(trace, path)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []  # no .tmp leftovers either

    def test_failed_save_preserves_existing_file(self, tmp_path):
        path = tmp_path / "trace.btb"
        good = _sample_trace()
        save_trace(good, path)
        with pytest.raises(TraceFormatError):
            save_trace(self._trace_with_total(1 << 65), path)
        _traces_equal(good, load_trace(path))


class TestTextMetadata:
    """Missing/unknown metadata is surfaced, not silently defaulted."""

    def _text_without_total(self):
        buffer = io.StringIO()
        write_text(_sample_trace(), buffer)
        return "\n".join(
            line for line in buffer.getvalue().splitlines()
            if not line.startswith("# total_instructions=")
        )

    def test_missing_total_instructions_warns_and_falls_back(self):
        from repro.trace.io import TraceFormatWarning

        with pytest.warns(TraceFormatWarning, match="total_instructions"):
            trace = read_text(io.StringIO(self._text_without_total()))
        last_instret = list(trace.iter_tuples())[-1][4]
        assert trace.meta.total_instructions == last_instret

    def test_missing_total_instructions_error_mode(self):
        with pytest.raises(TraceFormatError, match="total_instructions"):
            read_text(io.StringIO(self._text_without_total()), missing_meta="error")

    def test_missing_total_instructions_ignore_mode(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = read_text(
                io.StringIO(self._text_without_total()), missing_meta="ignore"
            )
        assert trace.meta.total_instructions > 0

    def test_invalid_missing_meta_mode_rejected(self):
        with pytest.raises(ValueError, match="missing_meta"):
            read_text(io.StringIO(""), missing_meta="whatever")

    def test_unknown_meta_keys_round_trip(self):
        buffer = io.StringIO()
        write_text(_sample_trace(), buffer)
        content = "# compiler=gcc-12\n# opt_level=O2\n" + buffer.getvalue()
        trace = read_text(io.StringIO(content))
        assert trace.meta.extra == (("compiler", "gcc-12"), ("opt_level", "O2"))
        second = io.StringIO()
        write_text(trace, second)
        second.seek(0)
        assert read_text(second).meta.extra == trace.meta.extra

    def test_declared_record_count_mismatch(self):
        buffer = io.StringIO()
        write_text(_sample_trace(), buffer)
        content = buffer.getvalue().replace("# records=", "# records=9")
        with pytest.raises(TraceFormatError, match="records"):
            read_text(io.StringIO(content))

    def test_load_trace_forwards_missing_meta(self, tmp_path):
        path = tmp_path / "trace.btr"
        path.write_text(self._text_without_total() + "\n")
        with pytest.raises(TraceFormatError):
            load_trace(path, missing_meta="error")
