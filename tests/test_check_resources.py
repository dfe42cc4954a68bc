"""Tests for the resource-discipline lint (repro.check.resources)."""

import textwrap

from repro.check.resources import check_resources, scan_source


def _scan(body: str):
    return scan_source(textwrap.dedent(body))


def _rules(findings):
    return {f.rule for f in findings}


class TestRepoIsClean:
    def test_durable_io_surface_passes(self):
        findings, examined = check_resources()
        assert findings == []
        assert examined == 4  # trace/io, trace/stream, trace/cache, obs/ledger


class TestUnmanagedHandles:
    def test_bare_open_unrolled_from_with(self):
        # The canonical mutation: take `with open(...) as f:` and
        # unroll it to a bare assignment with no close.
        findings = _scan("""
            def read(path):
                stream = open(path, "rb")
                return stream.read()
        """)
        assert _rules(findings) == {"res/unmanaged-handle"}

    def test_dynamic_mode_open_is_a_handle(self):
        findings = _scan("""
            def read(path, mode):
                stream = open(path, mode=mode)
                return stream.read()
        """)
        assert _rules(findings) == {"res/unmanaged-handle", "res/non-atomic-write"}

    def test_with_managed_open_is_fine(self):
        findings = _scan("""
            def read(path):
                with open(path, "rb") as stream:
                    return stream.read()
        """)
        assert findings == []

    def test_unbound_open_result(self):
        findings = _scan("""
            def read(path):
                return open(path, "rb").read()
        """)
        assert _rules(findings) == {"res/unmanaged-handle"}

    def test_local_close_is_fine(self):
        findings = _scan("""
            def read(path):
                stream = open(path, "rb")
                try:
                    return stream.read()
                finally:
                    stream.close()
        """)
        assert findings == []

    def test_returned_handle_transfers_ownership(self):
        findings = _scan("""
            def acquire(path):
                stream = open(path, "rb")
                return stream
        """)
        assert findings == []

    def test_later_with_entry_is_fine(self):
        findings = _scan("""
            def read(path):
                stream = open(path, "rb")
                with stream:
                    return stream.read()
        """)
        assert findings == []

    def test_self_attribute_without_class_close(self):
        findings = _scan("""
            class Writer:
                def __init__(self, path):
                    self._file = open(path, "wb")
        """)
        assert "res/unmanaged-handle" in _rules(findings)

    def test_self_attribute_with_class_close_is_fine(self):
        findings = _scan("""
            import os

            class Writer:
                def __init__(self, path):
                    self._tmp = path
                    self._file = self._tmp.open("wb")

                def close(self):
                    self._file.flush()
                    os.fsync(self._file.fileno())
                    self._file.close()
                    os.replace(self._tmp, self._path)
        """)
        assert findings == []

    def test_mmap_is_a_handle_too(self):
        findings = _scan("""
            import mmap

            def view(stream):
                buf = mmap.mmap(stream.fileno(), 0)
                return buf[:16]
        """)
        assert _rules(findings) == {"res/unmanaged-handle"}


class TestAtomicWrites:
    def test_write_text_without_replace(self):
        findings = _scan("""
            def save(path, text):
                path.write_text(text)
        """)
        assert _rules(findings) == {"res/non-atomic-write"}

    def test_open_for_write_without_replace(self):
        findings = _scan("""
            def save(path, text):
                with open(path, "w") as stream:
                    stream.write(text)
        """)
        assert _rules(findings) == {"res/non-atomic-write"}

    def test_tmp_sibling_then_replace_with_fsync_is_fine(self):
        findings = _scan("""
            import os

            def save(path, text):
                tmp = path.with_suffix(".tmp")
                with tmp.open("w") as stream:
                    stream.write(text)
                    stream.flush()
                    os.fsync(stream.fileno())
                os.replace(tmp, path)
        """)
        assert findings == []

    def test_read_only_function_is_exempt(self):
        findings = _scan("""
            def load(path):
                with open(path, "r") as stream:
                    return stream.read()
        """)
        assert findings == []


class TestFsyncDiscipline:
    def test_replace_without_fsync(self):
        # The true-positive shape fixed in save_trace/save_source/store:
        # tmp + rename, but nothing forces the bytes to disk first.
        findings = _scan("""
            import os

            def save(path, text):
                tmp = path.with_suffix(".tmp")
                with tmp.open("w") as stream:
                    stream.write(text)
                os.replace(tmp, path)
        """)
        assert _rules(findings) == {"res/replace-without-fsync"}

    def test_dynamic_mode_counts_as_a_write(self):
        # A mode that is not a literal may write: the rename still needs
        # an fsync before it.
        findings = _scan("""
            import os

            def save(path, payload, text):
                tmp = path.with_suffix(".tmp")
                with tmp.open("w" if text else "wb") as stream:
                    stream.write(payload)
                os.replace(tmp, path)
        """)
        assert _rules(findings) == {"res/replace-without-fsync"}

    def test_path_replace_counts_as_publish(self):
        findings = _scan("""
            def save(path, text):
                tmp = path.with_suffix(".tmp")
                tmp.write_text(text)
                tmp.replace(path)
        """)
        assert _rules(findings) == {"res/replace-without-fsync"}

    def test_append_without_fsync(self):
        findings = _scan("""
            def append(path, line):
                with open(path, "a") as stream:
                    stream.write(line)
        """)
        assert _rules(findings) == {"res/append-without-fsync"}

    def test_append_with_fsync_is_fine(self):
        findings = _scan("""
            import os

            def append(path, line):
                with open(path, "a") as stream:
                    stream.write(line)
                    stream.flush()
                    os.fsync(stream.fileno())
        """)
        assert findings == []


class TestPragmas:
    def test_allow_pragma_suppresses(self):
        findings = _scan("""
            def save(path, text):
                path.write_text(text)  # check: allow(res/non-atomic-write)
        """)
        assert findings == []

    def test_findings_carry_location(self):
        findings = scan_source(
            "def save(path, text):\n    path.write_text(text)\n",
            filename="module.py",
        )
        assert findings[0].location == "module.py:2"
