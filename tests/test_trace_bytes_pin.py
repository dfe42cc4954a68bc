"""Byte-identity pin for the trace writers.

Every ``.btb`` serialization (``write_binary``, ``dumps``, the ``.btb``
files of ``save_trace`` / ``save_source`` and ``content_digest``) goes
through one writer, and ``save_trace`` is ``save_source`` on a trace.
The sha256 values below were recorded before the writers were merged,
for the ``tomcatv`` testing trace (74 290 records), so a change to the
bytes, and with it to every result-cache key, fails here.
"""

import hashlib
import io

import pytest

from repro.trace.io import dumps, save_trace, write_binary
from repro.trace.stream import content_digest, save_source
from repro.workloads.suite import get_workload

#: sha256 of the tomcatv testing trace in each format.
_SHA256 = {
    ".btb": "4e8db10a7f2860e85e203429a5e8c0ce4fc2934a363e9a4c5d62221b8c1263b9",
    ".btr": "488756598b39cb44eb175d9e1ecd7b065a5808034375972cce79946edc32c358",
    ".btrs": "ec62c97e412f36c9a149b2755673ab08a790d7de05e6cf0a4c5c27f6201b2450",
}


@pytest.fixture(scope="module")
def trace():
    trace = get_workload("tomcatv").generate("testing")
    assert len(trace) == 74_290
    return trace


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_binary_bytes_and_digest_are_pinned(trace):
    assert _sha256(dumps(trace)) == _SHA256[".btb"]
    stream = io.BytesIO()
    write_binary(trace, stream)
    assert _sha256(stream.getvalue()) == _SHA256[".btb"]
    assert content_digest(trace) == _SHA256[".btb"]
    # Streamed at a block size that splits the trace unevenly.
    assert content_digest(trace, block_size=1000) == _SHA256[".btb"]


@pytest.mark.parametrize("suffix", sorted(_SHA256))
def test_save_trace_and_save_source_write_the_pinned_bytes(trace, tmp_path, suffix):
    saved, sourced = tmp_path / f"trace{suffix}", tmp_path / f"source{suffix}"
    save_trace(trace, saved)
    save_source(trace, sourced, block_size=1000)
    assert _sha256(saved.read_bytes()) == _SHA256[suffix]
    assert saved.read_bytes() == sourced.read_bytes()
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted([saved.name, sourced.name])
