"""Fixtures shared by the test modules."""

import hashlib
import marshal

import pytest

from surfcount import engine


@pytest.fixture
def write_cache():
    """Write into the cache directory ``path`` the file of ``head``, (family,
    g, n), headed as this source heads one.  ``body`` is its records, written
    as ``save_cache`` writes them, or raw bytes, written as they are."""

    def write(path, head, body):
        if isinstance(body, dict):
            body = marshal.dumps(body, 2)
        path.mkdir(exist_ok=True)
        header = f"surfcount-cache {engine._fingerprint()} {hashlib.sha256(body).hexdigest()}\n"
        (path / ("%s-%x-%x" % head)).write_bytes(header.encode() + body)

    return write


@pytest.fixture
def cache_records():
    """The records of the cache file ``file``, by entries: its body after the
    header line, loaded with ``marshal`` (grades as plain tuples)."""

    def read(file):
        return marshal.loads(file.read_bytes().split(b"\n", 1)[1])

    return read
