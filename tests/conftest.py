"""Fixtures shared by the test modules."""

import hashlib

import pytest

from surfcount import engine


@pytest.fixture
def write_cache():
    """Write into the cache directory ``path`` the file of one head, given as
    ``family g n body`` (g and n in hexadecimal), headed as this source heads
    one.  The body is written as it is, newlines included."""

    def write(path, line):
        name, g, n, body = line.split(" ", 3)
        path.mkdir(exist_ok=True)
        digest = hashlib.sha256(body.encode()).hexdigest()
        text = f"surfcount-cache {engine._fingerprint()} {digest}\n{body}"
        (path / f"{name}-{g}-{n}").write_bytes(text.encode())

    return write
