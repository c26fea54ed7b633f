"""Fixtures shared by the test modules."""

import hashlib

import pytest

from surfcount import engine


@pytest.fixture
def write_cache():
    """Write a cache file of ``body`` headed as this source heads one, with
    the record count of the body unless told another."""

    def write(path, body, records=None):
        digest = hashlib.sha256(body.encode()).hexdigest()
        records = body.count("\n") if records is None else records
        path.write_text(f"surfcount-cache {engine._fingerprint()} {records} {digest}\n{body}")

    return write
