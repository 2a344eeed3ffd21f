"""Numeric deployment knobs: a malformed value falls back to the default.

Each knob is read where the program reads it in production, so a typo
in a deployment (``256MiB`` for a byte count, ``5m`` for seconds) costs
the tuning, never the process.
"""

import pytest

from repro.engine.cache import process_cache, reset_process_cache
from repro.service.backends import DEFAULT_MAX_BYTES, FileBackend
from repro.service.sessions import SessionManager


def _store_max_bytes(tmp_path):
    backend = FileBackend(tmp_path / "store.sqlite")
    try:
        return backend.max_bytes
    finally:
        backend.close()


def _session_ttl(tmp_path):
    return SessionManager().max_idle_s


def _shared_cache_bytes(tmp_path):
    reset_process_cache()
    try:
        return process_cache("memory").max_bytes
    finally:
        reset_process_cache()


@pytest.mark.parametrize(
    "name, malformed, read, default",
    [
        ("REPRO_CACHE_MAX_BYTES", "256MiB", _store_max_bytes, DEFAULT_MAX_BYTES),
        ("REPRO_SESSION_TTL", "5m", _session_ttl, None),
        ("REPRO_SHARED_CACHE_BYTES", "1GB", _shared_cache_bytes, None),
    ],
    ids=["cache-max-bytes", "session-ttl", "shared-cache-bytes"],
)
def test_malformed_knob_falls_back_to_the_default(
    name, malformed, read, default, tmp_path, monkeypatch
):
    monkeypatch.setenv(name, malformed)
    assert read(tmp_path) == default

