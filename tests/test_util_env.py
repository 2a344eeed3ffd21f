"""Numeric deployment knobs: a malformed value falls back to the default.

Each knob is read where the program reads it in production, so a typo
in a deployment (``1s`` for seconds, ``5x`` for a count) costs the
tuning, never the process.  Building a ``remote://`` backend connects
to nothing, so no cache server need listen.
"""

import pytest

from repro.fleet.remote import (
    DEFAULT_BREAKER_RESET_S,
    DEFAULT_BREAKER_THRESHOLD,
    DEFAULT_RETRIES,
    DEFAULT_TIMEOUT,
    RemoteBackend,
)


def _backend() -> RemoteBackend:
    return RemoteBackend("remote://127.0.0.1:9")


@pytest.mark.parametrize(
    "name, malformed, read, default",
    [
        ("REPRO_REMOTE_TIMEOUT", "1s", lambda: _backend().timeout, DEFAULT_TIMEOUT),
        ("REPRO_REMOTE_RETRIES", "two", lambda: _backend().retries, DEFAULT_RETRIES),
        (
            "REPRO_REMOTE_BREAKER_THRESHOLD",
            "5x",
            lambda: _backend().breaker.threshold,
            DEFAULT_BREAKER_THRESHOLD,
        ),
        (
            "REPRO_REMOTE_BREAKER_RESET_S",
            "1s",
            lambda: _backend().breaker.reset_after,
            DEFAULT_BREAKER_RESET_S,
        ),
    ],
    ids=["remote-timeout", "remote-retries", "breaker-threshold", "breaker-reset"],
)
def test_malformed_knob_falls_back_to_the_default(name, malformed, read, default, monkeypatch):
    monkeypatch.setenv(name, malformed)
    assert read() == default
