"""A process-wide keep-alive HTTP connection pool.

The fleet's request hops — :class:`~repro.service.client.ServiceClient`
driving workers and :class:`~repro.fleet.remote.RemoteBackend` probing
the cache tier — go through one shared pool: idle connections are
parked per ``(host, port)`` and handed back out instead of paying a
fresh TCP handshake per request.  Metric scrapes
(:func:`repro.fleet.metrics.scrape_text`, which the rebalancer and
``repro metrics --fleet`` use) open a connection of their own per
scrape.

The discipline is acquire / release / discard:

* :meth:`ConnectionPool.acquire` pops an idle connection for the host
  (or opens a new one), with the caller's per-request timeout applied
  to the live socket;
* :meth:`ConnectionPool.release` parks it again once the response body
  has been fully read — callers must never release a connection with
  unread bytes, the next borrower would read them as its response;
* :meth:`ConnectionPool.discard` closes it instead (send failures,
  ``Connection: close`` responses, protocol errors).

Lifecycle counts publish as ``repro_pool_connections_total{event}`` so
the keep-alive win is measurable (``repro metrics --fleet``).
"""

from __future__ import annotations

import threading
from http.client import HTTPConnection
from typing import Optional

from repro.obs import metrics as obs_metrics

#: Idle connections parked per (host, port) before overflow closes.
DEFAULT_MAX_IDLE_PER_HOST = 8


class _PoolMetrics:
    """Lazy handle on the pool's registry family."""

    _instance: Optional["_PoolMetrics"] = None

    def __init__(self) -> None:
        self.events = obs_metrics.registry().counter(
            "repro_pool_connections_total",
            "Pooled HTTP connection lifecycle events "
            "(created / reused / discarded).",
            ("event",),
        )

    @classmethod
    def get(cls) -> "_PoolMetrics":
        if cls._instance is None:
            cls._instance = cls()
        return cls._instance


class ConnectionPool:
    """Idle :class:`http.client.HTTPConnection` objects per (host, port)."""

    def __init__(self, max_idle_per_host: int = DEFAULT_MAX_IDLE_PER_HOST) -> None:
        self.max_idle_per_host = max_idle_per_host
        self._lock = threading.Lock()
        self._idle: dict[tuple[str, int], list[HTTPConnection]] = {}
        self.created = 0
        self.reused = 0
        self.discarded = 0

    # ------------------------------------------------------------------
    def acquire(
        self, host: str, port: int, timeout: Optional[float] = None
    ) -> HTTPConnection:
        """An open-or-openable connection to ``host:port``.

        A reused connection gets the caller's ``timeout`` applied to its
        live socket — pool neighbors with different budgets never
        inherit each other's.
        """
        with self._lock:
            stack = self._idle.get((host, port))
            connection = stack.pop() if stack else None
            if connection is not None:
                self.reused += 1
        if connection is None:
            with self._lock:
                self.created += 1
            _PoolMetrics.get().events.labels(event="created").inc()
            return HTTPConnection(host, port, timeout=timeout)
        _PoolMetrics.get().events.labels(event="reused").inc()
        connection.timeout = timeout
        if connection.sock is not None:
            connection.sock.settimeout(timeout)
        return connection

    def release(self, host: str, port: int, connection: HTTPConnection) -> None:
        """Park a connection whose response body was fully read."""
        with self._lock:
            stack = self._idle.setdefault((host, port), [])
            if len(stack) < self.max_idle_per_host:
                stack.append(connection)
                return
        self.discard(connection)

    def discard(self, connection: HTTPConnection) -> None:
        """Close a connection instead of parking it."""
        with self._lock:
            self.discarded += 1
        _PoolMetrics.get().events.labels(event="discarded").inc()
        try:
            connection.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    # ------------------------------------------------------------------
    def idle_count(self, host: str, port: int) -> int:
        with self._lock:
            return len(self._idle.get((host, port), ()))

    def stats(self) -> dict:
        """Lifetime counters plus the current idle census."""
        with self._lock:
            idle = sum(len(stack) for stack in self._idle.values())
        return {
            "created": self.created,
            "reused": self.reused,
            "discarded": self.discarded,
            "idle": idle,
        }

    def clear(self) -> None:
        """Close and forget every idle connection (test isolation,
        process teardown)."""
        with self._lock:
            idle, self._idle = self._idle, {}
        for stack in idle.values():
            for connection in stack:
                try:
                    connection.close()
                except OSError:  # pragma: no cover - defensive
                    pass


#: The process-wide pool every fleet client shares.
_POOL = ConnectionPool()


def pool() -> ConnectionPool:
    """The shared process-wide connection pool."""
    return _POOL


def reset_pool() -> None:
    """Drop idle connections and zero the counters (test isolation)."""
    _POOL.clear()
    _POOL.created = 0
    _POOL.reused = 0
    _POOL.discarded = 0
