"""``remote://host:port``: the execution cache over the fleet cache tier.

:class:`RemoteBackend` implements the
:class:`~repro.service.backends.CacheBackend` row seam against a
``repro cache-serve`` process: payload rows in, payload rows out, the
same rows the cache server relays.  The engine's two-phase probe
already runs backend lookups *outside* the cache lock
(:meth:`repro.engine.cache.ExecutionCache.get`), so the
network round trip here never stalls other sessions' in-memory hits.

Resilience discipline — the cache tier is a cache, never a dependency:

* every request goes through the shared keep-alive
  :mod:`~repro.fleet.pool` with a per-request timeout
  (``REPRO_REMOTE_TIMEOUT``, default 1s);
* connection-level failures retry with exponential backoff + jitter,
  bounded by ``REPRO_REMOTE_RETRIES`` (default 1 — both the get and
  the batched put are idempotent: rows are value-addressed, a replayed
  put re-stores identical bytes);
* a circuit breaker trips open after
  ``REPRO_REMOTE_BREAKER_THRESHOLD`` consecutive failures: while open,
  probes return instantly as misses and writes drop, so a dead cache
  server costs nothing but warm starts.  After
  ``REPRO_REMOTE_BREAKER_RESET_S`` one half-open probe is allowed
  through; success re-closes the breaker and the worker re-attaches.

Request and reply bodies are store-codec payloads (zlib-compressed
canonical JSON); a reply in any other format, or one that inflates
past the codec's decode cap, counts as garbage.  Every failure mode —
refused connection, timeout, mid-body disconnect, garbage bytes,
non-200 — degrades to a miss or a dropped write.  The backend never
raises into the engine.

Writes buffer client-side (deduplicated by digest) and flush as one
batched ``POST /v1/cache/put`` every ``flush_every`` distinct keys and
on :meth:`RemoteBackend.flush` (the worker-exit and session-close
paths), so the per-entry wire cost amortizes.  A read is one
execution miss's rows (:mod:`repro.engine.cache` decides when):
:meth:`RemoteBackend.load_payloads` serves the process's own pending
writes directly and sends every other row in one ``POST
/v1/cache/get``.

Telemetry: ``repro_remote_requests_total{op,outcome}``,
``repro_remote_request_seconds{op}`` (the round trip as the worker
sees it; minus the cache server's ``repro_cache_server_seconds{op}``
it is the transport), ``repro_remote_retries_total``,
``repro_remote_dropped_writes_total``, and the
``repro_remote_breaker_state`` gauge (0 closed, 1 half-open, 2 open).
"""

from __future__ import annotations

import random
import threading
import time
from http.client import HTTPException
from typing import Optional, Sequence
from urllib.parse import urlsplit

from repro.fleet.cache_server import DEFAULT_CACHE_PORT
from repro.fleet.pool import pool
from repro.obs import metrics as obs_metrics
from repro.protocol.codec import STORE_CODEC, ProtocolError
from repro.service.backends import CacheBackend, register_backend_factory
from repro.util.env import env_float, env_int

DEFAULT_TIMEOUT = 1.0
DEFAULT_RETRIES = 1
DEFAULT_FLUSH_EVERY = 32
DEFAULT_BREAKER_THRESHOLD = 5
DEFAULT_BREAKER_RESET_S = 1.0

#: First-retry backoff; doubles per attempt, with 0–100% jitter on top.
BACKOFF_BASE_S = 0.05

#: Breaker states (also the gauge encoding).
CLOSED, HALF_OPEN, OPEN = 0, 1, 2


class _RemoteMetrics:
    """Lazy handles on the remote backend's registry families."""

    _instance: Optional["_RemoteMetrics"] = None

    def __init__(self) -> None:
        registry = obs_metrics.registry()
        self.requests = registry.counter(
            "repro_remote_requests_total",
            "Cache-tier requests by operation and outcome (ok / error / "
            "skipped — skipped = breaker open).",
            ("op", "outcome"),
        )
        self.retries = registry.counter(
            "repro_remote_retries_total",
            "Cache-tier request retries after connection-level failures.",
        )
        self.dropped = registry.counter(
            "repro_remote_dropped_writes_total",
            "Buffered cache writes dropped because the tier was down.",
        )
        self.breaker = registry.gauge(
            "repro_remote_breaker_state",
            "Circuit-breaker state (0 closed, 1 half-open, 2 open).",
        )
        self.latency = registry.histogram(
            "repro_remote_request_seconds",
            "Cache-tier round-trip latency seen by the worker, by operation "
            "(retries included; this minus repro_cache_server_seconds = "
            "transport).",
            ("op",),
        )

    @classmethod
    def get(cls) -> "_RemoteMetrics":
        if cls._instance is None:
            cls._instance = cls()
        return cls._instance


class CircuitBreaker:
    """Closed → open after ``threshold`` consecutive failures; open →
    half-open after ``reset_after`` seconds (exactly one probe request
    passes); the probe's outcome closes or re-opens.

    Thread-safe: concurrent sessions share one breaker per backend, so
    one dead cache server trips it once for everybody.
    """

    def __init__(
        self,
        threshold: int = DEFAULT_BREAKER_THRESHOLD,
        reset_after: float = DEFAULT_BREAKER_RESET_S,
        clock=time.monotonic,
    ) -> None:
        self.threshold = max(1, threshold)
        self.reset_after = reset_after
        self._clock = clock
        self._lock = threading.Lock()
        self.state = CLOSED
        self.failures = 0
        self._opened_at = 0.0
        self._probing = False

    def allow(self) -> bool:
        """Whether a request may go out right now."""
        with self._lock:
            if self.state == CLOSED:
                return True
            if (
                self.state == OPEN
                and self._clock() - self._opened_at >= self.reset_after
            ):
                self.state = HALF_OPEN
                self._probing = False
                self._publish_locked()
            if self.state == HALF_OPEN and not self._probing:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self.state = CLOSED
            self.failures = 0
            self._probing = False
            self._publish_locked()

    def record_failure(self) -> None:
        with self._lock:
            if self.state == HALF_OPEN:
                self.state = OPEN
                self._opened_at = self._clock()
                self._probing = False
            else:
                self.failures += 1
                if self.state == CLOSED and self.failures >= self.threshold:
                    self.state = OPEN
                    self._opened_at = self._clock()
            self._publish_locked()

    def _publish_locked(self) -> None:
        _RemoteMetrics.get().breaker.set(self.state)


class RemoteBackend(CacheBackend):
    """The ``CacheBackend`` seam over a ``repro cache-serve`` tier."""

    name = "remote"

    def __init__(
        self,
        url: str,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        flush_every: Optional[int] = None,
        breaker_threshold: Optional[int] = None,
        breaker_reset_s: Optional[float] = None,
    ) -> None:
        parts = urlsplit(url if "//" in url else f"remote://{url}")
        if parts.hostname is None:
            raise ValueError(f"bad remote backend URL {url!r}")
        self.url = url
        self.host = parts.hostname
        self.port = parts.port or DEFAULT_CACHE_PORT
        self.timeout = (
            env_float("REPRO_REMOTE_TIMEOUT", DEFAULT_TIMEOUT)
            if timeout is None
            else timeout
        )
        self.retries = max(
            0,
            env_int("REPRO_REMOTE_RETRIES", DEFAULT_RETRIES)
            if retries is None
            else retries,
        )
        self.flush_every = max(
            1, DEFAULT_FLUSH_EVERY if flush_every is None else flush_every
        )
        self.breaker = CircuitBreaker(
            threshold=(
                env_int("REPRO_REMOTE_BREAKER_THRESHOLD", DEFAULT_BREAKER_THRESHOLD)
                if breaker_threshold is None
                else breaker_threshold
            ),
            reset_after=(
                env_float("REPRO_REMOTE_BREAKER_RESET_S", DEFAULT_BREAKER_RESET_S)
                if breaker_reset_s is None
                else breaker_reset_s
            ),
        )
        self._lock = threading.Lock()
        #: Write buffer, deduplicated by digest: kind + codec payload.
        self._pending: dict[bytes, tuple[int, dict]] = {}
        #: Last store totals the cache server reported on a put.
        self._remote_entries = 0
        self._remote_bytes = 0
        #: Telemetry (the counter names of the cache server's
        #: ``FileBackend``, so ``/v1/stats`` and ``--stats`` need no
        #: special cases): ``load_hits`` counts rows found.
        self.loads = 0
        self.load_hits = 0
        self.stores = 0
        self.io_errors = 0
        self.encode_errors = 0
        self.dropped_writes = 0

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    def _post(self, path: str, payload: dict, op: str) -> Optional[dict]:
        """One resilient round trip; ``None`` on any failure (a miss)."""
        metrics = _RemoteMetrics.get()
        if not self.breaker.allow():
            metrics.requests.labels(op=op, outcome="skipped").inc()
            return None
        try:
            body = STORE_CODEC.encode_payload(payload)
        except (ProtocolError, TypeError, ValueError):
            self.encode_errors += 1
            return None
        started = time.perf_counter()
        try:
            return self._send(path, body, op)
        finally:
            metrics.latency.labels(op=op).observe(time.perf_counter() - started)

    def _send(self, path: str, body: bytes, op: str) -> Optional[dict]:
        """The attempts of one :meth:`_post`, retries included."""
        metrics = _RemoteMetrics.get()
        headers = {"Content-Type": STORE_CODEC.content_type}
        attempts = self.retries + 1
        shared = pool()
        for attempt in range(attempts):
            connection = shared.acquire(self.host, self.port, timeout=self.timeout)
            try:
                connection.request("POST", path, body=body, headers=headers)
                response = connection.getresponse()
                raw = response.read()
            # HTTPException covers what a dying server leaves behind:
            # IncompleteRead on a mid-body disconnect, BadStatusLine on
            # garbage where a status line should be
            except (ConnectionError, OSError, HTTPException):
                shared.discard(connection)
                if attempt + 1 < attempts:
                    metrics.retries.inc()
                    time.sleep(
                        BACKOFF_BASE_S * (1 << attempt) * (1.0 + random.random())
                    )
                    continue
                return self._fail(op, "io")
            if response.will_close:
                shared.discard(connection)
            else:
                shared.release(self.host, self.port, connection)
            if response.status != 200:
                return self._fail(op, "status")
            try:
                decoded = STORE_CODEC.decode_payload(raw)
            except ProtocolError:
                return self._fail(op, "decode")
            if not isinstance(decoded, dict):
                return self._fail(op, "decode")
            self.breaker.record_success()
            metrics.requests.labels(op=op, outcome="ok").inc()
            return decoded
        return None  # pragma: no cover - loop always returns

    def _fail(self, op: str, outcome: str) -> None:
        self.io_errors += 1
        self.breaker.record_failure()
        _RemoteMetrics.get().requests.labels(op=op, outcome=outcome).inc()
        return None

    # ------------------------------------------------------------------
    # The CacheBackend seam
    # ------------------------------------------------------------------
    def load_payloads(self, rows: Sequence[tuple[int, bytes]]) -> list:
        """Payloads for ``(kind, key)`` rows, in order.

        Our own buffered writes are served locally; every other row goes
        out in one ``POST /v1/cache/get``.  A failed request, or a reply
        whose ``e`` does not hold one slot per row sent, is a miss for
        every row sent.
        """
        self.loads += len(rows)
        payloads: list = [None] * len(rows)
        remote = []
        with self._lock:
            for index, (_, key) in enumerate(rows):
                pending = self._pending.get(key)
                if pending is not None:
                    payloads[index] = pending[1]
                else:
                    remote.append(index)
        if remote:
            result = self._post(
                "/v1/cache/get",
                {"k": [[rows[index][0], rows[index][1].hex()] for index in remote]},
                op="get",
            )
            entries = result.get("e") if result is not None else None
            if isinstance(entries, list) and len(entries) == len(remote):
                for index, payload in zip(remote, entries):
                    if isinstance(payload, dict):
                        payloads[index] = payload
        self.load_hits += sum(1 for payload in payloads if payload is not None)
        return payloads

    def store_payload(self, kind: int, key: bytes, payload: dict) -> None:
        """Buffer one payload row; a full buffer flushes as one put."""
        with self._lock:
            self._pending[key] = (kind, payload)
            if len(self._pending) < self.flush_every:
                return
        self.flush()

    def flush(self) -> None:
        """Push the write buffer as one batched put; drop it on failure."""
        with self._lock:
            pending, self._pending = self._pending, {}
        if not pending:
            return
        self.stores += len(pending)
        body = {
            "e": [
                [kind, key.hex(), payload]
                for key, (kind, payload) in pending.items()
            ]
        }
        result = self._post("/v1/cache/put", body, op="put")
        if result is None:
            self.dropped_writes += len(pending)
            _RemoteMetrics.get().dropped.inc(len(pending))
            return
        entries = result.get("entries")
        nbytes = result.get("bytes")
        if isinstance(entries, int):
            self._remote_entries = entries
        if isinstance(nbytes, int):
            self._remote_bytes = nbytes

    def close(self) -> None:
        self.flush()

    # ------------------------------------------------------------------
    @property
    def persisted_bytes(self) -> int:
        """The cache tier's payload bytes as of the last acknowledged put."""
        return self._remote_bytes

    @property
    def entries(self) -> int:
        with self._lock:
            return self._remote_entries + len(self._pending)


register_backend_factory("remote", RemoteBackend)
