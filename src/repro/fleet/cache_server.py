"""``repro cache-serve``: the execution cache as a standalone server.

One process, one :class:`~repro.service.backends.FileBackend` (a SQLite
store it alone opens), a :class:`ThreadingHTTPServer` in front.
Workers point their sessions at it with ``--backend remote://host:port``
and share executions across processes and machines.  The store is the
only state that outlives a process: a cache server restarted over the
same ``--cache-dir`` serves the rows its predecessor kept, including
plain JSON rows that older writers stored.

The data plane is two POST routes carrying *store-codec payloads* —
the payload rows of :mod:`repro.engine.rows`, with digests
hex-encoded, as zlib-compressed canonical JSON — so the server relays
rows without ever decoding entries into actions and environments:

==============================  ========================================
``POST /v1/cache/get``          ``{"k": [[kind, key_hex], ...]}`` →
                                ``{"e": [payload | null, ...]}``
                                (same order; a batch of one is a get)
``POST /v1/cache/put``          ``{"e": [[kind, key_hex, payload], ...]}``
                                → ``{"stored": n, "entries": total,
                                "bytes": total}``
``GET  /healthz``               → ``{ok, role: "cache"}`` (JSON)
``GET  /v1/stats``              → store gauges (JSON)
``GET  /v1/metrics``            → Prometheus text exposition
==============================  ========================================

Data-plane requests and their 200 replies are in the store codec
only; a body in any other format, or one that inflates past
:data:`~repro.protocol.codec.MAX_DECODED_BYTES`, is a 400, and one
whose declared length exceeds that cap is a 413 answered without
reading it (the connection then closes).  The control plane — ``/healthz``,
``/v1/stats`` and every error body — is always JSON, so operators and
scrapers read it with any HTTP client.  Reads consult the store's
write buffer first, so an entry put by one worker is visible to the
next get even before the SQLite flush.

Storage policy is the ``FileBackend``'s: byte-accounted tier-aware
eviction, codec-sniffed rows, I/O failures degraded to misses.  Which
rows arrive, and which are asked for, is the workers' execution-cache
tier policy (:data:`repro.engine.cache.TIER_COST`).  The server adds only batching, counters
(``repro_cache_server_requests_total{op,outcome}``) and a per-op
latency histogram (``repro_cache_server_seconds{op}``).  A batch is
validated whole before any row is read, stored or counted, so a
rejected request leaves the store and the counters as it found them.
Replies go out with ``TCP_NODELAY``, so a keep-alive round trip does
not wait for the client's delayed ACK.

The process never loads the synthesizer: it imports the store, the
leaf codec and the row kinds (:mod:`repro.util.rowkinds`), not the
engine that encodes rows nor the protocol's message layer, so
``repro cache-serve`` boots in a fraction of a worker's time.
"""

from __future__ import annotations

import sys
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.obs import metrics as obs_metrics
from repro.protocol.codec import (
    DEFAULT_CODEC,
    STORE_CODEC,
    BodyTooLarge,
    Codec,
    ProtocolError,
    request_length,
)
from repro.service.backends import FileBackend, default_store_path
from repro.util.rowkinds import EXACT, TERMINAL
from repro.util.signals import interruptible

#: Default cache-tier port — well clear of the workers' consecutive
#: block starting at the service's 8738.
DEFAULT_CACHE_PORT = 8799

#: Entry kinds a row may carry (kind 2, the consistency rows of earlier
#: builds, is no longer one).
_VALID_KINDS = (EXACT, TERMINAL)

#: Hard per-request row cap: a runaway batch degrades to 400, not OOM.
MAX_BATCH = 4096

#: Data-plane POST routes and their metric ``op`` label.
_POST_OPS = {"/v1/cache/get": "get", "/v1/cache/put": "put"}


class _CacheServerMetrics:
    """Lazy handles on the cache server's registry families."""

    _instance: Optional["_CacheServerMetrics"] = None

    def __init__(self) -> None:
        registry = obs_metrics.registry()
        self.requests = registry.counter(
            "repro_cache_server_requests_total",
            "Cache-server operations by outcome (get: hit/miss, put: "
            "stored, both: bad_request).",
            ("op", "outcome"),
        )
        self.latency = registry.histogram(
            "repro_cache_server_seconds",
            "Cache-server request latency by operation.",
            ("op",),
        )

    @classmethod
    def get(cls) -> "_CacheServerMetrics":
        if cls._instance is None:
            cls._instance = cls()
        return cls._instance


class CacheServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying one FileBackend store."""

    daemon_threads = True

    def __init__(self, address, store: FileBackend, quiet: bool = True):
        self.store = store
        self.quiet = quiet
        super().__init__(address, _CacheHandler)


class _CacheHandler(BaseHTTPRequestHandler):
    server_version = "repro-cache/1"
    protocol_version = "HTTP/1.1"
    #: ``TCP_NODELAY``: the headers and the body leave in two writes, and
    #: with Nagle on the body waits for the client's delayed ACK of the
    #: headers (~40 ms per keep-alive round trip).
    disable_nagle_algorithm = True
    #: ``(op, start)`` of the POST whose latency is not yet published.
    _timing: Optional[tuple[str, float]] = None

    # ------------------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.server.quiet:  # pragma: no cover - debug aid
            sys.stderr.write("%s - %s\n" % (self.address_string(), format % args))

    def _reply(
        self, payload: dict, status: int = 200, codec: Codec = DEFAULT_CODEC
    ) -> None:
        """Send ``payload``: JSON for the control plane, ``STORE_CODEC``
        for data-plane answers."""
        self._reply_bytes(codec.encode_payload(payload), status, codec.content_type)

    def _reply_bytes(self, body: bytes, status: int, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        # publish before any byte of the reply leaves: a client that
        # has read its reply then finds the request in /v1/metrics
        self._publish()
        self.end_headers()
        self.wfile.write(body)

    def _publish(self) -> None:
        """Observe the pending POST's latency, once."""
        timing, self._timing = self._timing, None
        if timing is not None:
            op, started = timing
            _CacheServerMetrics.get().latency.labels(op=op).observe(
                time.perf_counter() - started
            )

    def _error(self, op: str, message: str, status: int = 400) -> None:
        _CacheServerMetrics.get().requests.labels(
            op=op, outcome="bad_request"
        ).inc()
        self._reply({"error": "bad_request", "message": message}, status)

    def _body(self) -> dict:
        length = request_length(self.headers)
        raw = self.rfile.read(length) if length > 0 else b""
        payload = STORE_CODEC.decode_payload(raw)
        if not isinstance(payload, dict):
            raise ProtocolError("expected an object body")
        return payload

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        store = self.server.store
        if self.path == "/healthz":
            self._reply({"ok": True, "role": "cache"})
        elif self.path == "/v1/stats":
            self._reply(
                {
                    "role": "cache",
                    "path": store.path,
                    "entries": store.entries,
                    "persisted_bytes": store.persisted_bytes,
                    "loads": store.loads,
                    "load_hits": store.load_hits,
                    "stores": store.stores,
                    "evictions": store.evictions,
                    "io_errors": store.io_errors,
                }
            )
        elif self.path == "/v1/metrics":
            self._reply_bytes(
                obs_metrics.registry().render().encode("utf-8"),
                200,
                obs_metrics.CONTENT_TYPE,
            )
        else:
            self._error("get", f"no route {self.path}", 404)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        # one label for the request counter and the latency histogram:
        # an unknown route is neither a get nor a put
        op = _POST_OPS.get(self.path, "post")
        self._timing = (op, time.perf_counter())
        try:
            if op == "get":
                self._get(self._body())
            elif op == "put":
                self._put(self._body())
            else:
                self._error(op, f"no route {self.path}", 404)
                return
        except BodyTooLarge as exc:
            # the body is still unread on the wire: never parse it as
            # the next request
            self.close_connection = True
            self._error(op, str(exc), 413)
            return
        except (ProtocolError, ValueError, TypeError, KeyError) as exc:
            self._error(op, str(exc))
            return
        finally:
            self._publish()  # a request that never replied

    # ------------------------------------------------------------------
    def _get(self, payload: dict) -> None:
        keys = payload.get("k")
        if not isinstance(keys, list) or len(keys) > MAX_BATCH:
            raise ProtocolError("'k' must be a list of [kind, key_hex] rows")
        # the whole batch parses before any row is read or counted: a
        # rejected request leaves the counters as it found them
        parsed = [self._parse_key(row) for row in keys]
        store = self.server.store
        metrics = _CacheServerMetrics.get()
        entries = []
        for kind, key in parsed:
            found = store.load_payload(kind, key)
            metrics.requests.labels(
                op="get", outcome="hit" if found is not None else "miss"
            ).inc()
            entries.append(found)
        self._reply({"e": entries}, codec=STORE_CODEC)

    def _put(self, payload: dict) -> None:
        rows = payload.get("e")
        if not isinstance(rows, list) or len(rows) > MAX_BATCH:
            raise ProtocolError(
                "'e' must be a list of [kind, key_hex, payload] rows"
            )
        # the whole batch validates before any row is stored: a rejected
        # put writes nothing
        parsed = []
        for row in rows:
            if not isinstance(row, list) or len(row) != 3:
                raise ProtocolError("each put row is [kind, key_hex, payload]")
            kind, key = self._parse_key(row[:2])
            if not isinstance(row[2], dict):
                raise ProtocolError("row payload must be an object")
            parsed.append((kind, key, row[2]))
        store = self.server.store
        for kind, key, value in parsed:
            store.store_payload(kind, key, value)
        _CacheServerMetrics.get().requests.labels(op="put", outcome="stored").inc(
            len(parsed)
        )
        self._reply(
            {
                "stored": len(parsed),
                "entries": store.entries,
                "bytes": store.persisted_bytes,
            },
            codec=STORE_CODEC,
        )

    @staticmethod
    def _parse_key(row) -> tuple[int, bytes]:
        if not isinstance(row, list) or len(row) < 2:
            raise ProtocolError("each key row is [kind, key_hex]")
        kind, key_hex = row[0], row[1]
        if kind not in _VALID_KINDS:
            raise ProtocolError(f"unknown entry kind {kind!r}")
        if not isinstance(key_hex, str):
            raise ProtocolError("key must be a hex string")
        try:
            key = bytes.fromhex(key_hex)
        except ValueError as exc:
            raise ProtocolError(f"malformed key {key_hex[:64]!r}") from exc
        if not key:
            raise ProtocolError("empty key")
        return kind, key


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def make_cache_server(
    host: str = "127.0.0.1",
    port: int = DEFAULT_CACHE_PORT,
    path: Optional[str] = None,
    max_bytes: Optional[int] = None,
    quiet: bool = True,
) -> CacheServer:
    """Bind one cache server (tests drive this in a thread).

    The server owns its store: no session backend names this file, and
    the cache server is the only process that opens it.  ``path``
    defaults to :func:`~repro.service.backends.default_store_path`.
    """
    store = FileBackend(path or default_store_path(), max_bytes=max_bytes)
    return CacheServer((host, port), store, quiet=quiet)


@interruptible()
def serve_cache(
    host: str = "127.0.0.1",
    port: int = DEFAULT_CACHE_PORT,
    path: Optional[str] = None,
    max_bytes: Optional[int] = None,
    quiet: bool = True,
) -> int:
    """Run the cache tier until SIGINT, even one the process inherited
    ignored (:func:`repro.util.signals.interruptible`); returns the
    exit code."""
    server = make_cache_server(host, port, path, max_bytes, quiet)
    bound_host, bound_port = server.server_address[:2]
    try:
        print(f"repro-cache listening on http://{bound_host}:{bound_port}", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - signal path
        pass
    finally:
        server.server_close()
        server.store.close()
    return 0
