"""``repro serve``: the session manager over stdlib HTTP + the protocol.

One worker process = one :class:`~repro.service.sessions.SessionManager`
behind a :class:`ThreadingHTTPServer` (no dependencies beyond the
standard library).  Every body — request and response — is canonical
JSON (:data:`repro.protocol.codec.DEFAULT_CODEC`).  Every POST body
must be the typed protocol message of its route; anything else — a
bare dict, the wrong message type, a binary body — is a 400, and a
declared length past :data:`repro.protocol.codec.MAX_DECODED_BYTES`
is a 413 answered without reading the body.  Errors
are :class:`~repro.protocol.messages.ErrorEnvelope` objects, never
bare strings.  Sessions are sticky to the worker that created them
*until migrated*: ``POST /v1/sessions/<sid>/migrate`` serializes a session
(:class:`~repro.protocol.messages.SessionSnapshot`) and either returns
it to the caller or pushes it straight to another worker's import
endpoint — de-stickying multi-worker deployments.

Versioned routes:

==========================================  ===================================
``POST /v1/sessions``                       ``CreateSession`` → ``SessionCreated``
``GET  /v1/sessions``                       → ``{"sessions": [sid, ...]}``
``POST /v1/sessions/<sid>/actions``         ``ActionRecorded`` → ``ProgramProposed``
``GET  /v1/sessions/<sid>/candidates``      → ``CandidateList``
``POST /v1/sessions/<sid>/accept``          ``Accept`` → ``Accepted``
``POST /v1/sessions/<sid>/reject``          ``Reject`` → ``Rejected``
``POST /v1/sessions/<sid>/close``           ``CloseSession`` → ``SessionClosed``
``POST /v1/sessions/<sid>/migrate``         ``MigrateSession`` →
                                            ``SessionSnapshot`` | ``Migrated``
``POST /v1/sessions/import``                ``SessionSnapshot`` → ``SessionCreated``
``GET  /v1/stats``                          → manager-wide stats (JSON gauges)
``GET  /v1/metrics``                        → Prometheus text exposition
``GET  /healthz``                           → ``{ok, protocol, codec}``
==========================================  ===================================

Every request runs under a trace context: the ``X-Repro-Trace`` header
(``<trace_id>-<span_id>``) is adopted when present — so spans recorded
here stitch under the caller's trace, including migration pushes to a
peer worker — and a fresh root is minted otherwise; the active context
is echoed back on the response.  Per-route latency histograms and
status counters publish to the process metrics registry, with session
ids collapsed to ``:sid`` to keep label cardinality bounded.

``--workers N`` forks N workers on consecutive ports — the
multi-process deployment shape; a load balancer (or the client) picks
a port and may rebalance via migration.  Each worker keeps its own
execution cache; a ``remote://`` backend makes them share one cache
tier.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.obs import context as obs_context
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.protocol.codec import DEFAULT_CODEC, BodyTooLarge, request_length
from repro.protocol.messages import (
    PROTOCOL_VERSION,
    Accept,
    ActionRecorded,
    CloseSession,
    CreateSession,
    ErrorEnvelope,
    Migrated,
    MigrateSession,
    ProtocolError,
    Reject,
    SessionSnapshot,
    from_wire,
)
from repro.protocol.session import SessionClosedError, UnknownSessionError
from repro.service.backends import flush_backends
from repro.service.client import ServiceClient, ServiceClientError, metric_route
from repro.service.sessions import SessionError, SessionManager
from repro.synth.config import DEFAULT_CONFIG, SynthesisConfig
from repro.util.errors import ParseError, ReproError
from repro.util.signals import interruptible

#: Default service port (consecutive ports for extra workers).
DEFAULT_PORT = 8738

class _HttpMetrics:
    """Per-route request counters and latency histograms.

    Caches *family* handles only (children are re-resolved per publish)
    so :func:`repro.obs.metrics.reset_registry` keeps working.
    """

    _instance: Optional["_HttpMetrics"] = None

    def __init__(self) -> None:
        reg = obs_metrics.registry()
        self.requests = reg.counter(
            "repro_http_requests_total",
            "HTTP requests served, by normalized route and status code.",
            ("route", "code"),
        )
        self.latency = reg.histogram(
            "repro_http_request_seconds",
            "Wall-clock request latency by normalized route.",
            ("route",),
        )

    @classmethod
    def get(cls) -> "_HttpMetrics":
        if cls._instance is None:
            cls._instance = cls()
        return cls._instance


class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the session manager."""

    daemon_threads = True

    def __init__(self, address, manager: SessionManager, quiet: bool = True):
        self.manager = manager
        self.quiet = quiet
        super().__init__(address, _Handler)


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-service/2"
    protocol_version = "HTTP/1.1"
    #: ``(route, start)`` of the request whose metrics are not yet
    #: published.
    _timing: Optional[tuple[str, float]] = None

    # ------------------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.server.quiet:  # pragma: no cover - debug aid
            sys.stderr.write("%s - %s\n" % (self.address_string(), format % args))

    def _reply_bytes(self, body: bytes, status: int, content_type: str) -> None:
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        ctx = obs_context.current()
        if ctx is not None:
            self.send_header(obs_context.HEADER, ctx.wire_value())
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        # publish before any byte of the reply leaves: a client that
        # has read its reply then finds the request in /v1/metrics
        self._publish()
        self.end_headers()
        self.wfile.write(body)

    def _publish(self) -> None:
        """Record the pending request's route metrics, once."""
        timing, self._timing = self._timing, None
        if timing is not None:
            route, started = timing
            metrics = _HttpMetrics.get()
            metrics.latency.labels(route=route).observe(
                time.perf_counter() - started
            )
            metrics.requests.labels(route=route, code=str(self._status)).inc()

    def _reply(self, message, status: int = 200) -> None:
        """Encode one protocol message (or a plain gauge dict) and send."""
        if isinstance(message, dict):
            body = DEFAULT_CODEC.encode_payload(message)
        else:
            body = DEFAULT_CODEC.encode(message)
        self._reply_bytes(body, status, DEFAULT_CODEC.content_type)

    def _error(
        self,
        code: str,
        message: str,
        status: int,
        session: Optional[str] = None,
    ) -> None:
        self._reply(ErrorEnvelope(code=code, message=message, session=session), status)

    def _body(self) -> bytes:
        length = request_length(self.headers)
        return self.rfile.read(length) if length > 0 else b""

    @staticmethod
    def _message(raw: bytes, cls):
        """The request body as the route's protocol message ``cls``.

        The body must be a JSON protocol envelope of exactly that type;
        anything else raises :class:`ProtocolError` (a 400).
        """
        payload = DEFAULT_CODEC.decode_payload(raw)
        if not isinstance(payload, dict) or payload.get("type") is None:
            raise ProtocolError(f"expected a typed {cls.__name__} message")
        try:
            message = from_wire(payload)
        except (TypeError, AttributeError, IndexError) as exc:
            # a nested value of the wrong shape (a number where a
            # snapshot object belongs, ...) is the client's error
            raise ProtocolError(f"malformed {cls.__name__}: {exc}") from exc
        if not isinstance(message, cls):
            raise ProtocolError(
                f"expected a {cls.__name__} message, got {type(message).__name__}"
            )
        return message

    # ------------------------------------------------------------------
    def _route(self, path: str) -> str:
        """Strip the version prefix."""
        if path.startswith("/v1/"):
            return path[len("/v1") :]
        return path

    def _observe(self, handler) -> None:
        """Run one request under a trace context and publish route metrics.

        The ``X-Repro-Trace`` header is adopted when present (spans
        recorded while serving stitch under the caller's trace); a root
        context is minted otherwise.  Any trace noted by an envelope
        decode is cleared afterwards so it cannot leak into the next
        keep-alive request on this thread.  The metrics publish as the
        reply goes out (:meth:`_publish`), or here if none did.
        """
        route = metric_route(self.path)
        self._timing = (route, time.perf_counter())
        ctx = obs_context.parse(self.headers.get(obs_context.HEADER))
        if ctx is None:
            ctx = obs_context.new_root()
        self._status = 0
        try:
            with obs_context.use(ctx):
                with obs_tracing.span(
                    "http_request", route=route, method=self.command
                ):
                    handler()
        finally:
            obs_context.take_received()
            self._publish()

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._observe(self._do_get)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._observe(self._do_post)

    def _do_get(self) -> None:
        path = self._route(self.path)
        sid: Optional[str] = None
        try:
            if self.path == "/healthz":
                self._reply(
                    {
                        "ok": True,
                        "protocol": PROTOCOL_VERSION,
                        "codec": DEFAULT_CODEC.name,
                    }
                )
            elif path == "/stats":
                stats = self.server.manager.stats()
                stats["protocol"] = PROTOCOL_VERSION
                self._reply(stats)
            elif path == "/metrics":
                self._reply_bytes(
                    obs_metrics.registry().render().encode("utf-8"),
                    200,
                    obs_metrics.CONTENT_TYPE,
                )
            elif path == "/sessions":
                self._reply(
                    {"sessions": list(self.server.manager.session_ids())}
                )
            elif path.startswith("/sessions/") and path.endswith("/candidates"):
                sid = path[len("/sessions/") : -len("/candidates")]
                self._reply(self.server.manager.candidates(sid))
            else:
                self._error("no_route", f"no route {self.path}", 404)
        except Exception as exc:
            self._handle_error(exc, sid)

    def _do_post(self) -> None:
        path = self._route(self.path)
        manager = self.server.manager
        sid: Optional[str] = None
        try:
            raw = self._body()
            if path == "/sessions":
                self._reply(manager.create_session(self._message(raw, CreateSession)))
                return
            if path == "/sessions/import":
                self._reply(
                    manager.import_snapshot(self._message(raw, SessionSnapshot))
                )
                return
            if path.startswith("/sessions/"):
                sid, _, verb = path[len("/sessions/") :].rpartition("/")
                if verb == "actions":
                    message = self._message(raw, ActionRecorded)
                    self._reply(
                        manager.record_action(sid, message.action, message.snapshot)
                    )
                    return
                if verb == "accept":
                    self._reply(manager.accept(sid, self._message(raw, Accept).index))
                    return
                if verb == "reject":
                    self._message(raw, Reject)
                    self._reply(manager.reject(sid))
                    return
                if verb == "close":
                    self._message(raw, CloseSession)
                    self._reply(manager.close(sid))
                    return
                if verb == "migrate":
                    target = self._message(raw, MigrateSession).target
                    self._migrate(MigrateSession(sid, target))
                    return
                sid = None
            self._error("no_route", f"no route {self.path}", 404)
        except Exception as exc:
            self._handle_error(exc, sid)

    # ------------------------------------------------------------------
    def _migrate(self, message: MigrateSession) -> None:
        """Export a session; hand it to the caller or push it to a peer.

        Begin/commit/abort discipline: from ``begin_migration`` on, the
        session refuses new work (a racing ``record_action`` gets 409
        and retries against the new home — it can never land in the
        local copy after the snapshot and silently vanish), and the
        local copy is torn down only after the target acknowledged; a
        failed push aborts and the session resumes serving here.
        """
        manager = self.server.manager
        if message.target is None:
            self._reply(manager.export_snapshot(message.session))
            return
        session, snapshot = manager.begin_migration(message.session)
        try:
            with ServiceClient(message.target) as peer:
                target_sid = peer.import_session(snapshot)
        except (ServiceClientError, OSError, ValueError) as exc:
            manager.abort_migration(session)
            self._error(
                "migration_failed",
                f"target {message.target} refused the session: {exc}",
                502,
                session=message.session,
            )
            return
        manager.commit_migration(session)
        self._reply(
            Migrated(
                session=message.session,
                target=message.target,
                target_session=target_sid,
            )
        )

    def _handle_error(self, exc: Exception, sid: Optional[str]) -> None:
        if isinstance(exc, BodyTooLarge):
            # the body is still unread on the wire: never parse it as
            # the next request
            self.close_connection = True
            self._error("too_large", str(exc), 413, sid)
        elif isinstance(exc, UnknownSessionError):
            self._error("unknown_session", str(exc), 404, sid)
        elif isinstance(exc, SessionClosedError):
            self._error("session_closed", str(exc), 409, sid)
        elif isinstance(exc, SessionError):
            self._error("session_state", str(exc), 409, sid)
        elif isinstance(
            exc, (ProtocolError, ParseError, ReproError, ValueError, KeyError)
        ):
            self._error("bad_request", str(exc), 400, sid)
        else:  # pragma: no cover - defensive
            self._error("internal", f"{type(exc).__name__}: {exc}", 500, sid)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def make_server(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    config: SynthesisConfig = DEFAULT_CONFIG,
    timeout: Optional[float] = None,
    quiet: bool = True,
    max_idle_s: Optional[float] = None,
) -> ServiceServer:
    """Bind one worker's server (tests drive this in a thread)."""
    manager = SessionManager(config, timeout=timeout, max_idle_s=max_idle_s)
    return ServiceServer((host, port), manager, quiet=quiet)


def _announce(server: ServiceServer) -> None:
    host, port = server.server_address[:2]
    # one write syscall: forked workers share this stdout pipe, and a
    # banner split across writes could interleave with a sibling's
    sys.stdout.write(f"repro-service listening on http://{host}:{port}\n")
    sys.stdout.flush()


@interruptible()
def serve(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    workers: int = 1,
    config: SynthesisConfig = DEFAULT_CONFIG,
    timeout: Optional[float] = None,
    quiet: bool = True,
    max_idle_s: Optional[float] = None,
) -> int:
    """Run the service until SIGINT; returns the exit code.

    ``workers > 1`` forks ``workers - 1`` children on consecutive ports
    (``port+1``, ``port+2``, ...), each with its own session manager
    and execution cache — with a ``remote://`` backend they share
    executions through the cache tier — and able to trade sessions via
    the migrate endpoint.  With ``port=0`` the OS picks each worker's port; every
    worker announces its own URL on stdout.

    SIGINT stops the service even when the process inherited it
    ignored (:func:`repro.util.signals.interruptible`); the parent
    forwards it to each worker, and every process closes its sessions
    and flushes its cache backends before it exits.
    """
    # bind the parent first: a bad host/port fails fast, before any
    # worker is forked (a bind failure after forking would orphan them)
    server = make_server(host, port, config, timeout, quiet, max_idle_s)
    child_pids: list[int] = []
    worker_port = port
    try:
        for _ in range(max(0, workers - 1)):
            if port != 0:
                worker_port += 1
            pid = os.fork()
            if pid == 0:
                server.server_close()  # the parent's socket is not ours
                child = make_server(host, worker_port, config, timeout, quiet, max_idle_s)
                try:
                    _announce(child)
                    child.serve_forever()
                except KeyboardInterrupt:  # pragma: no cover - signal path
                    pass
                finally:
                    child.manager.close_all()
                    child.server_close()
                    # os._exit skips atexit hooks: push buffered cache
                    # entries to the store before the worker disappears
                    flush_backends()
                os._exit(0)
            child_pids.append(pid)
        _announce(server)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for pid in child_pids:
            try:
                os.kill(pid, signal.SIGINT)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):  # pragma: no cover
                pass
        server.manager.close_all()
        server.server_close()
        flush_backends()
    return 0
