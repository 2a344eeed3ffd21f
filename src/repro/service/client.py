"""Typed client for the ``repro serve`` protocol API (stdlib ``http.client``).

Speaks the versioned ``/v1`` routes end to end in protocol messages
(:mod:`repro.protocol.messages`) encoded as canonical JSON — the same
typed surface the server decodes, so driving a served synthesizer
looks like driving a local
:class:`~repro.service.sessions.SessionManager`:

>>> client = ServiceClient("http://127.0.0.1:8738")
>>> sid = client.create_session(first_snapshot)
>>> proposed = client.record_action(sid, action, next_snapshot)
>>> proposed.predictions[0]
"ScrapeText(//div[@class='card'][3]/h3[1])"

:meth:`drive_recording` replays a stored demonstration action by
action; :meth:`export_session` / :meth:`import_session` /
:meth:`migrate_session` move a live session between workers.

Every round trip is timed into ``repro_client_request_seconds{route}``
under the server's route labels (:func:`metric_route`), so the client
histogram minus the server's ``repro_http_request_seconds`` is the
transport.
"""

from __future__ import annotations

import time
from http.client import HTTPConnection
from typing import Optional, Union
from urllib.parse import urlsplit

from repro.browser.recorder import Recording
from repro.fleet.pool import pool
from repro.obs import context as obs_context
from repro.obs import metrics as obs_metrics
from repro.protocol.codec import DEFAULT_CODEC
from repro.protocol.messages import (
    Accept,
    Accepted,
    ActionRecorded,
    CandidateList,
    CloseSession,
    CreateSession,
    ErrorEnvelope,
    MigrateSession,
    Migrated,
    ProgramProposed,
    ProtocolError,
    Reject,
    Rejected,
    SessionClosed,
    SessionCreated,
    SessionSnapshot,
    from_wire,
)
from repro.util.errors import ReproError


#: Fixed-path routes allowed verbatim as metric labels.
_KNOWN_ROUTES = {
    "/healthz",
    "/v1/stats",
    "/v1/metrics",
    "/v1/sessions",
    "/v1/sessions/import",
}

_SESSION_VERBS = {"actions", "candidates", "accept", "reject", "close", "migrate"}


def metric_route(path: str) -> str:
    """Low-cardinality route label: session ids collapse to ``:sid``,
    anything unrecognized to ``other`` (404 probes must not mint one
    label per probed path).  The server's and the client's request
    histograms share it, so their difference per route is the
    transport."""
    path = path.split("?", 1)[0]
    parts = path.split("/")
    if (
        len(parts) == 5
        and parts[1] == "v1"
        and parts[2] == "sessions"
        and parts[4] in _SESSION_VERBS
    ):
        return "/v1/sessions/:sid/" + parts[4]
    if path in _KNOWN_ROUTES:
        return path
    return "other"


_latency = None


def _latency_family():
    """Lazy family handle: client-side round-trip latency per route."""
    global _latency
    if _latency is None:
        _latency = obs_metrics.registry().histogram(
            "repro_client_request_seconds",
            "Service round-trip latency seen by the client, by normalized "
            "route (client minus server = transport).",
            ("route",),
        )
    return _latency


class ServiceClientError(ReproError):
    """A non-2xx response (or malformed payload) from the service.

    Carries the decoded :class:`~repro.protocol.messages.ErrorEnvelope`
    and HTTP status when the server sent one.
    """

    def __init__(
        self,
        message: str,
        envelope: Optional[ErrorEnvelope] = None,
        status: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.envelope = envelope
        self.status = status

    @property
    def code(self) -> Optional[str]:
        """The machine-readable error code, when the server sent one."""
        return self.envelope.code if self.envelope is not None else None


class ServiceClient:
    """One connection to one service worker.

    Connections come from the process-wide keep-alive pool
    (:mod:`repro.fleet.pool`) shared with the remote cache backend: a
    request borrows a parked connection to ``host:port`` when one is
    idle and parks it back after a keep-alive response, so consecutive
    calls — even across many short-lived clients — skip the TCP
    handshake.  The GET retry semantics are unchanged: an idempotent
    read replays once on a fresh connection, a dropped non-GET raises
    (the server may or may not have processed it).
    """

    def __init__(self, base_url: str, timeout: float = 60.0) -> None:
        parts = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
        if parts.hostname is None:
            raise ValueError(f"bad service URL {base_url!r}")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _request(self, method: str, path: str, message=None):
        """One round trip; returns the decoded protocol message (or dict)."""
        body = None
        headers = {}
        # propagate the ambient trace context so server-side spans
        # stitch under the caller's trace — including migration pushes,
        # where this client runs inside the source worker's request
        ctx = obs_context.current()
        if ctx is not None:
            headers[obs_context.HEADER] = ctx.wire_value()
        if message is not None:
            body = DEFAULT_CODEC.encode(message)
            headers["Content-Type"] = DEFAULT_CODEC.content_type
        started = time.perf_counter()
        try:
            response, payload = self._round_trip(method, path, body, headers)
        finally:
            _latency_family().labels(route=metric_route(path)).observe(
                time.perf_counter() - started
            )
        return self._decode(method, path, response.status, payload)

    def _round_trip(self, method: str, path: str, body, headers: dict):
        """Send one request over a pooled connection; ``(response, body)``."""
        connection = pool().acquire(self.host, self.port, timeout=self.timeout)
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            payload = response.read()
        except (ConnectionError, OSError) as exc:
            pool().discard(connection)
            if method != "GET":
                # a dropped connection does not say whether the server
                # processed the request — replaying a record-action
                # would append the action twice; only idempotent reads
                # are safe to retry
                raise ServiceClientError(
                    f"{method} {path} failed mid-request ({exc}); check the "
                    f"session state before retrying"
                ) from exc
            # one reconnect on a fresh socket: a parked keep-alive may
            # have been recycled by the server, so do not re-borrow
            connection = HTTPConnection(self.host, self.port, timeout=self.timeout)
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                payload = response.read()
            except (ConnectionError, OSError):
                connection.close()
                raise
        if response.will_close:
            pool().discard(connection)
        else:
            pool().release(self.host, self.port, connection)
        return response, payload

    def _decode(self, method: str, path: str, status: int, payload: bytes):
        try:
            wire = DEFAULT_CODEC.decode_payload(payload)
        except ProtocolError as exc:
            raise ServiceClientError(
                f"malformed response from {path}: {payload[:200]!r}", status=status
            ) from exc
        decoded = wire
        if isinstance(wire, dict) and wire.get("type") is not None:
            try:
                decoded = from_wire(wire)
            except ProtocolError as exc:
                raise ServiceClientError(
                    f"undecodable protocol message from {path}: {exc}", status=status
                ) from exc
        if status >= 400:
            envelope = decoded if isinstance(decoded, ErrorEnvelope) else None
            detail = (
                f"{envelope.code}: {envelope.message}"
                if envelope is not None
                else str(wire)
            )
            raise ServiceClientError(
                f"{method} {path} -> {status}: {detail}",
                envelope=envelope,
                status=status,
            )
        return decoded

    def close(self) -> None:
        """No-op kept for API compatibility.

        Connections are pool-owned: a request that completed with
        keep-alive has already parked its connection for the next
        caller (any client, any thread), so there is nothing per-client
        to tear down.  ``repro.fleet.pool.reset_pool()`` drops every
        parked connection when a test needs a cold start.
        """

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def health(self) -> bool:
        """Whether the worker answers its health check."""
        try:
            return bool(self._request("GET", "/healthz").get("ok"))
        except (ServiceClientError, OSError):
            return False

    def protocol_version(self) -> Optional[int]:
        """The protocol version the worker speaks (None if unreachable)."""
        try:
            return self._request("GET", "/healthz").get("protocol")
        except (ServiceClientError, OSError):
            return None

    def create_session(
        self, snapshot, data=None, timeout: Optional[float] = None
    ) -> str:
        """Open a session on an initial DOM snapshot; returns its id."""
        message = CreateSession(
            snapshot=snapshot,
            data=data.value if hasattr(data, "value") else data,
            timeout=timeout,
        )
        created = self._request("POST", "/v1/sessions", message)
        self._expect(created, SessionCreated)
        return created.session

    def record_action(self, sid: str, action, snapshot) -> ProgramProposed:
        """One per-action round trip; returns the typed synthesis summary."""
        message = ActionRecorded(session=sid, action=action, snapshot=snapshot)
        proposed = self._request("POST", f"/v1/sessions/{sid}/actions", message)
        self._expect(proposed, ProgramProposed)
        return proposed

    def candidates(self, sid: str) -> CandidateList:
        """The ranked candidate programs of a session."""
        listed = self._request("GET", f"/v1/sessions/{sid}/candidates")
        self._expect(listed, CandidateList)
        return listed

    def accept(self, sid: str, index: int = 0) -> Accepted:
        """Accept one candidate; returns it rendered."""
        accepted = self._request(
            "POST", f"/v1/sessions/{sid}/accept", Accept(session=sid, index=index)
        )
        self._expect(accepted, Accepted)
        return accepted

    def reject(self, sid: str) -> Rejected:
        """Reject every current proposal; returns the running count."""
        rejected = self._request(
            "POST", f"/v1/sessions/{sid}/reject", Reject(session=sid)
        )
        self._expect(rejected, Rejected)
        return rejected

    def close_session(self, sid: str) -> SessionClosed:
        """Close a session; returns its final stats."""
        closed = self._request(
            "POST", f"/v1/sessions/{sid}/close", CloseSession(session=sid)
        )
        self._expect(closed, SessionClosed)
        return closed

    def stats(self) -> dict:
        """Manager-wide stats of the worker (gauges, not a typed message)."""
        return self._request("GET", "/v1/stats")

    def session_ids(self) -> list[str]:
        """Ids of the sessions this worker is currently serving."""
        return list(self._request("GET", "/v1/sessions").get("sessions", ()))

    @staticmethod
    def _expect(message, cls) -> None:
        if not isinstance(message, cls):
            raise ServiceClientError(
                f"expected a {cls.__name__}, got {type(message).__name__}"
            )

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def export_session(self, sid: str) -> SessionSnapshot:
        """Serialize a session off this worker (it stops serving here)."""
        snapshot = self._request(
            "POST", f"/v1/sessions/{sid}/migrate", MigrateSession(session=sid)
        )
        self._expect(snapshot, SessionSnapshot)
        return snapshot

    def import_session(self, snapshot: SessionSnapshot) -> str:
        """Resume an exported session on this worker; returns its new id."""
        created = self._request("POST", "/v1/sessions/import", snapshot)
        self._expect(created, SessionCreated)
        return created.session

    def migrate_session(
        self, sid: str, target: Union[str, "ServiceClient"]
    ) -> Migrated:
        """Move a session to another worker (server-to-server push)."""
        if isinstance(target, ServiceClient):
            target = f"http://{target.host}:{target.port}"
        migrated = self._request(
            "POST",
            f"/v1/sessions/{sid}/migrate",
            MigrateSession(session=sid, target=target),
        )
        self._expect(migrated, Migrated)
        return migrated

    # ------------------------------------------------------------------
    def drive_recording(
        self, recording: Recording, data=None, timeout: Optional[float] = None
    ) -> tuple[str, list[ProgramProposed]]:
        """Replay a stored demonstration through the service.

        Opens a session on the recording's first snapshot, streams every
        action with its following snapshot, and returns ``(sid,
        proposals)`` — one :class:`ProgramProposed` per call, the
        session left open for ``candidates``/``accept``.
        """
        sid = self.create_session(recording.snapshots[0], data=data, timeout=timeout)
        proposals = []
        for position, action in enumerate(recording.actions):
            proposals.append(
                self.record_action(sid, action, recording.snapshots[position + 1])
            )
        return sid, proposals
