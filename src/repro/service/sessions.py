"""Concurrent demonstration sessions over one synthesizer process.

A *session* is one user's interactive PBD loop — the per-action round
trip of the paper's interactive model (§5).  The session state itself
lives in the protocol layer (:class:`repro.protocol.session.Session`,
shared with the paper-loop simulator); :class:`SessionManager` owns the
sessions of one worker process and speaks typed protocol messages over
them:

* each session wraps an incremental
  :class:`~repro.synth.synthesizer.Synthesizer` (store carried across
  calls, one engine per session) behind a per-session lock, so requests
  for *different* sessions synthesize concurrently;
* all sessions share the process-level execution cache, and — with
  the ``remote://`` backend — the cache tier every *other* worker
  pointing at the same ``repro cache-serve`` shares;
* sessions idle longer than ``max_idle_s`` are evicted, their stats folded into the manager totals, so a
  long-lived server never leaks abandoned demonstrations;
* :meth:`export_snapshot` / :meth:`import_snapshot` serialize a live
  session into a :class:`~repro.protocol.messages.SessionSnapshot` and
  resume it under another manager — another worker, another process —
  with byte-identical subsequent candidates (worker migration).

The manager is transport-agnostic: :mod:`repro.service.server` exposes
it over HTTP, tests and benchmarks drive it directly.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from dataclasses import replace
from typing import Optional, Sequence

from repro.dom.node import DOMNode
from repro.lang.actions import Action
from repro.lang.data import DataSource, EMPTY_DATA
from repro.obs import metrics as obs_metrics
from repro.protocol.messages import (
    Accepted,
    CandidateList,
    Migrated,  # noqa: F401  (re-exported for server/client convenience)
    ProgramProposed,
    Rejected,
    SessionClosed,
    SessionCreated,
    SessionSnapshot,
)
from repro.protocol.session import (
    Session,
    SessionClosedError,
    SessionError,
    SessionStats,
    UnknownSessionError,
)
from repro.synth.config import DEFAULT_CONFIG, SynthesisConfig

#: How many departed (closed/evicted/migrated) session ids the manager
#: remembers so a late request gets a 409-shaped "closed", not a 404.
_DEPARTED_LIMIT = 4096


def _live_gauge():
    """The ``repro_sessions_live`` gauge (the rebalancer's load signal)."""
    return obs_metrics.registry().gauge(
        "repro_sessions_live", "Sessions currently live on this worker."
    )


def resolved_session_ttl(max_idle_s: Optional[float]) -> Optional[float]:
    """The effective idle TTL: a positive argument, else ``None`` (never)."""
    if max_idle_s is not None and max_idle_s > 0:
        return max_idle_s
    return None


class SessionManager:
    """All live sessions of one service worker process.

    ``config`` seeds every session's synthesizer; sessions join the
    process-level execution cache (and through a ``remote://`` backend,
    other worker processes).  ``timeout`` is the per-call
    synthesis budget (the paper's interactive 1s default unless the
    creator overrides per session).  ``max_idle_s`` evicts sessions
    idle longer than that many seconds (default: never).
    """

    def __init__(
        self,
        config: SynthesisConfig = DEFAULT_CONFIG,
        timeout: Optional[float] = None,
        max_idle_s: Optional[float] = None,
    ) -> None:
        self.config = config
        self.timeout = timeout
        self.max_idle_s = resolved_session_ttl(max_idle_s)
        self._lock = threading.Lock()
        self._sessions: dict[str, Session] = {}
        self._ids = itertools.count(1)
        self._closed_stats = SessionStats()
        self._closed_count = 0
        self._evicted_count = 0
        self._imported_count = 0
        # sid -> why it departed ("closed" | "evicted" | "migrated")
        self._departed: OrderedDict[str, str] = OrderedDict()

    # ------------------------------------------------------------------
    # Creation / lookup
    # ------------------------------------------------------------------
    def create(
        self,
        snapshot: DOMNode,
        data: Optional[DataSource] = None,
        timeout: Optional[float] = None,
    ) -> str:
        """Open a session on an initial page snapshot; returns its id."""
        self.evict_idle()
        session_timeout = timeout if timeout is not None else self.timeout
        # build outside the manager lock: synthesizer construction may
        # resolve a backend and must not stall every
        # concurrent request on another session
        sid = self._mint_sid()
        session = Session(
            sid, data if data is not None else EMPTY_DATA,
            self.config, session_timeout,
        )
        session.start(snapshot)
        with self._lock:
            self._sessions[sid] = session
        self._publish_live()
        return sid

    def create_session(self, message) -> SessionCreated:
        """Typed creation: a :class:`CreateSession` in, the id out."""
        data = DataSource(message.data) if message.data is not None else None
        return SessionCreated(
            session=self.create(message.snapshot, data=data, timeout=message.timeout)
        )

    def _mint_sid(self) -> str:
        with self._lock:
            return f"s{next(self._ids)}"

    def _session(self, sid: str) -> Session:
        with self._lock:
            session = self._sessions.get(sid)
            departed = self._departed.get(sid)
        if session is None:
            if departed is not None:
                raise SessionClosedError(f"session {sid} was {departed}")
            raise UnknownSessionError(f"unknown session {sid!r}")
        return session

    def _depart(self, session: Session, reason: str) -> None:
        """Fold a departed session's stats in and remember why it left."""
        with self._lock:
            if reason != "migrated":
                self._closed_stats.merge(session.stats)
            self._closed_count += reason == "closed"
            self._evicted_count += reason == "evicted"
            self._departed[session.sid] = reason
            while len(self._departed) > _DEPARTED_LIMIT:
                self._departed.popitem(last=False)

    # ------------------------------------------------------------------
    # The per-action round trip
    # ------------------------------------------------------------------
    def record_action(
        self, sid: str, action: Action, snapshot: DOMNode
    ) -> ProgramProposed:
        """One per-action round trip; returns the typed summary."""
        self.evict_idle()
        session = self._session(sid)
        with session.lock:
            session.record(action, snapshot)
            return session.proposal()

    def candidates(self, sid: str) -> CandidateList:
        """The ranked candidate programs of a session."""
        session = self._session(sid)
        with session.lock:
            return session.candidate_list()

    def accept(self, sid: str, index: int = 0) -> Accepted:
        """Mark one candidate accepted; returns its rendered program."""
        session = self._session(sid)
        with session.lock:
            return session.accept(index)

    def reject(self, sid: str) -> Rejected:
        """Record that the user rejected every current proposal."""
        session = self._session(sid)
        with session.lock:
            return session.reject()

    def close(self, sid: str) -> SessionClosed:
        """Close a session and fold its stats into the manager totals."""
        with self._lock:
            session = self._sessions.pop(sid, None)
            if session is not None:
                # register the departure at pop time: a concurrent
                # request must see 409 "closed", never a 404 window
                # while the session closes below
                self._departed[sid] = "closed"
        if session is None:
            raise self._departed_error(sid)
        with session.lock:
            closed = session.close()
        self._depart(session, "closed")
        self._publish_live()
        # ship the session's buffered cache writes now: with a remote
        # backend this is what makes the finished demonstration's
        # executions visible to every other worker in the fleet
        from repro.service.backends import flush_backends

        flush_backends()
        return closed

    def _departed_error(self, sid: str) -> SessionError:
        with self._lock:
            departed = self._departed.get(sid)
        if departed is not None:
            return SessionClosedError(f"session {sid} was {departed}")
        return UnknownSessionError(f"unknown session {sid!r}")

    def close_all(self) -> None:
        """Close every live session (server shutdown)."""
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            with session.lock:
                session.close()
            self._depart(session, "closed")
        self._publish_live()
        from repro.service.backends import flush_backends

        flush_backends()

    # ------------------------------------------------------------------
    # Idle eviction
    # ------------------------------------------------------------------
    def evict_idle(self, now: Optional[float] = None) -> int:
        """Evict sessions idle beyond the TTL; returns how many left.

        A session whose lock is held is mid-request — by definition not
        idle — and is skipped rather than waited for.
        """
        if self.max_idle_s is None:
            return 0
        moment = time.monotonic() if now is None else now
        with self._lock:
            stale = [
                session
                for session in self._sessions.values()
                if moment - session.last_used > self.max_idle_s
            ]
        evicted = 0
        for session in stale:
            if not session.lock.acquire(blocking=False):
                continue  # mid-request: not idle after all
            try:
                # re-check under the session lock: the request that held
                # the lock a moment ago refreshed the idle clock
                if moment - session.last_used <= self.max_idle_s:
                    continue
                with self._lock:
                    if self._sessions.get(session.sid) is not session:
                        continue  # closed/migrated concurrently
                    del self._sessions[session.sid]
                    self._departed[session.sid] = "evicted"
                session.close()
            finally:
                session.lock.release()
            self._depart(session, "evicted")
            evicted += 1
        if evicted:
            self._publish_live()
        return evicted

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def begin_migration(self, sid: str) -> tuple[Session, SessionSnapshot]:
        """Take a session out of service and snapshot it atomically.

        From the moment this returns, the session refuses new work
        (requests answer 409 "being migrated"), so nothing can land in
        the local copy after the snapshot was taken and silently vanish
        once the target takes over.  The caller must finish with
        :meth:`commit_migration` (the target accepted the session) or
        :meth:`abort_migration` (the push failed — the session resumes
        serving here, untouched).
        """
        with self._lock:
            session = self._sessions.pop(sid, None)
            if session is not None:
                self._departed[sid] = "being migrated"
        if session is None:
            raise self._departed_error(sid)
        with session.lock:
            # a request that fetched the session reference before the
            # pop either finished before this lock (it is in the
            # snapshot) or gates on `migrating` after it (it gets 409)
            session.migrating = True
            return session, session.export_snapshot()

    def commit_migration(self, session: Session) -> None:
        """The target acknowledged: tear the local copy down for good."""
        with session.lock:
            session.close()
        self._depart(session, "migrated")
        self._publish_live()

    def abort_migration(self, session: Session) -> None:
        """The push failed: put the session back into service."""
        with session.lock:
            session.migrating = False
        with self._lock:
            self._departed.pop(session.sid, None)
            self._sessions[session.sid] = session
        self._publish_live()

    def export_snapshot(self, sid: str, evict: bool = True) -> SessionSnapshot:
        """Serialize a session; by default it leaves this worker.

        With ``evict`` the session is removed and marked *migrated*
        (subsequent requests for it answer 409) — its stats travel with
        the snapshot instead of folding into this manager's totals.
        """
        if evict:
            session, snapshot = self.begin_migration(sid)
            self.commit_migration(session)
            return snapshot
        session = self._session(sid)
        with session.lock:
            return session.export_snapshot()

    def import_snapshot(self, snapshot: SessionSnapshot) -> SessionCreated:
        """Resume an exported session on this worker under a fresh id.

        The trace is replayed through a fresh synthesizer (see
        :meth:`repro.protocol.session.Session.from_snapshot`), so the
        resumed session's subsequent candidates are byte-identical to
        the exporting worker's.
        """
        self.evict_idle()
        sid = self._mint_sid()
        timeout = snapshot.timeout if snapshot.timeout is not None else self.timeout
        session = Session.from_snapshot(
            replace(snapshot, timeout=timeout), sid, self.config
        )
        with self._lock:
            self._sessions[sid] = session
            self._imported_count += 1
        self._publish_live()
        return SessionCreated(session=sid)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _publish_live(self) -> None:
        with self._lock:
            live = len(self._sessions)
        _live_gauge().set(live)

    def session_ids(self) -> Sequence[str]:
        with self._lock:
            return tuple(self._sessions)

    def stats(self) -> dict:
        """Manager-wide stats: live + departed sessions, engine gauges."""
        self.evict_idle()
        totals = SessionStats()
        with self._lock:
            live = list(self._sessions.values())
            totals.merge(self._closed_stats)
            closed = self._closed_count
            evicted = self._evicted_count
            imported = self._imported_count
        for session in live:
            totals.merge(session.stats)
        # backend identity comes from the config resolution, not from
        # live sessions — an idle worker must still report its store
        from repro.service.backends import resolve_backend

        backend = resolve_backend(self.config.cache_backend)
        return {
            "sessions": len(live),
            "closed_sessions": closed,
            "sessions_evicted": evicted,
            "sessions_imported": imported,
            "backend": "memory" if backend is None else backend.name,
            "persisted_bytes": 0 if backend is None else backend.persisted_bytes,
            "totals": totals.to_json(),
        }
