"""Execution-cache backends: the seam behind the in-memory cache.

The in-memory execution cache (:mod:`repro.engine.cache`) keeps every
key a *value* (content digests for snapshots and data, alpha-canonical
forms for statements — see :mod:`repro.engine.keys`), so a memoized
outcome is meaningful in any process.  A :class:`CacheBackend` is the
seam that exploits this: the cache consults it on an in-memory miss and
writes every new execution outcome through it, addressed by the
:func:`~repro.engine.keys.stable_digest` of the full value key.
Consistency memos never reach a backend.

Backends store *payload rows* (:mod:`repro.engine.rows`): codec-ready
dicts addressed by ``(kind, digest)``.  The cache turns entries into
rows and rows back into entries; a backend only keeps rows.  Which
rows reach a backend, and which a lookup asks for, is the cache's tier
policy (:data:`repro.engine.cache.TIER_COST`); a backend stores what
it is handed.

A session names its backend with ``SynthesisConfig.cache_backend``, and
:func:`resolve_backend` accepts exactly two names:

``memory`` (the default)
    No backend at all: the cache keeps its in-process tables and never
    computes a store digest.

``remote://host:port``
    :class:`~repro.fleet.remote.RemoteBackend`, the fleet tier: the
    same seam over HTTP to a standalone ``repro cache-serve`` process,
    registered lazily through :func:`register_backend_factory` — see
    :mod:`repro.fleet`.  Every worker pointing at one cache server
    shares its executions, and a cache server restarted over the same
    ``--cache-dir`` warm-starts the workers from the rows it kept.

:class:`FileBackend` is the cache server's own store, not a session
backend: a byte-accounted SQLite file that
:mod:`repro.fleet.cache_server` opens and owns.  Rows are written in the
store codec (:mod:`repro.protocol.codec`: canonical JSON under zlib,
~10× smaller than plain JSON); reads sniff the codec per row, so stores
that still hold plain JSON rows keep serving.  Eviction is
byte-accounted against ``max_bytes``, incremental (running totals, no
full-table scans) and tier-aware: every non-terminal row drops before
any terminal one.  I/O failures degrade to cache misses — the store is
a cache, never a source of truth.
"""

from __future__ import annotations

import atexit
import os
import sqlite3
import threading
from pathlib import Path
from typing import Optional, Sequence

from repro.obs import metrics as obs_metrics
from repro.protocol.codec import STORE_CODEC, ProtocolError, sniff_codec
from repro.util.rowkinds import TERMINAL

#: Default store eviction threshold: 256 MiB of payload bytes.
DEFAULT_MAX_BYTES = 256 << 20

#: Keys per ``WHERE key IN (…)`` statement (under SQLite's host
#: parameter limit).
_SQL_CHUNK = 500


class _StoreMetrics:
    """Lazy handles on the store's registry families (shared by all
    ``FileBackend`` instances — one process, one store in practice)."""

    _instance = None

    def __init__(self):
        registry = obs_metrics.registry()
        self.probes = registry.counter(
            "repro_store_probes_total",
            "Persistent-store probe outcomes.",
            ("outcome",),
        )
        self.stores = registry.counter(
            "repro_store_writes_total", "Entries written through to the store."
        )
        self.evictions = registry.counter(
            "repro_store_evictions_total", "Rows dropped by byte-based eviction."
        )
        self.io_errors = registry.counter(
            "repro_store_io_errors_total", "SQLite errors degraded to misses."
        )
        self.bytes = registry.gauge(
            "repro_store_bytes", "Payload bytes currently on disk."
        )
        self.entries = registry.gauge(
            "repro_store_entries", "Rows currently on disk."
        )

    @classmethod
    def get(cls) -> "_StoreMetrics":
        if cls._instance is None:
            cls._instance = cls()
        return cls._instance


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
class CacheBackend:
    """The persistence seam behind the in-memory execution cache.

    A backend keeps payload rows: ``kind`` is ``EXACT`` or
    :data:`TERMINAL`, ``digest`` the
    :func:`~repro.engine.keys.stable_digest` of the full value key, and
    the payload a codec-ready dict.  Turning entries into rows and back
    is the cache's business, so the remote tier and the cache server's
    store keep the same rows.
    """

    #: Short name surfaced in telemetry (``repro synthesize --stats``).
    name: str = "backend"

    def load_payloads(self, rows: Sequence[tuple[int, bytes]]) -> list:
        """One payload dict or ``None`` per ``(kind, digest)`` row, in
        order — one batch, so one round trip on a networked tier."""
        raise NotImplementedError

    def store_payload(self, kind: int, digest: bytes, payload: dict) -> None:
        """Write one payload row through to the store (may buffer)."""
        raise NotImplementedError

    def flush(self) -> None:
        """Make buffered writes visible to other processes."""

    def close(self) -> None:
        """Flush and release resources."""

    @property
    def persisted_bytes(self) -> int:
        """Approximate payload bytes currently held by the store."""
        return 0

    @property
    def entries(self) -> int:
        """Number of entries currently held by the store."""
        return 0


class FileBackend(CacheBackend):
    """A byte-accounted persistent store over one SQLite file: the
    cache server's store (:mod:`repro.fleet.cache_server`).

    One connection, guarded by a lock so the server's request threads
    share it safely.  Writes are buffered (deduplicated by key) and
    flushed every ``flush_every`` distinct keys, on :meth:`close` and at
    interpreter exit, at a fraction of the per-row commit cost.

    Reads see the write buffer first, so a just-written entry is
    visible before the next flush.  Writes use the store codec; reads
    sniff the codec per row, so a store that still holds plain JSON
    rows from older writers always decodes.  A row that fails to decode
    (corrupt, or in a deleted format) is a miss, and the recomputed
    entry overwrites it.

    Eviction is byte-based and incremental — running totals maintained
    at flush time, no full-table ``SUM`` scans — and tier-aware: once
    the total exceeds ``max_bytes``, rows are dropped down to 90% of
    the threshold, every non-TERMINAL row (EXACT, and kind-2 consistency
    rows that earlier builds wrote) before any TERMINAL one,
    oldest-written first within each tier.  Every SQLite error
    degrades to a miss or a dropped write — the store is a cache, not a
    ledger.
    """

    name = "file"

    def __init__(
        self,
        path: str | Path,
        max_bytes: Optional[int] = None,
        flush_every: int = 64,
    ) -> None:
        self.path = str(path)
        self.max_bytes = DEFAULT_MAX_BYTES if max_bytes is None else max_bytes
        self.flush_every = max(1, flush_every)
        self._lock = threading.Lock()
        #: Write buffer, deduplicated by key: a re-store of a pending
        #: key replaces the buffered row instead of appending a
        #: double-counted duplicate.
        self._pending: dict[bytes, tuple[int, bytes, int]] = {}
        self._pending_bytes = 0
        #: Telemetry: rows found / asked for, writes, evicted rows,
        #: payloads dropped because the codec could not encode them,
        #: and I/O errors degraded to misses.
        self.load_hits = 0
        self.loads = 0
        self.stores = 0
        self.evictions = 0
        self.encode_errors = 0
        self.io_errors = 0
        Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(
            self.path, check_same_thread=False, timeout=30.0, isolation_level=None
        )
        #: Running store totals (rows / payload bytes on disk), seeded
        #: once here and maintained incrementally at flush/evict time so
        #: steady-state accounting never rescans the table.
        self._db_entries = 0
        self._db_bytes = 0
        with self._lock:
            try:
                self._conn.execute("PRAGMA journal_mode=WAL")
                self._conn.execute("PRAGMA synchronous=OFF")
                self._conn.execute(
                    "CREATE TABLE IF NOT EXISTS entries ("
                    " key BLOB PRIMARY KEY,"
                    " kind INTEGER NOT NULL,"
                    " payload BLOB NOT NULL,"
                    " nbytes INTEGER NOT NULL)"
                )
                self._resync_totals_locked()
            except sqlite3.Error:
                self.io_errors += 1
        atexit.register(self.flush)

    # ------------------------------------------------------------------
    # Payload rows.  The store never decodes entries into actions and
    # environments, so the cache server relays rows written by any
    # protocol-compatible worker.
    # ------------------------------------------------------------------
    def load_payload(self, kind: int, key: bytes) -> Optional[dict]:
        """The payload stored under ``key`` (reads the write buffer
        first, so a just-put row is visible before the next flush)."""
        return self.load_payloads([(kind, key)])[0]

    def load_payloads(self, rows: Sequence[tuple[int, bytes]]) -> list:
        """The write buffer answers first, one ``SELECT … WHERE key IN
        (…)`` the rest.  Lookups key on the digest alone: its input
        already carries the kind tag."""
        keys = [key for _, key in rows]
        self.loads += len(keys)
        blobs: dict[bytes, bytes] = {}
        with self._lock:
            for key in keys:
                pending = self._pending.get(key)
                if pending is not None:
                    blobs[key] = pending[1]
        buffered = set(blobs)
        stored = [key for key in keys if key not in buffered]
        metrics = _StoreMetrics.get()
        if stored:
            try:
                with self._lock:
                    for start in range(0, len(stored), _SQL_CHUNK):
                        chunk = stored[start : start + _SQL_CHUNK]
                        marks = ",".join("?" * len(chunk))
                        for key, blob in self._conn.execute(
                            f"SELECT key, payload FROM entries WHERE key IN ({marks})",
                            chunk,
                        ):
                            blobs[bytes(key)] = bytes(blob)
            except sqlite3.Error:
                self.io_errors += 1
                metrics.io_errors.inc()
        payloads = []
        for key in keys:
            blob = blobs.get(key)
            payload = None
            if blob is not None:
                try:
                    payload = sniff_codec(blob).decode_payload(blob)
                except ProtocolError:
                    pass  # corrupt row: a miss, never an error
            if not isinstance(payload, dict):
                payload = None
            if payload is not None:
                self.load_hits += 1
            if key not in buffered:
                metrics.probes.labels(
                    outcome="miss" if payload is None else "hit"
                ).inc()
            payloads.append(payload)
        return payloads

    def store_payload(self, kind: int, key: bytes, payload: dict) -> None:
        """Encode one payload row into the deduplicated write buffer."""
        try:
            blob = STORE_CODEC.encode_payload(payload)
        except (ProtocolError, TypeError, ValueError):
            self.encode_errors += 1
            return
        self.stores += 1
        _StoreMetrics.get().stores.inc()
        nbytes = len(blob) + len(key)
        with self._lock:
            previous = self._pending.get(key)
            if previous is not None:
                self._pending_bytes -= previous[2]
            self._pending[key] = (kind, blob, nbytes)
            self._pending_bytes += nbytes
            if len(self._pending) < self.flush_every:
                return
        self.flush()

    def flush(self) -> None:
        with self._lock:
            pending, self._pending = self._pending, {}
            pending_bytes, self._pending_bytes = self._pending_bytes, 0
            if not pending:
                return
            try:
                replaced_rows = 0
                replaced_bytes = 0
                keys = list(pending)
                for start in range(0, len(keys), _SQL_CHUNK):
                    chunk = keys[start : start + _SQL_CHUNK]
                    marks = ",".join("?" * len(chunk))
                    for _, nbytes in self._conn.execute(
                        f"SELECT key, nbytes FROM entries WHERE key IN ({marks})",
                        chunk,
                    ):
                        replaced_rows += 1
                        replaced_bytes += nbytes
                self._conn.executemany(
                    "INSERT OR REPLACE INTO entries (key, kind, payload, nbytes)"
                    " VALUES (?, ?, ?, ?)",
                    [
                        (key, kind, blob, nbytes)
                        for key, (kind, blob, nbytes) in pending.items()
                    ],
                )
                self._db_entries += len(pending) - replaced_rows
                self._db_bytes += pending_bytes - replaced_bytes
                self._evict_locked()
            except sqlite3.Error:
                self.io_errors += 1
                _StoreMetrics.get().io_errors.inc()
                self._resync_totals_locked()
            metrics = _StoreMetrics.get()
            metrics.bytes.set(self._db_bytes)
            metrics.entries.set(self._db_entries)

    def _resync_totals_locked(self) -> None:
        """Re-seed the running totals from the table (open, error paths)."""
        try:
            count, total = self._conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(nbytes), 0) FROM entries"
            ).fetchone()
            self._db_entries, self._db_bytes = int(count), int(total)
        except sqlite3.Error:
            self.io_errors += 1

    #: Rows examined per eviction round: bounds each DELETE's scan.
    _EVICT_BATCH = 256

    def _evict_locked(self) -> None:
        """Drop rows until under the byte threshold — cheap tiers first.

        Every non-TERMINAL row goes before any TERMINAL whole-program
        outcome: EXACT interior entries (recomputable), and any kind-2
        consistency row an earlier build wrote (never read, so evicting
        it first costs nothing).  Oldest-written first within each tier,
        in bounded batches.  The running byte total replaces the old
        full-table ``SUM`` + ``ORDER BY rowid`` scan per flush.
        """
        if self._db_bytes <= self.max_bytes:
            return
        target = int(self.max_bytes * 0.9)
        for tier in ("kind != ?", "kind = ?"):  # non-terminal, then terminal
            while self._db_bytes > target:
                rows = self._conn.execute(
                    f"SELECT rowid, nbytes FROM entries WHERE {tier}"
                    " ORDER BY rowid LIMIT ?",
                    (TERMINAL, self._EVICT_BATCH),
                ).fetchall()
                if not rows:
                    break  # tier empty: move on to the next
                cutoff = rows[-1][0]
                freed = 0
                dropped = 0
                for rowid, nbytes in rows:
                    cutoff = rowid
                    freed += nbytes
                    dropped += 1
                    if self._db_bytes - freed <= target:
                        break
                self._conn.execute(
                    f"DELETE FROM entries WHERE {tier} AND rowid <= ?",
                    (TERMINAL, cutoff),
                )
                self.evictions += dropped
                _StoreMetrics.get().evictions.inc(dropped)
                self._db_entries -= dropped
                self._db_bytes -= freed
            if self._db_bytes <= target:
                return

    def close(self) -> None:
        self.flush()
        try:
            self._conn.close()
        except sqlite3.Error:  # pragma: no cover - defensive
            self.io_errors += 1

    # ------------------------------------------------------------------
    @property
    def persisted_bytes(self) -> int:
        """Store payload bytes: the on-disk running total plus the
        deduplicated write buffer (a pending key already on disk is
        counted twice only until the next flush reconciles it)."""
        with self._lock:
            return self._db_bytes + self._pending_bytes

    @property
    def entries(self) -> int:
        with self._lock:
            return self._db_entries + len(self._pending)


# ----------------------------------------------------------------------
# Resolution (one backend object per URL per process)
# ----------------------------------------------------------------------
#: URL-scheme backend factories: scheme -> factory(url) -> CacheBackend.
#: ``remote`` registers itself on first resolution (lazy import keeps
#: this module free of fleet dependencies).
_FACTORIES: dict[str, object] = {}
#: One backend instance per resolved URL.
_URL_BACKENDS: dict[str, CacheBackend] = {}
_RESOLVE_LOCK = threading.Lock()


def register_backend_factory(scheme: str, factory) -> None:
    """Plug a URL-scheme backend into :func:`resolve_backend`.

    ``factory`` is called once per distinct URL with the full backend
    name (e.g. ``remote://127.0.0.1:8799``) and must return a
    :class:`CacheBackend`; the instance is cached so every session in
    the process shares it, and :func:`flush_backends` /
    :func:`reset_backends` cover it.
    """
    _FACTORIES[scheme] = factory


def default_store_path() -> str:
    """The cache server's store file when no ``--cache-dir`` names one:
    ``~/.cache/repro/execution-cache.sqlite``."""
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro", "execution-cache.sqlite"
    )


def resolve_backend(name: str) -> Optional[CacheBackend]:
    """The backend a ``cache_backend`` name selects: ``None`` for
    ``memory``, which keeps only the in-memory tables, and one shared
    instance per URL for ``remote://host:port``.

    Any other name raises :class:`ValueError`, so a caller that
    resolves before serving (``repro serve``, ``repro synthesize``)
    turns a typo into a startup error instead of a failing session.
    """
    if name == "memory":
        return None
    scheme, separator, _ = name.partition("://")
    if separator:
        if scheme == "remote" and scheme not in _FACTORIES:
            import repro.fleet.remote  # noqa: F401  (registers the factory)
        factory = _FACTORIES.get(scheme)
        if factory is not None:
            with _RESOLVE_LOCK:
                backend = _URL_BACKENDS.get(name)
                if backend is None:
                    backend = _URL_BACKENDS[name] = factory(name)
                return backend
    raise ValueError(
        f"unknown cache backend {name!r} "
        f"(expected 'memory' or 'remote://host:port')"
    )


def flush_backends() -> None:
    """Flush every resolved backend's buffered writes.

    Worker processes call this before exiting: ``os._exit`` (the
    multiprocessing child exit path) skips ``atexit`` hooks, and rows
    still in a ``remote://`` backend's write buffer would otherwise
    never reach the cache tier.
    """
    with _RESOLVE_LOCK:
        backends = list(_URL_BACKENDS.values())
    for backend in backends:
        backend.flush()


def reset_backends() -> None:
    """Close and forget every resolved backend (test isolation)."""
    with _RESOLVE_LOCK:
        backends = list(_URL_BACKENDS.values())
        _URL_BACKENDS.clear()
    for backend in backends:
        backend.close()
    # caches over the closed backends must not outlive them
    from repro.engine.cache import reset_process_cache

    reset_process_cache()
