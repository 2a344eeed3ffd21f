"""Pluggable execution-cache backends: the persistence layer of the service.

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
rows and rows back into entries; a backend only keeps rows.
``memory`` (the default) resolves to no backend at all, and the cache
then never computes a store digest.  The backends:

:class:`FileBackend`
    A persistent store over one SQLite file (stdlib ``sqlite3``, WAL
    mode): a cold process warm-starts from executions recorded by prior
    sessions — or prior *processes*.  Rows are written in the store
    codec (:mod:`repro.protocol.codec`: canonical JSON under zlib, ~10×
    smaller than plain JSON); reads sniff the codec per row, so stores
    that still hold plain JSON rows keep serving.  The store is
    size-tiered: terminal/whole-program outcomes always persist, while
    cheap exact interior entries (bounded cost at or below the tier
    threshold) are recomputed rather than stored.  Eviction is
    byte-accounted against ``max_bytes``, incremental (running totals,
    no full-table scans) and tier-aware: every non-terminal row drops
    before any terminal one.

Shared use
    Pointing several worker processes at one store *is* the shared
    backend: SQLite serializes writers (WAL keeps readers concurrent),
    :func:`resolve_backend` hands every session in one process the same
    connection, and ``repro serve`` workers all resolve the same path.
    I/O failures degrade to cache misses — the store is a cache, never
    a source of truth.

:class:`~repro.fleet.remote.RemoteBackend` (``remote://host:port``)
    The fleet tier: the same seam over HTTP to a standalone
    ``repro cache-serve`` process, registered lazily through
    :func:`register_backend_factory` — see :mod:`repro.fleet`.

``REPRO_CACHE_BACKEND`` selects the backend (``memory`` | ``file`` |
``remote://host:port``),
``REPRO_CACHE_DIR`` the store directory, ``REPRO_CACHE_MAX_BYTES`` the
store's eviction threshold, and ``REPRO_STORE_TIERING=0`` turns the
persistence tier policy off.
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
from repro.util.env import env_int
from repro.util.rowkinds import EXACT, TERMINAL

#: Default store eviction threshold: 256 MiB of payload bytes.
DEFAULT_MAX_BYTES = 256 << 20

#: Default tier threshold: exact interior entries whose recompute cost
#: (the static bound when the analysis can close it, else the entry's
#: own recorded action count — exact, since entries are value-addressed
#: to their snapshots) is at or below this many simulated actions are
#: recomputed rather than persisted.  12 sits just above the short
#: interior prefixes the synthesis worklist re-probes constantly and
#: below the long whole-trace executions that dominate wall-clock.
#: This is only the *seed*: unless the ``tier_cost`` constructor
#: argument pins an explicit value, each store derives its threshold
#: from the recompute costs it actually observes (see
#: ``FileBackend._recalc_tier_cost_locked``).
DEFAULT_TIER_COST = 12

#: Adaptive tiering: re-derive the threshold every this many observed
#: bounded EXACT costs.
TIER_RECALC_EVERY = 128

#: Adaptive tiering: skip the cheapest ~75% of bounded exact entries.
TIER_PERCENTILE = 0.75

#: Clamp for the derived threshold — never tier away everything (ceil)
#: and never degenerate into persisting every two-action prefix (floor).
TIER_COST_FLOOR = 4
TIER_COST_CEIL = 64

#: Costs above this all land in one overflow bucket of the observed
#: distribution (they are never near the derived percentile anyway).
_TIER_COST_CAP = 256

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
        self.tier_skips = registry.counter(
            "repro_store_tier_skips_total",
            "Writes skipped by the persistence tier policy.",
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
        self.tier_cost = registry.gauge(
            "repro_store_tier_cost",
            "Effective tier threshold (derived unless pinned; -1 = tiering off).",
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

    A backend keeps payload rows: ``kind`` is :data:`EXACT` or
    :data:`TERMINAL`, ``digest`` the
    :func:`~repro.engine.keys.stable_digest` of the full value key, and
    the payload a codec-ready dict.  Turning entries into rows and back
    is the cache's business, so the file store and the remote tier keep
    the same rows the cache server relays.
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

    def should_persist(self, kind: int, cost: Optional[int]) -> bool:
        """Whether an entry of this kind and bounded cost is worth storing.

        ``cost`` is an upper bound on the simulated actions needed to
        recompute the entry, or ``None`` when unbounded/unknown.  The
        base policy persists everything; tiered backends override.
        """
        return True

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


def tiering_enabled() -> bool:
    """Whether the store tier policy is on (``REPRO_STORE_TIERING=0``
    turns it off: every entry persists)."""
    toggle = os.environ.get("REPRO_STORE_TIERING", "1").strip().lower()
    return toggle not in ("0", "off", "false", "no")


class FileBackend(CacheBackend):
    """A byte-accounted persistent store over one SQLite file.

    One connection per process (see :func:`resolve_backend`), guarded by
    a lock so concurrent sessions share it safely; WAL mode plus a busy timeout make one *file* safe to share
    between worker processes.  Writes are buffered (deduplicated by key)
    and flushed every ``flush_every`` distinct keys (and at interpreter
    exit), so other processes see entries with bounded staleness at a
    fraction of the commit cost.

    Reads see the write buffer first, so a just-written entry is
    visible before the next flush.  Writes use the store codec; reads
    sniff the codec per row, so a store that still holds plain JSON
    rows from older writers always decodes.  A row that fails to decode
    (corrupt, or in a deleted format) is a miss, and the recomputed
    entry overwrites it.

    The store is size-tiered: :data:`TERMINAL` outcomes always persist,
    while :data:`EXACT` interior entries whose recompute cost is bounded
    at or below ``tier_cost`` are skipped (the in-memory tables still
    hold them).
    Unless pinned by the constructor argument, ``tier_cost`` is
    *derived*: the store tracks the distribution of
    bounded recompute costs it is asked about and re-sets the threshold
    to its :data:`TIER_PERCENTILE` every :data:`TIER_RECALC_EVERY`
    observations, clamped to [:data:`TIER_COST_FLOOR`,
    :data:`TIER_COST_CEIL`].
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
        tier_cost: Optional[int] = None,
    ) -> None:
        self.path = str(path)
        if max_bytes is None:
            max_bytes = env_int("REPRO_CACHE_MAX_BYTES", DEFAULT_MAX_BYTES)
        self.max_bytes = max_bytes
        self.flush_every = max(1, flush_every)
        #: Tier threshold for :meth:`should_persist`; -1 disables tiering.
        #: An explicit constructor argument pins the value; otherwise it
        #: seeds at :data:`DEFAULT_TIER_COST` and tracks the
        #: :data:`TIER_PERCENTILE` of the bounded recompute costs this
        #: store actually observes.
        if tier_cost is None and not tiering_enabled():
            tier_cost = -1
        self.tier_adaptive = tier_cost is None
        self.tier_cost = DEFAULT_TIER_COST if tier_cost is None else tier_cost
        #: Observed bounded-EXACT recompute costs: cost -> count (costs
        #: past _TIER_COST_CAP pool in one overflow bucket).
        self._cost_counts: dict[int, int] = {}
        self._cost_samples = 0
        self._lock = threading.Lock()
        #: Write buffer, deduplicated by key: a re-store of a pending
        #: key replaces the buffered row instead of appending a
        #: double-counted duplicate.
        self._pending: dict[bytes, tuple[int, bytes, int]] = {}
        self._pending_bytes = 0
        #: Telemetry: rows found / asked for, writes, evicted rows,
        #: payloads dropped because the codec could not encode them,
        #: I/O errors degraded to misses, and writes the tier policy
        #: skipped.
        self.load_hits = 0
        self.loads = 0
        self.stores = 0
        self.evictions = 0
        self.encode_errors = 0
        self.io_errors = 0
        self.tier_skips = 0
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
        _StoreMetrics.get().tier_cost.set(self.tier_cost)
        atexit.register(self.flush)

    # ------------------------------------------------------------------
    def should_persist(self, kind: int, cost: Optional[int]) -> bool:
        if kind != EXACT or self.tier_cost < 0:
            return True
        if cost is None:
            return True
        if self.tier_adaptive:
            with self._lock:
                self._observe_cost_locked(cost)
        if cost > self.tier_cost:
            return True
        self.tier_skips += 1
        _StoreMetrics.get().tier_skips.inc()
        return False

    def _observe_cost_locked(self, cost: int) -> None:
        bucket = cost if cost < _TIER_COST_CAP else _TIER_COST_CAP
        counts = self._cost_counts
        counts[bucket] = counts.get(bucket, 0) + 1
        self._cost_samples += 1
        if self._cost_samples % TIER_RECALC_EVERY == 0:
            self._recalc_tier_cost_locked()

    def _recalc_tier_cost_locked(self) -> None:
        """Re-derive ``tier_cost`` as the :data:`TIER_PERCENTILE` of the
        observed bounded recompute costs, clamped to
        [:data:`TIER_COST_FLOOR`, :data:`TIER_COST_CEIL`].

        The observed distribution is exactly the population the policy
        splits: entries whose cost the tier decision already had in
        hand.  A store dominated by short interior prefixes pushes the
        threshold up (skip more, they are cheap to recompute); a store
        of long bounded executions pulls it down toward the floor so
        genuinely expensive entries keep persisting.
        """
        target = self._cost_samples * TIER_PERCENTILE
        cumulative = 0
        derived = TIER_COST_FLOOR
        for bucket in sorted(self._cost_counts):
            cumulative += self._cost_counts[bucket]
            if cumulative >= target:
                derived = bucket
                break
        self.tier_cost = max(TIER_COST_FLOOR, min(TIER_COST_CEIL, derived))
        _StoreMetrics.get().tier_cost.set(self.tier_cost)

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
# Resolution (one backend object per store per process)
# ----------------------------------------------------------------------
_FILE_BACKENDS: dict[str, FileBackend] = {}
#: URL-scheme backend factories: scheme -> factory(url) -> CacheBackend.
#: ``remote`` registers itself on first resolution (lazy import keeps
#: this module free of fleet dependencies).
_FACTORIES: dict[str, object] = {}
#: One backend instance per resolved URL (mirrors _FILE_BACKENDS).
_URL_BACKENDS: dict[str, CacheBackend] = {}
_RESOLVE_LOCK = threading.Lock()


def register_backend_factory(scheme: str, factory) -> None:
    """Plug a URL-scheme backend into :func:`resolve_backend`.

    ``factory`` is called once per distinct URL with the full backend
    name (e.g. ``remote://127.0.0.1:8799``) and must return a
    :class:`CacheBackend`; the instance is cached so every session in
    the process shares it, and :func:`flush_backends` /
    :func:`reset_backends` cover it like any file store.
    """
    _FACTORIES[scheme] = factory


def default_store_path() -> str:
    """The store file ``REPRO_CACHE_DIR`` (default ``~/.cache/repro``) names."""
    directory = os.environ.get("REPRO_CACHE_DIR", "").strip()
    if not directory:
        directory = os.path.join(os.path.expanduser("~"), ".cache", "repro")
    return os.path.join(directory, "execution-cache.sqlite")


def resolve_backend(
    name: Optional[str] = None, path: Optional[str] = None
) -> Optional[CacheBackend]:
    """The backend a name (default: ``REPRO_CACHE_BACKEND``) selects;
    ``None`` for ``memory``, which keeps only the in-memory tables.

    ``file`` backends are cached per resolved path, so every session in
    one process shares a single connection — and worker processes
    resolving the same path share one store.
    """
    if name is None:
        name = os.environ.get("REPRO_CACHE_BACKEND", "").strip()
    if name in ("", "memory"):
        return None
    if name == "file":
        resolved = os.path.abspath(path or default_store_path())
        with _RESOLVE_LOCK:
            backend = _FILE_BACKENDS.get(resolved)
            if backend is None:
                backend = _FILE_BACKENDS[resolved] = FileBackend(resolved)
            return backend
    if "://" in name:
        scheme = name.split("://", 1)[0]
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
        f"(expected 'memory', 'file', or 'remote://host:port')"
    )


def flush_backends() -> None:
    """Flush every resolved persistent backend's buffered writes.

    Worker processes call this before exiting: ``os._exit`` (the
    multiprocessing child exit path) skips ``atexit`` hooks, and entries
    still in the write buffer would otherwise never reach the store —
    or, for ``remote://`` backends, the cache tier.
    """
    with _RESOLVE_LOCK:
        backends = list(_FILE_BACKENDS.values()) + list(_URL_BACKENDS.values())
    for backend in backends:
        backend.flush()


def reset_backends() -> None:
    """Close and forget every resolved backend (test isolation)."""
    with _RESOLVE_LOCK:
        backends = list(_FILE_BACKENDS.values()) + list(_URL_BACKENDS.values())
        _FILE_BACKENDS.clear()
        _URL_BACKENDS.clear()
    for backend in backends:
        backend.close()
    # caches over the closed backends must not outlive them
    from repro.engine.cache import reset_process_cache

    reset_process_cache()
