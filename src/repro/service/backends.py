"""Pluggable execution-cache backends: the persistence layer of the service.

The in-memory execution cache (:mod:`repro.engine.cache`) keeps every
key a *value* (content digests for snapshots and data, alpha-canonical
forms for statements — see :mod:`repro.engine.keys`), so a memoized
outcome is meaningful in any process.  A :class:`CacheBackend` is the
seam that exploits this: the cache consults it on an in-memory miss and
writes every new outcome through it, addressed by the
:func:`~repro.engine.keys.stable_digest` of the full value key.

Three backends:

:class:`InProcessBackend`
    The default: nothing beyond the in-memory tables — byte-for-byte
    today's behavior.  ``persistent`` is False, so the cache skips
    digest computation entirely.

:class:`FileBackend`
    A persistent store over one SQLite file (stdlib ``sqlite3``, WAL
    mode): a cold process warm-starts from executions recorded by prior
    sessions — or prior *processes*.  Payloads go through the protocol
    codec seam (:mod:`repro.protocol.codec`) — binary by default for
    the ~10× payload-size cut, JSON as the ablation fallback; reads
    sniff the codec per row, so mixed and legacy stores keep working.
    A byte-accounted decoded-entry LRU sits in front of SQLite so
    repeat probes of hot keys skip both the read and the decode.  The
    store is size-tiered: terminal/whole-program outcomes and
    consistency memos always persist, while cheap exact interior
    entries (bounded cost at or below the tier threshold) are
    recomputed rather than stored.  Eviction is byte-accounted against
    ``max_bytes``, incremental (running totals, no full-table scans)
    and tier-aware: cheap tiers drop first.

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
store's eviction threshold, ``REPRO_CODEC`` the payload codec
(``binary`` | ``json``), ``REPRO_DECODE_CACHE_BYTES`` the decoded-entry
LRU budget, and ``REPRO_STORE_TIERING`` / ``REPRO_STORE_TIER_COST`` the
persistence tier policy.
"""

from __future__ import annotations

import atexit
import os
import sqlite3
import threading
from pathlib import Path
from typing import Optional

from repro.dom.xpath import CHILD, DESC, ConcreteSelector, Predicate, Step, TokenPredicate
from repro.lang.actions import Action
from repro.lang.ast import SEL_VAR, ValuePath, Var
from repro.obs import metrics as obs_metrics
from repro.protocol.codec import Codec, ProtocolError, resolve_codec, sniff_codec
from repro.semantics.env import Env

#: Entry kinds.  Stored in the ``kind`` column for store introspection
#: and tier-aware eviction — lookups key on the digest alone, whose
#: input already carries the kind tag, so kinds can never collide even
#: without a column filter.
EXACT, TERMINAL, CONSISTENCY = 0, 1, 2

#: Default store eviction threshold: 256 MiB of payload bytes.
DEFAULT_MAX_BYTES = 256 << 20

#: Default decoded-entry LRU budget: 32 MiB of (encoded) payload bytes.
DEFAULT_DECODE_CACHE_BYTES = 32 << 20

#: Default tier threshold: exact interior entries whose recompute cost
#: (the static bound when the analysis can close it, else the entry's
#: own recorded action count — exact, since entries are value-addressed
#: to their snapshots) is at or below this many simulated actions are
#: recomputed rather than persisted.  12 sits just above the short
#: interior prefixes the synthesis worklist re-probes constantly and
#: below the long whole-trace executions that dominate wall-clock.
#: This is only the *seed*: unless ``REPRO_STORE_TIER_COST`` (or the
#: ``tier_cost`` constructor argument) pins an explicit value, each
#: store derives its threshold from the recompute costs it actually
#: observes (see ``FileBackend._recalc_tier_cost_locked``).
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


class _StoreMetrics:
    """Lazy handles on the store's registry families (shared by all
    ``FileBackend`` instances — one process, one store in practice)."""

    _instance = None

    def __init__(self):
        registry = obs_metrics.registry()
        self.probes = registry.counter(
            "repro_store_probes_total",
            "Persistent-store probe outcomes (decoded = served from the "
            "decoded-entry LRU without a read).",
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
# Payload conversion (exact structural values — no string round-trips)
# ----------------------------------------------------------------------
class StepInterner:
    """A bounded two-way memo between :class:`Step` objects and payload rows.

    Encode side: maps each step to **one shared row list**, so every
    selector payload that repeats a step emits the same list object —
    the binary codec's identity memo then collapses the repeat into a
    two-byte back-reference (the JSON codec simply re-serializes it).
    Decode side: maps rows back to interned :class:`Step` objects,
    skipping Predicate/Step re-construction — restored selectors repeat
    the same few steps thousands of times (every card of a list page
    shares most of its raw path).

    Bounded as an LRU (hits migrate to the back once the table passes
    half capacity; the oldest entry drops when full), owned per backend
    instance, so one backend's traffic can no longer flush another's
    hot steps mid-decode the way the old module-global wholesale-clear
    dict could.  Losing an entry only costs reconstruction.
    """

    __slots__ = ("capacity", "_rows", "_steps")

    def __init__(self, capacity: int = 1 << 15) -> None:
        self.capacity = capacity
        self._rows: dict[Step, list] = {}
        self._steps: dict[tuple, Step] = {}

    def step_to_row(self, step: Step) -> list:
        rows = self._rows
        row = rows.get(step)
        if row is None:
            pred = step.pred
            row = [
                step.axis == DESC,
                pred.tag,
                pred.attr,
                pred.value,
                type(pred) is TokenPredicate,
                step.index,
            ]
            if len(rows) >= self.capacity:
                del rows[next(iter(rows))]
            rows[step] = row
        elif len(rows) > (self.capacity >> 1):
            rows[step] = rows.pop(step)
        return row

    def row_to_step(self, row: list) -> Step:
        key = tuple(row)
        steps = self._steps
        step = steps.get(key)
        if step is None:
            desc, tag, attr, value, token, index = key
            pred_type = TokenPredicate if token else Predicate
            step = Step(DESC if desc else CHILD, pred_type(tag, attr, value), index)
            if len(steps) >= self.capacity:
                del steps[next(iter(steps))]
            steps[key] = step
        elif len(steps) > (self.capacity >> 1):
            steps[key] = steps.pop(key)
        return step


#: Fallback interner behind the module-level conversion functions
#: (tests and tools call them without a backend).  Backends own their
#: own instance.
_DEFAULT_INTERNER = StepInterner()


def _steps_to_payload(
    steps: tuple[Step, ...], interner: StepInterner
) -> list:
    row = interner.step_to_row
    return [row(step) for step in steps]


def _steps_from_payload(payload: list, interner: StepInterner) -> tuple[Step, ...]:
    step = interner.row_to_step
    return tuple(step(item) for item in payload)


def action_to_payload(
    action: Action, interner: Optional[StepInterner] = None
) -> list:
    """One action as a codec-ready value (structural, lossless)."""
    interner = interner or _DEFAULT_INTERNER
    selector = (
        None
        if action.selector is None
        else _steps_to_payload(action.selector.steps, interner)
    )
    path = None if action.path is None else list(action.path.accessors)
    return [action.kind, selector, action.text, path]


def action_from_payload(
    payload: list, interner: Optional[StepInterner] = None
) -> Action:
    """Rebuild an action from :func:`action_to_payload` output."""
    interner = interner or _DEFAULT_INTERNER
    kind, selector, text, path = payload
    return Action(
        kind,
        None
        if selector is None
        else ConcreteSelector(_steps_from_payload(selector, interner)),
        text,
        None if path is None else ValuePath(None, tuple(path)),
    )


def env_to_payload(
    env: Optional[Env], interner: Optional[StepInterner] = None
) -> Optional[list]:
    """An environment's bindings as a codec-ready value."""
    if env is None:
        return None
    interner = interner or _DEFAULT_INTERNER
    bindings = []
    for var, binding in env.fingerprint():
        if isinstance(binding, ConcreteSelector):
            bindings.append(
                [var.kind, var.uid, _steps_to_payload(binding.steps, interner)]
            )
        else:  # a concrete ValuePath
            bindings.append([var.kind, var.uid, list(binding.accessors)])
    return bindings


def env_from_payload(
    payload: Optional[list], interner: Optional[StepInterner] = None
) -> Optional[Env]:
    """Rebuild an environment from :func:`env_to_payload` output."""
    if payload is None:
        return None
    interner = interner or _DEFAULT_INTERNER
    bindings = {}
    for kind, uid, value in payload:
        var = Var(kind, uid)
        if kind == SEL_VAR:
            bindings[var] = ConcreteSelector(_steps_from_payload(value, interner))
        else:
            bindings[var] = ValuePath(None, tuple(value))
    return Env(bindings)


def entry_to_payload(
    actions: tuple,
    env: Env,
    examined: Optional[tuple[int, ...]],
    exact_budget_ok: bool,
    interner: Optional[StepInterner] = None,
) -> dict:
    """An execution-cache entry as a codec-ready dict."""
    interner = interner or _DEFAULT_INTERNER
    payload: dict = {
        "a": [action_to_payload(action, interner) for action in actions],
        "e": env_to_payload(env, interner),
    }
    if examined is not None:
        payload["x"] = list(examined)
    if exact_budget_ok:
        payload["ok"] = True
    return payload


def entry_from_payload(
    payload: dict, interner: Optional[StepInterner] = None
) -> tuple:
    """``(actions, env, examined, exact_budget_ok)`` back from a payload."""
    interner = interner or _DEFAULT_INTERNER
    actions = tuple(action_from_payload(item, interner) for item in payload["a"])
    env = env_from_payload(payload["e"], interner)
    examined = tuple(payload["x"]) if "x" in payload else None
    return actions, env, examined, bool(payload.get("ok", False))


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
class CacheBackend:
    """The persistence seam behind the in-memory execution cache.

    The cache addresses the store by the stable digest of a full value
    key and speaks *decoded* entries — the codec is the backend's
    business, so the engine layer never depends on a wire format.
    ``persistent`` tells the cache whether computing those digests is
    worth anything at all.
    """

    #: Short name surfaced in telemetry (``repro synthesize --stats``).
    name: str = "backend"
    #: Whether the backend can answer across processes/restarts.  False
    #: lets the cache skip digest computation entirely.
    persistent: bool = False

    def load_entry(self, kind: int, key: bytes) -> Optional[tuple]:
        """``(actions, env, examined, exact_budget_ok)`` or ``None``."""
        raise NotImplementedError

    def fetch_entry(self, kind: int, key: bytes) -> tuple[Optional[tuple], int]:
        """``(entry, cached_bytes)``: :meth:`load_entry` plus telemetry.

        ``cached_bytes`` is the encoded payload size when the entry was
        served from a decoded-entry cache (the read *and* the decode
        were skipped), 0 on a store read or a miss.  The base
        implementation has no such cache, so it always reports 0.
        """
        return self.load_entry(kind, key), 0

    def should_persist(self, kind: int, cost: Optional[int]) -> bool:
        """Whether an entry of this kind and bounded cost is worth storing.

        ``cost`` is an upper bound on the simulated actions needed to
        recompute the entry, or ``None`` when unbounded/unknown.  The
        base policy persists everything; tiered backends override.
        """
        return True

    def store_entry(
        self,
        kind: int,
        key: bytes,
        actions: tuple,
        env: Optional[Env],
        examined: Optional[tuple[int, ...]],
        exact_budget_ok: bool,
    ) -> None:
        """Write one execution entry through to the store (may buffer)."""
        raise NotImplementedError

    def load_consistency(self, key: bytes) -> Optional[int]:
        """A stored consistency-memo value, or ``None``."""
        raise NotImplementedError

    def store_consistency(self, key: bytes, value: int) -> None:
        """Write one consistency-memo value through to the store."""
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


class InProcessBackend(CacheBackend):
    """Today's behavior: no second level, no digests, no I/O."""

    name = "memory"
    persistent = False

    def load_entry(self, kind: int, key: bytes) -> Optional[tuple]:
        return None

    def store_entry(self, kind, key, actions, env, examined, exact_budget_ok) -> None:
        pass

    def load_consistency(self, key: bytes) -> Optional[int]:
        return None

    def store_consistency(self, key: bytes, value: int) -> None:
        pass


def _tier_cost_from_env() -> Optional[int]:
    """The tier threshold the environment selects.

    -1 disables tiering (``REPRO_STORE_TIERING=0``); an integer pins an
    explicit threshold (``REPRO_STORE_TIER_COST``); ``None`` means
    neither was set — the store derives the threshold adaptively.
    """
    toggle = os.environ.get("REPRO_STORE_TIERING", "1").strip().lower()
    if toggle in ("0", "off", "false", "no"):
        return -1
    override = os.environ.get("REPRO_STORE_TIER_COST", "").strip()
    if not override:
        return None
    try:
        return int(override)
    except ValueError:
        return None


class FileBackend(CacheBackend):
    """A byte-accounted persistent store over one SQLite file.

    One connection per process (see :func:`resolve_backend`), guarded by
    a lock so concurrent sessions share it safely; WAL mode plus a busy timeout make one *file* safe to share
    between worker processes.  Writes are buffered (deduplicated by key)
    and flushed every ``flush_every`` distinct keys (and at interpreter
    exit), so other processes see entries with bounded staleness at a
    fraction of the commit cost.

    Reads go through a decoded-entry LRU (digest → decoded tuple,
    byte-accounted against ``decode_cache_bytes``) before touching
    SQLite; hits count into ``decode_hits`` / ``decode_bytes``.  Writes
    go through the payload codec (binary unless ``REPRO_CODEC``/the
    ``codec`` argument says otherwise); reads sniff the codec per row,
    so a store written by either codec — or a mix — always decodes.

    The store is size-tiered: :data:`TERMINAL` outcomes and
    :data:`CONSISTENCY` memos always persist, while :data:`EXACT`
    interior entries whose recompute cost is bounded at or below
    ``tier_cost`` are skipped (the in-memory tables still hold them).
    Unless pinned (constructor argument or ``REPRO_STORE_TIER_COST``),
    ``tier_cost`` is *derived*: the store tracks the distribution of
    bounded recompute costs it is asked about and re-sets the threshold
    to its :data:`TIER_PERCENTILE` every :data:`TIER_RECALC_EVERY`
    observations, clamped to [:data:`TIER_COST_FLOOR`,
    :data:`TIER_COST_CEIL`].
    Eviction is byte-based and incremental — running totals maintained
    at flush time, no full-table ``SUM`` scans — and tier-aware: once
    the total exceeds ``max_bytes``, rows are dropped down to 90% of
    the threshold cheapest-tier-first (EXACT, then CONSISTENCY, then
    TERMINAL), oldest-written first within a tier.  Every SQLite error
    degrades to a miss or a dropped write — the store is a cache, not a
    ledger.
    """

    name = "file"
    persistent = True

    def __init__(
        self,
        path: str | Path,
        max_bytes: Optional[int] = None,
        flush_every: int = 64,
        codec: Optional[Codec] = None,
        decode_cache_bytes: Optional[int] = None,
        tier_cost: Optional[int] = None,
    ) -> None:
        self.path = str(path)
        if max_bytes is None:
            max_bytes = int(os.environ.get("REPRO_CACHE_MAX_BYTES", DEFAULT_MAX_BYTES))
        self.max_bytes = max_bytes
        self.flush_every = max(1, flush_every)
        self.codec = codec if codec is not None else resolve_codec(default="binary")
        if decode_cache_bytes is None:
            decode_cache_bytes = int(
                os.environ.get("REPRO_DECODE_CACHE_BYTES", DEFAULT_DECODE_CACHE_BYTES)
            )
        self.decode_cache_bytes = decode_cache_bytes
        #: Tier threshold for :meth:`should_persist`; -1 disables tiering.
        #: An explicit constructor argument or ``REPRO_STORE_TIER_COST``
        #: pins the value; otherwise it seeds at :data:`DEFAULT_TIER_COST`
        #: and tracks the :data:`TIER_PERCENTILE` of the bounded
        #: recompute costs this store actually observes.
        if tier_cost is None:
            tier_cost = _tier_cost_from_env()
        self.tier_adaptive = tier_cost is None
        self.tier_cost = DEFAULT_TIER_COST if tier_cost is None else tier_cost
        #: Observed bounded-EXACT recompute costs: cost -> count (costs
        #: past _TIER_COST_CAP pool in one overflow bucket).
        self._cost_counts: dict[int, int] = {}
        self._cost_samples = 0
        self.interner = StepInterner()
        self._lock = threading.Lock()
        #: Write buffer, deduplicated by key: a re-store of a pending
        #: key replaces the buffered row instead of appending a
        #: double-counted duplicate.
        self._pending: dict[bytes, tuple[int, bytes, int]] = {}
        self._pending_bytes = 0
        #: Decoded-entry LRU: digest → (value, encoded bytes).  The value
        #: is the decoded entry tuple on the read path; the write path
        #: parks the *encoded* ``bytes`` row instead (encoding already
        #: happened for the store), and the first probe decodes it once
        #: and swaps the slot — so a just-written entry never pays the
        #: SQLite read, and the pure-Python decode is paid at most once
        #: per process either way.
        self._decoded: dict[bytes, tuple[object, int]] = {}
        self._decoded_bytes = 0
        #: Telemetry: loads answered / attempted, writes, evicted rows,
        #: entries dropped because their values were not codec-encodable,
        #: I/O errors degraded to misses, decoded-cache hits and the
        #: encoded bytes those hits never re-read, and writes the tier
        #: policy skipped.
        self.load_hits = 0
        self.loads = 0
        self.stores = 0
        self.evictions = 0
        self.encode_errors = 0
        self.io_errors = 0
        self.decode_hits = 0
        self.decode_bytes = 0
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
    def load_entry(self, kind: int, key: bytes) -> Optional[tuple]:
        return self.fetch_entry(kind, key)[0]

    def fetch_entry(self, kind: int, key: bytes) -> tuple[Optional[tuple], int]:
        blob: Optional[bytes] = None
        with self._lock:
            cached = self._decoded.get(key)
            if cached is not None:
                self._decoded[key] = self._decoded.pop(key)
                value, nbytes = cached
                if isinstance(value, bytes):
                    blob = value  # write-path slot: still encoded
                else:
                    self.loads += 1
                    self.load_hits += 1
                    self.decode_hits += 1
                    self.decode_bytes += nbytes
                    _StoreMetrics.get().probes.labels(outcome="decoded").inc()
                    return value, nbytes
        if blob is not None:
            # an encoded row remembered at write time: the SQLite read is
            # skipped, the decode is paid here — once per process — and
            # the slot swaps to the decoded entry for every later probe
            entry = self._decode_blob(key, blob)
            if entry is None:
                return None, 0
            nbytes = len(blob) + len(key)
            with self._lock:
                self.loads += 1
                self.load_hits += 1
                self.decode_hits += 1
                self.decode_bytes += nbytes
                self._remember_decoded_locked(key, entry, nbytes)
            _StoreMetrics.get().probes.labels(outcome="encoded").inc()
            return entry, nbytes
        payload, nbytes = self._load(key)
        if payload is None:
            return None, 0
        try:
            entry = entry_from_payload(payload, self.interner)
        except (KeyError, TypeError, ValueError, IndexError):
            return None, 0  # corrupt or foreign payload: a miss
        with self._lock:
            self._remember_decoded_locked(key, entry, nbytes)
        return entry, 0

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

    def store_entry(
        self, kind, key, actions, env, examined, exact_budget_ok
    ) -> None:
        try:
            payload = entry_to_payload(
                actions, env, examined, exact_budget_ok, self.interner
            )
        except (TypeError, AttributeError, ValueError):
            # values outside the codec vocabulary (unit-test stubs,
            # future extensions): the in-memory tables still hold them
            self.encode_errors += 1
            return
        self._store(kind, key, payload)

    def load_consistency(self, key: bytes) -> Optional[int]:
        payload, _ = self._load(key)
        if payload is None or not isinstance(payload.get("v"), int):
            return None
        return payload["v"]

    def store_consistency(self, key: bytes, value: int) -> None:
        self._store(CONSISTENCY, key, {"v": value})

    # ------------------------------------------------------------------
    # Raw payload access: the cache server's seam.  The fleet cache tier
    # relays codec payload dicts verbatim — it never decodes entries into
    # actions/envs, so a cache server can serve stores written by any
    # protocol-compatible worker.
    # ------------------------------------------------------------------
    def load_payload(self, key: bytes) -> Optional[dict]:
        """The codec payload stored under ``key`` (reads the write buffer
        first, so a just-put entry is visible before the next flush)."""
        with self._lock:
            pending = self._pending.get(key)
        if pending is not None:
            blob = pending[1]
            try:
                payload = sniff_codec(blob).decode_payload(blob)
            except ProtocolError:  # pragma: no cover - we encoded it
                return None
            self.loads += 1
            self.load_hits += 1
            return payload if isinstance(payload, dict) else None
        return self._load(key)[0]

    def store_payload(self, kind: int, key: bytes, payload: dict) -> None:
        """Write one codec payload through the buffered store path."""
        self._store(kind, key, payload)

    def _decode_blob(self, key: bytes, blob: bytes) -> Optional[tuple]:
        """Decode an LRU-held encoded row; corrupt rows drop and miss."""
        try:
            payload = sniff_codec(blob).decode_payload(blob)
            if not isinstance(payload, dict) or "a" not in payload:
                raise ProtocolError("not an entry payload")
            return entry_from_payload(payload, self.interner)
        except (ProtocolError, KeyError, TypeError, ValueError, IndexError):
            with self._lock:
                cached = self._decoded.pop(key, None)
                if cached is not None:
                    self._decoded_bytes -= cached[1]
            return None

    # ------------------------------------------------------------------
    def _remember_decoded_locked(self, key: bytes, entry, nbytes: int) -> None:
        decoded = self._decoded
        previous = decoded.pop(key, None)
        if previous is not None:
            self._decoded_bytes -= previous[1]
        decoded[key] = (entry, nbytes)
        self._decoded_bytes += nbytes
        while self._decoded_bytes > self.decode_cache_bytes and decoded:
            oldest = next(iter(decoded))
            self._decoded_bytes -= decoded.pop(oldest)[1]

    def _load(self, key: bytes) -> tuple[Optional[dict], int]:
        self.loads += 1
        metrics = _StoreMetrics.get()
        try:
            with self._lock:
                row = self._conn.execute(
                    "SELECT payload FROM entries WHERE key = ?", (key,)
                ).fetchone()
        except sqlite3.Error:
            self.io_errors += 1
            metrics.io_errors.inc()
            metrics.probes.labels(outcome="miss").inc()
            return None, 0
        if row is None:
            metrics.probes.labels(outcome="miss").inc()
            return None, 0
        blob = bytes(row[0])
        try:
            payload = sniff_codec(blob).decode_payload(blob)
        except ProtocolError:
            metrics.probes.labels(outcome="miss").inc()
            return None, 0  # corrupt row: a miss, never an error
        if not isinstance(payload, dict):
            metrics.probes.labels(outcome="miss").inc()
            return None, 0
        self.load_hits += 1
        metrics.probes.labels(outcome="hit").inc()
        return payload, len(blob) + len(key)

    def _store(self, kind: int, key: bytes, payload: dict) -> None:
        try:
            blob = self.codec.encode_payload(payload)
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
            if kind != CONSISTENCY:
                # park the encoded row in the decode LRU: a later probe
                # of this key (another session, a post-eviction re-probe)
                # skips the read and decodes lazily, exactly once — but
                # never downgrade a slot that already holds the decoded
                # entry (same digest, same value: it stays valid)
                cached = self._decoded.get(key)
                if cached is None or isinstance(cached[0], bytes):
                    self._remember_decoded_locked(key, blob, nbytes)
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
                for start in range(0, len(keys), 500):
                    chunk = keys[start : start + 500]
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

        EXACT interior entries (recomputable) go before CONSISTENCY
        memos, which go before TERMINAL whole-program outcomes;
        oldest-written first within each tier, in bounded batches.  The
        running byte total replaces the old full-table ``SUM`` +
        ``ORDER BY rowid`` scan per flush.
        """
        if self._db_bytes <= self.max_bytes:
            return
        target = int(self.max_bytes * 0.9)
        for tier in (EXACT, CONSISTENCY, TERMINAL):
            while self._db_bytes > target:
                rows = self._conn.execute(
                    "SELECT rowid, nbytes, key FROM entries WHERE kind = ?"
                    " ORDER BY rowid LIMIT ?",
                    (tier, self._EVICT_BATCH),
                ).fetchall()
                if not rows:
                    break  # tier empty: move on to the next
                cutoff = rows[-1][0]
                freed = 0
                dropped = 0
                for rowid, nbytes, key in rows:
                    cutoff = rowid
                    freed += nbytes
                    dropped += 1
                    # the decode LRU must not outlive the row: a load
                    # after eviction is a miss, not a phantom hit
                    cached = self._decoded.pop(key, None)
                    if cached is not None:
                        self._decoded_bytes -= cached[1]
                    if self._db_bytes - freed <= target:
                        break
                self._conn.execute(
                    "DELETE FROM entries WHERE kind = ? AND rowid <= ?",
                    (tier, cutoff),
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
_MEMORY_BACKEND = InProcessBackend()
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
) -> CacheBackend:
    """The backend a name (default: ``REPRO_CACHE_BACKEND``) selects.

    ``file`` backends are cached per resolved path, so every session in
    one process shares a single connection — and worker processes
    resolving the same path share one store.
    """
    if name is None:
        name = os.environ.get("REPRO_CACHE_BACKEND", "").strip()
    if name in ("", "memory"):
        return _MEMORY_BACKEND
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
