"""Memoization of simulated execution results.

The speculate-and-validate loop executes the *same* statements over the
*same* DOM windows many times: every popped worklist tuple re-validates
candidates its siblings already produced, every pushed tuple re-runs its
trailing loop for the generalization check, and each incremental
``synthesize`` call re-executes stored tuples over windows that extend
the previous call's.  :class:`ExecutionCache` makes each distinct
execution happen once, through two tables:

Exact table
    Keyed on ``(statements, env, data, window snapshots, action
    budget)``.  Hits replay the recorded outcome verbatim.

Terminal table
    An execution that ends with snapshots *and* budget to spare
    terminated on its own terms — every loop-continuation and validity
    decision was made on a snapshot it actually examined, namely the
    first ``len(actions) + 1`` of its window.  Its outcome is therefore
    identical on **any** window extending that examined prefix, which is
    exactly what the next incremental call presents.  The terminal table
    keys such results by ``(statements, env, data, first snapshot)`` and
    matches by examined-prefix comparison.  A run that instead absorbed
    its window mid-loop records its resume point in the same slot (see
    :meth:`ExecutionCache.get_continuation`).

Every key component is a **value** (see :mod:`repro.engine.keys`):
statements by alpha-canonical form, environments by fingerprint, data
sources and snapshots by structural content digest.  Entries therefore
need no pinning — a key can never alias recycled object ids — and a key
computed in one process addresses the same outcome in any other, which
is what the backends below and the multi-process service
(:mod:`repro.service`) are built on.  Because statement keys are
alpha-canonical, one entry serves every statement that differs only in
its loop variables; the engine stores each env with the statement's
binders renamed to slot variables and renames them back to the
caller's on every hit (:mod:`repro.engine.engine`).  A third table
memoizes consistency checks (:meth:`ExecutionCache.get_consistency`)
for this process alone.  The tables are
count-bounded LRUs with byte-accounted footprints; hit/miss/eviction
counters feed :class:`repro.synth.synthesizer.SynthesisStats`.

Sharing
-------
One cache serves every memoizing engine in a process, behind one lock:
its tables are keyed by values, so every session's lookups meet the
same entries, and a *snapshot-interning* table maps structurally equal
snapshots from different sessions onto one canonical root — sessions
over the same site then share the per-snapshot
:class:`~repro.engine.index.SnapshotIndex` (with its ``enum_memo``) as
well as every memoized execution.  Each engine passes its own counters
and session token, so interleaved sessions never steal each other's
telemetry.  :func:`process_cache` holds one instance per backend.

Backends
--------
An optional :class:`~repro.service.backends.CacheBackend` adds a second
level behind the in-memory tables: lookups that miss in memory consult
the backend (a hit *warm-starts* the entry back into memory and counts
as ``warm_hits``), and every recorded outcome is written through,
addressed by the :func:`~repro.engine.keys.stable_digest` of its full
value key.  Without one (``memory``, the default) the cache computes no
digests at all; the ``remote://`` backend keeps executions in a
``repro cache-serve`` tier, so worker processes pointing at one cache
server share each other's work, and the server's store outlives worker
and server restarts.

Backends keep payload rows (:mod:`repro.engine.rows`), and this cache
is the one place where entries become rows and rows become entries,
always with no lock held.  A row that does not decode is a miss; an
entry that cannot become a row stays in memory only.  Only executions
reach a backend: an execution miss makes at most one backend read, its
exact and terminal rows in one batch
(:meth:`~repro.service.backends.CacheBackend.load_payloads`, one round
trip on a networked tier), and nothing outside this cache decides when
a backend is read.  Consistency memos are never read
from or written to a backend — recomputing a check costs microseconds,
far less than one row read.

The tier policy
---------------
This cache alone decides which rows a backend holds.  Every lookup and
insert may carry ``cost``, an upper bound on the simulated actions
needed to recompute the outcome (``None`` = unknown).  An exact row
whose bound is at most :data:`TIER_COST` is recomputed rather than
persisted, and for the same reason never read: a lookup with such a
bound probes only its terminal row, and a probe left with no row makes
no backend call.  Terminal rows are always written.  The engine bounds
a write by the recorded action count and a read by the action budget,
which caps that count, so no row this policy writes is ever skipped.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.dom.node import DOMNode
from repro.engine.keys import stable_digest
from repro.engine.rows import (
    EXACT,
    TERMINAL,
    StepInterner,
    decode_entry,
    entry_to_payload,
)
from repro.obs import metrics as obs_metrics
from repro.semantics.env import Env

#: The tier threshold (module docstring): just above the short interior
#: prefixes the synthesis worklist re-probes constantly, below the long
#: whole-trace executions that dominate wall-clock.
TIER_COST = 12

_promotions = None


def _promotion_counter():
    """Lazy family handle: entries promoted from the persistent backend
    into the in-memory tables (the store's half of a warm hit)."""
    global _promotions
    if _promotions is None:
        _promotions = obs_metrics.registry().counter(
            "repro_store_promotions_total",
            "Backend payloads promoted into the in-memory cache tables.",
            ("kind",),
        )
    return _promotions


@dataclass
class CacheCounters:
    """Hit/miss/eviction telemetry.

    ``hits = exact_hits + prefix_hits + consistency_hits`` — the first
    two are execution lookups, the third is the consistency-check memo
    that rides the same cache.  ``cross_session_hits`` counts hits whose
    entry was recorded by a *different* session (caller token);
    ``warm_hits`` counts execution hits served from a persistent
    backend — entries recorded by a prior process (they are included in
    the exact/prefix breakdown, never in ``cross_session_hits``);
    consistency memos never leave the process, so they are never warm.
    Each caller (engine) records into its own instance; the cache keeps
    no aggregate.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    exact_hits: int = 0
    prefix_hits: int = 0
    consistency_hits: int = 0
    cross_session_hits: int = 0
    warm_hits: int = 0
    #: Lookups answered by *resuming* a stored loop continuation instead
    #: of re-executing from the window start.  Not part of ``hits`` (the
    #: evaluator still runs, over the suffix) and not part of the
    #: hit/miss reconciliation — a resumed lookup was already counted as
    #: a miss by the preceding full-result probe.
    resume_hits: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over all lookups (0.0 when the cache was never consulted)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _Entry:
    """One memoized outcome.

    ``exact_budget_ok`` marks terminal entries whose recorded run made
    no environment binding after its last emitted action, so the
    outcome also stands in for a run whose budget *equals* the action
    count (such a run halts right after that action and can never bind
    again).  ``owner`` is the session token that recorded the entry
    (0 for callers without a token and for entries restored from a
    persistent backend) — hits from other sessions count as
    cross-session reuse.

    ``continuation`` distinguishes the terminal table's second entry
    kind: a run that *absorbed* its window mid-loop (nothing to spare,
    so no terminated-prefix reuse is possible) instead records the
    evaluator's resume state (:attr:`repro.semantics.evaluator.
    EvalResult.continuation`).  For such entries ``actions`` is the
    prefix emitted before the last started iteration, ``examined`` its
    consumed window keys, and ``env`` the iteration-top environment.
    Continuation entries are in-memory only — their env/state hold live
    objects, so they are never written through to a backend.
    """

    __slots__ = ("actions", "env", "examined", "exact_budget_ok", "owner", "continuation")

    def __init__(
        self,
        actions: tuple,
        env: Env,
        examined: Optional[tuple[int, ...]],
        exact_budget_ok: bool = False,
        owner: int = 0,
        continuation: Optional[tuple] = None,
    ) -> None:
        self.actions = actions
        self.env = env
        self.examined = examined
        self.exact_budget_ok = exact_budget_ok
        self.owner = owner
        self.continuation = continuation


class _BackendProbe:
    """A phase-1 miss's pending backend follow-up.

    Carries everything phase 2 needs so the backend read can run with
    no lock held: the lookup coordinates for the in-memory re-check and
    the store digests (computed under the lock — the base-digest memo
    is cache state).  ``exact_digest`` is ``None`` when the tier policy
    never writes the exact row; ``terminal_digest`` is ``None`` when an
    inapplicable in-memory terminal entry already rules the store's
    terminal copy out.
    """

    __slots__ = (
        "window_keys",
        "budget",
        "exact_key",
        "terminal_key",
        "exact_digest",
        "terminal_digest",
    )

    def __init__(
        self,
        window_keys: tuple[int, ...],
        budget: int,
        exact_key: tuple,
        terminal_key: tuple,
        exact_digest: Optional[bytes],
        terminal_digest: Optional[bytes],
    ) -> None:
        self.window_keys = window_keys
        self.budget = budget
        self.exact_key = exact_key
        self.terminal_key = terminal_key
        self.exact_digest = exact_digest
        self.terminal_digest = terminal_digest

    def rows(self) -> list:
        """The ``(kind, digest)`` backend rows this probe reads."""
        return [
            (kind, digest)
            for kind, digest in ((EXACT, self.exact_digest), (TERMINAL, self.terminal_digest))
            if digest is not None
        ]


#: Fixed per-entry overhead estimate: the ``_Entry`` object, its dict
#: slot, and the key tuple's skeleton.
_ENTRY_OVERHEAD = 200
#: Approximate bytes per element of the variable-length parts (an action
#: object share, a statement-key share).
_PER_ITEM = 56
#: Approximate bytes per content-digest int (the 128-bit snapshot keys
#: making up window tuples and examined prefixes).
_KEY_INT = 44


def _entry_bytes(key: tuple, entry: _Entry) -> int:
    """Deterministic size estimate of one execution entry (bytes).

    Window and examined components scale with the *window length*, so
    long-window terminal entries weigh proportionally more in the
    reported footprint than an entry count would suggest.
    """
    size = _ENTRY_OVERHEAD + _PER_ITEM * len(entry.actions)
    if entry.examined is not None:
        size += _KEY_INT * len(entry.examined)
    for part in key:
        if type(part) is tuple:
            size += _KEY_INT * len(part)
    return size


def _consistency_bytes(key: tuple, value: tuple) -> int:
    """Deterministic size estimate of one consistency-memo entry."""
    size = _ENTRY_OVERHEAD
    for part in key:
        if type(part) is tuple:
            size += _KEY_INT * len(part)
    return size


def _terminal_applies(
    entry: _Entry, window_keys: tuple[int, ...], budget: int
) -> bool:
    """Whether a terminal-table entry answers this window and budget.

    A budget exactly equal to the action count also replays identically
    — but only when the recorded run bound nothing after its last action
    (``exact_budget_ok``), since a capped run halts there and its final
    env is the last-action env.  Continuation entries are not terminated
    runs — their recorded prefix is mid-loop, so they never answer a
    full-result lookup.
    """
    return (
        entry.continuation is None
        and len(entry.examined) <= len(window_keys)
        and (
            budget > len(entry.actions)
            or (budget == len(entry.actions) and entry.exact_budget_ok)
        )
        and window_keys[: len(entry.examined)] == entry.examined
    )


def _tiered_out(cost: Optional[int]) -> bool:
    """Whether the tier policy keeps an exact row of this cost bound
    out of the backend (cheaper to recompute than to read back)."""
    return cost is not None and cost <= TIER_COST


def _record_hit(
    counters: CacheCounters, kind: str, owner: int, session: int, warm: bool = False
) -> None:
    counters.hits += 1
    setattr(counters, kind, getattr(counters, kind) + 1)
    if owner and owner != session:
        counters.cross_session_hits += 1
    if warm:
        counters.warm_hits += 1


def _value_bytes(key: tuple, value) -> int:
    if isinstance(value, _Entry):
        return _entry_bytes(key, value)
    return _consistency_bytes(key, value)


#: Approximate bytes per interned DOM node: the node object, its attrs
#: dict, text, child list slot, and its share of the snapshot's index
#: buckets (interned snapshots and their indexes dominate the shared
#: cache's resident footprint, so this coarse figure is what the
#: eviction telemetry reports on).
_NODE_BYTES = 320


def _freeze_json(value) -> tuple:
    """A hashable, exact canonical form of a JSON-like value."""
    if isinstance(value, dict):
        return ("d", tuple((key, _freeze_json(item)) for key, item in sorted(value.items())))
    if isinstance(value, list):
        return ("l", tuple(_freeze_json(item) for item in value))
    return ("v", value)

_session_tokens = itertools.count(1)


class ExecutionCache:
    """The execution cache every memoizing engine in a process joins.

    Three memo tables (exact, terminal, consistency) behind one lock.
    ``base`` below is the window-independent part of an execution key:
    ``(statements key, env key, data key)``.  ``window_keys`` is the
    window's snapshots by content digest; ``budget`` the effective
    action budget (already clamped to the window length by the engine).

    ``max_entries`` bounds each table by count; the tables' summed
    approximate footprint is reported (:attr:`approx_bytes`), not bounded.

    Value-addressed keys (alpha-canonical statements, env fingerprints,
    snapshot content digests) make entries session-agnostic — the only
    per-session piece is telemetry: every lookup and insert records into
    the caller's ``counters`` and takes its ``session`` token
    (:func:`session_token`), and a hit on an entry another session
    recorded counts as ``cross_session_hits``.  An optional persistent
    ``backend`` extends the same sharing across worker processes: it is
    consulted on in-memory misses and written through on every insert;
    ``None`` means no backend, and the hot path then computes no store
    digests.  The consistency table never touches the backend, and the
    tier policy (module docstring) decides which execution rows do;
    ``tier_skips`` counts the exact-row writes it skipped.

    Backend reads are two-phase: the in-memory probe runs under the
    lock, the row read and decode run with *no* lock held (so cold
    lookups overlap their I/O instead of serializing behind it), and
    the promote step re-takes the lock, re-checks memory (a racing
    thread may have promoted first) and settles hit/miss counting
    exactly once per lookup.

    Snapshot interning
        :meth:`intern_snapshots` maps structurally equal snapshot roots
        onto one canonical root per structure, so sessions recording the
        same site share ``SnapshotIndex`` instances (with their
        ``enum_memo``).  The interning table is keyed by
        :meth:`repro.dom.node.DOMNode.content_key` — the same
        value-addressed digest the execution keys use (collisions are
        cryptographically negligible), memoized on each frozen root —
        and a bounded LRU: evicting a canonical root only forfeits
        future index sharing, since execution entries reference
        snapshots by digest, never by object.  Only canonical roots are
        held; an interned non-canonical root stays collectable.
    """

    def __init__(
        self,
        max_entries: int = 65536,
        max_snapshots: int = 512,
        backend=None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("cache size must be positive")
        self.max_entries = max_entries
        self._backend = backend
        self.backend_name = backend.name if backend is not None else "memory"
        # decodes the step rows of every payload this cache reads
        self._interner = StepInterner()
        self._lock = threading.Lock()
        # recency reordering only pays off once a table could actually
        # evict something hot; below half capacity a hit is left in place
        self._touch_floor = max(1, max_entries // 2)
        # approximate bytes held by the three tables
        self._table_bytes = 0
        # memo of stable_digest(base): the same base (statements, env,
        # data) is probed against hundreds of windows, and re-hashing
        # canonical statement forms per probe would dominate backend
        # lookups.  Value-keyed, so it is correct by construction.
        self._base_digests: dict[tuple, bytes] = {}
        # dicts preserve insertion order: pop + reinsert makes them LRUs
        self._exact: dict[tuple, _Entry] = {}
        self._terminal: dict[tuple, _Entry] = {}
        self._consistency: dict[tuple, tuple[int, int]] = {}
        self._tables = {
            "exact": self._exact,
            "terminal": self._terminal,
            "consistency": self._consistency,
        }
        self.max_snapshots = max_snapshots
        self._intern_lock = threading.Lock()
        # content key -> canonical root (insertion-ordered: an LRU)
        self._canonical: dict[int, DOMNode] = {}
        self._node_counts: dict[int, int] = {}
        # data-source interning (same discipline as snapshots): frozen
        # JSON value -> canonical DataSource
        self._data_canonical: dict[tuple, object] = {}
        #: Approximate bytes held by the interned (canonical) snapshots.
        self.interned_bytes = 0
        #: Interning calls answered with an *already canonical* root
        #: recorded by some other snapshot object — cross-session reuse.
        self.intern_hits = 0
        #: Canonical snapshots dropped by the interning LRU.
        self.snapshot_evictions = 0
        #: Exact-row writes the tier policy skipped.
        self.tier_skips = 0

    # ------------------------------------------------------------------
    # Execution lookups and inserts
    # ------------------------------------------------------------------
    def get(
        self,
        base: tuple,
        window_keys: tuple[int, ...],
        budget: int,
        counters: CacheCounters,
        session: int = 0,
        cost: Optional[int] = None,
    ) -> Optional[tuple[tuple, Env]]:
        """The memoized ``(actions, final env)``, or ``None`` on a miss.

        ``cost`` bounds the lookup's recompute cost for the tier policy
        (the module docstring).
        """
        with self._lock:
            result, probe = self._lookup_memory(
                base, window_keys, budget, cost, counters, session
            )
        if result is not None or probe is None:
            return result
        exact_payload, terminal_payload = self._probe_backend(probe)
        with self._lock:
            return self._promote_backend(
                probe, exact_payload, terminal_payload, counters, session
            )

    def _lookup_memory(
        self,
        base: tuple,
        window_keys: tuple[int, ...],
        budget: int,
        cost: Optional[int],
        counters: CacheCounters,
        session: int,
    ) -> tuple[Optional[tuple[tuple, Env]], Optional[_BackendProbe]]:
        """Phase 1 (under the lock): the in-memory probe.

        Returns ``(result, probe)``: a non-``None`` result is a counted
        hit; a non-``None`` probe means the persistent backend must
        still be consulted — the miss is *not* counted yet, that is
        :meth:`_promote_backend`'s job, so each lookup counts exactly
        one hit or one miss whichever phase settles it.  Both ``None``
        is a counted miss (no backend, or no row it could hold).
        """
        result, terminal = self._memory_hit(
            (base, window_keys, budget),
            (base, window_keys[0]),
            window_keys,
            budget,
            counters,
            session,
        )
        if result is not None:
            return result, None
        probe = None
        if self._backend is not None:
            probe = self._probe(base, window_keys, budget, cost, terminal)
        if probe is None:
            counters.misses += 1
        return None, probe

    def _memory_hit(
        self,
        exact_key: tuple,
        terminal_key: tuple,
        window_keys: tuple[int, ...],
        budget: int,
        counters: CacheCounters,
        session: int,
    ) -> tuple[Optional[tuple[tuple, Env]], Optional[_Entry]]:
        """Serve a lookup from the in-memory tables (under the lock).

        Returns ``(result, terminal entry)``: a non-``None`` result is a
        counted hit; otherwise nothing is counted and the terminal slot's
        entry, usable or not, comes back for :meth:`_probe`.
        """
        entry = self._exact.get(exact_key)
        if entry is not None:
            if len(self._exact) >= self._touch_floor:
                self._touch(self._exact, exact_key)
            _record_hit(counters, "exact_hits", entry.owner, session)
            return (entry.actions, entry.env), None
        entry = self._terminal.get(terminal_key)
        if entry is not None and _terminal_applies(entry, window_keys, budget):
            if len(self._terminal) >= self._touch_floor:
                self._touch(self._terminal, terminal_key)
            _record_hit(counters, "prefix_hits", entry.owner, session)
            return (entry.actions, entry.env), entry
        return None, entry

    def _probe(
        self,
        base: tuple,
        window_keys: tuple[int, ...],
        budget: int,
        cost: Optional[int],
        terminal: Optional[_Entry],
    ) -> Optional[_BackendProbe]:
        """The backend follow-up of a full in-memory miss, or ``None``
        when the backend can hold no row for it.

        The backend may hold either kind from a prior process.  An
        *inapplicable* in-memory ``terminal`` entry only rules out the
        store's terminal copy (write-through keeps them equal) — a
        persisted exact entry for this very window may still exist, so
        only the terminal probe is skipped in that case.  The exact
        probe is skipped when the tier policy never writes that row.
        Digests are computed here, under the lock, because the
        base-digest memo is cache state.
        """
        exact_digest = terminal_digest = None
        if not _tiered_out(cost):
            exact_digest = self._store_digest("exact", base, window_keys, budget)
        if terminal is None:
            terminal_digest = self._store_digest("terminal", base, window_keys[0])
        if exact_digest is None and terminal_digest is None:
            return None
        return _BackendProbe(
            window_keys,
            budget,
            (base, window_keys, budget),
            (base, window_keys[0]),
            exact_digest,
            terminal_digest,
        )

    def _probe_backend(self, probe: _BackendProbe) -> tuple:
        """Phase 2a (no lock): read the store for a phase-1 miss.

        Touches only the backend (which synchronizes itself), never the
        tables — safe to run while other threads hold the lock.  The
        exact and terminal rows go out in one backend batch (one round
        trip on a networked tier) and are decoded here; an exact hit
        wins, exactly as if the terminal row had never been read.
        Returns ``(exact_payload, terminal_payload)``.
        """
        rows = probe.rows()
        loaded = [
            decode_entry(payload, self._interner)
            for payload in self._backend.load_payloads(rows)
        ]
        payloads = dict(zip((kind for kind, _ in rows), loaded))
        if payloads.get(EXACT) is not None:
            return payloads[EXACT], None
        return None, payloads.get(TERMINAL)

    def _promote_backend(
        self,
        probe: _BackendProbe,
        exact_payload: Optional[tuple],
        terminal_payload: Optional[tuple],
        counters: CacheCounters,
        session: int,
    ) -> Optional[tuple[tuple, Env]]:
        """Phase 2b (under the lock): promote and settle counting.

        Re-checks the in-memory tables first — while the lock was
        released another thread may have promoted (or recorded) the very
        entry, and a hit served from memory counts as a plain hit, not a
        warm one.  Otherwise the probed payload is promoted exactly as a
        locked warm start would have, or the miss is finally counted.
        """
        result, _ = self._memory_hit(
            probe.exact_key,
            probe.terminal_key,
            probe.window_keys,
            probe.budget,
            counters,
            session,
        )
        if result is not None:
            return result
        if exact_payload is not None:
            actions, env, _, _ = exact_payload
            self._insert("exact", probe.exact_key, _Entry(actions, env, None), None)
            _record_hit(counters, "exact_hits", 0, session, warm=True)
            _promotion_counter().labels(kind="exact").inc()
            return actions, env
        if terminal_payload is not None:
            actions, env, examined, exact_budget_ok = terminal_payload
            if examined is not None:  # corrupt/foreign payload: ignore
                promoted = _Entry(actions, env, examined, exact_budget_ok)
                # promote even when unusable for *this* lookup: the entry
                # is exactly what a local put would have recorded
                self._insert("terminal", probe.terminal_key, promoted, None)
                _promotion_counter().labels(kind="terminal").inc()
                if _terminal_applies(promoted, probe.window_keys, probe.budget):
                    _record_hit(counters, "prefix_hits", 0, session, warm=True)
                    return actions, env
        counters.misses += 1
        return None

    def _store_digest(self, tag: str, base: tuple, *rest) -> bytes:
        """The backend address of a key, with the base digest memoized."""
        base_digest = self._base_digests.get(base)
        if base_digest is None:
            if len(self._base_digests) >= 4 * self.max_entries:
                self._base_digests.clear()
            base_digest = self._base_digests[base] = stable_digest(base)
        return stable_digest((tag, base_digest) + rest)

    def put(
        self,
        base: tuple,
        window_keys: tuple[int, ...],
        budget: int,
        actions: tuple,
        env: Env,
        counters: CacheCounters,
        session: int = 0,
        *,
        exact_budget_ok: bool = False,
        continuation: Optional[tuple] = None,
        cost: Optional[int] = None,
    ) -> None:
        """Record one execution outcome in both applicable tables.

        ``exact_budget_ok`` asserts the final env equals the env as of
        the last emitted action (see :class:`_Entry`); only the engine,
        which sees the evaluator's ``env_at_last_action``, can vouch for
        it, so it defaults to the conservative ``False``.

        ``continuation`` — ``(consumed, env, state)`` from the evaluator
        — marks a run that absorbed its window mid-loop.  It lands in
        the terminal slot (the run cannot also qualify as terminated)
        so later lookups over extended windows can resume instead of
        re-executing; see :meth:`get_continuation`.

        ``cost`` is an upper bound on the simulated actions needed to
        recompute this outcome (``None`` = unbounded/unknown).  It only
        feeds the tier policy (the module docstring) — the in-memory
        tables always record.
        """
        backend = self._backend
        count = len(actions)
        # terminated on its own terms: reusable on any extension of the
        # examined prefix (consumed snapshots + the final head)
        terminated = count < len(window_keys) and count < budget
        examined = window_keys[: count + 1] if terminated else None
        writes = []
        with self._lock:
            self._insert(
                "exact",
                (base, window_keys, budget),
                _Entry(actions, env, None, owner=session),
                counters,
            )
            if backend is not None:
                if _tiered_out(cost):
                    self.tier_skips += 1
                else:
                    digest = self._store_digest("exact", base, window_keys, budget)
                    writes.append((EXACT, digest, None, False))
            if terminated:
                self._insert(
                    "terminal",
                    (base, window_keys[0]),
                    _Entry(actions, env, examined, exact_budget_ok, owner=session),
                    counters,
                )
                if backend is not None:
                    digest = self._store_digest("terminal", base, window_keys[0])
                    writes.append((TERMINAL, digest, examined, exact_budget_ok))
            elif continuation is not None and continuation[0] > 0:
                # absorbed mid-loop: record the resume point.  In-memory
                # only — the state tuple holds live Env/selector objects
                # that value-addressed backends cannot round-trip.
                consumed, cont_env, state = continuation
                self._insert(
                    "terminal",
                    (base, window_keys[0]),
                    _Entry(
                        actions[:consumed],
                        cont_env,
                        window_keys[:consumed],
                        owner=session,
                        continuation=state,
                    ),
                    counters,
                )
        # encode and write through with no lock held: the backend
        # synchronizes itself, and a full write buffer flushes over the
        # network on a remote tier
        for kind, digest, examined_keys, budget_ok in writes:
            try:
                payload = entry_to_payload(actions, env, examined_keys, budget_ok)
            except (TypeError, AttributeError, ValueError):
                # values outside the row vocabulary (unit-test stubs,
                # future extensions): the in-memory tables still hold them
                continue
            backend.store_payload(kind, digest, payload)

    def get_continuation(
        self,
        base: tuple,
        window_keys: tuple[int, ...],
        budget: int,
        counters: CacheCounters,
    ) -> Optional[tuple[tuple, Env, tuple]]:
        """The stored resume point for this base/window, if usable.

        Returns ``(prefix actions, iteration-top env, state)`` when the
        terminal slot holds a continuation entry whose consumed prefix
        is a prefix of ``window_keys`` and whose prefix length leaves
        budget to spare — i.e. the caller can re-enter the loop over
        ``window[len(prefix):]`` instead of executing from scratch.
        Probed only *after* a full-result lookup missed (the miss is
        counted there; a resume adds to ``resume_hits`` alone).
        """
        key = (base, window_keys[0])
        with self._lock:
            entry = self._terminal.get(key)
            if entry is None or entry.continuation is None:
                return None
            consumed = len(entry.actions)
            if (
                consumed >= budget
                or len(window_keys) < consumed
                or window_keys[:consumed] != entry.examined
            ):
                return None
            if len(self._terminal) >= self._touch_floor:
                self._touch(self._terminal, key)
            counters.resume_hits += 1
            return entry.actions, entry.env, entry.continuation

    # ------------------------------------------------------------------
    # The consistency-check memo
    # ------------------------------------------------------------------
    def get_consistency(
        self, key: tuple, counters: CacheCounters, session: int = 0
    ) -> Optional[int]:
        """Memoized ``consistent_prefix_length`` result, or ``None``
        (a counted miss).  In-memory only, whatever the backend."""
        with self._lock:
            hit = self._consistency.get(key)
            if hit is None:
                counters.misses += 1
                return None
            if len(self._consistency) >= self._touch_floor:
                self._touch(self._consistency, key)
            _record_hit(counters, "consistency_hits", hit[1], session)
            return hit[0]

    def put_consistency(
        self,
        key: tuple,
        value: int,
        counters: CacheCounters,
        session: int = 0,
    ) -> None:
        """Record one consistency-check outcome (in memory only)."""
        with self._lock:
            self._insert("consistency", key, (value, session), counters)

    # ------------------------------------------------------------------
    # Table maintenance (under the lock)
    # ------------------------------------------------------------------
    @staticmethod
    def _touch(table: dict, key: tuple) -> None:
        table[key] = table.pop(key)

    def _insert(
        self, name: str, key: tuple, value, counters: Optional[CacheCounters]
    ) -> None:
        """Insert into one table, evicting its oldest entry at capacity.

        ``counters`` is ``None`` for backend promotions: the entry was
        not this process's traffic, so its evictions count nowhere.
        """
        table = self._tables[name]
        if key in table:
            self._table_bytes -= _value_bytes(key, table.pop(key))
        elif len(table) >= self.max_entries:
            old_key = next(iter(table))
            self._table_bytes -= _value_bytes(old_key, table.pop(old_key))
            if counters is not None:
                counters.evictions += 1
        table[key] = value
        self._table_bytes += _value_bytes(key, value)

    # ------------------------------------------------------------------
    # Gauges
    # ------------------------------------------------------------------
    @property
    def approx_bytes(self) -> int:
        """Approximate bytes held by the tables, plus the enumeration
        memos pinned on the interned snapshots' indexes (they are cache
        state with the same lifetime concerns, so they count toward the
        same footprint)."""
        return self._table_bytes + self.enum_bytes

    @property
    def enum_bytes(self) -> int:
        """Approximate bytes of the interned snapshots' enumeration memos."""
        total = 0
        with self._intern_lock:
            roots = list(self._canonical.values())
        for root in roots:
            index = root._snapshot_index
            if index is not None:
                total += index.enum_memo.approx_bytes
        return total

    @property
    def backend(self):
        """The persistent backend behind the tables, if any."""
        return self._backend

    @property
    def persisted_bytes(self) -> int:
        """Approximate bytes held by the persistent backend (0 without one)."""
        return self._backend.persisted_bytes if self._backend is not None else 0

    @property
    def interned_snapshots(self) -> int:
        """Number of canonical snapshots currently interned."""
        return len(self._canonical)

    def __len__(self) -> int:
        return len(self._exact) + len(self._terminal) + len(self._consistency)

    def clear(self) -> None:
        """Drop every entry and interned snapshot."""
        with self._lock:
            for table in self._tables.values():
                table.clear()
            self._table_bytes = 0
            self._base_digests.clear()
        with self._intern_lock:
            self._canonical.clear()
            self._node_counts.clear()
            self._data_canonical.clear()
            self.interned_bytes = 0
            self.intern_hits = 0
            self.snapshot_evictions = 0

    # ------------------------------------------------------------------
    # Snapshot interning
    # ------------------------------------------------------------------
    def intern_snapshot(self, root: DOMNode) -> DOMNode:
        """The canonical root structurally equal to ``root``.

        The first caller's root becomes canonical; later structurally
        equal roots — typically other sessions recording the same site —
        are mapped onto it.  Unfrozen snapshots are returned unchanged
        (they may still mutate, so sharing would be unsound).
        """
        if not root.frozen:
            return root
        key = root.content_key()  # memoized on the root; computed outside the lock
        with self._intern_lock:
            canonical = self._canonical.get(key)
            if canonical is None:
                if len(self._canonical) >= self.max_snapshots:
                    old_key = next(iter(self._canonical))
                    del self._canonical[old_key]
                    self.interned_bytes -= _NODE_BYTES * self._node_counts.pop(old_key, 0)
                    self.snapshot_evictions += 1
                canonical = root
                self._canonical[key] = canonical
                nodes = sum(1 for _ in root.iter_subtree())
                self._node_counts[key] = nodes
                self.interned_bytes += _NODE_BYTES * nodes
            else:
                self._canonical[key] = self._canonical.pop(key)  # LRU touch
                if canonical is not root:
                    self.intern_hits += 1
        return canonical

    def intern_snapshots(self, snapshots: Sequence[DOMNode]) -> list[DOMNode]:
        """Intern a whole recorded DOM trace (one canonical root each)."""
        return [self.intern_snapshot(root) for root in snapshots]

    # ------------------------------------------------------------------
    # Data-source interning
    # ------------------------------------------------------------------
    def intern_data(self, source):
        """The canonical :class:`~repro.lang.data.DataSource` equal to ``source``.

        Execution keys already address the source by content digest
        (:func:`repro.engine.keys.data_key`), so interning is purely a
        memory optimization: sessions that each loaded the same JSON
        share one wrapper object (and its memoized digest) instead of
        keeping duplicates alive.
        """
        key = _freeze_json(source.value)  # pure; computed outside the lock
        with self._intern_lock:
            canonical = self._data_canonical.get(key)
            if canonical is None:
                if len(self._data_canonical) >= self.max_snapshots:
                    del self._data_canonical[next(iter(self._data_canonical))]
                canonical = source
                self._data_canonical[key] = canonical
        return canonical


def session_token() -> int:
    """A fresh token identifying one caller (engine) of a shared cache."""
    return next(_session_tokens)


# ----------------------------------------------------------------------
# The process-wide instances
# ----------------------------------------------------------------------
#: One cache per resolved backend object, so a config naming another
#: backend than the first caller's is never silently served by it.
_PROCESS_CACHES: dict = {}
_PROCESS_LOCK = threading.Lock()


def process_cache(backend_name: str = "memory") -> ExecutionCache:
    """The lazily created process-wide :class:`ExecutionCache` of a backend.

    ``backend_name`` is resolved by
    :func:`repro.service.backends.resolve_backend` (``memory`` resolves
    to no backend), and every caller resolving to the same backend
    shares one instance.  Sized by the :class:`ExecutionCache` defaults
    (65536 entries per table, 512 interned snapshots).
    """
    from repro.service.backends import resolve_backend

    backend = resolve_backend(backend_name)
    with _PROCESS_LOCK:
        cache = _PROCESS_CACHES.get(backend)
        if cache is None:
            cache = _PROCESS_CACHES[backend] = ExecutionCache(backend=backend)
        return cache


def reset_process_cache() -> None:
    """Drop the process-wide caches (benchmark/test isolation)."""
    with _PROCESS_LOCK:
        _PROCESS_CACHES.clear()
