"""The memoizing execution engine: one seam for all simulated execution.

:class:`ExecutionEngine` fronts the trace semantics
(:mod:`repro.semantics.evaluator`), consistency checking, and selector
resolution behind a single object.  The synthesizer stack
(:mod:`repro.synth.synthesizer`, :mod:`repro.synth.validate`,
:mod:`repro.synth.speculate`, :mod:`repro.synth.problem`) and the
replayer go through an engine instead of reaching into the evaluator
directly, which buys three things:

* **Memoization.**  Identical ``(statements, window, env, data,
  budget)`` executions — across worklist pops and across incremental
  calls — are computed once (see :mod:`repro.engine.cache`).
* **Indexing.**  Engine-resolved selectors ride the per-snapshot DOM
  indexes of :mod:`repro.engine.index`.
* **Sharing.**  The engine is where execution sharing happens:
  :meth:`ExecutionEngine.for_config` joins the process-level
  :class:`~repro.engine.cache.ExecutionCache` as one session (its own
  token and counters), so concurrent sessions over the same site reuse
  each other's executions.

A cached :meth:`execute` replays the actions and remaining-window shape
of the first structurally equivalent execution.  Statement keys are
alpha-canonical, so that execution may have bound other loop variables:
entries store the final (and iteration-top) environment with the
statement's binders renamed to *slot* variables — one per pre-order
binder position, with uids :func:`~repro.lang.ast.fresh_var` never
allocates — and every hit renames the slots back to the caller's
binders.  A served environment therefore equals a fresh run of the
caller's own statement.

Thread-safety contract: one engine serves one session at a time, but
engines on the shared cache (one lock) may run on different
threads — the engine-level memos (canonical statements, lazily filled
snapshot-index layers) are id-keyed, idempotent writes of deterministic
values, so a lost race recomputes but never corrupts.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import TYPE_CHECKING, Optional, Sequence

from repro.dom.node import DOMNode
from repro.dom.xpath import ConcreteSelector, resolve as _resolve
from repro.engine.cache import (
    CacheCounters,
    ExecutionCache,
    process_cache,
    session_token,
)
from repro.engine.keys import action_digest, data_key
from repro.lang.actions import Action
from repro.lang.ast import (
    Program,
    Statement,
    Var,
    canonical_statement,
    statement_binders,
)
from repro.lang.data import DataSource
from repro.semantics import evaluator
from repro.semantics.consistency import (
    consistent_prefix_length as _consistent_prefix_length,
)
from repro.semantics.env import Env
from repro.semantics.evaluator import EvalResult
from repro.semantics.trace import DOMTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.synth.config import SynthesisConfig

#: Sentinel distinguishing "not memoized yet" from a memoized ``None``
#: (= unbounded cost) in the tier-policy hint table.
_COST_UNKNOWN = object()


class ExecutionEngine:
    """Facade owning all simulated execution for one data source."""

    def __init__(
        self,
        data: Optional[DataSource] = None,
        *,
        use_cache: bool = True,
        cache: Optional[ExecutionCache] = None,
    ) -> None:
        self.data = data
        if not use_cache:
            self._cache = None
        else:
            self._cache = cache if cache is not None else ExecutionCache()
        # this engine's session on the (possibly shared) cache: its own
        # token for cross-session attribution, its own telemetry
        self._token = session_token()
        self._counters = CacheCounters()
        # canonical-statement memo: statement objects are shared between
        # tuples and their rewrites, so id-keyed lookup hits constantly;
        # the pin list keeps referenced statements alive.  Writes (and
        # the occasional flush) are lock-guarded so the "memoized ⇒
        # pinned" invariant holds under concurrent callers.
        self._canon: dict[int, tuple] = {}
        self._canon_pins: list[Statement] = []
        self._canon_lock = threading.Lock()
        # id-memoized per-action content digests for the consistency
        # memo's value-addressed keys (same discipline as _canon: the
        # digest is a pure function of the action value, and pinning
        # keeps memoized ids valid)
        self._action_keys: dict[int, int] = {}
        self._action_pins: list[Action] = []
        # recompute-cost hints for the cache's tier policy, keyed by the
        # statements' canonical key (a value, so collisions are
        # impossible); None = unbounded/unknown
        self._cost_hints: dict[tuple, Optional[int]] = {}

    @classmethod
    def for_config(
        cls, data: Optional[DataSource], config: "SynthesisConfig"
    ) -> "ExecutionEngine":
        """An engine honouring the config's cache knobs.

        A memoizing engine joins the process-level cache of the config's
        ``cache_backend`` (:func:`repro.engine.cache.process_cache`).
        The Table 1 "No incremental" ablation (``incremental=False``)
        instead gets a fresh cache over the same backend (none for
        ``memory``), so every from-scratch call also starts cold.
        """
        from repro.service.backends import resolve_backend

        if not config.use_execution_cache:
            return cls(data, use_cache=False)
        if config.incremental:
            cache = process_cache(config.cache_backend)
        else:
            cache = ExecutionCache(backend=resolve_backend(config.cache_backend))
        if data is not None:
            # keys address the source by content digest already;
            # interning shares the wrapper object (and its memoized
            # digest) between equal-content sessions
            data = cache.intern_data(data)
        return cls(data, cache=cache)

    @property
    def cache(self) -> Optional[ExecutionCache]:
        """The execution cache behind this engine (``None`` when off)."""
        return self._cache

    def counters(self) -> CacheCounters:
        """A copy of this session's cache telemetry (hit/miss/eviction
        counters; the cache's gauges live on :attr:`cache`)."""
        return replace(self._counters)

    # ------------------------------------------------------------------
    # Simulated execution
    # ------------------------------------------------------------------
    def execute(
        self,
        program: Program | Sequence[Statement],
        doms: DOMTrace,
        env: Optional[Env] = None,
        max_actions: Optional[int] = None,
        data: Optional[DataSource] = None,
        resumable: bool = False,
    ) -> EvalResult:
        """Memoized :func:`repro.semantics.evaluator.execute`.

        ``data`` overrides the engine's data source for this call (used
        by the problem-level helpers, which carry their own source).

        ``resumable`` opts a *single closed statement* into resumable
        loop execution: a run that absorbs its whole window mid-loop
        records the evaluator's continuation in the cache, and a later
        call over an extended window re-enters the loop at the recorded
        iteration instead of re-executing from the window start — the
        synthesizer's extension/generalization path uses this to keep
        per-call cost proportional to the *new* actions.  The stitched
        result is identical to a from-scratch execution by construction
        (the iteration-top state fully determines the remainder).
        """
        source = self.data if data is None else data
        window_length = len(doms)
        budget = (
            window_length
            if max_actions is None
            else min(max_actions, window_length)
        )
        if self._cache is None or window_length == 0 or budget <= 0:
            return evaluator.execute(program, doms, source, env, max_actions)
        statements = tuple(program)
        binders = _binders(statements)
        if binders and not _slots_apply(binders, env):
            # a variable bound twice (or already bound on entry) has no
            # unique slot, so its env could not be renamed back: run it
            # unmemoized
            return evaluator.execute(statements, doms, source, env, max_actions)
        # every component is a value (see repro.engine.keys): canonical
        # statement forms, the env fingerprint, the data source's content
        # digest, and the window's snapshot content digests — so the key
        # addresses the same outcome in any process
        base = self._base_key(statements, env, source)
        window_keys = doms.value_key()
        cache, counters, token = self._cache, self._counters, self._token
        cost = self._cost_bound(base[0], statements, budget)
        hit = cache.get(base, window_keys, budget, counters, token, cost)
        if hit is not None:
            actions, stored_env = hit
            final_env = _from_slots(stored_env, binders, env)
            if final_env is not None:
                return EvalResult(list(actions), doms.window(len(actions)), final_env)
        resumable = resumable and len(statements) == 1
        if resumable:
            cont = cache.get_continuation(base, window_keys, budget, counters)
            cont_env = None if cont is None else _from_slots(cont[1], binders, env)
            if cont_env is not None:
                prefix_actions, _, state = cont
                consumed = len(prefix_actions)
                suffix = evaluator.resume_statement(
                    statements[0],
                    state,
                    doms.window(consumed),
                    source,
                    cont_env,
                    max_actions=budget - consumed,
                )
                actions = list(prefix_actions) + suffix.actions
                result = EvalResult(
                    actions,
                    doms.window(len(actions)),
                    suffix.env,
                    # the stitched last-action env is only known when the
                    # suffix emitted; otherwise stay conservative (None
                    # can never satisfy `is env`)
                    suffix.env_at_last_action if suffix.actions else None,
                    _shift_continuation(suffix.continuation, consumed),
                )
                self._record_result(base, window_keys, budget, result, statements, binders)
                return result
        result = evaluator.execute(
            statements, doms, source, env, max_actions,
            record_continuation=resumable,
        )
        self._record_result(base, window_keys, budget, result, statements, binders)
        return result

    def _base_key(
        self, statements: tuple, env: Optional[Env], source: Optional[DataSource]
    ) -> tuple:
        return (self._statements_key(statements), _env_key(env), _data_key(source))

    def _record_result(
        self,
        base: tuple,
        window_keys: tuple[int, ...],
        budget: int,
        result: EvalResult,
        statements: tuple,
        binders: tuple[Var, ...],
    ) -> None:
        continuation = result.continuation
        if continuation is not None and binders:
            consumed, cont_env, state = continuation
            continuation = (consumed, _to_slots(cont_env, binders), state)
        self._cache.put(
            base,
            window_keys,
            budget,
            tuple(result.actions),
            _to_slots(result.env, binders),
            self._counters,
            self._token,
            exact_budget_ok=result.env_at_last_action is result.env,
            continuation=continuation,
            cost=self._cost_bound(base[0], statements, len(result.actions)),
        )

    def _cost_bound(
        self, statements_key: tuple, statements: tuple, ran: int
    ) -> Optional[int]:
        """The recompute-cost bound the cache's tier policy reads
        (:mod:`repro.engine.cache`); ``None`` without a backend, where
        no policy applies.

        :meth:`_cost_hint` when that is bounded, else ``ran``: the
        recorded action count on a write (exact, since the entry is
        value-addressed to its snapshots) and the action budget on a
        read, which caps that count — so a read never skips a row a
        write kept.
        """
        if self._cache.backend is None:
            return None
        hint = self._cost_hint(statements_key, statements)
        return ran if hint is None else hint

    def _cost_hint(self, statements_key: tuple, statements: tuple) -> Optional[int]:
        """A static upper bound on this fragment's recompute cost.

        Computed with ``data=None`` (loops stay unbounded, and
        :meth:`_cost_bound` falls back to the run's own length) and
        memoized per canonical statements key.
        """
        hint = self._cost_hints.get(statements_key, _COST_UNKNOWN)
        if hint is not _COST_UNKNOWN:
            return hint
        try:
            from repro.analysis.cost import statement_cost

            total: Optional[int] = 0
            for statement in statements:
                interval = statement_cost(statement, None)
                if interval.hi is None:
                    total = None
                    break
                total += interval.hi
        except Exception:  # stub statements outside the analysis vocabulary
            total = None
        if len(self._cost_hints) >= 4096:
            self._cost_hints.clear()
        self._cost_hints[statements_key] = total
        return total

    # ------------------------------------------------------------------
    # Consistency and resolution (delegates — index-accelerated)
    # ------------------------------------------------------------------
    def consistent_prefix_length(
        self,
        produced: Sequence[Action],
        reference: Sequence[Action],
        doms: DOMTrace,
    ) -> int:
        """Memoized :func:`repro.semantics.consistency.consistent_prefix_length`.

        Validation re-checks the same produced trace against the same
        recorded slice whenever the underlying execution repeats; the
        memo is keyed by the actions' content digests and the window's
        snapshot digests — values, so equal checks from any session in
        this process share one entry.  It never reaches a persistent
        backend: a check costs less to recompute than a row read.
        The digests themselves are id-memoized per action object
        (:meth:`action_key`), keeping the hot path a tuple of dict hits.
        """
        if self._cache is None or not produced:
            return _consistent_prefix_length(produced, reference, doms)
        key = self._consistency_key(produced, reference, doms)
        hit = self._cache.get_consistency(key, self._counters, self._token)
        if hit is not None:
            return hit
        value = self._incremental_prefix_length(key, produced, reference, doms)
        if value is None:
            value = _consistent_prefix_length(produced, reference, doms)
        self._cache.put_consistency(key, value, self._counters, self._token)
        return value

    def _consistency_key(self, produced, reference, doms: DOMTrace) -> tuple:
        return (
            tuple(self.action_key(action) for action in produced),
            tuple(self.action_key(action) for action in reference),
            doms.value_key(),
        )

    #: How many trailing actions the incremental consistency path will
    #: look back over for a settled prefix entry (extension adds at most
    #: a handful of actions between checks; past that, rescanning whole
    #: is no worse than probing).
    _PREFIX_LOOKBACK = 4

    def _incremental_prefix_length(
        self, key, produced, reference, doms
    ) -> Optional[int]:
        """Extend a settled shorter check instead of rescanning.

        Incremental synthesis re-checks the same growing traces after
        every recorded action; the full-sequence memo misses (the key
        grew) but the previous call's entry is this call's *prefix*.
        Finding a fully-consistent settled prefix of length ``cut``
        reduces the scan to the tail beyond it — per-call consistency
        cost stays O(new actions) on long demonstrations.  A settled
        prefix that was already inconsistent is the answer outright.
        """
        produced_keys, reference_keys, window_keys = key
        limit = min(len(produced), len(reference), len(doms))
        floor = max(limit - self._PREFIX_LOOKBACK, 1)
        for cut in range(limit - 1, floor - 1, -1):
            prefix_key = (produced_keys[:cut], reference_keys[:cut], window_keys[:cut])
            prior = self._cache.get_consistency(prefix_key, self._counters, self._token)
            if prior is None:
                continue
            if prior < cut:
                return prior
            tail = _consistent_prefix_length(
                produced[cut:limit], reference[cut:limit], doms.window(cut)
            )
            return cut + tail
        return None

    def resolve(self, selector: ConcreteSelector, dom: DOMNode) -> Optional[DOMNode]:
        """Delegate to :func:`repro.dom.xpath.resolve`."""
        return _resolve(selector, dom)

    def valid(self, selector: ConcreteSelector, dom: DOMNode) -> bool:
        """The paper's ``valid(ρ, π)`` through the engine seam."""
        return _resolve(selector, dom) is not None

    # ------------------------------------------------------------------
    def _statements_key(self, statements: tuple[Statement, ...]) -> tuple:
        return tuple(self.statement_key(stmt) for stmt in statements)

    #: Flush threshold for the canonical-statement memo: keeps the pin
    #: list from growing without bound over very long sessions (a flush
    #: only costs recomputation, never correctness).
    _CANON_LIMIT = 1 << 16

    def statement_key(self, stmt: Statement) -> tuple:
        """Id-memoized :func:`repro.lang.ast.canonical_statement`.

        Statement objects are shared between worklist tuples and their
        rewrites, so identity-keyed lookups hit constantly; referents
        are pinned so their ids stay valid while memoized.  The hot
        lookup is lockless; the write side (including the occasional
        flush) takes a lock so a flush can never separate an entry from
        its pin — an unpinned entry whose statement got collected would
        let a recycled id alias another statement's key.  Concurrent
        cold misses both compute the same canonical form, so the double
        insert is idempotent.
        """
        key = self._canon.get(id(stmt))
        if key is None:
            key = canonical_statement(stmt)  # pure; computed unlocked
            with self._canon_lock:
                if len(self._canon) >= self._CANON_LIMIT:
                    self._canon.clear()
                    self._canon_pins.clear()
                self._canon[id(stmt)] = key
                self._canon_pins.append(stmt)
        return key

    def action_key(self, action: Action) -> int:
        """Id-memoized content digest of one action (a pure value).

        Actions are shared between executions and consistency checks of
        the same trace slice, so identity-keyed lookups hit constantly;
        the same locking discipline as :meth:`statement_key` keeps the
        "memoized ⇒ pinned" invariant under concurrent workers.
        """
        key = self._action_keys.get(id(action))
        if key is None:
            key = action_digest(action)  # pure; computed unlocked
            with self._canon_lock:
                if len(self._action_keys) >= self._CANON_LIMIT:
                    self._action_keys.clear()
                    self._action_pins.clear()
                self._action_keys[id(action)] = key
                self._action_pins.append(action)
        return key


def _shift_continuation(
    continuation: Optional[tuple], consumed: int
) -> Optional[tuple]:
    """Rebase a resumed run's continuation onto the full window.

    The suffix run records consumed-action counts relative to its own
    (suffix) window; adding the stitched prefix length makes the state
    valid for the full window's cache entry.
    """
    if continuation is None:
        return None
    offset, cont_env, state = continuation
    return (consumed + offset, cont_env, state)


def _binders(statements: tuple[Statement, ...]) -> tuple[Var, ...]:
    """The loop variables ``statements`` bind, in pre-order."""
    if len(statements) == 1:
        return statement_binders(statements[0])
    binders: tuple[Var, ...] = ()
    for statement in statements:
        binders += statement_binders(statement)
    return binders


def _slots_apply(binders: tuple[Var, ...], env: Optional[Env]) -> bool:
    """Whether every binder owns exactly one slot for this call."""
    if len(binders) > 1 and len(set(binders)) != len(binders):
        return False
    return env is None or len(env) == 0 or not any(var in env for var in binders)


def _to_slots(env: Env, binders: tuple[Var, ...]) -> Env:
    """``env`` with the statement's binders renamed to their slots.

    The slot of the binder at pre-order position ``p`` is
    ``Var(kind, -1 - p)``: negative uids, which
    :func:`~repro.lang.ast.fresh_var` never allocates, so a slot can
    never collide with a real variable.  Positions run over the whole
    statement sequence — unlike :func:`~repro.lang.ast.
    canonical_statement`'s depth numbering, sibling loops get distinct
    slots.
    """
    if not binders:
        return env
    slots = {var: Var(var.kind, -1 - position) for position, var in enumerate(binders)}
    return Env({slots.get(var, var): value for var, value in env.items()})


def _from_slots(
    stored: Env, binders: tuple[Var, ...], env: Optional[Env]
) -> Optional[Env]:
    """A stored env with its slots renamed to the caller's binders.

    Every other variable the stored env binds must be one the caller
    passed in (``env``); a stored env binding anything else — a binder
    with no slot, as rows written before slots existed carry — cannot
    be the caller's result, so it answers ``None`` (a miss).
    """
    if not binders:
        return stored
    renamed = {}
    for var, value in stored.items():
        if var.uid < 0:
            position = -1 - var.uid
            if position >= len(binders) or binders[position].kind != var.kind:
                return None
            var = binders[position]
        elif env is None or var not in env:
            return None
        renamed[var] = value
    return Env(renamed)


def _env_key(env: Optional[Env]) -> tuple:
    if env is None or len(env) == 0:
        return ()
    return env.fingerprint()


def _data_key(source: Optional[DataSource]) -> int:
    if source is None:
        return 0
    return data_key(source)
