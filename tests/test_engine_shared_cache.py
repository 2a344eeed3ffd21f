"""The process-level execution cache (repro.engine.cache).

Covers the concurrency surface: one lock over the tables, per-caller
counters with cross-session hit attribution, snapshot interning
(including its race behaviour and that it holds no non-canonical root),
byte accounting with LRU eviction, and the process-wide instances.
"""

import gc
import threading
import weakref
from dataclasses import replace

from repro.dom import E, page
from repro.dom.node import DOMNode
from repro.engine import cache as cache_module
from repro.engine.cache import (
    CacheCounters,
    ExecutionCache,
    process_cache,
    reset_process_cache,
    session_token,
)
from repro.engine.index import index_for
from repro.lang import EMPTY_DATA
from repro.lang.data import DataSource
from repro.lang.ast import canonical_program
from repro.service.backends import CacheBackend
from repro.synth.config import DEFAULT_CONFIG, no_execution_cache_config
from repro.synth.synthesizer import Synthesizer

from helpers import cache_tier, cards_page, scrape_cards_trace


class _WeakRoot(DOMNode):
    """A snapshot root a test can hold a weak reference to."""

    __slots__ = ("__weakref__",)


class _Caller:
    """One caller of a shared cache, holding what an engine holds: its
    own session token and counters."""

    def __init__(self, cache):
        self.cache = cache
        self.token = session_token()
        self.counters = CacheCounters()

    def get(self, base, window_keys, budget):
        return self.cache.get(base, window_keys, budget, self.counters, self.token)

    def put(self, base, window_keys, budget, actions, env):
        self.cache.put(
            base, window_keys, budget, actions, env, self.counters, self.token
        )

    def get_consistency(self, key):
        return self.cache.get_consistency(key, self.counters, self.token)

    def put_consistency(self, key, value):
        self.cache.put_consistency(key, value, self.counters, self.token)


def shared_memory_config():
    """Process cache pinned to the in-process backend.

    The cross-session attribution assertions below are about *in-process*
    sharing semantics; a cache tier holding rows of earlier sessions
    would turn the expected cross-session hits into warm-start hits.
    """
    return replace(DEFAULT_CONFIG, cache_backend="memory")


class TestByteAccounting:
    def test_bytes_grow_with_entries_and_shrink_on_eviction(self):
        cache = ExecutionCache(max_entries=2)
        caller = _Caller(cache)
        assert cache.approx_bytes == 0
        caller.put(("a",), (1,), 1, ("x",), None)
        one_entry = cache.approx_bytes
        assert one_entry > 0
        caller.put(("b",), (2,), 1, ("x", "y"), None)
        two_entries = cache.approx_bytes
        assert two_entries > one_entry
        # third insert evicts the oldest: bytes stay bounded, counted
        caller.put(("c",), (3,), 1, ("x",), None)
        assert caller.counters.evictions == 1
        assert cache.approx_bytes < two_entries + one_entry
        assert len(cache) <= 2

    def test_shared_cache_aggregates_shard_bytes(self):
        shared = ExecutionCache(max_entries=64)
        session = _Caller(shared)
        for index in range(10):
            session.put((f"k{index}",), (index,), 1, ("a",), None)
        assert shared.approx_bytes > 0
        assert len(shared) == 10
        shared.clear()
        assert shared.approx_bytes == 0
        assert len(shared) == 0


class TestSessions:
    def test_sessions_share_entries_and_attribute_cross_hits(self):
        shared = ExecutionCache(max_entries=64)
        writer, reader = _Caller(shared), _Caller(shared)
        writer.put(("base",), (1,), 1, ("a",), None)
        assert writer.get(("base",), (1,), 1) is not None
        assert writer.counters.cross_session_hits == 0  # own entry
        assert reader.get(("base",), (1,), 1) is not None
        assert reader.counters.cross_session_hits == 1
        assert reader.counters.hits == 1
        # each caller counted its own hit, nobody else's
        assert writer.counters.hits == 1

    def test_consistency_memo_is_shared_too(self):
        shared = ExecutionCache(max_entries=64)
        writer, reader = _Caller(shared), _Caller(shared)
        writer.put_consistency(("key",), 3)
        assert reader.get_consistency(("key",)) == 3
        assert reader.counters.consistency_hits == 1
        assert reader.counters.cross_session_hits == 1


class TestInterning:
    def test_structurally_equal_roots_collapse(self):
        shared = ExecutionCache()
        first = cards_page(3)
        second = cards_page(3).clone().freeze()
        assert first is not second
        assert shared.intern_snapshot(first) is first
        assert shared.intern_snapshot(second) is first
        assert shared.intern_hits == 1
        assert shared.interned_snapshots == 1
        assert shared.interned_bytes > 0
        # interned sessions share one SnapshotIndex (and its enum_memo)
        assert index_for(shared.intern_snapshot(second)) is index_for(first)

    def test_different_structures_stay_distinct(self):
        shared = ExecutionCache()
        assert shared.intern_snapshot(cards_page(3)) is not shared.intern_snapshot(
            cards_page(4)
        )
        assert shared.interned_snapshots == 2

    def test_unfrozen_snapshots_pass_through(self):
        shared = ExecutionCache()
        mutable = E("div")
        assert shared.intern_snapshot(mutable) is mutable
        assert shared.interned_snapshots == 0

    def test_interning_lru_evicts_and_counts(self):
        shared = ExecutionCache(max_snapshots=2)
        shared.intern_snapshot(cards_page(2))
        shared.intern_snapshot(cards_page(3))
        before = shared.interned_bytes
        shared.intern_snapshot(cards_page(4))
        assert shared.snapshot_evictions == 1
        assert shared.interned_snapshots == 2
        assert shared.interned_bytes <= before + 10_000

    def test_concurrent_interning_yields_one_canonical(self):
        # the race the intern lock exists for: N threads intern distinct
        # structurally equal clones at once; everyone must get the same
        # canonical root and the table must hold exactly one entry
        shared = ExecutionCache()
        template = cards_page(5)
        clones = [template.clone().freeze() for _ in range(8)]
        results = [None] * len(clones)
        barrier = threading.Barrier(len(clones))

        def intern(position, root):
            barrier.wait()
            results[position] = shared.intern_snapshot(root)

        threads = [
            threading.Thread(target=intern, args=(position, root))
            for position, root in enumerate(clones)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert shared.interned_snapshots == 1
        canonical = results[0]
        assert all(result is canonical for result in results)
        assert shared.intern_hits == len(clones) - 1

    def test_concurrent_traffic_stays_consistent(self):
        shared = ExecutionCache(max_entries=256)
        sessions = [_Caller(shared) for _ in range(4)]
        errors = []

        def hammer(session, salt):
            try:
                for index in range(200):
                    key = (f"k{(index + salt) % 50}",)
                    session.put(key, (index % 7,), 1, ("a",), None)
                    session.get(key, (index % 7,), 1)
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(session, salt))
            for salt, session in enumerate(sessions)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        hits = sum(session.counters.hits for session in sessions)
        misses = sum(session.counters.misses for session in sessions)
        assert hits + misses == 4 * 200
        for session in sessions:
            counters = session.counters
            assert counters.hits == (
                counters.exact_hits + counters.prefix_hits + counters.consistency_hits
            )


    def test_interning_holds_no_non_canonical_root(self):
        # only canonical roots are held: a structurally equal clone that
        # was interned (and mapped onto the canonical root) must be
        # collectable as soon as its caller drops it
        shared = ExecutionCache()
        canonical = cards_page(3)
        clone = _WeakRoot(
            canonical.tag,
            canonical.attrs,
            canonical.text,
            [child.clone() for child in canonical.children],
        ).freeze()
        assert shared.intern_snapshot(canonical) is canonical
        assert shared.intern_snapshot(clone) is canonical
        clone_ref = weakref.ref(clone)
        del clone
        gc.collect()
        assert clone_ref() is None
        assert shared.interned_snapshots == 1


class TestDataInterning:
    def test_equal_content_sources_collapse(self):
        shared = ExecutionCache()
        first = DataSource({"zips": [10001, 10002]})
        second = DataSource({"zips": [10001, 10002]})
        other = DataSource({"zips": [90210]})
        assert shared.intern_data(first) is first
        assert shared.intern_data(second) is first
        assert shared.intern_data(other) is other

    def test_sessions_with_separately_loaded_data_still_share(self):
        # each session 'loads' its own equal-content data source (the
        # repeated-CLI-invocation shape); execution keys address the
        # source by content digest, so the sessions share executions
        # whether or not for_config interns the wrapper
        reset_process_cache()
        try:
            config = shared_memory_config()
            actions, _ = scrape_cards_trace(cards_page(5), 4)
            snaps_a = [cards_page(5).clone().freeze()] * (len(actions) + 1)
            snaps_b = [cards_page(5).clone().freeze()] * (len(actions) + 1)
            session_a = Synthesizer(DataSource({"q": ["a", "b"]}), config)
            session_b = Synthesizer(DataSource({"q": ["a", "b"]}), config)
            for cut in range(1, len(actions) + 1):
                session_a.synthesize(actions[:cut], snaps_a[: cut + 1])
            cross = 0
            for cut in range(1, len(actions) + 1):
                result = session_b.synthesize(actions[:cut], snaps_b[: cut + 1])
                cross += result.stats.cache_cross_session_hits
            assert cross > 0
        finally:
            reset_process_cache()


class TestCrossSessionSynthesis:
    def test_two_sessions_over_the_same_site_share_executions(self):
        reset_process_cache()
        try:
            config = shared_memory_config()
            actions, _ = scrape_cards_trace(cards_page(5), 4)
            dom_a = cards_page(5).clone().freeze()
            dom_b = cards_page(5).clone().freeze()
            snaps_a = [dom_a] * (len(actions) + 1)
            snaps_b = [dom_b] * (len(actions) + 1)
            session_a = Synthesizer(EMPTY_DATA, config)
            session_b = Synthesizer(EMPTY_DATA, no_execution_cache_config())
            baseline = Synthesizer(EMPTY_DATA, config)
            cross_a = 0
            for cut in range(1, len(actions) + 1):
                result_a = session_a.synthesize(actions[:cut], snaps_a[: cut + 1])
                expected = session_b.synthesize(actions[:cut], snaps_b[: cut + 1])
                cross_a += result_a.stats.cache_cross_session_hits
                assert [canonical_program(p) for p in result_a.programs] == [
                    canonical_program(p) for p in expected.programs
                ]
            assert cross_a == 0  # first session over the site: nothing to reuse
            cross_second = 0
            for cut in range(1, len(actions) + 1):
                result = baseline.synthesize(actions[:cut], snaps_b[: cut + 1])
                cross_second += result.stats.cache_cross_session_hits
                assert result.stats.interned_snapshots >= 1
            assert cross_second > 0  # session two hit session one's entries
        finally:
            reset_process_cache()


class TestProcessCache:
    def test_singleton_until_reset(self):
        reset_process_cache()
        try:
            first = process_cache()
            assert process_cache() is first
            reset_process_cache()
            assert process_cache() is not first
        finally:
            reset_process_cache()

    def test_one_instance_per_backend(self):
        # a config naming another backend than the first caller's must
        # get a cache over *that* backend, never the first one's
        from repro.service.backends import reset_backends

        reset_process_cache()
        try:
            memory = process_cache("memory")
            # resolving connects to nothing: no cache server need listen
            tier = process_cache("remote://127.0.0.1:9")
            assert tier is not memory
            assert (memory.backend_name, tier.backend_name) == ("memory", "remote")
            assert process_cache("remote://127.0.0.1:9") is tier
            assert process_cache("remote://127.0.0.1:10") is not tier
        finally:
            reset_backends()


class TestByteThresholds:
    def test_window_length_scales_the_terminal_entry_estimate(self):
        # terminal entries for long windows weigh in proportion to their
        # examined prefix in the reported footprint
        small = ExecutionCache(max_entries=8)
        large = ExecutionCache(max_entries=8)
        _Caller(small).put(("b",), tuple(range(4)), 4, ("a",), None)
        _Caller(large).put(("b",), tuple(range(40)), 40, ("a",), None)
        assert large.approx_bytes > small.approx_bytes


class TestEnumMemoAccounting:
    def test_enum_bytes_counted_in_shared_footprint(self):
        shared = ExecutionCache()
        dom = cards_page(4)
        canonical = shared.intern_snapshot(dom)
        index = index_for(canonical)
        before = shared.approx_bytes
        index.enum_memo[("decomp", 1, True, 2, 64, False)] = [object()] * 10
        assert index.enum_memo.approx_bytes > 0
        assert shared.enum_bytes == index.enum_memo.approx_bytes
        assert shared.approx_bytes == before + index.enum_memo.approx_bytes

    def test_enum_memo_evicts_when_over_budget(self):
        from repro.engine.index import EnumMemo

        memo = EnumMemo(max_bytes=3000)
        for index in range(32):
            memo[("decomp", index)] = [object()] * 8
        assert memo.evictions > 0
        assert memo.approx_bytes <= 3000
        assert memo.get(("decomp", 31)) is not None  # newest kept
        assert memo.get(("decomp", 0)) is None  # oldest dropped

    def test_enumeration_results_flow_through_the_accounted_memo(self):
        dom = cards_page(3)
        from repro.dom import raw_path
        from repro.synth.alternatives import decompositions
        from helpers import node_at

        target = node_at(dom, "//div[@class='card'][2]/h3[1]")
        index = index_for(dom)
        before = index.enum_memo.approx_bytes
        results = decompositions(raw_path(target), dom)
        assert results
        assert index.enum_memo.approx_bytes > before


class TestWarmStartSynthesis:
    def test_fresh_process_cache_warm_starts_from_the_store(self, tmp_path, monkeypatch):
        # process boundaries are simulated by dropping every in-process
        # cache between runs and restarting the cache server: only its
        # SQLite store survives, exactly what a restarted worker sees
        # after a cache-serve restart (the store-codec bench does this
        # with real forked processes; the cross-process key stability is
        # pinned by test_engine_keys).  Tiering off: this test pins the
        # warm-start plumbing itself, so every entry must persist — the
        # tier policy's deliberate recompute-misses are covered by
        # test_codec_binary and the store-codec bench.
        monkeypatch.setattr(cache_module, "TIER_COST", -1)
        from repro.service.backends import reset_backends

        # consistency checks never reach the store: a fresh process
        # recomputes each one, and those are its only misses
        check_misses = []
        get_consistency = ExecutionCache.get_consistency

        def counting_get(cache, *args, **kwargs):
            value = get_consistency(cache, *args, **kwargs)
            check_misses.append(value is None)
            return value

        monkeypatch.setattr(ExecutionCache, "get_consistency", counting_get)

        def run_once():
            with cache_tier(tmp_path / "execution-cache.sqlite") as name:
                return synthesize_once(name)

        def synthesize_once(name):
            check_misses.clear()
            config = replace(DEFAULT_CONFIG, cache_backend=name)
            actions, snapshots = scrape_cards_trace(cards_page(5), 4)
            synthesizer = Synthesizer(EMPTY_DATA, config)
            warm = misses = 0
            programs = []
            for cut in range(1, len(actions) + 1):
                result = synthesizer.synthesize(actions[:cut], snapshots[: cut + 1])
                warm += result.stats.cache_warm_hits
                misses += result.stats.cache_misses
                programs.append(
                    [canonical_program(p) for p in result.programs]
                )
            assert result.stats.cache_backend == "remote"
            from repro.service.backends import flush_backends

            flush_backends()
            # the tier's bytes as of this session's last acknowledged put
            persisted = synthesizer.engine.cache.backend.persisted_bytes
            return warm, misses - sum(check_misses), programs, persisted

        reset_process_cache()
        reset_backends()
        try:
            cold_warm, cold_misses, cold_programs, persisted = run_once()
            assert cold_warm == 0
            assert cold_misses > 0
            assert persisted > 0
            assert any(check_misses)
            # "new process": all in-process state dropped, store kept
            reset_process_cache()
            reset_backends()
            warm_warm, warm_misses, warm_programs, _ = run_once()
            assert warm_warm > 0
            assert warm_misses == 0  # no execution missed
            assert any(check_misses)
            assert warm_programs == cold_programs
        finally:
            reset_process_cache()
            reset_backends()


#: An exact-entry row with no actions and no environment.
_EMPTY_ROW = {"a": [], "e": None}


class _StubBackend(CacheBackend):
    """A backend with scriptable row loads.

    ``payload`` answers *every* row (None = empty store); ``gate`` runs
    inside ``load_payloads`` — the two-phase tests use a barrier there
    to prove loads from different threads overlap.  ``stored`` records
    the kind of every row written.
    """

    name = "stub"

    def __init__(self, payload=None, gate=None):
        self.payload = payload
        self.gate = gate
        self.loads = 0
        self.stored: list = []

    def load_payloads(self, rows):
        self.loads += 1
        if self.gate is not None:
            self.gate()
        return [self.payload for _ in rows]

    def store_payload(self, kind, key, payload):
        self.stored.append(kind)


class TestTwoPhaseBackendLookup:
    """The store probe must not hold the cache lock."""

    def test_cold_lookups_on_one_shard_overlap_their_backend_io(self):
        # Both threads miss in memory and fall through to the backend.
        # The barrier inside load_payloads only releases when *both*
        # threads are inside a backend read at the same time — which is
        # impossible if the read still happens under the cache lock, so
        # a regression deadlocks the barrier and fails fast.
        barrier = threading.Barrier(2)
        stub = _StubBackend(payload=_EMPTY_ROW, gate=lambda: barrier.wait(timeout=10))
        shared = ExecutionCache(max_entries=64, backend=stub)
        sessions = [_Caller(shared), _Caller(shared)]
        failures = []

        def lookup(index):
            try:
                result = sessions[index].get((f"base{index}",), (1,), 1)
                assert result is not None
            except Exception as exc:  # pragma: no cover - the assertion
                failures.append(exc)

        threads = [threading.Thread(target=lookup, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        # each lookup settled exactly once: a warm hit, never a miss
        for session in sessions:
            assert session.counters.hits == 1
            assert session.counters.warm_hits == 1
            assert session.counters.misses == 0

    def test_empty_store_misses_count_exactly_once_per_lookup(self):
        stub = _StubBackend(payload=None)
        shared = ExecutionCache(max_entries=256, backend=stub)
        sessions = [_Caller(shared) for _ in range(4)]
        lookups_per_session = 8

        def lookup(session, index):
            for position in range(lookups_per_session):
                session.get((f"k{index}-{position}",), (1,), 1)

        threads = [
            threading.Thread(target=lookup, args=(session, index))
            for index, session in enumerate(sessions)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = 4 * lookups_per_session
        assert sum(s.counters.misses for s in sessions) == total
        assert sum(s.counters.hits for s in sessions) == 0

    def test_racing_promotions_of_one_key_each_count_a_hit(self):
        barrier = threading.Barrier(2)
        stub = _StubBackend(payload=_EMPTY_ROW, gate=lambda: barrier.wait(timeout=10))
        shared = ExecutionCache(max_entries=64, backend=stub)
        sessions = [_Caller(shared), _Caller(shared)]
        failures = []

        def lookup(index):
            try:
                assert sessions[index].get(("same",), (1,), 1) is not None
            except Exception as exc:  # pragma: no cover - the assertion
                failures.append(exc)

        threads = [threading.Thread(target=lookup, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        # both probed before either promoted; the loser of the promote
        # race is served from memory by the re-check — still one hit
        # per lookup, one entry in the table
        assert [(s.counters.hits, s.counters.misses) for s in sessions] == [(1, 0)] * 2
        assert 1 <= sum(s.counters.warm_hits for s in sessions) <= 2
        assert len(shared) == 1

    def test_warm_entry_is_promoted_once_then_served_from_memory(self):
        stub = _StubBackend(payload=_EMPTY_ROW)
        shared = ExecutionCache(max_entries=64, backend=stub)
        session = _Caller(shared)
        assert session.get(("base",), (1,), 1) is not None
        loads_after_first = stub.loads
        assert session.get(("base",), (1,), 1) is not None
        assert stub.loads == loads_after_first  # no second store read
        assert session.counters.warm_hits == 1
        assert session.counters.hits == 2

    def test_consistency_memo_skips_the_backend(self):
        # a store answering every row would warm-start any lookup that
        # consulted it; the consistency memo never does
        stub = _StubBackend(payload={"v": 5})
        shared = ExecutionCache(max_entries=64, backend=stub)
        writer, reader = _Caller(shared), _Caller(shared)
        writer.put_consistency(("key",), 5)
        assert reader.get_consistency(("key",)) == 5
        assert reader.get_consistency(("cold",)) is None
        assert (reader.counters.hits, reader.counters.misses) == (1, 1)
        assert reader.counters.warm_hits == 0
        assert (stub.loads, stub.stored) == (0, [])
