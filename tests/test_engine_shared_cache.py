"""The process-level shared execution cache (repro.engine.cache).

Covers the concurrency surface: lock-striped shards,
per-session counter views with cross-session hit attribution, snapshot
interning (including its race behaviour), byte accounting with LRU
eviction, and the process-wide singleton.
"""

import threading
from dataclasses import replace

from repro.dom import E, page
from repro.engine.cache import (
    CacheCounters,
    ExecutionCache,
    SharedExecutionCache,
    process_cache,
    reset_process_cache,
)
from repro.engine.index import index_for
from repro.lang import EMPTY_DATA
from repro.lang.data import DataSource
from repro.lang.ast import canonical_program
from repro.synth.config import DEFAULT_CONFIG, serial_validation_config
from repro.synth.synthesizer import Synthesizer

from helpers import cards_page, scrape_cards_trace


def shared_memory_config():
    """Process-shared cache pinned to the in-process backend.

    The cross-session attribution assertions below are about *in-process*
    sharing semantics; a persistent store left by earlier tests (e.g.
    under the ``REPRO_CACHE_BACKEND=file`` CI parity run) would turn the
    expected cross-session hits into warm-start hits.
    """
    return replace(DEFAULT_CONFIG, shared_cache=True, cache_backend="memory")


class TestCounters:
    def test_merge_sums_every_field(self):
        left = CacheCounters(hits=3, misses=2, evictions=1, exact_hits=1,
                             prefix_hits=1, consistency_hits=1, cross_session_hits=1)
        right = CacheCounters(hits=5, misses=1, evictions=0, exact_hits=2,
                              prefix_hits=2, consistency_hits=1, cross_session_hits=4)
        left.merge(right)
        assert left == CacheCounters(hits=8, misses=3, evictions=1, exact_hits=3,
                                     prefix_hits=3, consistency_hits=2,
                                     cross_session_hits=5)

    def test_explicit_recorder_counts_alongside_the_cache_aggregate(self):
        cache = ExecutionCache(8)
        worker = CacheCounters()
        cache.put(("base",), (1,), 1, ("a",), None, counters=worker)
        assert cache.get(("base",), (1,), 1, counters=worker) is not None
        assert cache.get(("other",), (1,), 1, counters=worker) is None
        # the worker's private recorder and the cache's own (shard-level
        # aggregate) counters both saw the traffic — merge-based
        # accumulation never loses counts to either side
        assert (worker.hits, worker.misses) == (1, 1)
        assert (cache.counters.hits, cache.counters.misses) == (1, 1)
        # traffic without an explicit recorder lands on the aggregate only
        assert cache.get(("base",), (1,), 1) is not None
        assert cache.counters.hits == 2
        assert worker.hits == 1


class TestByteAccounting:
    def test_bytes_grow_with_entries_and_shrink_on_eviction(self):
        cache = ExecutionCache(max_entries=2)
        assert cache.approx_bytes == 0
        cache.put(("a",), (1,), 1, ("x",), None)
        one_entry = cache.approx_bytes
        assert one_entry > 0
        cache.put(("b",), (2,), 1, ("x", "y"), None)
        two_entries = cache.approx_bytes
        assert two_entries > one_entry
        # third insert evicts the oldest: bytes stay bounded, counted
        cache.put(("c",), (3,), 1, ("x",), None)
        assert cache.counters.evictions == 1
        assert cache.approx_bytes < two_entries + one_entry
        assert len(cache) <= 2

    def test_shared_cache_aggregates_shard_bytes(self):
        shared = SharedExecutionCache(max_entries=64, shards=4)
        session = shared.session()
        for index in range(10):
            session.put((f"k{index}",), (index,), 1, ("a",), None)
        assert shared.approx_bytes > 0
        assert len(shared) == 10
        shared.clear()
        assert shared.approx_bytes == 0
        assert len(shared) == 0


class TestSessions:
    def test_sessions_share_entries_and_attribute_cross_hits(self):
        shared = SharedExecutionCache(max_entries=64, shards=2)
        writer, reader = shared.session(), shared.session()
        writer.put(("base",), (1,), 1, ("a",), None)
        assert writer.get(("base",), (1,), 1) is not None
        assert writer.counters.cross_session_hits == 0  # own entry
        assert reader.get(("base",), (1,), 1) is not None
        assert reader.counters.cross_session_hits == 1
        assert reader.counters.hits == 1
        # shard-level (global) counters saw both hits
        assert shared.counters().hits == 2

    def test_consistency_memo_is_shared_too(self):
        shared = SharedExecutionCache(max_entries=64, shards=2)
        writer, reader = shared.session(), shared.session()
        writer.put_consistency(("key",), 3)
        assert reader.get_consistency(("key",)) == 3
        assert reader.counters.consistency_hits == 1
        assert reader.counters.cross_session_hits == 1


class TestInterning:
    def test_structurally_equal_roots_collapse(self):
        shared = SharedExecutionCache()
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
        shared = SharedExecutionCache()
        assert shared.intern_snapshot(cards_page(3)) is not shared.intern_snapshot(
            cards_page(4)
        )
        assert shared.interned_snapshots == 2

    def test_unfrozen_snapshots_pass_through(self):
        shared = SharedExecutionCache()
        mutable = E("div")
        assert shared.intern_snapshot(mutable) is mutable
        assert shared.interned_snapshots == 0

    def test_interning_lru_evicts_and_counts(self):
        shared = SharedExecutionCache(max_snapshots=2)
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
        shared = SharedExecutionCache()
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

    def test_concurrent_shard_traffic_stays_consistent(self):
        shared = SharedExecutionCache(max_entries=256, shards=4)
        sessions = [shared.session() for _ in range(4)]
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
        merged = shared.counters()
        assert merged.hits + merged.misses == 4 * 200
        assert merged.hits == merged.exact_hits + merged.prefix_hits + merged.consistency_hits


class TestDataInterning:
    def test_equal_content_sources_collapse(self):
        shared = SharedExecutionCache()
        first = DataSource({"zips": [10001, 10002]})
        second = DataSource({"zips": [10001, 10002]})
        other = DataSource({"zips": [90210]})
        assert shared.intern_data(first) is first
        assert shared.intern_data(second) is first
        assert shared.intern_data(other) is other

    def test_sessions_with_separately_loaded_data_still_share(self):
        # each session 'loads' its own equal-content data source (the
        # repeated-CLI-invocation shape); execution keys address the
        # source by id, so sharing depends on for_config interning it
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
            session_b = Synthesizer(EMPTY_DATA, serial_validation_config())
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

    def test_serial_private_sessions_never_share(self):
        actions, snapshots = scrape_cards_trace(cards_page(4), 3)
        first = Synthesizer(EMPTY_DATA, serial_validation_config())
        second = Synthesizer(EMPTY_DATA, serial_validation_config())
        for cut in range(1, len(actions) + 1):
            a = first.synthesize(actions[:cut], snapshots[: cut + 1])
            b = second.synthesize(actions[:cut], snapshots[: cut + 1])
            assert a.stats.cache_cross_session_hits == 0
            assert b.stats.cache_cross_session_hits == 0
            assert b.stats.interned_snapshots == 0


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


class TestByteThresholds:
    def test_byte_threshold_evicts_oldest_until_under(self):
        cache = ExecutionCache(max_entries=1024, max_bytes=2000)
        for index in range(32):
            cache.put((f"k{index}",), (index,), 1, ("a",) * 8, None)
        assert cache.counters.evictions > 0
        assert cache.approx_bytes <= 2000
        # the most recent entry always survives
        assert cache.get(("k31",), (31,), 1) is not None
        assert cache.get(("k0",), (0,), 1) is None

    def test_single_oversized_entry_does_not_wedge_the_cache(self):
        cache = ExecutionCache(max_entries=8, max_bytes=250)
        cache.put(("big",), tuple(range(64)), 64, ("a",) * 64, None)
        # larger than the whole budget: kept as the last entry standing
        assert len(cache) >= 1
        assert cache.get(("big",), tuple(range(64)), 64) is not None

    def test_rejects_non_positive_byte_threshold(self):
        import pytest

        with pytest.raises(ValueError):
            ExecutionCache(max_entries=8, max_bytes=0)

    def test_shared_cache_splits_the_threshold_across_shards(self):
        shared = SharedExecutionCache(max_entries=1024, shards=4, max_bytes=8000)
        session = shared.session()
        for index in range(256):
            session.put((f"k{index}",), (index,), 1, ("a",) * 8, None)
        assert shared.counters().evictions > 0
        assert sum(s.cache.approx_bytes for s in shared._shards) <= 8000

    def test_window_length_scales_the_terminal_entry_estimate(self):
        # the ROADMAP eviction-policy note: terminal entries for long
        # windows must weigh in proportion to their examined prefix, so
        # byte thresholds pressure exactly the entries count thresholds
        # undercounted (value keys already removed the snapshot pinning)
        small = ExecutionCache(max_entries=8)
        large = ExecutionCache(max_entries=8)
        small.put(("b",), tuple(range(4)), 4, ("a",), None)
        large.put(("b",), tuple(range(40)), 40, ("a",), None)
        assert large.approx_bytes > small.approx_bytes


class TestEnumMemoAccounting:
    def test_enum_bytes_counted_in_shared_footprint(self):
        shared = SharedExecutionCache()
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
        # cache between runs: only the SQLite store survives, exactly
        # what a restarted worker sees (the service bench does this with
        # real forked processes; the cross-process key stability is
        # pinned by test_engine_keys).  Tiering off: this test pins the
        # warm-start plumbing itself, so every entry must persist — the
        # tier policy's deliberate recompute-misses are covered by
        # test_codec_binary and the store-codec bench.
        monkeypatch.setenv("REPRO_STORE_TIERING", "0")
        from repro.service.backends import reset_backends

        store = str(tmp_path / "store.sqlite")
        def run_once():
            config = replace(DEFAULT_CONFIG, shared_cache=True, cache_backend="file")
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
            assert result.stats.cache_backend == "file"
            assert result.stats.persisted_bytes > 0
            from repro.service.backends import flush_backends

            flush_backends()
            return warm, misses, programs

        import os

        previous = os.environ.get("REPRO_CACHE_DIR")
        os.environ["REPRO_CACHE_DIR"] = str(tmp_path)
        reset_process_cache()
        reset_backends()
        try:
            cold_warm, cold_misses, cold_programs = run_once()
            assert cold_warm == 0
            assert cold_misses > 0
            # "new process": all in-process state dropped, store kept
            reset_process_cache()
            reset_backends()
            warm_warm, warm_misses, warm_programs = run_once()
            assert warm_warm > 0
            assert warm_misses == 0
            assert warm_programs == cold_programs
        finally:
            reset_process_cache()
            reset_backends()
            if previous is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = previous


class _StubBackend:
    """A persistent-looking backend with scriptable loads.

    ``payload`` is returned for *every* exact-entry load (None = empty
    store); ``gate`` runs inside ``load_entry`` — the two-phase tests
    use a barrier there to prove loads from different threads overlap.
    """

    name = "stub"
    persistent = True

    def __init__(self, payload=None, gate=None):
        self.payload = payload
        self.gate = gate
        self.loads = 0
        self.consistency: dict = {}

    def load_entry(self, kind, key):
        self.loads += 1
        if self.gate is not None:
            self.gate()
        return self.payload

    def store_entry(self, kind, key, actions, env, examined, exact_budget_ok):
        pass

    def load_consistency(self, key):
        self.loads += 1
        if self.gate is not None:
            self.gate()
        return self.consistency.get(key)

    def store_consistency(self, key, value):
        self.consistency[key] = value

    def flush(self):
        pass

    def close(self):
        pass

    @property
    def persisted_bytes(self):
        return 0

    @property
    def entries(self):
        return 0


class TestTwoPhaseBackendLookup:
    """ROADMAP follow-on (d): the store probe must not hold the shard lock."""

    def test_cold_lookups_on_one_shard_overlap_their_backend_io(self):
        # Both threads miss in memory and fall through to the backend.
        # The barrier inside load_entry only releases when *both*
        # threads are inside a backend read at the same time — which is
        # impossible if the read still happens under the (single) shard
        # lock, so a regression deadlocks the barrier and fails fast.
        barrier = threading.Barrier(2)
        stub = _StubBackend(payload=(("a",), None, None, False), gate=lambda: barrier.wait(timeout=10))
        shared = SharedExecutionCache(max_entries=64, shards=1, backend=stub)
        sessions = [shared.session(), shared.session()]
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
        merged = shared.counters()
        # each lookup settled exactly once: a warm hit, never a miss
        assert merged.hits == 2
        assert merged.warm_hits == 2
        assert merged.misses == 0

    def test_empty_store_misses_count_exactly_once_per_lookup(self):
        stub = _StubBackend(payload=None)
        shared = SharedExecutionCache(max_entries=256, shards=1, backend=stub)
        sessions = [shared.session() for _ in range(4)]
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
        merged = shared.counters()
        assert (merged.hits, merged.misses) == (0, total)

    def test_racing_promotions_of_one_key_each_count_a_hit(self):
        barrier = threading.Barrier(2)
        stub = _StubBackend(payload=(("a",), None, None, False), gate=lambda: barrier.wait(timeout=10))
        shared = SharedExecutionCache(max_entries=64, shards=1, backend=stub)
        sessions = [shared.session(), shared.session()]
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
        merged = shared.counters()
        # both probed before either promoted; the loser of the promote
        # race is served from memory by the re-check — still one hit
        # per lookup, one entry in the table
        assert (merged.hits, merged.misses) == (2, 0)
        assert 1 <= merged.warm_hits <= 2
        assert len(shared) == 1

    def test_warm_entry_is_promoted_once_then_served_from_memory(self):
        stub = _StubBackend(payload=(("a",), None, None, False))
        shared = SharedExecutionCache(max_entries=64, shards=2, backend=stub)
        session = shared.session()
        assert session.get(("base",), (1,), 1) is not None
        loads_after_first = stub.loads
        assert session.get(("base",), (1,), 1) is not None
        assert stub.loads == loads_after_first  # no second store read
        assert session.counters.warm_hits == 1
        assert session.counters.hits == 2

    def test_consistency_memo_rides_the_same_two_phase_path(self):
        stub = _StubBackend()
        stub.consistency = {}
        shared = SharedExecutionCache(max_entries=64, shards=1, backend=stub)
        writer, reader = shared.session(), shared.session()
        writer.put_consistency(("key",), 5)
        # key is in memory: served without a store read
        loads_before = stub.loads
        assert reader.get_consistency(("key",)) == 5
        assert stub.loads == loads_before
        # a cold key probes the store outside the lock and misses
        assert reader.get_consistency(("cold",)) is None
        assert reader.counters.misses == 1
