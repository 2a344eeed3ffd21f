"""The execution-cache backends (repro.service.backends).

Covers the payload rows (exact structural round-trips for actions and
environments), the cache server's SQLite store (cross-connection
visibility, byte-accounted eviction, corruption tolerance), backend
resolution (``memory`` and ``remote://host:port``, nothing else), and
the cache-level warm-start path the backends feed — including rows
written in the literal format earlier builds stored, and the consistency
rows (kind 2) they wrote, which are never read and evict first.
"""

import sqlite3
from contextlib import closing
from dataclasses import replace

import pytest

from repro.dom import E
from repro.dom.xpath import parse_selector
from repro.engine.cache import CacheCounters, ExecutionCache, reset_process_cache
from repro.engine.keys import stable_digest
from repro.engine.rows import (
    EXACT,
    TERMINAL,
    action_from_payload,
    action_to_payload,
    decode_entry,
    entry_from_payload,
    entry_to_payload,
    env_from_payload,
    env_to_payload,
)
from repro.lang import EMPTY_DATA, X, click, enter_data, scrape_text, send_keys
from repro.lang.ast import SEL_VAR, VAL_VAR, Var, ValuePath
from repro.semantics.env import Env
from repro.fleet.remote import RemoteBackend
from repro.service.backends import (
    FileBackend,
    flush_backends,
    resolve_backend,
    reset_backends,
)
from repro.synth.config import DEFAULT_CONFIG
from repro.synth.synthesizer import Synthesizer

from helpers import (
    LEGACY_CONSISTENCY_KEY,
    LEGACY_CONSISTENCY_ROW,
    _session_outputs,
    assert_serves_literal_rows,
    cache_tier,
    cards_page,
    literal_rows,
    scrape_cards_trace,
)


class TestCodec:
    def test_actions_round_trip_exactly(self):
        actions = [
            click(parse_selector("/html[1]/body[1]//div[@class='card'][2]")),
            scrape_text(parse_selector("//div[@class~='match'][1]/h3[1]")),
            send_keys(parse_selector("//input[@name='q'][1]"), "laptops"),
            enter_data(parse_selector("//input[1]"), X.extend("zips").extend(3)),
        ]
        for action in actions:
            restored = action_from_payload(action_to_payload(action))
            assert restored == action
            # the token-predicate subclass must survive (same fields,
            # different matching semantics)
            if action.selector is not None:
                for original, round_tripped in zip(
                    action.selector.steps, restored.selector.steps
                ):
                    assert type(original.pred) is type(round_tripped.pred)

    def test_env_round_trips_exactly(self):
        env = (
            Env()
            .bind(Var(SEL_VAR, 3), parse_selector("/html[1]/body[1]/div[2]"))
            .bind(Var(VAL_VAR, 9), ValuePath(None, ("zips", 2)))
        )
        restored = env_from_payload(env_to_payload(env))
        assert restored.fingerprint() == env.fingerprint()
        assert env_to_payload(None) is None
        assert env_from_payload(None) is None

    def test_entry_round_trip(self):
        actions = (scrape_text(parse_selector("//h3[1]")),)
        env = Env()
        payload = entry_to_payload(actions, env, (11, 22), True)
        r_actions, r_env, examined, ok = entry_from_payload(payload)
        assert r_actions == actions
        assert r_env.fingerprint() == env.fingerprint()
        assert examined == (11, 22)
        assert ok is True
        # exact-table entries carry no examined prefix
        _, _, examined, ok = entry_from_payload(entry_to_payload(actions, env, None, False))
        assert examined is None and ok is False


def _row(actions, examined=None, exact_budget_ok=False) -> dict:
    """An execution entry's payload row (empty environment)."""
    return entry_to_payload(actions, Env(), examined, exact_budget_ok)


class TestFileBackend:
    def test_entries_survive_a_new_connection(self, tmp_path):
        path = tmp_path / "store.sqlite"
        actions = (scrape_text(parse_selector("//h3[1]")),)
        writer = FileBackend(path, flush_every=1)
        key = stable_digest(("exact", "k"))
        terminal = stable_digest(("terminal", "t"))
        writer.store_payload(EXACT, key, _row(actions))
        writer.store_payload(TERMINAL, terminal, _row(actions, (7, 8)))
        writer.close()
        reader = FileBackend(path)  # a different process, morally
        restored, restored_terminal, absent = reader.load_payloads(
            [(EXACT, key), (TERMINAL, terminal), (EXACT, stable_digest(("exact", "other")))]
        )
        assert decode_entry(restored)[0] == actions
        assert decode_entry(restored_terminal)[2] == (7, 8)
        assert absent is None
        assert reader.persisted_bytes > 0
        assert reader.entries == 2
        reader.close()

    def test_buffered_writes_flush_by_count_and_on_demand(self, tmp_path):
        backend = FileBackend(tmp_path / "store.sqlite", flush_every=4)
        actions = (scrape_text(parse_selector("//h3[1]")),)
        key = stable_digest(("exact", 1))
        backend.store_payload(EXACT, key, _row(actions))
        with backend._lock:
            assert backend._pending  # still buffered
        backend.flush()
        with backend._lock:
            assert not backend._pending
        assert backend.load_payload(EXACT, key) == _row(actions)
        backend.close()

    def test_byte_accounted_eviction_drops_oldest(self, tmp_path):
        backend = FileBackend(tmp_path / "store.sqlite", max_bytes=4000, flush_every=1)
        actions = tuple(
            scrape_text(parse_selector(f"//div[@class='card'][{i}]/h3[1]"))
            for i in range(1, 6)
        )
        keys = [stable_digest(("exact", index)) for index in range(40)]
        for key in keys:
            backend.store_payload(EXACT, key, _row(actions))
        assert backend.evictions > 0
        assert backend.persisted_bytes <= 4000
        assert backend.load_payload(EXACT, keys[0]) is None  # oldest gone
        assert backend.load_payload(EXACT, keys[-1]) is not None  # newest kept
        backend.close()

    def test_uncodable_values_are_skipped_not_fatal(self, tmp_path):
        # the cache turns entries into rows: one it cannot convert is
        # never written, never raised, and still served from memory
        backend = FileBackend(tmp_path / "store.sqlite", flush_every=1)
        cache = ExecutionCache(max_entries=16, backend=backend)
        counters = CacheCounters()
        cache.put(("base",), (1, 2), 2, ("not an action",), None, counters, cost=100)
        assert (backend.stores, backend.entries) == (0, 0)
        assert cache.get(("base",), (1, 2), 2, counters) == (("not an action",), None)
        assert (counters.exact_hits, counters.misses) == (1, 0)
        # a payload the store codec cannot encode is dropped and counted
        backend.store_payload(EXACT, b"key", {"a": object()})
        assert backend.encode_errors == 1
        assert backend.load_payload(EXACT, b"key") is None
        backend.close()

    def test_corrupt_rows_degrade_to_misses(self, tmp_path):
        path = tmp_path / "store.sqlite"
        backend = FileBackend(path, flush_every=1)
        actions = (scrape_text(parse_selector("//h3[1]")),)
        key = stable_digest(("exact", "x"))
        backend.store_payload(EXACT, key, _row(actions))
        with backend._lock:
            backend._conn.execute(
                "UPDATE entries SET payload = ?", (b"{not json",)
            )
        assert backend.load_payload(EXACT, key) is None
        backend.close()

    def test_batch_reads_mix_the_buffer_and_the_store_in_order(self, tmp_path):
        backend = FileBackend(tmp_path / "store.sqlite", flush_every=1000)
        stored, buffered, absent = (stable_digest(("exact", name)) for name in "sba")
        backend.store_payload(EXACT, stored, {"v": 5})
        backend.flush()
        backend.store_payload(EXACT, buffered, {"v": 6})
        rows = [(EXACT, key) for key in (buffered, absent, stored, buffered)]
        assert backend.load_payloads(rows) == [{"v": 6}, None, {"v": 5}, {"v": 6}]
        assert (backend.loads, backend.load_hits) == (4, 3)
        backend.close()

    def test_terminal_payload_with_examined(self, tmp_path):
        backend = FileBackend(tmp_path / "store.sqlite", flush_every=1)
        actions = (scrape_text(parse_selector("//h3[1]")),)
        key = stable_digest(("terminal", "t"))
        backend.store_payload(TERMINAL, key, _row(actions, (7, 8), True))
        _, _, examined, ok = decode_entry(backend.load_payload(TERMINAL, key))
        assert examined == (7, 8) and ok is True
        backend.close()


class TestResolution:
    def test_memory_is_the_default_and_a_no_op(self):
        # memory is no backend at all: the cache keeps its tables only
        assert DEFAULT_CONFIG.cache_backend == "memory"
        assert resolve_backend("memory") is None

    def test_remote_backends_are_shared_per_url(self):
        # resolving connects to nothing: no cache server need listen
        try:
            first = resolve_backend("remote://127.0.0.1:9")
            second = resolve_backend("remote://127.0.0.1:9")
            other = resolve_backend("remote://127.0.0.1:10")
            assert isinstance(first, RemoteBackend)
            assert first is second
            assert first is not other
        finally:
            reset_backends()

    def test_unknown_backend_rejected(self):
        # the cache server's SQLite store is no session backend
        for name in ("redis", "file", "", "sqlite://store"):
            with pytest.raises(ValueError, match="'memory' or 'remote://host:port'"):
                resolve_backend(name)


class TestCacheWarmStart:
    """The ExecutionCache ↔ backend integration (unit level)."""

    def _entry_values(self):
        actions = (scrape_text(parse_selector("//h3[1]")),)
        return actions, Env()

    def test_write_through_and_warm_start_counts(self, tmp_path):
        backend = FileBackend(tmp_path / "store.sqlite", flush_every=1)
        actions, env = self._entry_values()
        writer = ExecutionCache(max_entries=16, backend=backend)
        writer.put(("base",), (101, 102), 2, actions, env, CacheCounters())
        # a cold cache over the same store: in-memory miss, backend hit
        reader = ExecutionCache(max_entries=16, backend=backend)
        counters = CacheCounters()
        hit = reader.get(("base",), (101, 102), 2, counters)
        assert hit is not None
        assert hit[0] == actions
        assert counters.hits == counters.exact_hits == counters.warm_hits == 1
        assert counters.misses == 0
        assert counters.cross_session_hits == 0  # restored entries own no session
        # promoted: the second lookup is served from memory, not disk
        loads_before = backend.loads
        assert reader.get(("base",), (101, 102), 2, counters) is not None
        assert backend.loads == loads_before
        assert counters.warm_hits == 1
        backend.close()

    def test_terminal_entries_warm_start_onto_extended_windows(self, tmp_path):
        backend = FileBackend(tmp_path / "store.sqlite", flush_every=1)
        actions, env = self._entry_values()
        writer = ExecutionCache(max_entries=16, backend=backend)
        # one action, three snapshots, budget 3: terminal (examined 2)
        writer.put(
            ("base",), (101, 102, 103), 3, actions, env, CacheCounters(),
            exact_budget_ok=True,
        )
        reader = ExecutionCache(max_entries=16, backend=backend)
        counters = CacheCounters()
        # an extended window sharing the examined prefix hits via disk
        hit = reader.get(("base",), (101, 102, 104, 105), 4, counters)
        assert hit is not None
        assert counters.prefix_hits == 1
        assert counters.warm_hits == 1
        # a window with a different examined prefix must miss
        fresh = ExecutionCache(max_entries=16, backend=backend)
        assert fresh.get(("base",), (101, 999, 104), 3, CacheCounters()) is None
        backend.close()

    def test_persisted_exact_entry_found_despite_inapplicable_terminal(self, tmp_path):
        # regression: an in-memory terminal entry that fails the budget
        # check used to short-circuit the backend probe entirely,
        # recomputing executions the store already held
        backend = FileBackend(tmp_path / "store.sqlite", flush_every=1)
        actions, env = self._entry_values()
        writer = ExecutionCache(max_entries=16, backend=backend)
        # a budget-capped exact outcome (1 action over budget 1): the
        # run did not terminate on its own terms, so no terminal entry
        writer.put(("base",), (101, 102), 1, actions, env, CacheCounters())
        reader = ExecutionCache(max_entries=16, backend=backend)
        counters = CacheCounters()
        # seed an in-memory terminal entry that does NOT apply to the
        # budget-1 lookup (budget == len(actions), exact_budget_ok False)
        reader.put(
            ("base",), (101, 102, 103), 3, actions, env, counters,
            exact_budget_ok=False,
        )
        hit = reader.get(("base",), (101, 102), 1, counters)
        assert hit is not None
        assert counters.warm_hits == 1
        assert counters.exact_hits == 1
        backend.close()

    def test_memory_backend_never_touches_digests(self):
        cache = ExecutionCache(max_entries=4, backend=resolve_backend("memory"))
        assert cache.backend is None
        assert cache.backend_name == "memory"
        counters = CacheCounters()
        cache.put(("base",), (1,), 1, ("a",), None, counters)
        assert cache.get(("base",), (1,), 1, counters) is not None
        assert counters.warm_hits == 0
        assert not cache._base_digests

    def test_rows_earlier_builds_wrote_serve_warm_hits(self, tmp_path):
        path = tmp_path / "store.sqlite"
        writer = FileBackend(path)
        for kind, digest, payload in literal_rows() + [LEGACY_CONSISTENCY_ROW]:
            writer.store_payload(kind, digest, payload)
        writer.close()
        reader = FileBackend(path)
        assert_serves_literal_rows(reader)
        # the consistency memo's row is never read: its check misses
        counters = CacheCounters()
        cache = ExecutionCache(backend=reader)
        assert cache.get_consistency(LEGACY_CONSISTENCY_KEY, counters) is None
        assert (counters.misses, counters.warm_hits) == (1, 0)
        reader.close()


def _store_rows(path) -> dict:
    """``{kind: set of keys}`` over every row of a store file."""
    rows: dict = {}
    with closing(sqlite3.connect(path)) as connection:
        for kind, key in connection.execute("SELECT kind, key FROM entries"):
            rows.setdefault(kind, set()).add(bytes(key))
    return rows


def _store_bytes(path, kind: int) -> int:
    with closing(sqlite3.connect(path)) as connection:
        (total,) = connection.execute(
            "SELECT COALESCE(SUM(nbytes), 0) FROM entries WHERE kind = ?", (kind,)
        ).fetchone()
    return total


class TestLegacyConsistencyRows:
    """Stores that earlier builds filled still hold their consistency
    rows (kind 2): the cache never reads them, and eviction drops them
    before any terminal row."""

    def test_never_read_and_evicted_first(self, tmp_path, monkeypatch):
        path = str(tmp_path / "execution-cache.sqlite")
        # every card scraped: the session writes exact and terminal rows
        dom = cards_page(8)
        actions, snapshots = scrape_cards_trace(dom, 8)
        checks = set()
        put_consistency = ExecutionCache.put_consistency

        def recording_put(cache, key, *args, **kwargs):
            checks.add(key)
            put_consistency(cache, key, *args, **kwargs)

        requested = []
        load_payloads = RemoteBackend.load_payloads

        def recording_load(backend, rows):
            requested.extend(rows)
            return load_payloads(backend, rows)

        monkeypatch.setattr(ExecutionCache, "put_consistency", recording_put)
        monkeypatch.setattr(RemoteBackend, "load_payloads", recording_load)

        def session():
            """One incremental session in a "new worker process", over
            a cache server (re)started on the store."""
            reset_backends()
            reset_process_cache()
            try:
                with cache_tier(path) as name:
                    config = replace(DEFAULT_CONFIG, cache_backend=name)
                    synthesizer = Synthesizer(EMPTY_DATA, config)
                    outputs = _session_outputs(synthesizer, actions, snapshots)
                    flush_backends()
                return outputs
            finally:
                reset_backends()
                reset_process_cache()

        cold = session()
        assert checks
        # the rows an earlier build wrote for these very checks, each
        # with a wrong value: reading any of them would change programs
        legacy = {stable_digest(("consistency", key)) for key in checks}
        writer = FileBackend(path)
        for digest in legacy:
            writer.store_payload(2, digest, {"v": 0})
        writer.close()
        requested.clear()
        assert session() == cold
        assert requested
        assert {kind for kind, _ in requested} <= {EXACT, TERMINAL}
        assert not legacy & {digest for _, digest in requested}

        # a threshold whose 90% target sits just above the terminal
        # rows: every non-terminal row must go, and no terminal one
        before = _store_rows(path)
        assert before[2] == legacy
        assert before[EXACT] and before[TERMINAL]
        terminal_bytes = _store_bytes(path, TERMINAL)
        evictor = FileBackend(path, max_bytes=(terminal_bytes + 2) * 10 // 9 + 1, flush_every=1)
        evictor.store_payload(EXACT, stable_digest(("exact", "trigger")), _row(()))
        assert evictor.evictions >= len(legacy)
        evictor.close()
        after = _store_rows(path)
        assert set(after) == {TERMINAL}
        assert after[TERMINAL] == before[TERMINAL]
        assert session() == cold
