"""Unit tests for the memoizing execution engine (repro.engine)."""

import pytest

from repro.dom import E, page
from repro.engine import CacheCounters, ExecutionCache, ExecutionEngine
from repro.lang import EMPTY_DATA, ForEachSelector, fresh_var
from repro.lang.ast import (
    SCRAPE_TEXT,
    SEL_VAR,
    ActionStmt,
    DescendantsOf,
    Selector,
    canonical_program,
)
from repro.dom.xpath import Predicate, parse_selector
from repro.semantics import evaluator
from repro.semantics.trace import DOMTrace
from repro.synth.config import DEFAULT_CONFIG, no_execution_cache_config
from repro.synth.synthesizer import Synthesizer

from helpers import cards_page, scrape_cards_trace


def card_loop(count_var=None):
    """``foreach r in Dscts(/, div[@class='card']) do ScrapeText(r/h3[1])``."""
    var = count_var or fresh_var(SEL_VAR)
    body = ActionStmt(
        SCRAPE_TEXT, Selector(var, parse_selector("/h3[1]").steps)
    )
    return ForEachSelector(
        var, DescendantsOf(Selector(), Predicate("div", "class", "card")), (body,)
    )


def singleton_scrape(selector_text):
    return ActionStmt(SCRAPE_TEXT, Selector(None, parse_selector(selector_text).steps))


class TestExecuteMemo:
    def test_exact_hit_replays_result(self):
        dom = cards_page(3)
        snapshots = [dom] * 4
        engine = ExecutionEngine(EMPTY_DATA)
        window = DOMTrace(snapshots, 0, 4)
        loop = card_loop()
        first = engine.execute([loop], window, max_actions=len(window))
        second = engine.execute([loop], window, max_actions=len(window))
        assert engine.counters().exact_hits == 1
        assert [str(a) for a in second.actions] == [str(a) for a in first.actions]
        assert len(second.remaining) == len(first.remaining)

    def test_alpha_equivalent_statements_share_entries(self):
        dom = cards_page(3)
        snapshots = [dom] * 4
        engine = ExecutionEngine(EMPTY_DATA)
        window = DOMTrace(snapshots, 0, 4)
        engine.execute([card_loop()], window, max_actions=len(window))
        second = card_loop()
        served = engine.execute([second], window, max_actions=len(window))
        counters = engine.counters()
        assert counters.hits == 1  # different Var objects, same canonical key
        # the served env binds the *caller's* loop variable
        fresh = evaluator.execute([second], window, EMPTY_DATA)
        assert served.env.fingerprint() == fresh.env.fingerprint()

    def test_sibling_loops_get_their_own_binders_back(self):
        # canonical keys number binders by depth, so two sibling loops
        # share one index; served envs must still map each loop's slot
        # back to that loop's own variable
        dom = cards_page(3)
        window = DOMTrace([dom] * 7, 0, 7)
        engine = ExecutionEngine(EMPTY_DATA)
        engine.execute([card_loop(), card_loop()], window, max_actions=6)
        program = [card_loop(), card_loop()]
        served = engine.execute(program, window, max_actions=6)
        assert engine.counters().hits == 1
        fresh = evaluator.execute(program, window, EMPTY_DATA, max_actions=6)
        assert len(fresh.actions) == 6
        assert served.env.fingerprint() == fresh.env.fingerprint()

    def test_stored_env_with_an_unslotted_binder_is_a_miss(self):
        # an entry whose env binds a loop variable by its own name (a row
        # written without slots) cannot be the caller's result
        dom = cards_page(3)
        window = DOMTrace([dom] * 4, 0, 4)
        engine = ExecutionEngine(EMPTY_DATA)
        foreign = card_loop()
        engine.execute([foreign], window, max_actions=4)
        stale = evaluator.execute([foreign], window, EMPTY_DATA)
        base = (engine._statements_key((foreign,)), (), 0)
        engine.cache.put(
            base, window.value_key(), 4, tuple(stale.actions), stale.env, CacheCounters()
        )
        caller = card_loop()
        served = engine.execute([caller], window, max_actions=4)
        fresh = evaluator.execute([caller], window, EMPTY_DATA)
        assert served.env.fingerprint() == fresh.env.fingerprint()

    def test_terminal_hit_on_extended_window(self):
        # the loop scrapes 3 cards then terminates with snapshots left —
        # its outcome is identical on any extension of the examined prefix
        dom = cards_page(3)
        snapshots = [dom] * 6
        engine = ExecutionEngine(EMPTY_DATA)
        short = DOMTrace(snapshots, 0, 5)
        long = DOMTrace(snapshots, 0, 6)
        first = engine.execute([card_loop()], short, max_actions=len(short))
        assert len(first.actions) == 3  # terminated early: terminal entry
        second = engine.execute([card_loop()], long, max_actions=len(long))
        assert engine.counters().prefix_hits == 1
        assert len(second.actions) == 3
        assert len(second.remaining) == 3  # remaining rebuilt on the long window

    def test_terminal_hit_when_budget_exactly_equals_action_count(self):
        # regression: the terminal table used to demand budget > count,
        # so a self-terminated execution missed when the budget equalled
        # its action count even though the replay is identical
        dom = cards_page(3)
        snapshots = [dom] * 6
        loop = card_loop()
        reference = ExecutionEngine(EMPTY_DATA, use_cache=False).execute(
            [loop], DOMTrace(snapshots, 0, 6), max_actions=3
        )
        engine = ExecutionEngine(EMPTY_DATA)
        first = engine.execute([loop], DOMTrace(snapshots, 0, 5), max_actions=5)
        assert len(first.actions) == 3  # terminated early: terminal entry
        replay = engine.execute([loop], DOMTrace(snapshots, 0, 6), max_actions=3)
        assert engine.counters().prefix_hits == 1
        # the replay pins the uncached outcome: actions, env, and the
        # consumed-window shape all match a budget-capped fresh run
        assert [str(a) for a in replay.actions] == [str(a) for a in reference.actions]
        assert replay.env.fingerprint() == reference.env.fingerprint()
        assert len(replay.remaining) == len(reference.remaining) == 3

    def test_exact_budget_hit_refused_when_env_moved_after_last_action(self):
        # a statement after the emitting loop can bind its loop variable
        # and only then go stuck — the recorded env then differs from a
        # genuinely budget-capped run's, so the exact-budget replay must
        # miss rather than serve the wrong environment
        dom = cards_page(3)
        snapshots = [dom] * 6
        var = fresh_var(SEL_VAR)
        stuck_loop = ForEachSelector(
            var,
            DescendantsOf(Selector(), Predicate("div", "class", "sidebar")),
            # the sidebar exists, so the loop binds its variable — but
            # the body selector is invalid there, so no action is emitted
            (ActionStmt(SCRAPE_TEXT, Selector(var, parse_selector("/table[1]").steps)),),
        )
        program = [card_loop(), stuck_loop]
        reference = ExecutionEngine(EMPTY_DATA, use_cache=False).execute(
            program, DOMTrace(snapshots, 0, 6), max_actions=3
        )
        engine = ExecutionEngine(EMPTY_DATA)
        seeded = engine.execute(program, DOMTrace(snapshots, 0, 5), max_actions=5)
        assert len(seeded.actions) == 3  # stuck after binding: terminal entry
        replay = engine.execute(program, DOMTrace(snapshots, 0, 6), max_actions=3)
        assert engine.counters().prefix_hits == 0  # unsound hit refused
        assert [str(a) for a in replay.actions] == [str(a) for a in reference.actions]
        assert replay.env.fingerprint() == reference.env.fingerprint()

    def test_budget_is_part_of_the_key(self):
        dom = cards_page(3)
        snapshots = [dom] * 4
        engine = ExecutionEngine(EMPTY_DATA)
        window = DOMTrace(snapshots, 0, 4)
        full = engine.execute([card_loop()], window, max_actions=3)
        capped = engine.execute([card_loop()], window, max_actions=2)
        assert len(full.actions) == 3
        assert len(capped.actions) == 2  # a budget-capped rerun must not hit

    def test_different_snapshots_miss(self):
        engine = ExecutionEngine(EMPTY_DATA)
        loop = card_loop()
        for count in (2, 3):
            dom = cards_page(count)
            window = DOMTrace([dom] * 4, 0, 4)
            engine.execute([loop], window, max_actions=len(window))
        assert engine.counters().hits == 0

    def test_disabled_engine_is_a_passthrough(self):
        dom = cards_page(3)
        window = DOMTrace([dom] * 4, 0, 4)
        engine = ExecutionEngine(EMPTY_DATA, use_cache=False)
        result = engine.execute([card_loop()], window, max_actions=len(window))
        assert len(result.actions) == 3
        assert engine.counters().hits == engine.counters().misses == 0


class TestCacheBounds:
    def test_lru_eviction(self):
        cache = ExecutionCache(max_entries=2)
        counters = CacheCounters()
        for index in range(3):
            # one action over a one-snapshot window: exact-table only
            cache.put(("base", index), (index,), 1, ("a",), None, counters)
        assert counters.evictions == 1
        assert cache.get(("base", 0), (0,), 1, counters) is None  # oldest evicted
        assert cache.get(("base", 2), (2,), 1, counters) is not None

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            ExecutionCache(max_entries=0)


class TestConsistencyMemo:
    def test_repeat_check_hits(self):
        dom = cards_page(3)
        snapshots = [dom] * 4
        engine = ExecutionEngine(EMPTY_DATA)
        window = DOMTrace(snapshots, 0, 4)
        produced = engine.execute([card_loop()], window, max_actions=3).actions
        reference = list(produced)
        first = engine.consistent_prefix_length(produced, reference, window)
        second = engine.consistent_prefix_length(produced, reference, window)
        assert first == second == 3
        assert engine.counters().hits >= 1


class TestSynthesizerEquivalence:
    def test_cached_and_uncached_sessions_agree(self):
        dom = cards_page(6)
        actions, snapshots = scrape_cards_trace(dom, 4)
        cached = Synthesizer(EMPTY_DATA, DEFAULT_CONFIG)
        uncached = Synthesizer(EMPTY_DATA, no_execution_cache_config())
        for cut in range(1, len(actions) + 1):
            r_cached = cached.synthesize(actions[:cut], snapshots[: cut + 1])
            r_uncached = uncached.synthesize(actions[:cut], snapshots[: cut + 1])
            assert [canonical_program(p) for p in r_cached.programs] == [
                canonical_program(p) for p in r_uncached.programs
            ]
            assert [str(a) for a in r_cached.predictions] == [
                str(a) for a in r_uncached.predictions
            ]

    def test_stats_report_cache_activity(self):
        dom = cards_page(6)
        actions, snapshots = scrape_cards_trace(dom, 4)
        synthesizer = Synthesizer(EMPTY_DATA, DEFAULT_CONFIG)
        hits = 0
        for cut in range(1, len(actions) + 1):
            result = synthesizer.synthesize(actions[:cut], snapshots[: cut + 1])
            hits += result.stats.cache_hits
            assert result.stats.cache_hits + result.stats.cache_misses >= 0
        assert hits > 0, "incremental session should reuse executions"
        assert 0.0 <= result.stats.cache_hit_rate <= 1.0

    def test_hit_breakdown_reconciles_with_the_aggregate(self):
        # exact + prefix + consistency == hits, both on the engine's own
        # counters and on every per-call stats delta the user sees
        dom = cards_page(6)
        actions, snapshots = scrape_cards_trace(dom, 4)
        synthesizer = Synthesizer(EMPTY_DATA, DEFAULT_CONFIG)
        for cut in range(1, len(actions) + 1):
            stats = synthesizer.synthesize(actions[:cut], snapshots[: cut + 1]).stats
            assert (
                stats.cache_exact_hits
                + stats.cache_prefix_hits
                + stats.cache_consistency_hits
                == stats.cache_hits
            )
        counters = synthesizer.engine.counters()
        assert counters.hits > 0
        assert (
            counters.exact_hits + counters.prefix_hits + counters.consistency_hits
            == counters.hits
        )

    def test_consistency_hits_surface_in_engine_counters(self):
        dom = cards_page(3)
        snapshots = [dom] * 4
        engine = ExecutionEngine(EMPTY_DATA)
        window = DOMTrace(snapshots, 0, 4)
        produced = engine.execute([card_loop()], window, max_actions=3).actions
        reference = list(produced)
        engine.consistent_prefix_length(produced, reference, window)
        engine.consistent_prefix_length(produced, reference, window)
        counters = engine.counters()
        assert counters.consistency_hits == 1
        assert (
            counters.exact_hits + counters.prefix_hits + counters.consistency_hits
            == counters.hits
        )

    def test_uncached_config_reports_no_activity(self):
        dom = cards_page(6)
        actions, snapshots = scrape_cards_trace(dom, 4)
        synthesizer = Synthesizer(EMPTY_DATA, no_execution_cache_config())
        result = synthesizer.synthesize(actions, snapshots)
        assert result.stats.cache_hits == 0
        assert result.stats.cache_misses == 0
