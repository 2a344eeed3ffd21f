"""Edge cases of ``Synthesizer._prune_store`` (the incremental-store cap)."""

import importlib

from repro.dom import raw_path
from repro.lang import EMPTY_DATA, scrape_text
from repro.semantics import actions_consistent
from repro.synth import Synthesizer
from repro.synth.rewrite import initial_tuple

from helpers import cards_page, node_at, scrape_cards_trace

synthesizer_module = importlib.import_module("repro.synth.synthesizer")


def singleton_prefix_store(actions, lengths):
    """A store of all-singleton tuples over the given prefix lengths.

    ``initial_tuple`` over a ``k``-prefix yields a ``k``-statement tuple;
    distinct lengths give distinct dedup keys, and the longest one plays
    the role of the all-singleton tuple of the full trace.
    """
    store = {}
    for length in lengths:
        tuple_ = initial_tuple(actions[:length])
        store[tuple_.key()] = tuple_
    return store


def capped_synthesizer(monkeypatch, cap):
    monkeypatch.setattr(synthesizer_module, "MAX_STORE_TUPLES", cap)
    return Synthesizer(EMPTY_DATA)


class TestPruneStore:
    def test_store_exactly_at_cap_is_untouched(self, monkeypatch):
        dom = cards_page(5)
        actions, _ = scrape_cards_trace(dom, 4)
        synth = capped_synthesizer(monkeypatch, 3)
        store = singleton_prefix_store(actions, [2, 4, 8])
        synth._store = dict(store)
        synth._prune_store()
        assert synth._store == store

    def test_one_over_cap_drops_the_second_largest(self, monkeypatch):
        dom = cards_page(5)
        actions, _ = scrape_cards_trace(dom, 4)
        synth = capped_synthesizer(monkeypatch, 3)
        store = singleton_prefix_store(actions, [2, 4, 6, 8])
        synth._store = dict(store)
        synth._prune_store()
        lengths = sorted(t.length for t in synth._store.values())
        # cap-1 smallest plus the maximal (all-singleton) tuple survive
        assert len(synth._store) == 3
        assert lengths == [2, 4, 8]

    def test_all_singleton_tuple_always_survives(self, monkeypatch):
        dom = cards_page(5)
        actions, _ = scrape_cards_trace(dom, 4)
        synth = capped_synthesizer(monkeypatch, 2)
        store = singleton_prefix_store(actions, [1, 2, 3, 4, 5, 6, 7, 8])
        full = initial_tuple(actions)
        synth._store = dict(store)
        synth._prune_store()
        assert len(synth._store) == 2
        survivors = sorted(t.length for t in synth._store.values())
        assert survivors == [1, len(actions)]
        assert full.key() in synth._store


class TestPruneStoreEndToEnd:
    def test_tiny_cap_still_predicts_incrementally(self, monkeypatch):
        # P0's extension seeds spans no rewrite can express; with a tiny
        # store the session must keep generalizing across calls
        dom = cards_page(6)
        actions, snapshots = scrape_cards_trace(dom, 5)
        synth = capped_synthesizer(monkeypatch, 2)
        result = None
        for cut in range(1, len(actions) + 1):
            result = synth.synthesize(actions[:cut], snapshots[: cut + 1])
            assert len(synth._store) <= 2
        assert result.best_prediction is not None
        expected = scrape_text(raw_path(node_at(dom, "//div[@class='card'][6]/h3[1]")))
        assert actions_consistent(result.best_prediction, expected, dom)
