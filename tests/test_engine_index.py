"""Unit tests for the per-snapshot DOM indexes (repro.engine.index)."""

import threading

import pytest

from repro.dom import E, page, parse_selector, raw_path, resolve
from repro.dom.xpath import (
    CHILD,
    DESC,
    EPSILON,
    Predicate,
    Step,
    TokenPredicate,
    index_among_children,
    index_among_descendants,
    predicate_family,
    valid,
)
from repro.engine.index import (
    UNSUPPORTED,
    SnapshotIndex,
    index_for,
    set_dom_indexes,
    track_builds,
)
from repro.synth.alternatives import node_predicates

from helpers import cards_page, node_at


@pytest.fixture
def dom():
    return cards_page(4)


class TestIndexLifecycle:
    def test_frozen_snapshot_gets_an_index(self, dom):
        index = index_for(dom)
        assert index is not None
        assert index_for(dom) is index  # built once, cached on the root

    def test_unfrozen_snapshot_is_never_indexed(self):
        assert index_for(E("div")) is None

    def test_disable_flag_bypasses_indexes(self, dom):
        previous = set_dom_indexes(False)
        try:
            assert index_for(dom) is None
        finally:
            set_dom_indexes(previous)


class TestNth:
    def test_matches_linear_scan_for_tag_predicates(self, dom):
        index = index_for(dom)
        pred = Predicate("div")
        linear = [n for n in dom.iter_subtree() if pred.matches(n)]
        for position, expected in enumerate(linear, start=1):
            assert index.nth(pred, position, None) is expected
        assert index.nth(pred, len(linear) + 1, None) is None

    def test_anchored_lookup_excludes_other_subtrees(self, dom):
        index = index_for(dom)
        card2 = node_at(dom, "//div[@class='card'][2]")
        h3 = index.nth(Predicate("h3"), 1, card2)
        assert h3 is card2.children[0]
        assert index.nth(Predicate("h3"), 2, card2) is None

    def test_attribute_and_token_buckets(self, dom):
        index = index_for(dom)
        attr = Predicate("div", "class", "phone")
        assert index.nth(attr, 1, None).text == "555-0101"
        token = TokenPredicate("div", "class", "card")
        assert index.nth(token, 3, None) is node_at(dom, "//div[@class='card'][3]")

    def test_unindexed_attribute_is_unsupported(self, dom):
        index = index_for(dom)
        assert index.nth(Predicate("div", "data-x", "1"), 1, None) is UNSUPPORTED

    def test_falsy_attribute_values_fall_back_to_linear(self):
        # empty values are not bucketed (and value=None matches *absent*
        # attributes), so such predicates must take the linear path
        snapshot = page(E("div", {"class": ""}, text="bare"))
        index = index_for(snapshot)
        assert index.nth(Predicate("div", "class", ""), 1, None) is UNSUPPORTED
        assert index.nth(Predicate("div", "class", None), 1, None) is UNSUPPORTED
        node = resolve(parse_selector("//div[@class=''][1]"), snapshot)
        assert node is not None and node.text == "bare"

    def test_absent_bucket_means_no_match(self, dom):
        # 'table' is indexed (tag family) but absent: a definitive miss
        assert index_for(dom).nth(Predicate("table"), 1, None) is None


class TestRank:
    def test_agrees_with_linear_index_among_descendants(self, dom):
        set_dom_indexes(False)
        try:
            expectations = []
            for pred in (Predicate("div"), Predicate("div", "class", "card")):
                for node in dom.iter_subtree():
                    if pred.matches(node):
                        expectations.append(
                            (pred, node, index_among_descendants(None, node, pred, dom))
                        )
        finally:
            set_dom_indexes(True)
        index = index_for(dom)
        for pred, node, expected in expectations:
            assert index.rank(pred, node, None) == expected

    def test_rank_outside_anchor_subtree_is_none(self, dom):
        index = index_for(dom)
        card1 = node_at(dom, "//div[@class='card'][1]")
        h3_of_card2 = node_at(dom, "//div[@class='card'][2]/h3[1]")
        assert index.rank(Predicate("h3"), h3_of_card2, card1) is None


class TestResolutionEquivalence:
    def test_descendant_steps_resolve_identically(self, dom):
        selectors = [
            "//div[@class='card'][2]/h3[1]",
            "//h3[3]",
            "//div[@class='sidebar'][1]",
            "//div[@class='card'][2]//div[@class='phone'][1]",
            "//span[1]",  # no match either way
        ]
        for text in selectors:
            selector = parse_selector(text)
            fresh = cards_page(4)  # indexed resolution
            previous = set_dom_indexes(False)
            try:
                plain = cards_page(4)
                linear = resolve(selector, plain)
            finally:
                set_dom_indexes(previous)
            indexed = resolve(selector, fresh)
            if linear is None:
                assert indexed is None
            else:
                assert raw_path(indexed) == raw_path(linear)

    def test_valid_uses_the_index(self, dom):
        assert valid(parse_selector("//div[@class='phone'][4]"), dom)
        assert not valid(parse_selector("//div[@class='phone'][5]"), dom)


class TestBucketEnumeration:
    def test_raw_path_of_matches_raw_path(self, dom):
        index = index_for(dom)
        for node in dom.iter_subtree():
            assert index.raw_path_of(node) == raw_path(node)
        # memoized: the same object comes back
        some = node_at(dom, "//div[@class='card'][2]")
        assert index.raw_path_of(some) is index.raw_path_of(some)

    def test_raw_steps_between_is_the_child_chain(self, dom):
        index = index_for(dom)
        card = node_at(dom, "//div[@class='card'][3]")
        h3 = card.children[0]
        steps = index.raw_steps_between(card, h3)
        assert steps == (Step(CHILD, Predicate("h3"), 1),)
        assert index.raw_steps_between(dom, h3) == raw_path(h3).steps[1:]
        assert index.raw_steps_between(card, card) == ()

    def test_predicates_of_matches_node_predicates(self, dom):
        index = index_for(dom)
        for node in dom.iter_subtree():
            for token in (False, True):
                assert index.predicates_of(node, True, token) == node_predicates(
                    node, True, token
                )
            assert index.predicates_of(node, False, False) == node_predicates(
                node, False
            )

    def test_child_rank_matches_index_among_children(self, dom):
        index = index_for(dom)
        for node in dom.iter_subtree():
            for pred in predicate_family(node, token_predicates=True):
                assert index.child_rank(node, pred) == index_among_children(node, pred)
        # non-matching predicate: no rank
        card = node_at(dom, "//div[@class='card'][1]")
        assert index.child_rank(card, Predicate("span")) is None

    def test_element_plan_replays_the_legacy_walk(self, dom):
        index = index_for(dom)
        for element in dom.iter_subtree():
            for use_alternatives in (True, False):
                expected = []
                preds = node_predicates(element, use_alternatives)
                parent_prefix = (
                    raw_path(element.parent) if element.parent else EPSILON
                )
                for pred in preds:
                    child_index = index_among_children(element, pred)
                    if child_index is not None:
                        expected.append((parent_prefix, CHILD, pred, child_index))
                if use_alternatives:
                    anchors = [None]
                    if element.parent is not None:
                        anchors.append(element.parent)
                    for anchor in anchors:
                        prefix = EPSILON if anchor is None else raw_path(anchor)
                        for pred in preds:
                            desc_index = index_among_descendants(
                                anchor, element, pred, dom
                            )
                            if desc_index is not None:
                                expected.append((prefix, DESC, pred, desc_index))
                plan = index.element_plan(element, use_alternatives, False)
                assert list(plan) == expected


class TestBuildTracking:
    def test_scope_counts_only_builds_inside_it(self):
        before = cards_page(2)
        index_for(before)  # built outside any scope
        with track_builds() as tracker:
            index_for(cards_page(2))
            index_for(cards_page(3))
            inside = tracker.count
        index_for(cards_page(4))  # after the scope: not counted
        assert inside == tracker.count == 2

    def test_scopes_nest(self):
        with track_builds() as outer:
            index_for(cards_page(2))
            with track_builds() as inner:
                index_for(cards_page(3))
            assert inner.count == 1
        assert outer.count == 2

    def test_scopes_are_thread_local(self):
        # another thread building indexes concurrently must not leak
        # into this thread's scope (the two-synthesizer interleaving bug)
        entered = threading.Event()
        done = threading.Event()
        counts = {}

        def other() -> None:
            entered.wait(5)
            with track_builds() as theirs:
                for size in (2, 3, 4):
                    index_for(cards_page(size))
                counts["other"] = theirs.count
            done.set()

        thread = threading.Thread(target=other)
        thread.start()
        with track_builds() as mine:
            index_for(cards_page(5))
            entered.set()  # let the other thread build inside our scope
            done.wait(5)
        thread.join(5)
        assert mine.count == 1
        assert counts["other"] == 3
