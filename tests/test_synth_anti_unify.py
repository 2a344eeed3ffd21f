"""Unit tests for anti-unification (Figure 10 rules)."""

from repro.dom import EPSILON, Predicate, parse_selector, raw_path
from repro.lang import (
    SEL_VAR,
    VAL_VAR,
    X,
    ActionStmt,
    ChildrenOf,
    DescendantsOf,
    ForEachSelector,
    ForEachValue,
    Selector,
    ValuePath,
    ValuePathsOf,
    action_to_statement,
    fresh_var,
    scrape_text,
    selector_of,
)
from repro.synth import (
    SelectorSearch,
    anti_unify_accessors,
    anti_unify_selectors,
    anti_unify_statements,
)

from helpers import cards_page, node_at, plain_list_page, raw_action


class TestAntiUnifyAccessors:
    def test_single_split(self):
        splits = anti_unify_accessors(("zips", 1), ("zips", 2))
        assert splits == [(("zips",), ())]

    def test_split_with_suffix(self):
        splits = anti_unify_accessors(("rows", 1, "name"), ("rows", 2, "name"))
        assert splits == [(("rows",), ("name",))]

    def test_no_split_when_prefix_differs(self):
        assert anti_unify_accessors(("a", 1), ("b", 2)) == []

    def test_requires_one_and_two(self):
        assert anti_unify_accessors(("zips", 2), ("zips", 3)) == []

    def test_length_mismatch(self):
        assert anti_unify_accessors(("zips", 1), ("zips", 2, "x")) == []

    def test_multiple_candidate_positions(self):
        first = ("a", 1, "b", 1)
        second = ("a", 1, "b", 2)
        # only the last position differs 1 -> 2 with equal context
        assert anti_unify_accessors(first, second) == [(("a", 1, "b"), ())]


class TestAntiUnifySelectors:
    def test_cards_h3_pair(self):
        dom = cards_page(3)
        first = raw_path(node_at(dom, "//div[@class='card'][1]/h3[1]"))
        second = raw_path(node_at(dom, "//div[@class='card'][2]/h3[1]"))
        results = anti_unify_selectors(first, dom, second, dom, SelectorSearch())
        assert results
        collections = {str(r.collection) for r in results}
        assert "Dscts(/, div[@class='card'])" in collections
        # first bindings are always at index 1
        assert all("[1]" in str(r.first) for r in results)

    def test_plain_list_children_pair(self):
        dom = plain_list_page(3)
        first = raw_path(node_at(dom, "//li[1]/span[1]"))
        second = raw_path(node_at(dom, "//li[2]/span[1]"))
        results = anti_unify_selectors(
            first, dom, second, dom, SelectorSearch(use_alternatives=False)
        )
        assert results
        assert any(
            isinstance(r.collection, ChildrenOf)
            and r.collection.pred == Predicate("li")
            for r in results
        )

    def test_same_selector_cannot_pivot(self):
        dom = cards_page(2)
        sel = raw_path(node_at(dom, "//div[@class='card'][1]/h3[1]"))
        assert anti_unify_selectors(sel, dom, sel, dom, SelectorSearch()) == []

    def test_non_consecutive_indices_rejected(self):
        dom = cards_page(4)
        first = raw_path(node_at(dom, "//div[@class='card'][1]/h3[1]"))
        third = raw_path(node_at(dom, "//div[@class='card'][3]/h3[1]"))
        assert anti_unify_selectors(first, dom, third, dom, SelectorSearch()) == []

    def test_trace_starting_at_second_card_rejected(self):
        # Loops iterate from index 1; a demonstration starting at card 2
        # admits no (1, 2) reading.
        dom = cards_page(4)
        second = raw_path(node_at(dom, "//div[@class='card'][2]/h3[1]"))
        third = raw_path(node_at(dom, "//div[@class='card'][3]/h3[1]"))
        assert anti_unify_selectors(second, dom, third, dom, SelectorSearch()) == []

    def test_general_selector_uses_variable(self):
        dom = cards_page(2)
        first = raw_path(node_at(dom, "//div[@class='card'][1]/h3[1]"))
        second = raw_path(node_at(dom, "//div[@class='card'][2]/h3[1]"))
        for result in anti_unify_selectors(first, dom, second, dom, SelectorSearch()):
            assert result.general.base == result.var


class TestAntiUnifyActionStatements:
    def test_scrape_pair(self):
        dom = cards_page(2)
        first = action_to_statement(
            raw_action(scrape_text, dom, "//div[@class='card'][1]/h3[1]")
        )
        second = action_to_statement(
            raw_action(scrape_text, dom, "//div[@class='card'][2]/h3[1]")
        )
        results = anti_unify_statements(first, dom, second, dom, SelectorSearch())
        assert results
        assert all(isinstance(r.stmt, ActionStmt) for r in results)
        assert all(r.stmt.kind == "ScrapeText" for r in results)
        assert all(r.var.kind == SEL_VAR for r in results)

    def test_kind_mismatch_rejected(self):
        from repro.lang import click

        dom = cards_page(2)
        first = action_to_statement(
            raw_action(scrape_text, dom, "//div[@class='card'][1]/h3[1]")
        )
        second = action_to_statement(
            raw_action(click, dom, "//div[@class='card'][2]/h3[1]")
        )
        assert anti_unify_statements(first, dom, second, dom, SelectorSearch()) == []

    def test_parameterless_rejected(self):
        from repro.lang import go_back

        dom = cards_page(1)
        stmt = action_to_statement(go_back())
        assert anti_unify_statements(stmt, dom, stmt, dom, SelectorSearch()) == []

    def test_enter_data_value_pivot(self):
        dom = cards_page(1)
        sel = selector_of(raw_path(node_at(dom, "//h3[1]")))
        first = ActionStmt("EnterData", sel, value=X.extend("zips").extend(1))
        second = ActionStmt("EnterData", sel, value=X.extend("zips").extend(2))
        results = anti_unify_statements(first, dom, second, dom, SelectorSearch())
        value_pivots = [r for r in results if r.var.kind == VAL_VAR]
        assert len(value_pivots) == 1
        pivot = value_pivots[0]
        assert isinstance(pivot.collection, ValuePathsOf)
        assert pivot.collection.path.accessors == ("zips",)
        assert pivot.first == ValuePath(None, ("zips", 1))
        assert pivot.stmt.value.base == pivot.var

    def test_send_keys_different_text_rejected(self):
        dom = cards_page(2)
        sel1 = selector_of(raw_path(node_at(dom, "//div[@class='card'][1]/h3[1]")))
        sel2 = selector_of(raw_path(node_at(dom, "//div[@class='card'][2]/h3[1]")))
        first = ActionStmt("SendKeys", sel1, text="a")
        second = ActionStmt("SendKeys", sel2, text="b")
        assert anti_unify_statements(first, dom, second, dom, SelectorSearch()) == []

    def test_send_keys_same_text_selector_pivot(self):
        dom = cards_page(2)
        sel1 = selector_of(raw_path(node_at(dom, "//div[@class='card'][1]/h3[1]")))
        sel2 = selector_of(raw_path(node_at(dom, "//div[@class='card'][2]/h3[1]")))
        first = ActionStmt("SendKeys", sel1, text="a")
        second = ActionStmt("SendKeys", sel2, text="a")
        results = anti_unify_statements(first, dom, second, dom, SelectorSearch())
        assert results and all(r.stmt.text == "a" for r in results)


class TestAntiUnifyLoops:
    def _inner_loop(self, dom, card_index):
        """A loop over the phone divs of one card (contrived but nested)."""
        var = fresh_var(SEL_VAR)
        base = selector_of(raw_path(node_at(dom, f"//div[@class='card'][{card_index}]")))
        return ForEachSelector(
            var,
            ChildrenOf(base, Predicate("div", "class", "phone")),
            (ActionStmt("ScrapeText", Selector(var, ())),),
        )

    def test_sibling_loops_lift_to_nested(self):
        dom = cards_page(3)
        first = self._inner_loop(dom, 1)
        second = self._inner_loop(dom, 2)
        results = anti_unify_statements(first, dom, second, dom, SelectorSearch())
        assert results
        lifted = results[0]
        assert isinstance(lifted.stmt, ForEachSelector)
        assert not lifted.stmt.collection.base.is_concrete

    def test_different_bodies_rejected(self):
        dom = cards_page(3)
        first = self._inner_loop(dom, 1)
        var = fresh_var(SEL_VAR)
        second = ForEachSelector(
            var,
            ChildrenOf(
                selector_of(raw_path(node_at(dom, "//div[@class='card'][2]"))),
                Predicate("div", "class", "phone"),
            ),
            (ActionStmt("ScrapeLink", Selector(var, ())),),
        )
        assert anti_unify_statements(first, dom, second, dom, SelectorSearch()) == []

    def test_different_predicates_rejected(self):
        dom = cards_page(3)
        first = self._inner_loop(dom, 1)
        var = fresh_var(SEL_VAR)
        second = ForEachSelector(
            var,
            ChildrenOf(
                selector_of(raw_path(node_at(dom, "//div[@class='card'][2]"))),
                Predicate("h3"),
            ),
            (ActionStmt("ScrapeText", Selector(var, ())),),
        )
        assert anti_unify_statements(first, dom, second, dom, SelectorSearch()) == []

    def test_value_loops_lift(self):
        dom = cards_page(1)
        sel = selector_of(raw_path(node_at(dom, "//h3[1]")))

        def value_loop(row):
            var = fresh_var(VAL_VAR)
            return ForEachValue(
                var,
                ValuePathsOf(ValuePath(None, ("rows", row, "cells"))),
                (ActionStmt("EnterData", sel, value=ValuePath(var, ())),),
            )

        results = anti_unify_statements(
            value_loop(1), dom, value_loop(2), dom, SelectorSearch()
        )
        assert len(results) == 1
        lifted = results[0]
        assert isinstance(lifted.stmt, ForEachValue)
        assert lifted.collection.path.accessors == ("rows",)
