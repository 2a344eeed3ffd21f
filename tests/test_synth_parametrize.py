"""Unit tests for parametrization (Figure 11 rules)."""

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
    fresh_var,
    selector_of,
)
from repro.synth import SelectorSearch, parametrize_statement

from helpers import cards_page, node_at


def first_card_binding(dom):
    """The binding ϱ ↦ //div[@class='card'][1] (FirstSelector of Dscts)."""
    return EPSILON.desc(Predicate("div", "class", "card"), 1)


class TestSelectorParametrize:
    def test_phone_scrape_under_card(self):
        dom = cards_page(2)
        var = fresh_var(SEL_VAR)
        stmt = ActionStmt(
            "ScrapeText",
            selector_of(raw_path(node_at(dom, "//div[@class='card'][1]/div[@class='phone'][1]"))),
        )
        variants = parametrize_statement(
            stmt, var, first_card_binding(dom), dom, SelectorSearch()
        )
        # The unchanged statement is always last (rule (1)).
        assert variants[-1] == stmt
        rendered = {str(v.target) for v in variants[:-1]}
        assert f"{var}//div[@class='phone'][1]" in rendered
        assert all(v.target.base == var for v in variants[:-1])

    def test_unrelated_target_keeps_original_only(self):
        dom = cards_page(2)
        var = fresh_var(SEL_VAR)
        stmt = ActionStmt(
            "ScrapeText",
            selector_of(raw_path(node_at(dom, "//div[@class='sidebar'][1]"))),
        )
        variants = parametrize_statement(
            stmt, var, first_card_binding(dom), dom, SelectorSearch()
        )
        assert variants == [stmt]

    def test_binding_node_itself(self):
        dom = cards_page(2)
        var = fresh_var(SEL_VAR)
        stmt = ActionStmt(
            "ScrapeText", selector_of(raw_path(node_at(dom, "//div[@class='card'][1]")))
        )
        variants = parametrize_statement(
            stmt, var, first_card_binding(dom), dom, SelectorSearch()
        )
        assert any(v.target == Selector(var, ()) for v in variants)

    def test_unresolvable_binding_keeps_original(self):
        dom = cards_page(1)
        var = fresh_var(SEL_VAR)
        stmt = ActionStmt("ScrapeText", selector_of(raw_path(node_at(dom, "//h3[1]"))))
        missing = parse_selector("//nav[7]")
        assert parametrize_statement(stmt, var, missing, dom, SelectorSearch()) == [stmt]

    def test_nested_loop_base_parametrized(self):
        dom = cards_page(2)
        outer_var = fresh_var(SEL_VAR)
        inner_var = fresh_var(SEL_VAR)
        loop = ForEachSelector(
            inner_var,
            ChildrenOf(
                selector_of(raw_path(node_at(dom, "//div[@class='card'][1]"))),
                Predicate("div", "class", "phone"),
            ),
            (ActionStmt("ScrapeText", Selector(inner_var, ())),),
        )
        variants = parametrize_statement(
            loop, outer_var, first_card_binding(dom), dom, SelectorSearch()
        )
        parametrized = [v for v in variants if v != loop]
        assert parametrized
        assert any(
            v.collection.base == Selector(outer_var, ()) for v in parametrized
        )
        # body is untouched (rule (4))
        assert all(v.body == loop.body for v in variants)

    def test_go_back_unchanged(self):
        dom = cards_page(1)
        var = fresh_var(SEL_VAR)
        stmt = ActionStmt("GoBack")
        assert parametrize_statement(
            stmt, var, first_card_binding(dom), dom, SelectorSearch()
        ) == [stmt]

    def test_raw_only_uses_raw_suffix(self):
        dom = cards_page(2)
        var = fresh_var(SEL_VAR)
        stmt = ActionStmt(
            "ScrapeText",
            selector_of(raw_path(node_at(dom, "//div[@class='card'][1]/div[@class='phone'][1]"))),
        )
        binding = raw_path(node_at(dom, "//div[@class='card'][1]"))
        variants = parametrize_statement(
            stmt, var, binding, dom, SelectorSearch(use_alternatives=False)
        )
        assert len(variants) == 2  # one raw suffix variant + original
        assert str(variants[0].target) == f"{var}/div[1]"


class TestValueParametrize:
    def test_enter_data_prefix_rewritten(self):
        dom = cards_page(1)
        var = fresh_var(VAL_VAR)
        sel = selector_of(raw_path(node_at(dom, "//h3[1]")))
        stmt = ActionStmt("EnterData", sel, value=X.extend("rows").extend(1).extend("q"))
        binding = ValuePath(None, ("rows", 1))
        variants = parametrize_statement(stmt, var, binding, dom, SelectorSearch())
        assert variants[0].value == ValuePath(var, ("q",))
        assert variants[-1] == stmt

    def test_non_matching_prefix_unchanged(self):
        dom = cards_page(1)
        var = fresh_var(VAL_VAR)
        sel = selector_of(raw_path(node_at(dom, "//h3[1]")))
        stmt = ActionStmt("EnterData", sel, value=X.extend("other").extend(1))
        binding = ValuePath(None, ("rows", 1))
        assert parametrize_statement(stmt, var, binding, dom, SelectorSearch()) == [stmt]

    def test_click_unchanged_under_value_binding(self):
        dom = cards_page(1)
        var = fresh_var(VAL_VAR)
        stmt = ActionStmt("Click", selector_of(raw_path(node_at(dom, "//h3[1]"))))
        binding = ValuePath(None, ("rows", 1))
        assert parametrize_statement(stmt, var, binding, dom, SelectorSearch()) == [stmt]

    def test_nested_value_loop_rewritten(self):
        dom = cards_page(1)
        outer = fresh_var(VAL_VAR)
        inner = fresh_var(VAL_VAR)
        sel = selector_of(raw_path(node_at(dom, "//h3[1]")))
        loop = ForEachValue(
            inner,
            ValuePathsOf(ValuePath(None, ("rows", 1, "cells"))),
            (ActionStmt("EnterData", sel, value=ValuePath(inner, ())),),
        )
        binding = ValuePath(None, ("rows", 1))
        variants = parametrize_statement(loop, outer, binding, dom, SelectorSearch())
        assert variants[0].collection.path == ValuePath(outer, ("cells",))
        assert variants[-1] == loop
