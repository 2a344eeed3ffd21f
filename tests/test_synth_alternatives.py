"""Unit tests for the alternative-selector search."""

from repro.dom import (
    CHILD,
    DESC,
    EPSILON,
    E,
    Predicate,
    page,
    parse_selector,
    raw_path,
    resolve,
)
from repro.lang import parse_program
from repro.lang.ast import SEL_VAR, fresh_var
from repro.lang.data import DataSource
from repro.synth import (
    SpeculationContext,
    alternative_selectors,
    anti_unify_selectors,
    common_alternatives,
    decompositions,
    node_predicates,
    parametrize_statement,
    relative_step_candidates,
    token_predicate_config,
)

from helpers import cards_page, node_at


class TestNodePredicates:
    def test_attribute_predicates_first(self):
        dom = cards_page(2)
        card = node_at(dom, "//div[@class='card'][1]")
        preds = node_predicates(card)
        assert preds[0] == Predicate("div", "class", "card")
        assert preds[-1] == Predicate("div")

    def test_raw_only_mode(self):
        dom = cards_page(2)
        card = node_at(dom, "//div[@class='card'][1]")
        assert node_predicates(card, use_alternatives=False) == [Predicate("div")]

    def test_empty_attribute_ignored(self):
        node = E("div", {"class": ""})
        assert node_predicates(node) == [Predicate("div")]


class TestRelativeStepCandidates:
    def test_self_is_empty_sequence(self):
        dom = cards_page(1)
        card = node_at(dom, "//div[@class='card'][1]")
        assert relative_step_candidates(card, card) == [()]

    def test_includes_raw_chain(self):
        dom = cards_page(1)
        card = node_at(dom, "//div[@class='card'][1]")
        h3 = node_at(dom, "//div[@class='card'][1]/h3[1]")
        raw_chain = parse_selector("/h3[1]").steps
        candidates = relative_step_candidates(card, h3)
        assert tuple(raw_chain) in [tuple(c) for c in candidates]

    def test_includes_descendant_anchor(self):
        dom = cards_page(1)
        body = node_at(dom, "/html[1]/body[1]")
        phone = node_at(dom, "//div[@class='phone'][1]")
        candidates = relative_step_candidates(body, phone)
        assert parse_selector("//div[@class='phone'][1]").steps in candidates

    def test_non_ancestor_yields_nothing(self):
        dom = cards_page(2)
        card1 = node_at(dom, "//div[@class='card'][1]")
        card2 = node_at(dom, "//div[@class='card'][2]")
        assert relative_step_candidates(card1, card2) == []

    def test_raw_only_single_candidate(self):
        dom = cards_page(1)
        body = node_at(dom, "/html[1]/body[1]")
        phone = node_at(dom, "//div[@class='phone'][1]")
        candidates = relative_step_candidates(body, phone, use_alternatives=False)
        assert candidates == [parse_selector("/div[2]/div[1]").steps]

    def test_all_candidates_resolve_to_target(self):
        from repro.dom import resolve_relative

        dom = cards_page(3)
        body = node_at(dom, "/html[1]/body[1]")
        phone = node_at(dom, "//div[@class='card'][2]/div[@class='phone'][1]")
        for steps in relative_step_candidates(body, phone):
            assert resolve_relative(steps, body) is phone


class TestDecompositions:
    def test_card_h3_has_document_dscts_reading(self):
        dom = cards_page(3)
        h3 = node_at(dom, "//div[@class='card'][1]/h3[1]")
        decomps = decompositions(raw_path(h3), dom)
        keys = {
            (d.prefix, d.axis, d.pred, d.index, d.suffix)
            for d in decomps
        }
        wanted = (
            EPSILON,
            DESC,
            Predicate("div", "class", "card"),
            1,
            parse_selector("//h3[1]").steps,
        )
        assert wanted in keys

    def test_second_card_has_index_two(self):
        dom = cards_page(3)
        h3 = node_at(dom, "//div[@class='card'][2]/h3[1]")
        decomps = decompositions(raw_path(h3), dom)
        assert any(
            d.pred == Predicate("div", "class", "card") and d.index == 2
            for d in decomps
        )

    def test_assemble_resolves_to_same_node(self):
        dom = cards_page(3)
        phone = node_at(dom, "//div[@class='card'][2]/div[@class='phone'][1]")
        target_path = raw_path(phone)
        for decomposition in decompositions(target_path, dom):
            assert resolve(decomposition.assemble(), dom) is phone

    def test_unresolvable_selector_gives_nothing(self):
        dom = cards_page(1)
        assert decompositions(parse_selector("//nav[9]"), dom) == []

    def test_raw_only_mode_child_axis_only(self):
        dom = cards_page(2)
        h3 = node_at(dom, "//div[@class='card'][1]/h3[1]")
        decomps = decompositions(raw_path(h3), dom, use_alternatives=False)
        assert decomps
        assert all(d.axis == CHILD for d in decomps)
        assert all(d.pred.attr is None for d in decomps)

    def test_max_results_respected(self):
        dom = cards_page(4)
        h3 = node_at(dom, "//div[@class='card'][2]/h3[1]")
        assert len(decompositions(raw_path(h3), dom, max_results=5)) <= 5


class TestAlternativeSelectors:
    def test_all_alternatives_denote_same_node(self):
        dom = cards_page(3, with_next=True)
        button = node_at(dom, "//button[@class='next'][1]")
        for alternative in alternative_selectors(raw_path(button), dom):
            assert resolve(alternative, dom) is button

    def test_raw_path_included(self):
        dom = cards_page(2)
        h3 = node_at(dom, "//div[@class='card'][1]/h3[1]")
        alternatives = alternative_selectors(raw_path(h3), dom)
        assert raw_path(h3) in alternatives

    def test_raw_only_mode_returns_raw_only(self):
        dom = cards_page(2)
        h3 = node_at(dom, "//div[@class='card'][1]/h3[1]")
        assert alternative_selectors(raw_path(h3), dom, use_alternatives=False) == [
            raw_path(h3)
        ]


class TestCommonAlternatives:
    def test_next_button_shifting_position(self):
        # Page 2 has an extra "prev" button before the cards: the raw path
        # of "next" differs, but the attribute-anchored form is shared.
        from repro.dom import E, page

        page1 = cards_page(2, with_next=True)
        page2 = page(
            E("button", {"class": "prev"}, text="prev"),
            E("div", {"class": "sidebar"}, text="ads"),
            E("div", {"class": "card"}, E("h3", text="x"),
              E("div", {"class": "phone"}, text="y")),
            E("button", {"class": "next"}, text="next"),
        )
        next1 = node_at(page1, "//button[@class='next'][1]")
        next2 = node_at(page2, "//button[@class='next'][1]")
        shared = common_alternatives(raw_path(next1), page1, raw_path(next2), page2)
        assert parse_selector("//button[@class='next'][1]") in shared

    def test_identical_raw_paths_share_raw(self):
        page1 = cards_page(2, with_next=True)
        next1 = node_at(page1, "//button[@class='next'][1]")
        shared = common_alternatives(raw_path(next1), page1, raw_path(next1), page1)
        assert raw_path(next1) in shared

    def test_raw_only_mode_requires_equal_raw(self):
        from repro.dom import E, page

        page1 = cards_page(2, with_next=True)
        page2 = page(
            E("button", {"class": "prev"}),
            E("button", {"class": "next"}),
        )
        next1 = node_at(page1, "//button[@class='next'][1]")
        next2 = node_at(page2, "//button[@class='next'][1]")
        shared = common_alternatives(
            raw_path(next1), page1, raw_path(next2), page2, use_alternatives=False
        )
        assert shared == []


class TestSelectorSearchForConfig:
    def test_fallback_searches_honour_token_predicates(self):
        # every entry point that builds its own search must read the
        # config's token-predicate switch, not just the synthesizer's
        config = token_predicate_config()
        dom = page(
            E("div", {"class": "match first"}, E("span", {"class": "price big"})),
            E("div", {"class": "other"}),
            E("div", {"class": "match second"}, E("span", {"class": "price"})),
        )
        first = raw_path(node_at(dom, "/html[1]/body[1]/div[1]"))
        third = raw_path(node_at(dom, "/html[1]/body[1]/div[3]"))

        assert SpeculationContext([], [], DataSource({}), config).search.token_predicates
        # divs 1 and 3 are items 1 and 2 only under the `match` token
        readings = anti_unify_selectors(first, dom, third, dom, config)
        assert any("~='match'" in str(item.collection) for item in readings)
        (stmt,) = parse_program(f"ScrapeText({first}/span[1])").statements
        variants = parametrize_statement(stmt, fresh_var(SEL_VAR), first, dom, config)
        assert any("~='price'" in str(variant) for variant in variants)
