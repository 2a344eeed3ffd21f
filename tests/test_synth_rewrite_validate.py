"""Unit tests for rewrite tuples (worklist entries) and validation."""

import pytest

from repro.dom import Predicate, parse_selector
from repro.lang import (
    EMPTY_DATA,
    ActionStmt,
    ChildrenOf,
    ForEachSelector,
    Selector,
    fresh_var,
    selector_of,
)
from repro.lang.ast import SEL_VAR
from repro.synth import (
    DEFAULT_CONFIG,
    SelectorSearch,
    SpeculationContext,
    SRewrite,
    extend_with_singletons,
    initial_tuple,
    is_loop,
    validate,
)
from repro.synth.rewrite import RewriteTuple

from helpers import cards_page, scrape_cards_trace


def make_context(actions, snapshots):
    return SpeculationContext(
        actions, snapshots, EMPTY_DATA, DEFAULT_CONFIG, SelectorSearch()
    )


class TestRewriteTuple:
    def test_initial_tuple_shape(self):
        dom = cards_page(3)
        actions, _ = scrape_cards_trace(dom, 2)
        tuple_ = initial_tuple(actions)
        assert tuple_.length == 4
        assert tuple_.bounds == (0, 1, 2, 3, 4)
        assert tuple_.covered == 4
        assert not tuple_.ends_with_loop()

    def test_bounds_validation(self):
        stmt = ActionStmt("GoBack")
        with pytest.raises(ValueError):
            RewriteTuple((stmt,), (0,))  # too few bounds
        with pytest.raises(ValueError):
            RewriteTuple((stmt,), (1, 0))  # decreasing

    def test_slice_bounds(self):
        dom = cards_page(3)
        actions, _ = scrape_cards_trace(dom, 2)
        tuple_ = initial_tuple(actions)
        assert tuple_.slice_bounds(2) == (2, 3)

    def test_key_is_alpha_invariant_and_partition_aware(self):
        var_a, var_b = fresh_var(SEL_VAR), fresh_var(SEL_VAR)

        def loop(var):
            return ForEachSelector(
                var,
                ChildrenOf(selector_of(parse_selector("//ul[1]")), Predicate("li")),
                (ActionStmt("ScrapeText", Selector(var, ())),),
            )

        first = RewriteTuple((loop(var_a),), (0, 4))
        second = RewriteTuple((loop(var_b),), (0, 4))
        third = RewriteTuple((loop(var_a),), (0, 5))
        assert first.key() == second.key()
        assert first.key() != third.key()

    def test_extend_with_singletons(self):
        dom = cards_page(4)
        actions, _ = scrape_cards_trace(dom, 3)
        base = initial_tuple(actions[:4])
        base.processed = True
        extended = extend_with_singletons(base, actions[4:6], 4)
        assert extended.length == 6
        assert extended.covered == 6
        assert extended.spec_start == 4  # processed base: only new spans
        assert not extended.processed

    def test_extend_unprocessed_keeps_spec_start(self):
        dom = cards_page(4)
        actions, _ = scrape_cards_trace(dom, 3)
        base = initial_tuple(actions[:4])  # spec_start 0, not processed
        extended = extend_with_singletons(base, actions[4:5], 4)
        assert extended.spec_start == 0

    def test_is_loop_helper(self):
        assert not is_loop(ActionStmt("GoBack"))
        var = fresh_var(SEL_VAR)
        loop = ForEachSelector(
            var,
            ChildrenOf(selector_of(parse_selector("//ul[1]")), Predicate("li")),
            (ActionStmt("ScrapeText", Selector(var, ())),),
        )
        assert is_loop(loop)


class TestValidate:
    def _loop_rewrite(self, dom):
        """The intended card loop as an s-rewrite over the first pair."""
        from repro.lang import DescendantsOf

        var = fresh_var(SEL_VAR)
        loop = ForEachSelector(
            var,
            DescendantsOf(Selector(None, ()), Predicate("div", "class", "card")),
            (
                ActionStmt("ScrapeText", Selector(var, parse_selector("//h3[1]").steps)),
                ActionStmt(
                    "ScrapeText",
                    Selector(var, parse_selector("//div[@class='phone'][1]").steps),
                ),
            ),
        )
        return SRewrite(loop, 0, 1)

    def test_true_rewrite_accepted_with_full_coverage(self):
        dom = cards_page(3)
        actions, snapshots = scrape_cards_trace(dom, 3)
        context = make_context(actions, snapshots)
        base = initial_tuple(actions)
        rewritten = validate(self._loop_rewrite(dom), base, context)
        assert rewritten is not None
        assert rewritten.length == 1
        assert rewritten.covered == 6
        assert rewritten.ends_with_loop()

    def test_spurious_rewrite_rejected(self):
        # loop whose second statement still points at card 1's phone: its
        # second iteration diverges from the recorded trace
        dom = cards_page(3)
        actions, snapshots = scrape_cards_trace(dom, 3)
        context = make_context(actions, snapshots)
        base = initial_tuple(actions)
        var = fresh_var(SEL_VAR)
        from repro.lang import DescendantsOf

        spurious = ForEachSelector(
            var,
            DescendantsOf(Selector(None, ()), Predicate("div", "class", "card")),
            (
                ActionStmt("ScrapeText", Selector(var, parse_selector("//h3[1]").steps)),
                ActionStmt(
                    "ScrapeText",
                    selector_of(parse_selector("//div[@class='card'][1]//div[@class='phone'][1]")),
                ),
            ),
        )
        assert validate(SRewrite(spurious, 0, 1), base, context) is None

    def test_rewrite_must_cross_iteration_boundary(self):
        # validating against only the first iteration's actions: no slice
        # beyond j exists, so the s-rewrite is rejected
        dom = cards_page(3)
        actions, snapshots = scrape_cards_trace(dom, 1)  # 2 actions only
        context = make_context(actions, snapshots)
        base = initial_tuple(actions)
        assert validate(self._loop_rewrite(dom), base, context) is None

    def test_misaligned_boundary_rejected(self):
        # trace cut mid-pair (3 actions): the loop's production (4 actions
        # needs 4 DOMs; only 3 available -> produced 3 = slice [0,3) which
        # IS a boundary -> accepted with r=2.  Use 1.5 pairs where the
        # divergence happens instead: swap the 3rd action to a click.
        from repro.lang import click
        from repro.dom import raw_path, resolve

        dom = cards_page(3)
        actions, snapshots = scrape_cards_trace(dom, 1)
        button = resolve(parse_selector("//h3[2]"), dom)
        actions = actions + [click(raw_path(button))]
        snapshots = [dom] * (len(actions) + 1)
        context = make_context(actions, snapshots)
        base = initial_tuple(actions)
        assert validate(self._loop_rewrite(dom), base, context) is None
