"""Tests for statement shapes and the pivot gate (`repro.synth.periodicity`).

The load-bearing property is the pivot gate's soundness contract:
whenever two statements' shapes differ, anti-unification must return
nothing — otherwise the unconditional gate would prune real rewrites.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.dom import E, page
from repro.lang import parse_program
from repro.synth import SelectorSearch, anti_unify_statements, statement_shape


def stmts(text: str):
    return parse_program(text).statements


DOM = page(E("div", E("h3", text="x")))


# ----------------------------------------------------------------------
# Shapes
# ----------------------------------------------------------------------
class TestStatementShape:
    def test_same_kind_different_selectors_share_shape(self):
        a, b = stmts("ScrapeText(//li[1])\nScrapeText(//li[7]/b[1])")
        assert statement_shape(a) == statement_shape(b)

    def test_kinds_distinguish(self):
        a, b = stmts("ScrapeText(//li[1])\nScrapeLink(//li[1])")
        assert statement_shape(a) != statement_shape(b)

    def test_sendkeys_text_distinguishes(self):
        a, b = stmts('SendKeys(//input[1], "a")\nSendKeys(//input[1], "b")')
        assert statement_shape(a) != statement_shape(b)

    def test_enterdata_same_length_paths_share_shape(self):
        a, b = stmts(
            'EnterData(//input[1], x["zips"][1])\nEnterData(//input[1], x["zips"][2])'
        )
        assert statement_shape(a) == statement_shape(b)

    def test_enterdata_different_length_paths_distinguish(self):
        a, b = stmts(
            'EnterData(//input[1], x["zips"][1])\nEnterData(//input[1], x["zips"])'
        )
        assert statement_shape(a) != statement_shape(b)

    def test_loop_collection_predicate_distinguishes(self):
        a = stmts("foreach r in Dscts(/, div[@class='a']) do\n  ScrapeText(r//h3[1])")[0]
        b = stmts("foreach r in Dscts(/, div[@class='b']) do\n  ScrapeText(r//h3[1])")[0]
        assert statement_shape(a) != statement_shape(b)

    def test_loop_body_kinds_distinguish(self):
        a = stmts("foreach r in Dscts(/, div) do\n  ScrapeText(r//h3[1])")[0]
        b = stmts("foreach r in Dscts(/, div) do\n  ScrapeLink(r//h3[1])")[0]
        assert statement_shape(a) != statement_shape(b)

    def test_loop_bases_do_not_distinguish(self):
        a = stmts("foreach r in Dscts(//ul[1], li) do\n  ScrapeText(r//b[1])")[0]
        b = stmts("foreach r in Dscts(//ul[2], li) do\n  ScrapeText(r//b[1])")[0]
        assert statement_shape(a) == statement_shape(b)

    def test_while_and_paginate_have_distinct_categories(self):
        loop = stmts("while true do\n  ScrapeText(//h3[1])\n  Click(//b[1])")[0]
        assert statement_shape(loop)[0] == "w"


# ----------------------------------------------------------------------
# Pivot-gate soundness: shape inequality refutes anti-unifiability
# ----------------------------------------------------------------------
_KINDS = st.sampled_from(["ScrapeText", "ScrapeLink", "Click", "Download"])
_INDICES = st.integers(min_value=1, max_value=3)


@st.composite
def action_texts(draw):
    kind = draw(_KINDS)
    first = draw(_INDICES)
    second = draw(_INDICES)
    return f"{kind}(//li[{first}]/span[{second}])"


class TestPivotGateSoundness:
    @settings(max_examples=120, deadline=None)
    @given(action_texts(), action_texts())
    def test_shape_mismatch_implies_no_unification(self, text_a, text_b):
        (a,) = stmts(text_a)
        (b,) = stmts(text_b)
        if statement_shape(a) != statement_shape(b):
            assert anti_unify_statements(a, DOM, b, DOM, SelectorSearch()) == []

    def test_enterdata_value_pivot_not_gated(self):
        # the rule-(3) pivot pair must share a shape or the gate would
        # break data-entry loops
        a, b = stmts(
            'EnterData(//input[1], x["zips"][1])\nEnterData(//input[1], x["zips"][2])'
        )
        assert statement_shape(a) == statement_shape(b)
        dom = page(E("input", {"name": "q"}))
        results = anti_unify_statements(a, dom, b, dom, SelectorSearch())
        assert results  # rule (3) fires
