"""Tests for the smallest-program ranking (repro.synth.ranking)."""

from repro.lang import parse_program
from repro.lang.actions import scrape_text
from repro.lang.ast import program_size
from repro.dom.xpath import parse_selector
from repro.synth.ranking import Candidate, rank

FLAT = parse_program("ScrapeText(//h3[1])\nScrapeText(//h3[2])\nScrapeText(//h3[3])")
ONE_LOOP = parse_program("foreach r in Dscts(/, h3) do\n  ScrapeText(r)")
NESTED = parse_program(
    "foreach g in Children(/, div) do\n"
    "  foreach r in Dscts(g, h3) do\n    ScrapeText(r)"
)

PREDICTION = scrape_text(parse_selector("//h3[4]"))


def candidate(program, statements):
    return Candidate.of(program, PREDICTION, statements)


CANDIDATES = [
    candidate(FLAT, 3),
    candidate(ONE_LOOP, 1),
    candidate(NESTED, 1),
]


class TestStrategies:
    def test_size_prefers_smallest_ast(self):
        best = rank(CANDIDATES)[0]
        assert program_size(best.program) == min(
            program_size(c.program) for c in CANDIDATES
        )

    def test_ranking_is_deterministic_total_order(self):
        import random

        shuffled = list(CANDIDATES)
        random.Random(7).shuffle(shuffled)
        assert [c.text for c in rank(shuffled)] == [c.text for c in rank(CANDIDATES)]

    def test_text_tie_break(self):
        # same size and statement count: order falls back to program text
        a = candidate(parse_program("ScrapeText(//a[1])"), 1)
        b = candidate(parse_program("ScrapeText(//b[1])"), 1)
        ordered = rank([b, a])
        assert [c.text for c in ordered] == sorted([a.text, b.text])
