"""Unit tests for the abstract program analysis layer (repro.analysis).

Each domain is checked on hand-built programs with known answers:
effect summaries and the mutating > navigating > read-only
classification; termination verdicts per loop form; symbolic cost
intervals (including data-sharpened value loops); selector fragility
scores and the resolve check; and the aggregated
:func:`analyze_program` report with its unified findings.
"""

from repro.analysis import (
    CostInterval,
    EffectSummary,
    PROGRESS,
    TERMINATING,
    UNKNOWN,
    analyze_program,
    effect_of_program,
    findings_payload,
    fragility_of_program,
    program_cost,
    selector_fragility,
    termination_of_program,
)
from repro.dom import parse_selector
from repro.lang import parse_program
from repro.lang.data import DataSource

from helpers import cards_page


SCRAPE_LOOP = (
    "foreach i in Children(/html[1]/body[1], div) do\n"
    "  ScrapeText(i/h3[1])"
)

FORUM_WHILE = (
    "while true do\n"
    "  ScrapeText(//div[@class='card'][1]/h3[1])\n"
    "  Click(//button[@class='next'][1])"
)

ANON_WHILE = (
    "while true do\n"
    "  ScrapeText(/html[1]/body[1]/div[2]/h3[1])\n"
    "  Click(/html[1]/body[1]/button[1])"
)


class TestEffects:
    def test_scrapes_are_read_only(self):
        effect = effect_of_program(parse_program(SCRAPE_LOOP))
        assert effect.classification == "read-only"
        assert effect.safe_to_replay

    def test_clicks_are_navigating_but_safe(self):
        effect = effect_of_program(parse_program(FORUM_WHILE))
        assert effect.classification == "navigating"
        assert effect.safe_to_replay

    def test_send_keys_is_mutating(self):
        effect = effect_of_program(
            parse_program('SendKeys(//input[@name=\'q\'][1], "term")')
        )
        assert effect.classification == "mutating"
        assert not effect.safe_to_replay

    def test_mutating_dominates_in_join(self):
        summary = EffectSummary(reads=True).join(EffectSummary(mutates=True))
        assert summary.classification == "mutating"


class TestTermination:
    def test_foreach_terminates(self):
        overall, loops = termination_of_program(parse_program(SCRAPE_LOOP))
        assert overall == TERMINATING
        assert [v.verdict for v in loops] == [TERMINATING]

    def test_anchored_while_makes_progress(self):
        overall, _ = termination_of_program(parse_program(FORUM_WHILE))
        assert overall == PROGRESS

    def test_bare_path_while_is_unknown(self):
        overall, loops = termination_of_program(parse_program(ANON_WHILE))
        assert overall == UNKNOWN
        assert any(v.verdict == UNKNOWN for v in loops)

    def test_loop_free_program_terminates(self):
        overall, loops = termination_of_program(parse_program("ScrapeText(//h3[1])"))
        assert overall == TERMINATING and loops == []


class TestCost:
    def test_straight_line_cost_is_exact(self):
        cost = program_cost(parse_program("ScrapeText(//h3[1])\nClick(//a[1])"))
        assert cost == CostInterval(2, 2)

    def test_node_loop_is_unbounded_above(self):
        cost = program_cost(parse_program(SCRAPE_LOOP))
        assert cost.lo == 0 and cost.hi is None

    def test_while_loop_lower_bound_is_one_body_run(self):
        cost = program_cost(parse_program(FORUM_WHILE))
        assert cost.lo == 1 and cost.hi is None

    def test_value_loop_sharpened_by_data(self):
        program = parse_program(
            'foreach v in ValuePaths(x["zips"]) do\n'
            "  EnterData(//input[@name='q'][1], v)"
        )
        data = DataSource({"zips": ["48104", "48105", "48106"]})
        assert program_cost(program, data) == CostInterval(3, 3)
        unsharpened = program_cost(program)
        assert unsharpened.lo == 0 and unsharpened.hi is None

    def test_interval_rendering(self):
        assert str(CostInterval(2, 5)) == "[2, 5]"
        assert str(CostInterval(0, None)) == "[0, inf)"


class TestFragility:
    def test_raw_path_scores_by_indices(self):
        # /html[1]/body[1]/div[3]: bare-tag steps score their index
        assert selector_fragility(parse_selector("/html[1]/body[1]/div[3]").steps) == 5

    def test_anchored_selector_scores_zero(self):
        assert selector_fragility(parse_selector("//div[@class='card'][1]").steps) == 0

    def test_anchored_with_position_scores_reduced(self):
        assert selector_fragility(parse_selector("//div[@class='card'][3]").steps) == 2

    def test_resolve_check_against_snapshots(self):
        dom = cards_page(3)
        reports = fragility_of_program(
            parse_program("ScrapeText(//div[@class='card'][1]/h3[1])"), (dom,)
        )
        assert [r.resolves for r in reports] == [True]
        reports = fragility_of_program(
            parse_program("ScrapeText(//div[@class='missing'][1])"), (dom,)
        )
        assert [r.resolves for r in reports] == [False]

    def test_symbolic_selectors_are_not_resolve_checked(self):
        reports = fragility_of_program(parse_program(SCRAPE_LOOP), (cards_page(2),))
        roles = {r.role: r.resolves for r in reports}
        assert roles["target"] is None  # mentions the loop variable
        assert roles["collection"] is True


class TestAnalyzeProgram:
    def test_clean_read_only_loop(self):
        analysis = analyze_program(parse_program(SCRAPE_LOOP))
        assert analysis.clean
        summary = analysis.summary_json()
        assert summary["effect"] == "read-only"
        assert summary["safe_replay"] is True
        assert summary["termination"] == "terminating"

    def test_unknown_termination_is_not_clean_but_warns(self):
        analysis = analyze_program(parse_program(ANON_WHILE))
        assert not analysis.clean
        rules = [f.rule for f in analysis.findings]
        assert "possibly-nonterminating" in rules
        # warnings, not errors: the program may still be accepted
        assert all(f.severity != "error" for f in analysis.findings)

    def test_unresolved_selector_is_an_error(self):
        analysis = analyze_program(
            parse_program("ScrapeText(//div[@class='missing'][1])"),
            snapshots=(cards_page(2),),
        )
        assert not analysis.clean
        assert [f.rule for f in analysis.findings if f.severity == "error"] == [
            "unresolved-selector"
        ]

    def test_findings_payload_shape(self):
        analysis = analyze_program(parse_program(ANON_WHILE))
        payload = findings_payload("analyze", analysis.findings)
        assert payload["version"] == 1
        assert payload["tool"] == "analyze"
        assert payload["errors"] == 0
        assert payload["warnings"] >= 1
        assert all(
            set(item) == {"tool", "rule", "severity", "path", "message"}
            for item in payload["findings"]
        )
