"""Property-based soundness tests for the analysis layer.

The analyzer's verdicts must never contradict concrete execution:

* **effects** — replaying a program under the trace semantics only
  emits action kinds the static effect summary admits; in particular a
  read-only-classified program never emits a DOM-mutating (or even
  navigating) action;
* **cost** — the measured action count of a complete concrete replay
  falls inside the statically computed cost interval.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis import analyze_program, effect_of_program
from repro.analysis.effects import MUTATE_KINDS, NAVIGATE_KINDS, READ_KINDS
from repro.benchmarks.sites.plain_lists import NestedListSite, PlainListSite
from repro.benchmarks.sites.store_locator import StoreLocatorSite
from repro.browser import record_ground_truth
from repro.lang import EMPTY_DATA, Program, action_to_statement, parse_program
from repro.semantics import DOMTrace, execute

FLAT_GT = parse_program(
    "foreach i in Children(/html[1]/body[1]/ul[1], li) do\n"
    "  ScrapeText(i/span[1])\n  ScrapeText(i/b[1])"
)
NESTED_GT = parse_program(
    "foreach g in Children(/html[1]/body[1], div) do\n"
    "  foreach i in Children(g/ul[1], li) do\n    ScrapeText(i)"
)
STORE_GT = parse_program("""
while true do
  foreach r in Dscts(/, div[@class='rightContainer']) do
    ScrapeText(r//h3[1])
  Click(//button[@class='sprite-next-page-arrow'][1]/span[1])
""")


@st.composite
def recordings(draw):
    """A (recording, ground truth, data) triple from a known family."""
    family = draw(st.sampled_from(["flat", "nested", "store"]))
    if family == "flat":
        site = PlainListSite(draw(st.integers(2, 7)), fields=2,
                             seed=f"as{draw(st.integers(0, 5))}")
        return record_ground_truth(site, FLAT_GT), FLAT_GT, EMPTY_DATA
    if family == "nested":
        site = NestedListSite(draw(st.integers(2, 4)), draw(st.integers(2, 4)),
                              seed=f"an{draw(st.integers(0, 5))}")
        return record_ground_truth(site, NESTED_GT), NESTED_GT, EMPTY_DATA
    site = StoreLocatorSite(draw(st.integers(2, 3)), draw(st.integers(2, 4)),
                            fixed_zip=f"48{draw(st.integers(100, 120))}")
    return record_ground_truth(site, STORE_GT), STORE_GT, EMPTY_DATA


def _admitted_kinds(summary) -> set:
    admitted = set()
    if summary.reads:
        admitted |= READ_KINDS
    if summary.navigates:
        admitted |= NAVIGATE_KINDS
    if summary.mutates:
        admitted |= MUTATE_KINDS
    return admitted


class TestEffectSoundness:
    @given(recordings())
    @settings(max_examples=20, deadline=None)
    def test_replay_emits_only_admitted_kinds(self, payload):
        recording, program, data = payload
        summary = effect_of_program(program)
        produced = execute(program, DOMTrace(recording.snapshots), data).actions
        admitted = _admitted_kinds(summary)
        assert {action.kind for action in produced} <= admitted

    @given(recordings())
    @settings(max_examples=20, deadline=None)
    def test_read_only_verdict_means_no_mutation(self, payload):
        recording, program, data = payload
        summary = effect_of_program(program)
        if summary.classification != "read-only":
            return
        produced = execute(program, DOMTrace(recording.snapshots), data).actions
        assert not any(
            action.kind in MUTATE_KINDS | NAVIGATE_KINDS for action in produced
        )

    @given(recordings())
    @settings(max_examples=20, deadline=None)
    def test_singleton_lift_is_always_analyzable(self, payload):
        recording, _, data = payload
        singleton = Program(
            tuple(action_to_statement(action) for action in recording.actions)
        )
        analysis = analyze_program(singleton, data, recording.snapshots)
        # the recorded trace itself replays exactly: its lift is
        # loop-free, hence terminating with an exact cost
        assert analysis.termination == "terminating"
        assert analysis.cost.lo == analysis.cost.hi == recording.length


class TestCostSoundness:
    @given(recordings())
    @settings(max_examples=20, deadline=None)
    def test_complete_replay_count_inside_interval(self, payload):
        recording, program, data = payload
        cost = analyze_program(program, data).cost
        produced = execute(program, DOMTrace(recording.snapshots), data).actions
        assert cost.contains(len(produced)), (
            f"{len(produced)} produced actions outside {cost}"
        )

    @given(recordings(), st.integers(1, 40))
    @settings(max_examples=20, deadline=None)
    def test_halted_replay_respects_upper_bound(self, payload, cut):
        # upper bounds are sound for *every* run, halted ones included
        # (lower bounds are not: halting can cut a run short)
        recording, program, data = payload
        cut = min(cut, recording.length)
        cost = analyze_program(program, data).cost
        produced = execute(program, DOMTrace(recording.snapshots, 0, cut), data).actions
        assert cost.hi is None or len(produced) <= cost.hi

