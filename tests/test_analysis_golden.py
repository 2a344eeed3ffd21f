"""Suite self-analysis goldens: every expected program analyzes clean.

The benchmark suite's ground-truth programs are the programs the
synthesizer is supposed to produce — so the analysis layer must bless
every one of them: a terminating (or progress-making) verdict, no
error findings against the program's own recording, and a recorded
action count inside the statically computed cost interval.  A
regression in any abstract domain that starts flagging known-good
programs shows up here before it ever reaches ``repro analyze`` users.
"""

import pytest

from repro.analysis import UNKNOWN, analyze_program
from repro.benchmarks.suite import all_benchmarks
from repro.lang.ast import Program


def _program_benchmarks():
    return [b for b in all_benchmarks() if isinstance(b.ground_truth, Program)]


@pytest.mark.parametrize(
    "bench", _program_benchmarks(), ids=lambda b: b.bid
)
class TestSuiteSelfAnalysis:
    def test_ground_truth_analyzes_clean(self, bench):
        recording = bench.record()
        analysis = analyze_program(
            bench.ground_truth, bench.data, recording.snapshots
        )
        assert analysis.termination != UNKNOWN, (
            f"{bench.bid}: expected program got an unknown-termination verdict"
        )
        errors = [f for f in analysis.findings if f.severity == "error"]
        assert not errors, f"{bench.bid}: {[str(f) for f in errors]}"

    def test_recorded_length_inside_cost_interval(self, bench):
        recording = bench.record()
        cost = analyze_program(bench.ground_truth, bench.data).cost
        assert cost.contains(recording.length), (
            f"{bench.bid}: {recording.length} recorded actions outside {cost}"
        )

