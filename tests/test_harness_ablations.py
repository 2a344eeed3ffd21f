"""Tests for the extensions report (`repro.harness.ablations`)."""

from __future__ import annotations

from repro.harness.ablations import (
    ExtensionCase,
    render_extensions,
    run_extensions_report,
)
from repro.harness.q1 import BenchmarkResult


def result(accuracy: float, intended: bool) -> BenchmarkResult:
    outcome = BenchmarkResult(bid="x", family="f")
    outcome.tests = 10
    outcome.correct = int(accuracy * 10)
    outcome.intended = intended
    outcome.prediction_times = [0.01]
    return outcome


class TestExtensionsReport:
    def test_b6_solved_only_with_token_predicates(self):
        (case,) = run_extensions_report(trace_cap=30, bids=("b6",))
        assert case.mechanism == "disjunctive selectors"
        assert not case.baseline.intended  # as published
        assert case.extended.intended

    def test_render_marks_published_failures(self):
        case = ExtensionCase(
            "b6", "disjunctive selectors", result(0.5, False), result(1.0, True)
        )
        text = render_extensions([case])
        assert "NO (as published)" in text
        assert "b6" in text
