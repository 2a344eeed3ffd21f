"""The extensions report: the paper's failure cases, extensions off and on.

Table 1 ablates the two headline ideas (selector search and incremental
synthesis).  This module reports the two published failure cases (b6
disjunctive selectors, b9/b10 numbered pagination) with this repo's
opt-in extensions (:func:`~repro.synth.config.token_predicate_config`,
:func:`~repro.synth.config.numbered_pagination_config`) switched off and
on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.benchmarks.suite import benchmark_by_id
from repro.harness.q1 import BenchmarkResult, evaluate_benchmark
from repro.harness.report import fmt_pct, render_table
from repro.synth.config import (
    DEFAULT_CONFIG,
    numbered_pagination_config,
    token_predicate_config,
)


@dataclass
class ExtensionCase:
    """One failure-case benchmark under both configurations."""

    bid: str
    mechanism: str
    baseline: BenchmarkResult
    extended: BenchmarkResult

    def row(self) -> list:
        return [
            self.bid,
            self.mechanism,
            "yes" if self.baseline.intended else "NO (as published)",
            "yes" if self.extended.intended else "NO",
            fmt_pct(self.extended.accuracy),
        ]


def run_extensions_report(
    trace_cap: int = 60,
    timeout: float = 1.0,
    bids: Optional[Sequence[str]] = None,
) -> list[ExtensionCase]:
    """The published failure cases, without and with the extensions.

    b6 needs the token-predicate extension (disjunctive selectors);
    b9/b10 need the numbered-pagination extension.
    """
    plans = [
        ("b6", "disjunctive selectors", token_predicate_config()),
        ("b9", "numbered pagination", numbered_pagination_config()),
        ("b10", "numbered pagination", numbered_pagination_config()),
    ]
    if bids is not None:
        plans = [plan for plan in plans if plan[0] in set(bids)]
    cases = []
    for bid, mechanism, extended_config in plans:
        benchmark = benchmark_by_id(bid)
        baseline = evaluate_benchmark(benchmark, DEFAULT_CONFIG, trace_cap, timeout)
        extended = evaluate_benchmark(benchmark, extended_config, trace_cap, timeout)
        cases.append(ExtensionCase(bid, mechanism, baseline, extended))
    return cases


def render_extensions(cases: Sequence[ExtensionCase]) -> str:
    """Table: published failure cases solved by the opt-in extensions."""
    table = render_table(
        ["bench", "mechanism", "default intended", "extended intended", "ext. accuracy"],
        [case.row() for case in cases],
    )
    return f"Published failure cases vs. this repo's opt-in extensions\n{table}"


def main() -> None:
    """CLI entry: run the extensions report."""
    print(render_extensions(run_extensions_report()))


if __name__ == "__main__":
    main()
