"""Q1 — evaluating the synthesis engine (Figure 12 and §7.1's aggregates).

For each benchmark we instrument the ground truth to get full traces,
then pose ``n − 1`` prediction tests: given the first ``k`` actions and
``k + 1`` snapshots, the engine must predict action ``k + 1``.  A test
counts as correct when *a* generated prediction is consistent with the
ground-truth action (the front end shows all predictions for the user to
pick — §7.1 "we can generate a correct prediction").  Per benchmark we
report accuracy, synthesis-time quartiles over the tests that produced a
prediction, and whether the final synthesized program is *intended*,
checked by replaying it on a fresh browser and comparing the scraped
dataset with the ground truth's.

Environment knobs (all optional):

* ``REPRO_TRACE_CAP`` — max prediction tests per benchmark (default 100;
  the paper uses full 500-action traces);
* ``REPRO_TIMEOUT`` — per-test synthesis timeout in seconds (default 1.0,
  as in the paper);
* ``REPRO_SUBSET`` — comma-separated benchmark ids to restrict the run.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.benchmarks.suite import Benchmark, all_benchmarks
from repro.browser.replayer import Replayer
from repro.engine.cache import reset_process_cache
from repro.harness.report import fmt_ms, fmt_pct, quartiles, render_table
from repro.lang.ast import (
    ForEachSelector,
    ForEachValue,
    PaginateLoop,
    Program,
    Statement,
    WhileLoop,
    program_depth,
)
from repro.semantics.consistency import actions_consistent
from repro.synth.config import DEFAULT_CONFIG, SynthesisConfig
from repro.synth.synthesizer import Synthesizer


def trace_cap_default() -> int:
    """The per-benchmark prediction-test cap (env-overridable).

    100 covers at least two full outer-loop iterations for every
    benchmark family (the paper runs the full 500-action traces; set
    ``REPRO_TRACE_CAP=500`` to match).
    """
    return int(os.environ.get("REPRO_TRACE_CAP", "100"))


def timeout_default() -> float:
    """The per-test synthesis timeout (env-overridable)."""
    return float(os.environ.get("REPRO_TIMEOUT", "1.0"))


def subset_from_env() -> Optional[set[str]]:
    """Benchmark ids selected via ``REPRO_SUBSET``, or None for all."""
    raw = os.environ.get("REPRO_SUBSET", "").strip()
    if not raw:
        return None
    return {part.strip() for part in raw.split(",") if part.strip()}


# ----------------------------------------------------------------------
# Program shape helpers (the §7.1 aggregate statistics)
# ----------------------------------------------------------------------
def nesting_depth(program: Program) -> int:
    """Maximum loop-nesting depth of a program."""
    return program_depth(program)


def statement_count(program: Program) -> int:
    """Statements including loop bodies (the paper's "6 statements")."""

    def count(stmt: Statement) -> int:
        if isinstance(stmt, (ForEachSelector, ForEachValue)):
            return 1 + sum(count(child) for child in stmt.body)
        if isinstance(stmt, WhileLoop):
            return 1 + sum(count(child) for child in stmt.body) + 1
        if isinstance(stmt, PaginateLoop):
            # the templated click counts like a while loop's click
            return 1 + sum(count(child) for child in stmt.body) + 1
        return 1

    return sum(count(stmt) for stmt in program.statements)


# ----------------------------------------------------------------------
# Per-benchmark evaluation
# ----------------------------------------------------------------------
@dataclass
class BenchmarkResult:
    """Everything Figure 12 plots for one benchmark, plus extras."""

    bid: str
    family: str
    tests: int = 0
    correct: int = 0
    correct_top1: int = 0
    prediction_times: list[float] = field(default_factory=list)
    intended: bool = False
    final_program: Optional[Program] = None
    final_programs_count: int = 0
    max_programs: int = 0
    max_predictions: int = 0
    timed_out_tests: int = 0
    expected_supported: bool = True
    cache_hits: int = 0
    cache_misses: int = 0
    cache_exact_hits: int = 0
    cache_prefix_hits: int = 0
    cache_consistency_hits: int = 0
    cache_cross_session_hits: int = 0
    cache_warm_hits: int = 0
    cache_backend: str = "memory"
    index_builds: int = 0

    @property
    def accuracy(self) -> float:
        """Fraction of tests with a correct prediction (any option)."""
        return self.correct / self.tests if self.tests else 0.0

    @property
    def accuracy_top1(self) -> float:
        """Fraction of tests whose *top-ranked* prediction was correct."""
        return self.correct_top1 / self.tests if self.tests else 0.0

    @property
    def time_quartiles(self) -> tuple[float, float, float, float, float]:
        """Synthesis-time quartiles over prediction-producing tests."""
        return quartiles(self.prediction_times)


def evaluate_benchmark(
    benchmark: Benchmark,
    config: SynthesisConfig = DEFAULT_CONFIG,
    trace_cap: Optional[int] = None,
    timeout: Optional[float] = None,
) -> BenchmarkResult:
    """Run all prediction tests for one benchmark (§7.1 protocol)."""
    cap = trace_cap if trace_cap is not None else trace_cap_default()
    per_test_timeout = timeout if timeout is not None else timeout_default()
    recording = benchmark.record()
    tests = min(recording.length - 1, cap)
    result = BenchmarkResult(
        bid=benchmark.bid,
        family=benchmark.family,
        expected_supported=benchmark.expected_supported,
    )
    final_program: Optional[Program] = None
    reset_process_cache()  # every benchmark is measured cold
    synthesizer = Synthesizer(benchmark.data, config)
    for k in range(1, tests + 1):
        actions, snapshots = recording.prefix(k)
        started = time.perf_counter()
        synthesis = synthesizer.synthesize(
            actions, snapshots, timeout=per_test_timeout
        )
        elapsed = time.perf_counter() - started
        result.tests += 1
        result.timed_out_tests += synthesis.stats.timed_out
        result.cache_hits += synthesis.stats.cache_hits
        result.cache_misses += synthesis.stats.cache_misses
        result.cache_exact_hits += synthesis.stats.cache_exact_hits
        result.cache_prefix_hits += synthesis.stats.cache_prefix_hits
        result.cache_consistency_hits += synthesis.stats.cache_consistency_hits
        result.cache_cross_session_hits += synthesis.stats.cache_cross_session_hits
        result.cache_warm_hits += synthesis.stats.cache_warm_hits
        result.cache_backend = synthesis.stats.cache_backend
        result.index_builds += synthesis.stats.index_builds
        result.max_programs = max(result.max_programs, len(synthesis.programs))
        result.max_predictions = max(
            result.max_predictions, len(synthesis.predictions)
        )
        expected = recording.actions[k]
        dom = recording.snapshots[k]
        if synthesis.predictions:
            result.prediction_times.append(elapsed)
            if actions_consistent(synthesis.predictions[0], expected, dom):
                result.correct_top1 += 1
            if any(
                actions_consistent(option, expected, dom)
                for option in synthesis.predictions
            ):
                result.correct += 1
        if synthesis.best_program is not None:
            final_program = synthesis.best_program
            result.final_programs_count = len(synthesis.programs)
    result.final_program = final_program
    result.intended = _is_intended(benchmark, final_program, recording)
    return result


def _is_intended(benchmark: Benchmark, program: Optional[Program], recording) -> bool:
    """Replay the synthesized program end-to-end and compare datasets.

    Two replays: the demonstrated instance, and (when available) a
    *scaled-up* instance of the same site.  The latter is the automated
    stand-in for the paper's manual judgment — a program hard-coded to
    the demonstrated sizes (e.g. one loop per page, the paper's b9
    failure mode) replays fine on the original but not on the larger
    instance.
    """
    if program is None:
        return False
    browser = benchmark.fresh_browser()
    replayer = Replayer(browser, max_actions=500, raise_errors=False)
    outcome = replayer.run(program)
    if outcome.error is not None or outcome.outputs != recording.outputs:
        return False
    scaled_browser = benchmark.fresh_scaled_browser()
    if scaled_browser is None:
        return True
    scaled_recording = benchmark.scaled_recording()
    scaled_outcome = Replayer(scaled_browser, max_actions=500, raise_errors=False).run(
        program
    )
    if scaled_outcome.error is not None:
        return False
    return scaled_outcome.outputs == scaled_recording.outputs


# ----------------------------------------------------------------------
# Figure 12 + aggregates
# ----------------------------------------------------------------------
@dataclass
class Q1Report:
    """The full experiment outcome."""

    results: list[BenchmarkResult]
    trace_cap: int
    timeout: float

    @property
    def solved_intended(self) -> int:
        return sum(result.intended for result in self.results)

    def render_figure12(self) -> str:
        """The per-benchmark series of Figure 12 as a text table."""
        rows = []
        for result in sorted(self.results, key=lambda r: (r.accuracy, r.bid)):
            tmin, tq1, tmed, tq3, tmax = result.time_quartiles
            rows.append([
                result.bid,
                fmt_pct(result.accuracy),
                fmt_pct(result.accuracy_top1),
                fmt_ms(tq1), fmt_ms(tmed), fmt_ms(tq3),
                "yes" if result.intended else "NO",
                result.tests,
            ])
        table = render_table(
            ["bench", "acc", "acc@1", "t_q1", "t_med", "t_q3", "intended", "tests"],
            rows,
        )
        return f"Figure 12 — per-benchmark accuracy / synthesis time (sorted by accuracy)\n{table}"

    def render_figure12_chart(self, width: int = 40) -> str:
        """Figure 12 as text charts (accuracy bars + time box plots)."""
        from repro.harness.figures import figure12_chart

        rows = [
            (result.bid, result.accuracy, result.time_quartiles)
            for result in sorted(self.results, key=lambda r: (r.accuracy, r.bid))
        ]
        return figure12_chart(rows, width)

    def render_aggregates(self) -> str:
        """§7.1's headline numbers."""
        results = self.results
        high_quality = sum(
            1
            for result in results
            if result.accuracy >= 0.95 and result.time_quartiles[2] <= 0.5
        )
        finals = [result.final_program for result in results if result.final_program]
        stmt_counts = [statement_count(program) for program in finals]
        depths = [nesting_depth(program) for program in finals]
        multi_programs = sum(result.max_programs > 1 for result in results)
        multi_predictions = sum(result.max_predictions > 1 for result in results)
        lines = [
            "Q1 aggregates (paper values in parentheses):",
            f"  benchmarks with >=95% accuracy and median time <=0.5s: "
            f"{high_quality}/{len(results)} = {fmt_pct(high_quality / len(results))} (68%)",
            f"  final synthesized program intended: {self.solved_intended}/{len(results)} "
            f"= {fmt_pct(self.solved_intended / len(results))} (91%)",
            f"  avg statements in final programs: "
            f"{sum(stmt_counts) / len(stmt_counts):.1f} (6), max {max(stmt_counts)} (18)"
            if stmt_counts else "  no final programs",
            f"  doubly-nested final programs: {sum(d == 2 for d in depths)} (32); "
            f">=3-level: {sum(d >= 3 for d in depths)} (6)",
            f"  benchmarks with multiple programs: {multi_programs} (59); "
            f"multiple predictions: {multi_predictions} (21)",
            f"  max programs for one test: {max((r.max_programs for r in results), default=0)} (101); "
            f"max predictions: {max((r.max_predictions for r in results), default=0)} (6)",
        ]
        hits = sum(result.cache_hits for result in results)
        misses = sum(result.cache_misses for result in results)
        if hits or misses:
            exact = sum(result.cache_exact_hits for result in results)
            prefix = sum(result.cache_prefix_hits for result in results)
            consistency = sum(result.cache_consistency_hits for result in results)
            lines.append(
                f"  execution-cache hit rate: {fmt_pct(hits / (hits + misses))} "
                f"({hits} hits = {exact} exact + {prefix} prefix + "
                f"{consistency} consistency / {misses} misses; "
                f"{sum(r.index_builds for r in results)} DOM indexes built)"
            )
            cross = sum(result.cache_cross_session_hits for result in results)
            if cross:
                lines.append(
                    f"  cross-session cache hits (shared cache): {cross} "
                    f"= {fmt_pct(cross / hits)} of all hits"
                )
            warm = sum(result.cache_warm_hits for result in results)
            if warm:
                backends = sorted({r.cache_backend for r in results})
                lines.append(
                    f"  warm-start cache hits (persistent backend "
                    f"{'/'.join(backends)}): {warm} = {fmt_pct(warm / hits)} "
                    f"of all hits"
                )
        return "\n".join(lines)


def run_q1(
    config: SynthesisConfig = DEFAULT_CONFIG,
    trace_cap: Optional[int] = None,
    timeout: Optional[float] = None,
    subset: Optional[Sequence[str]] = None,
    verbose: bool = False,
) -> Q1Report:
    """Run the Q1 experiment over the suite (or a subset)."""
    cap = trace_cap if trace_cap is not None else trace_cap_default()
    per_test_timeout = timeout if timeout is not None else timeout_default()
    selected = set(subset) if subset is not None else subset_from_env()
    results = []
    for benchmark in all_benchmarks():
        if selected is not None and benchmark.bid not in selected:
            continue
        result = evaluate_benchmark(benchmark, config, cap, per_test_timeout)
        results.append(result)
        if verbose:
            print(
                f"{result.bid}: acc={fmt_pct(result.accuracy)} "
                f"intended={'yes' if result.intended else 'NO'} "
                f"median={fmt_ms(result.time_quartiles[2])}"
            )
    return Q1Report(results, cap, per_test_timeout)


def main() -> None:
    """CLI entry: regenerate Figure 12 and the §7.1 aggregates."""
    report = run_q1(verbose=True)
    print()
    print(report.render_figure12())
    print()
    print(report.render_aggregates())


if __name__ == "__main__":
    main()
