"""Q4 — comparison with conventional rewrite-based synthesis (Table 2).

The paper evaluates its egg-based baseline on the nine benchmarks whose
ground truths involve only selector loops and no alternative selectors,
running both engines on action traces of increasing length and reporting
the synthesis time at the shortest trace for which each produces an
intended program.

Our baseline is better at early extraction than the paper's (a minimal-
statement extractor finds the generalizing loop as soon as one boundary-
aligned repetition is visible), so we report *two* costs per benchmark:

* ``shortest`` — time at the shortest intended prefix (the paper's X/Y);
* ``full trace`` — time to saturate the complete recorded trace, which is
  where correct-by-construction rewriting pays the combinatorial price
  the paper describes (single loops stay in milliseconds, doubly-nested
  grow by orders of magnitude, three-level nesting exhausts the budget).

``REPRO_Q4_TIMEOUT`` bounds each baseline run (default 60 s; the paper
used 5 minutes).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

from repro.baseline.egg_synth import synthesize_baseline
from repro.benchmarks.suite import Benchmark, TABLE2_IDS, benchmark_by_id
from repro.browser.replayer import Replayer
from repro.engine.cache import reset_process_cache
from repro.harness.report import fmt_ms, render_table
from repro.lang.ast import Program
from repro.synth.config import DEFAULT_CONFIG, no_incremental_config
from repro.synth.synthesizer import Synthesizer


def q4_timeout() -> float:
    """Per-run baseline budget in seconds (env-overridable)."""
    return float(os.environ.get("REPRO_Q4_TIMEOUT", "60"))


def _intended(benchmark: Benchmark, program: Optional[Program], recording) -> bool:
    if program is None:
        return False
    browser = benchmark.fresh_browser()
    outcome = Replayer(browser, max_actions=500, raise_errors=False).run(program)
    return outcome.error is None and outcome.outputs == recording.outputs


@dataclass
class EngineMeasurement:
    """One engine's Table 2 cell."""

    shortest_length: Optional[int] = None
    shortest_time: Optional[float] = None
    full_time: Optional[float] = None
    full_timed_out: bool = False

    def cell_shortest(self) -> str:
        if self.shortest_length is None:
            return "–/–"
        return f"{fmt_ms(self.shortest_time)}/{self.shortest_length}"

    def cell_full(self) -> str:
        if self.full_timed_out:
            return "timeout"
        if self.full_time is None:
            return "–"
        return fmt_ms(self.full_time)


@dataclass
class Q4Row:
    """Baseline vs WebRobot on one benchmark."""

    bid: str
    trace_length: int
    baseline: EngineMeasurement
    webrobot: EngineMeasurement


def measure_baseline(benchmark: Benchmark, budget: Optional[float] = None) -> EngineMeasurement:
    """Baseline: increasing prefixes until intended, plus the full trace."""
    timeout = budget if budget is not None else q4_timeout()
    recording = benchmark.record()
    measurement = EngineMeasurement()
    spent = 0.0
    for length in range(2, recording.length + 1):
        remaining = timeout - spent
        if remaining <= 0:
            break
        actions, snapshots = recording.prefix(length)
        outcome = synthesize_baseline(actions, snapshots, timeout=remaining)
        spent += outcome.elapsed
        if outcome.timed_out:
            break
        if _intended(benchmark, outcome.program, recording):
            measurement.shortest_length = length
            measurement.shortest_time = outcome.elapsed
            break
    actions, snapshots = recording.prefix(recording.length)
    full = synthesize_baseline(actions, snapshots, timeout=timeout)
    measurement.full_time = full.elapsed
    measurement.full_timed_out = full.timed_out
    return measurement


def measure_webrobot(
    benchmark: Benchmark, target_length: Optional[int] = None
) -> EngineMeasurement:
    """WebRobot, single-shot (no worklist sharing) at trace length Y.

    Table 2 compares both engines at the *same* shortest trace length, so
    ``target_length`` is normally the baseline's Y; when the baseline
    never succeeded (the paper's b56) the full trace is used, as the
    paper does (950 ms at length 204).
    """
    recording = benchmark.record()
    measurement = EngineMeasurement()
    config = no_incremental_config()
    length = target_length if target_length is not None else recording.length - 1
    length = max(2, min(length, recording.length - 1))
    actions, snapshots = recording.prefix(length)
    reset_process_cache()  # both runs are measured cold
    started = time.perf_counter()
    result = Synthesizer(benchmark.data, config).synthesize(actions, snapshots)
    elapsed = time.perf_counter() - started
    if _intended(benchmark, result.best_program, recording):
        measurement.shortest_length = length
        measurement.shortest_time = elapsed
    # full trace, one shot
    actions, snapshots = recording.prefix(recording.length - 1)
    reset_process_cache()
    started = time.perf_counter()
    full_result = Synthesizer(benchmark.data, config).synthesize(actions, snapshots)
    measurement.full_time = time.perf_counter() - started
    measurement.full_timed_out = not _intended(
        benchmark, full_result.best_program, recording
    )
    return measurement


@dataclass
class Q4Report:
    """All Table 2 rows."""

    rows: list[Q4Row]

    def render_table2(self) -> str:
        paper = {
            "b12": "2e5ms/34", "b15": "12ms/6", "b20": "15ms/12", "b48": "6ms/8",
            "b56": "–/–", "b73": "2ms/2", "b74": "2ms/2", "b75": "3ms/2",
            "b76": "2ms/2",
        }
        header = ["bench", "n", "egg shortest", "egg full", "WebRobot shortest",
                  "WebRobot full", "paper egg X/Y"]
        body = []
        for row in self.rows:
            body.append([
                row.bid,
                row.trace_length,
                row.baseline.cell_shortest(),
                row.baseline.cell_full(),
                row.webrobot.cell_shortest(),
                row.webrobot.cell_full(),
                paper.get(row.bid, "—"),
            ])
        table = render_table(header, body)
        return (
            "Table 2 — egg-style baseline vs WebRobot (Q4)\n"
            "X/Y = synthesis time at the shortest intended trace length Y\n"
            + table
        )


def run_q4(verbose: bool = False) -> Q4Report:
    """Run the Table 2 comparison on the nine selector-loop benchmarks."""
    rows = []
    for bid in TABLE2_IDS:
        benchmark = benchmark_by_id(bid)
        baseline = measure_baseline(benchmark)
        webrobot = measure_webrobot(benchmark, baseline.shortest_length)
        rows.append(Q4Row(bid, benchmark.record().length, baseline, webrobot))
        if verbose:
            row = rows[-1]
            print(
                f"{bid}: egg {row.baseline.cell_shortest()} full {row.baseline.cell_full()} "
                f"| webrobot {row.webrobot.cell_shortest()} full {row.webrobot.cell_full()}"
            )
    rows.sort(key=lambda row: int(row.bid[1:]))
    return Q4Report(rows)


def main() -> None:
    """CLI entry: regenerate Table 2."""
    report = run_q4(verbose=True)
    print()
    print(report.render_table2())


if __name__ == "__main__":
    main()
