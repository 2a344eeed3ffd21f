"""Trace-length scaling of incremental synthesis (§5.4 quantified).

Table 1 shows the *aggregate* cost of disabling incrementality; this
harness shows the *shape*: per-call synthesis time as the demonstration
grows.  The incremental engine's cost per call stays roughly flat (only
spans touching the new suffix are re-speculated), while the
from-scratch engine re-explores the whole trace every call and its
per-call cost grows with trace length.

The measurement protocol mirrors real interactive use: one synthesizer
per variant receives every prefix of a recording in order (exactly what
the front end does after each user action); call times are bucketed by
trace length.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.benchmarks.suite import benchmark_by_id
from repro.browser.recorder import Recording
from repro.engine.cache import reset_process_cache
from repro.harness.figures import horizontal_bars
from repro.harness.report import fmt_ms, render_table
from repro.lang.pretty import format_program
from repro.synth.config import DEFAULT_CONFIG, SynthesisConfig, no_incremental_config
from repro.synth.synthesizer import Synthesizer

#: Default subject: a doubly-nested scrape whose traces grow long.
DEFAULT_BENCHMARK = "b12"


@dataclass
class ScalingSeries:
    """Per-call synthesis times (and engine telemetry) for one variant.

    ``programs`` is only filled when the run collects them (see
    :func:`run_scaling`): one tuple of rendered programs per call, in
    rank order — what the byte-identity comparisons of the ablation
    benches diff between variants.  ``cross_session_hits`` accumulates
    shared-cache reuse from other sessions in the same process;
    ``warm_hits`` accumulates persistent-backend reuse from prior
    processes; ``cache_bytes`` is the backing cache's footprint gauge
    after the final call.
    """

    name: str
    lengths: list[int] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    cross_session_hits: int = 0
    warm_hits: int = 0
    cache_bytes: int = 0
    index_builds: int = 0
    programs: list[tuple[str, ...]] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        """Wall-clock sum over all synthesize calls."""
        return sum(self.times)

    @property
    def cache_hit_rate(self) -> float:
        """Execution-cache hits over all lookups across the run."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def bucket_means(self, bucket: int) -> list[tuple[str, float]]:
        """Mean call time per trace-length bucket, as chart rows."""
        sums: dict[int, list[float]] = {}
        for length, elapsed in zip(self.lengths, self.times):
            sums.setdefault(length // bucket, []).append(elapsed)
        rows = []
        for index in sorted(sums):
            low, high = index * bucket + 1, (index + 1) * bucket
            values = sums[index]
            rows.append((f"{low}-{high}", sum(values) / len(values)))
        return rows


def run_scaling(
    bid: str = DEFAULT_BENCHMARK,
    max_length: int = 80,
    timeout: float = 1.0,
    variants: Optional[Sequence[tuple[str, SynthesisConfig]]] = None,
    collect_programs: bool = False,
    recording: Optional[Recording] = None,
) -> list[ScalingSeries]:
    """Measure per-call time vs. trace length for each variant.

    The default variant pair is the incremental-vs-from-scratch
    comparison; the engine-cache bench passes its own configuration
    pair instead.  With ``collect_programs``
    every call's ranked program list is rendered into the series, so
    behaviour-preserving variants can be diffed byte-for-byte.
    ``recording`` replaces the subject's cached recording, e.g. with a
    copy whose snapshots carry no DOM index an earlier run built.
    """
    benchmark = benchmark_by_id(bid)
    if recording is None:
        recording = benchmark.record()
    length = min(recording.length - 1, max_length)
    if variants is None:
        variants = [
            ("incremental", DEFAULT_CONFIG),
            ("from scratch", no_incremental_config()),
        ]
    series = []
    for name, config in variants:
        current = ScalingSeries(name)
        reset_process_cache()  # every variant is measured cold
        synthesizer = Synthesizer(benchmark.data, config)
        for cut in range(1, length + 1):
            actions, snapshots = recording.prefix(cut)
            started = time.perf_counter()
            result = synthesizer.synthesize(actions, snapshots, timeout=timeout)
            current.lengths.append(cut)
            current.times.append(time.perf_counter() - started)
            current.cache_hits += result.stats.cache_hits
            current.cache_misses += result.stats.cache_misses
            current.cross_session_hits += result.stats.cache_cross_session_hits
            current.warm_hits += result.stats.cache_warm_hits
            current.cache_bytes = result.stats.cache_bytes  # end-of-run gauge
            current.index_builds += result.stats.index_builds
            if collect_programs:
                current.programs.append(
                    tuple(format_program(program) for program in result.programs)
                )
        series.append(current)
    return series


def render_scaling(series: Sequence[ScalingSeries], bucket: int = 10) -> str:
    """Bucketed mean call times as a table plus bar charts."""
    buckets = sorted(
        {row[0] for entry in series for row in entry.bucket_means(bucket)},
        key=lambda label: int(label.split("-")[0]),
    )
    by_name = {
        entry.name: dict(entry.bucket_means(bucket)) for entry in series
    }
    rows = []
    for label in buckets:
        rows.append(
            [label]
            + [fmt_ms(by_name[entry.name].get(label, 0.0)) for entry in series]
        )
    table = render_table(
        ["trace length"] + [entry.name for entry in series], rows
    )
    charts = []
    for entry in series:
        chart_rows = [
            (label, mean * 1000.0) for label, mean in entry.bucket_means(bucket)
        ]
        charts.append(
            f"{entry.name} — mean synthesis time per call (ms)\n"
            + horizontal_bars(chart_rows, unit="ms")
        )
    return "\n\n".join(
        ["Per-call synthesis time vs. trace length\n" + table, *charts]
    )


def main() -> None:
    """CLI entry: regenerate the scaling comparison."""
    print(render_scaling(run_scaling()))


if __name__ == "__main__":
    main()
