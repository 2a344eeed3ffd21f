"""Engine-cache bench: memoized vs uncached simulated execution.

Runs the incremental scaling workload (every prefix of a long recorded
demonstration, exactly what the front end does after each user action)
twice: once with the execution engine's caching layers on — the
execution/consistency memo plus the per-snapshot DOM indexes — and once
with both disabled.  Records the wall-clock speedup and the cache hit
rate in the benchmark's JSON (``extra_info``).

The timeout is deliberately generous so call times reflect the work
actually done rather than the deadline; the paper-faithful 1-second
budget would clip both variants to the same ceiling on long traces.

Each variant is timed as the best of three alternating passes (cached,
uncached, cached, ...), so one slow pass on a shared box does not
decide the ratio.  A pass runs both variants cold, the cached one
first, and each variant of each pass gets its own fresh deep copy of
the recording, so no leg inherits the DOM indexes or node memos
another leg built (snapshot-level caches live on the recording's DOM
nodes).

``REPRO_CACHE_BENCH`` picks the subject benchmark;
``REPRO_CACHE_LEN`` bounds the trace length;
the asserted floor is :data:`MIN_SPEEDUP` (1.5).  ``--quick`` halves
the trace bound and relaxes the floor to :data:`QUICK_MIN_SPEEDUP`
(1.3) for the CI smoke tier (shared runners are noisy; full runs keep
1.5).
"""

import copy
import os

from repro.benchmarks.suite import benchmark_by_id
from repro.engine import index as dom_index
from repro.harness.report import fmt_ms, fmt_pct, render_table
from repro.harness.scaling import DEFAULT_BENCHMARK, ScalingSeries, run_scaling
from repro.synth.config import DEFAULT_CONFIG, no_execution_cache_config

#: Passes per variant; each variant keeps its fastest.
PASSES = 3

#: Floor: uncached over cached wall time (full run / ``--quick``).
MIN_SPEEDUP = 1.5
QUICK_MIN_SPEEDUP = 1.3


def _run_pass(bid: str, max_length: int) -> tuple[ScalingSeries, ScalingSeries]:
    recording = benchmark_by_id(bid).record()
    cached = run_scaling(
        bid,
        max_length,
        timeout=10.0,
        variants=[("cache on", DEFAULT_CONFIG)],
        recording=copy.deepcopy(recording),
    )[0]
    previous = dom_index.set_dom_indexes(False)
    try:
        uncached = run_scaling(
            bid,
            max_length,
            timeout=10.0,
            variants=[("cache off", no_execution_cache_config())],
            recording=copy.deepcopy(recording),
        )[0]
    finally:
        dom_index.set_dom_indexes(previous)
    return cached, uncached


def _run_variants(bid: str, max_length: int) -> list[ScalingSeries]:
    passes = [_run_pass(bid, max_length) for _ in range(PASSES)]
    return [min(runs, key=lambda series: series.total_time) for runs in zip(*passes)]


def test_engine_cache_speedup(benchmark, quick):
    bid = os.environ.get("REPRO_CACHE_BENCH", DEFAULT_BENCHMARK)
    max_length = int(os.environ.get("REPRO_CACHE_LEN", "40" if quick else "80"))
    min_speedup = QUICK_MIN_SPEEDUP if quick else MIN_SPEEDUP
    series = benchmark.pedantic(
        _run_variants, args=(bid, max_length), rounds=1, iterations=1
    )
    cached, uncached = series
    speedup = uncached.total_time / cached.total_time if cached.total_time else 0.0
    benchmark.extra_info["benchmark"] = bid
    benchmark.extra_info["calls"] = len(cached.times)
    benchmark.extra_info["cached_seconds"] = round(cached.total_time, 4)
    benchmark.extra_info["uncached_seconds"] = round(uncached.total_time, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["cache_hit_rate"] = round(cached.cache_hit_rate, 4)
    benchmark.extra_info["cache_hits"] = cached.cache_hits
    benchmark.extra_info["cache_misses"] = cached.cache_misses
    benchmark.extra_info["index_builds"] = cached.index_builds
    print()
    print(f"Engine cache on {bid} ({len(cached.times)} incremental calls)")
    print(
        render_table(
            ["variant", "total", "hit rate"],
            [
                [cached.name, fmt_ms(cached.total_time), fmt_pct(cached.cache_hit_rate)],
                [uncached.name, fmt_ms(uncached.total_time), "—"],
            ],
        )
    )
    print(f"speedup: {speedup:.2f}x")
    assert cached.cache_hit_rate > 0.5, "execution cache should serve most lookups"
    assert speedup >= min_speedup
