"""Resumable loops in incremental synthesis: resume on vs. off.

The interactive workload: one long demonstration (a wide list scrape,
the paper's motivating shape) grown one action at a time, synthesizing
after every action — the per-keystroke loop a recorder UI drives.  Both
variants run the same serial validation loop over a private in-memory
cache; they differ only in resumable loop execution:

* **no resume**: ``serial_validation_config()`` — every extension and
  generalization check re-executes the trailing loop from its window
  start, so per-call cost grows with the trace.
* **resume**: ``replace(serial_validation_config(),
  resumable_loops=True)`` — continuation entries in the execution cache
  let those checks re-enter the loop at its last started iteration,
  making per-call cost O(new actions) instead of O(trace).

Three assertions gate the result:

* the synthesized program lists of every call are byte-identical
  between the variants (resuming changes the cost, never the output);
* end-to-end wall clock clears the speedup floor (default 1.3×);
* latency stays *flat* as the demonstration grows: the median of the
  last ten calls is within the flatness factor (default 2×) of the
  early-call median — the no-resume baseline degrades super-linearly on
  the same trace.

``REPRO_PIPE_CARDS`` sets the demonstration width (two actions per
card); ``REPRO_PIPE_MIN_SPEEDUP`` / ``REPRO_PIPE_MAX_LATE_RATIO``
adjust the asserted floors.  ``--quick`` shrinks the trace and relaxes
the floors for the CI smoke tier; the full run is the source of record.
"""

import os
import statistics
import sys
import time
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from helpers import cards_page, scrape_cards_trace  # noqa: E402

from repro.harness.report import fmt_ms, render_table  # noqa: E402
from repro.lang import EMPTY_DATA  # noqa: E402
from repro.lang.pretty import format_program  # noqa: E402
from repro.synth.config import serial_validation_config  # noqa: E402
from repro.synth.synthesizer import Synthesizer  # noqa: E402


def _drive_session(config, actions, snapshots):
    """Synthesize after every action; return (total, programs, latencies, stats)."""
    synthesizer = Synthesizer(EMPTY_DATA, config)
    programs = []
    latencies = []
    resume_hits = 0
    started = time.perf_counter()
    for cut in range(1, len(actions) + 1):
        call_started = time.perf_counter()
        result = synthesizer.synthesize(
            actions[:cut], snapshots[: cut + 1], timeout=10.0
        )
        latencies.append(time.perf_counter() - call_started)
        resume_hits += result.stats.cache_resume_hits
        programs.append(tuple(format_program(p) for p in result.programs))
    total = time.perf_counter() - started
    return total, programs, latencies, resume_hits


def _latency_profile(latencies):
    """(early median, late median): calls 10–40 vs the last ten.

    The first few calls precede loop formation (no extension work yet),
    so "early" starts once the loop exists and the steady interactive
    regime has begun.
    """
    early = statistics.median(latencies[10:40])
    late = statistics.median(latencies[-10:])
    return early, late


def test_pipeline_incremental_speedup(benchmark, quick):
    cards = int(os.environ.get("REPRO_PIPE_CARDS", "40" if quick else "50"))
    min_speedup = float(
        os.environ.get("REPRO_PIPE_MIN_SPEEDUP", "1.15" if quick else "1.3")
    )
    max_late_ratio = float(
        os.environ.get("REPRO_PIPE_MAX_LATE_RATIO", "3.0" if quick else "2.0")
    )
    dom = cards_page(cards)
    actions, snapshots = scrape_cards_trace(dom, cards)

    def run_pair():
        # untimed warm-up builds the snapshot index both variants see,
        # so the timed runs differ only in the resume machinery
        baseline = serial_validation_config()
        _drive_session(baseline, actions, snapshots)
        flat = _drive_session(baseline, actions, snapshots)
        resumed = _drive_session(
            replace(baseline, resumable_loops=True), actions, snapshots
        )
        return flat, resumed

    flat, resumed = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    flat_time, flat_programs, flat_latencies, flat_resume = flat
    resume_time, resume_programs, resume_latencies, resume_hits = resumed
    speedup = flat_time / resume_time if resume_time else 0.0
    flat_early, flat_late = _latency_profile(flat_latencies)
    resume_early, resume_late = _latency_profile(resume_latencies)
    resume_ratio = resume_late / resume_early if resume_early else 0.0
    flat_ratio = flat_late / flat_early if flat_early else 0.0

    benchmark.extra_info["cards"] = cards
    benchmark.extra_info["calls"] = len(actions)
    benchmark.extra_info["no_resume_seconds"] = round(flat_time, 4)
    benchmark.extra_info["resume_seconds"] = round(resume_time, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["no_resume_late_ratio"] = round(flat_ratio, 2)
    benchmark.extra_info["resume_late_ratio"] = round(resume_ratio, 2)
    benchmark.extra_info["resume_hits"] = resume_hits

    print()
    print(f"Incremental synthesis over a {len(actions)}-action demonstration")
    print(
        render_table(
            ["variant", "total", "early call", "late call", "late/early"],
            [
                [
                    "no resume",
                    fmt_ms(flat_time),
                    fmt_ms(flat_early),
                    fmt_ms(flat_late),
                    f"{flat_ratio:.2f}x",
                ],
                [
                    "resume",
                    fmt_ms(resume_time),
                    fmt_ms(resume_early),
                    fmt_ms(resume_late),
                    f"{resume_ratio:.2f}x",
                ],
            ],
        )
    )
    print(f"speedup: {speedup:.2f}x; loop resume hits: {resume_hits}")

    # behaviour preservation first: every call must synthesize
    # byte-identical program lists under both variants
    assert flat_programs == resume_programs, (
        "resumable loops changed the synthesized programs"
    )
    assert flat_resume == 0, "the no-resume baseline must not take resume hits"
    assert resume_hits > 0, "resumable loops never engaged"
    assert speedup >= min_speedup
    # streaming latency: the resuming variant stays interactive as the
    # demonstration grows
    assert resume_ratio <= max_late_ratio
