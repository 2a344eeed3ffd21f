"""Resumable loops in incremental synthesis: latency stays flat.

The interactive workload: one long demonstration (a wide list scrape,
the paper's motivating shape) grown one action at a time, synthesizing
after every action — the per-keystroke loop a recorder UI drives.  The
session runs the default configuration from a cold process cache:
continuation entries in the execution cache let every extension and
generalization check re-enter the trailing loop at its last started
iteration, making per-call cost O(new actions) instead of O(trace).
The reference is the same session with execution memoization off
(``no_execution_cache_config()``), which recomputes every run.

Two assertions gate the result:

* the synthesized program lists of every call are byte-identical to
  the reference's (resuming changes the cost, never the output);
* latency stays *flat* as the demonstration grows: the median of the
  last ten calls is within :data:`MAX_LATE_RATIO` (2×) of the
  early-call median.

``REPRO_PIPE_CARDS`` sets the demonstration width (two actions per
card).  ``--quick`` shrinks the trace and relaxes the factor to
:data:`QUICK_MAX_LATE_RATIO` (3×) for the CI smoke tier; the full run
is the source of record.
"""

import os
import statistics
import sys
import time
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from helpers import cards_page, scrape_cards_trace  # noqa: E402

from repro.engine.cache import reset_process_cache  # noqa: E402
from repro.harness.report import fmt_ms, render_table  # noqa: E402
from repro.lang import EMPTY_DATA  # noqa: E402
from repro.lang.pretty import format_program  # noqa: E402
from repro.synth.config import (  # noqa: E402
    DEFAULT_CONFIG,
    no_execution_cache_config,
)
from repro.synth.synthesizer import Synthesizer  # noqa: E402

#: Ceiling: late-call over early-call median latency (full / ``--quick``).
MAX_LATE_RATIO = 2.0
QUICK_MAX_LATE_RATIO = 3.0


def _drive_session(config, actions, snapshots):
    """Synthesize after every action; return (total, programs, latencies, resumes)."""
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


def test_pipeline_incremental_streaming(benchmark, quick):
    cards = int(os.environ.get("REPRO_PIPE_CARDS", "40" if quick else "50"))
    max_late_ratio = QUICK_MAX_LATE_RATIO if quick else MAX_LATE_RATIO
    dom = cards_page(cards)
    actions, snapshots = scrape_cards_trace(dom, cards)

    def run_pair():
        # the reference run also builds the snapshot index the timed
        # session sees; the timed session then starts from a cold
        # execution cache, pinned to memory against the environment
        reference = _drive_session(no_execution_cache_config(), actions, snapshots)
        reset_process_cache()
        resumed = _drive_session(
            replace(DEFAULT_CONFIG, cache_backend="memory"), actions, snapshots
        )
        return reference, resumed

    reference, resumed = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    _, reference_programs, _, _ = reference
    resume_time, resume_programs, resume_latencies, resume_hits = resumed
    resume_early, resume_late = _latency_profile(resume_latencies)
    resume_ratio = resume_late / resume_early if resume_early else 0.0

    benchmark.extra_info["cards"] = cards
    benchmark.extra_info["calls"] = len(actions)
    benchmark.extra_info["resume_seconds"] = round(resume_time, 4)
    benchmark.extra_info["resume_late_ratio"] = round(resume_ratio, 2)
    benchmark.extra_info["resume_hits"] = resume_hits

    print()
    print(f"Incremental synthesis over a {len(actions)}-action demonstration")
    print(
        render_table(
            ["variant", "total", "early call", "late call", "late/early"],
            [
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
    print(f"loop resume hits: {resume_hits}")

    # behaviour preservation first: every call must synthesize the
    # byte-identical program list the uncached reference does
    assert resume_programs == reference_programs, (
        "resumable loops changed the synthesized programs"
    )
    assert resume_hits > 0, "resumable loops never engaged"
    # streaming latency: the resuming session stays interactive as the
    # demonstration grows
    assert resume_ratio <= max_late_ratio
