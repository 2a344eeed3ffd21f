"""Cross-session execution sharing: private caches vs. the shared cache.

Runs the multi-session scaling workload — several demonstration
sessions per benchmark, session after session, exactly what a server
replaying many users over the same sites does — under two
configurations of the same serial validation loop:

* **private**: ``serial_validation_config()`` — a private per-session
  execution cache with resumable loops off; nothing carries over from
  one session to the next.
* **shared**: the default loop on ``shared_cache=True`` with resumable
  loops on (``replace(DEFAULT_CONFIG, shared_cache=True,
  cache_backend="memory")``) — sessions join the process-level
  ``SharedExecutionCache``, intern their snapshots and reuse each
  other's executions, so every session after the first runs mostly out
  of cache.  This is the configuration ``repro serve`` runs.

Subjects are the news-family scaled instances plus two plain-list
benchmarks: loop-heavy traces whose synthesis time is dominated by
simulated execution — the work the shared cache actually dedups across
sessions.  (Speculation-dominated subjects like the store-entry family
share almost nothing and would only dilute the measurement.)

Two assertions gate the result:

* the synthesized programs of every call of every session are
  byte-identical between the variants (the shared cache and resumable
  loops are behaviour-preserving, not approximate);
* the wall-clock speedup clears the floor (default 1.4×), and the
  shared variant actually shared (cross-session hits > 0).

An untimed warm-up session runs first so both variants are measured in
the same warm-snapshot-index regime (indexes attach to the recorded
snapshots, which all in-process sessions view).

``REPRO_PAR_BIDS`` picks the subjects (``+`` suffix = scaled instance);
``REPRO_PAR_SESSIONS`` the demonstration sessions per subject;
``REPRO_PAR_MIN_SPEEDUP`` adjusts the asserted floor (default 1.4).
``--quick`` halves the sessions and relaxes the floor to 1.25 for the
CI smoke tier (shared runners are noisy; full runs keep 1.4).
"""

import os
import time
from dataclasses import replace

from repro.benchmarks.suite import benchmark_by_id
from repro.engine.cache import process_cache, reset_process_cache
from repro.harness.report import fmt_ms, render_table
from repro.lang.pretty import format_program
from repro.synth.config import DEFAULT_CONFIG, serial_validation_config
from repro.synth.synthesizer import Synthesizer

#: News-family scaled instances (execution-dominated, loop-heavy) plus
#: two plain-list benchmarks with large pops.
DEFAULT_BIDS = "b1+,b2+,b4+,b5+,b13+,b15,b73"

#: The loop ``repro serve`` runs: shared cache, resumable loops on —
#: pinned to the in-process backend so a store left on disk cannot turn
#: the measured cross-session hits into warm-start hits.
SHARED_CONFIG = replace(DEFAULT_CONFIG, shared_cache=True, cache_backend="memory")


def _subjects(spec):
    """(label, benchmark, recording) per subject; ``+`` = scaled site."""
    subjects = []
    for token in spec.split(","):
        token = token.strip()
        scaled = token.endswith("+")
        bid = token[:-1] if scaled else token
        benchmark = benchmark_by_id(bid)
        recording = benchmark.scaled_recording() if scaled else benchmark.record()
        subjects.append((token, benchmark, recording))
    return subjects


def _run_workload(config, subjects, sessions, collect_programs=True):
    """Drive ``sessions`` incremental sessions over every subject.

    Returns total synthesize wall-clock, per-session program renderings
    (the byte-identity evidence), and total cross-session cache hits.
    """
    total = 0.0
    programs = []
    cross_hits = 0
    for _ in range(sessions):
        for _, benchmark, recording in subjects:
            length = recording.length - 1
            actions, snapshots = recording.prefix(length)
            synthesizer = Synthesizer(benchmark.data, config)
            per_call = []
            started = time.perf_counter()
            for cut in range(1, length + 1):
                result = synthesizer.synthesize(
                    actions[:cut], snapshots[: cut + 1], timeout=10.0
                )
                cross_hits += result.stats.cache_cross_session_hits
                if collect_programs:
                    per_call.append(
                        tuple(format_program(program) for program in result.programs)
                    )
            total += time.perf_counter() - started
            programs.append(per_call)
    return total, programs, cross_hits


def test_parallel_validation_speedup(benchmark, quick):
    subjects = _subjects(os.environ.get("REPRO_PAR_BIDS", DEFAULT_BIDS))
    sessions = int(os.environ.get("REPRO_PAR_SESSIONS", "4" if quick else "8"))
    min_speedup = float(
        os.environ.get("REPRO_PAR_MIN_SPEEDUP", "1.25" if quick else "1.4")
    )

    def run_pair():
        # untimed warm-up: build the snapshot indexes + enum memos both
        # variants will see, so the timed runs differ only in cache
        # sharing and loop resumption
        _run_workload(
            serial_validation_config(), subjects, 1, collect_programs=False
        )
        private = _run_workload(serial_validation_config(), subjects, sessions)
        reset_process_cache()
        shared = _run_workload(SHARED_CONFIG, subjects, sessions)
        interned = process_cache().interned_snapshots
        reset_process_cache()
        return private, shared, interned

    private, shared, interned = benchmark.pedantic(
        run_pair, rounds=1, iterations=1
    )
    private_time, private_programs, private_cross = private
    shared_time, shared_programs, shared_cross = shared
    speedup = private_time / shared_time if shared_time else 0.0
    benchmark.extra_info["subjects"] = ",".join(label for label, _, _ in subjects)
    benchmark.extra_info["sessions"] = sessions
    benchmark.extra_info["private_seconds"] = round(private_time, 4)
    benchmark.extra_info["shared_seconds"] = round(shared_time, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["cross_session_hits"] = shared_cross
    benchmark.extra_info["interned_snapshots"] = interned
    print()
    print(f"Multi-session synthesis on {len(subjects)} subjects × {sessions} sessions")
    print(
        render_table(
            ["variant", "total", "cross-session hits"],
            [
                ["private caches, no resume", fmt_ms(private_time), private_cross],
                ["shared cache + resume", fmt_ms(shared_time), shared_cross],
            ],
        )
    )
    print(f"speedup: {speedup:.2f}x; interned snapshots: {interned}")
    # behaviour preservation first: every call of every session must
    # synthesize byte-identical program lists under both variants
    assert private_programs == shared_programs, (
        "the shared cache changed the synthesized programs"
    )
    assert private_cross == 0, "private caches cannot share across sessions"
    assert shared_cross > 0, "the shared cache never served a cross-session hit"
    assert speedup >= min_speedup
