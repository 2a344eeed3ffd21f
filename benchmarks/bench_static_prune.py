"""Static-pruning bench: engine validations saved, programs unchanged.

Runs the multi-session scaling workload — several incremental
demonstration sessions per subject, the same shape as
``bench_speculation_index.py`` — twice, each from a cold process
cache: once with the static feasibility analysis disabled and once
enabled
(:mod:`repro.analysis.feasibility` refuting speculated candidates
before the scheduler dispatches them to the execution engine).

Subjects are validation-pressure benchmarks: demonstrations whose
speculation emits many candidates per pop that Algorithm 3 must then
reject one engine execution at a time — exactly the waste the
emission-NFA refutation eliminates.  (The loop-absorbing news-family
subjects validate almost nothing per pop after the first calls and
would only dilute the measurement.)

Two assertions gate the result:

* the synthesized programs of every call of every session are
  byte-identical with pruning on and off — the refutation is a sound
  filter over candidates validation would reject, never a behaviour
  change;
* the pruned run executes at least 15% fewer engine validations
  (``SynthesisStats.validations``), and the pruned counter accounts
  for the gap.

``REPRO_PRUNE_BIDS`` picks the subjects; ``REPRO_PRUNE_SESSIONS`` the
demonstration sessions per subject; ``REPRO_PRUNE_MIN_REDUCTION``
adjusts the asserted floor (default 0.15).  ``--quick`` drops to one
session per subject for the CI smoke tier.
"""

import os
import time
from dataclasses import replace

from repro.benchmarks.suite import benchmark_by_id
from repro.engine.cache import reset_process_cache
from repro.harness.report import fmt_ms, render_table
from repro.lang.pretty import format_program
from repro.synth.config import DEFAULT_CONFIG, no_static_prune_config
from repro.synth.synthesizer import Synthesizer

#: Validation-pressure subjects: many speculated candidates per pop,
#: most of which Algorithm 3 rejects (the prunable regime).
DEFAULT_BIDS = "b9,b12,b15,b16,b18,b19,b20"


def _subjects(spec):
    """(bid, benchmark, recording) per subject."""
    subjects = []
    for token in spec.split(","):
        bid = token.strip()
        benchmark = benchmark_by_id(bid)
        subjects.append((bid, benchmark, benchmark.record()))
    return subjects


def _run_workload(config, subjects, sessions):
    """Drive ``sessions`` incremental sessions over every subject.

    Returns total synthesize wall-clock, per-session program renderings
    (the byte-identity evidence), and the validation/pruned counters.
    """
    reset_process_cache()
    total = 0.0
    programs = []
    validations = 0
    pruned = 0
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
                validations += result.stats.validations
                pruned += result.stats.pruned
                per_call.append(
                    tuple(format_program(program) for program in result.programs)
                )
            total += time.perf_counter() - started
            programs.append(per_call)
    return total, programs, validations, pruned


def test_static_prune_saves_validations(benchmark, quick):
    subjects = _subjects(os.environ.get("REPRO_PRUNE_BIDS", DEFAULT_BIDS))
    sessions = int(os.environ.get("REPRO_PRUNE_SESSIONS", "1" if quick else "2"))
    min_reduction = float(os.environ.get("REPRO_PRUNE_MIN_REDUCTION", "0.15"))
    base = replace(DEFAULT_CONFIG, cache_backend="memory")

    def run_pair():
        unpruned = _run_workload(no_static_prune_config(base), subjects, sessions)
        pruned = _run_workload(replace(base, static_prune=True), subjects, sessions)
        return unpruned, pruned

    unpruned, pruned = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    off_time, off_programs, off_validations, off_pruned = unpruned
    on_time, on_programs, on_validations, on_pruned = pruned
    reduction = (
        (off_validations - on_validations) / off_validations
        if off_validations
        else 0.0
    )
    benchmark.extra_info["subjects"] = ",".join(bid for bid, _, _ in subjects)
    benchmark.extra_info["sessions"] = sessions
    benchmark.extra_info["validations_off"] = off_validations
    benchmark.extra_info["validations_on"] = on_validations
    benchmark.extra_info["pruned"] = on_pruned
    benchmark.extra_info["reduction"] = round(reduction, 4)
    print()
    print(
        f"Static pruning on {len(subjects)} subjects × {sessions} sessions"
    )
    print(
        render_table(
            ["variant", "total", "validations run", "statically pruned"],
            [
                ["analysis off", fmt_ms(off_time), off_validations, off_pruned],
                ["analysis on", fmt_ms(on_time), on_validations, on_pruned],
            ],
        )
    )
    print(f"validation reduction: {reduction * 100:.1f}% (floor {min_reduction * 100:.0f}%)")
    # behaviour preservation first: every call of every session must
    # synthesize byte-identical program lists with pruning on and off
    assert off_programs == on_programs, (
        "static pruning changed the synthesized programs"
    )
    assert off_pruned == 0, "the disabled variant must not prune"
    assert on_pruned > 0, "the enabled variant never pruned a candidate"
    assert reduction >= min_reduction
