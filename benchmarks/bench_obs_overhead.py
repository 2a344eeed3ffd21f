"""Observability overhead bench: disabled-path cost, behaviour parity.

Runs the same incremental-synthesis workload three ways over the
serial stack:

* **obs off** — the metrics registry kill-switched
  (``REPRO_OBS=0`` semantics via ``set_enabled(False)``) and tracing
  disabled: every instrumentation site reduces to one flag check
  returning a shared null object;
* **metrics on** — the default production path: registry enabled,
  tracing off.  This is the leg the overhead gate measures;
* **tracing on** — spans recorded to the in-memory ring buffer under
  one root trace context, the way ``synthesize --trace-out`` runs.

Three assertions gate the result:

* min-of-N wall clock of the *metrics on* leg is within
  ``REPRO_OBS_MAX_RATIO`` (default 1.05 — the ≤5%% budget) of the
  *obs off* leg; legs are interleaved round-robin so drift hits both;
* the synthesized programs of every call of every session are
  byte-identical across all three legs — observability never changes
  behaviour;
* every span recorded by the *tracing on* leg carries the root's
  trace_id (the propagation invariant the service relies on).

``REPRO_OBS_BIDS`` picks the subjects; ``REPRO_OBS_SESSIONS`` the
sessions per subject; ``REPRO_OBS_ROUNDS`` the min-of-N repeat count.
``--quick`` drops to one subject × two rounds for the CI smoke tier.
"""

import os
import time

from repro.benchmarks.suite import benchmark_by_id
from repro.harness.report import fmt_ms, render_table
from repro.lang.pretty import format_program
from repro.obs import context as obs_context
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.synth.config import serial_validation_config
from repro.synth.synthesizer import Synthesizer

#: Validation-pressure subjects: enough engine work per call that the
#: measurement reflects the instrumented hot path, not fixture setup.
DEFAULT_BIDS = "b9,b12,b15"


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

    Returns (wall-clock total, per-session program renderings).
    """
    total = 0.0
    programs = []
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
                per_call.append(
                    tuple(format_program(program) for program in result.programs)
                )
            total += time.perf_counter() - started
            programs.append(per_call)
    return total, programs


def test_obs_overhead_and_parity(benchmark, quick):
    bids = os.environ.get("REPRO_OBS_BIDS", "b9" if quick else DEFAULT_BIDS)
    subjects = _subjects(bids)
    sessions = int(os.environ.get("REPRO_OBS_SESSIONS", "1"))
    rounds = int(os.environ.get("REPRO_OBS_ROUNDS", "2" if quick else "3"))
    max_ratio = float(os.environ.get("REPRO_OBS_MAX_RATIO", "1.05"))
    config = serial_validation_config()
    registry = obs_metrics.registry()

    def leg_off():
        registry.set_enabled(False)
        obs_tracing.disable()
        try:
            return _run_workload(config, subjects, sessions)
        finally:
            registry.set_enabled(True)

    def leg_metrics():
        registry.set_enabled(True)
        obs_tracing.disable()
        return _run_workload(config, subjects, sessions)

    def leg_tracing():
        registry.set_enabled(True)
        obs_tracing.enable()
        root = obs_context.new_root()
        try:
            with obs_context.use(root):
                total, programs = _run_workload(config, subjects, sessions)
            return total, programs, root, list(obs_tracing.events())
        finally:
            obs_tracing.disable()
            obs_tracing.reset()

    def run_all():
        # warm caches and code paths once, untimed
        _run_workload(config, subjects, sessions)
        # interleave the timed legs, alternating order per round, so
        # environmental drift and order bias hit both equally
        off_times, on_times = [], []
        off_programs = on_programs = None
        for round_index in range(rounds):
            legs = [("off", leg_off), ("on", leg_metrics)]
            if round_index % 2:
                legs.reverse()
            for name, leg in legs:
                total, programs = leg()
                if name == "off":
                    off_times.append(total)
                    off_programs = programs
                else:
                    on_times.append(total)
                    on_programs = programs
        traced_total, traced_programs, root, events = leg_tracing()
        return (
            min(off_times),
            min(on_times),
            traced_total,
            off_programs,
            on_programs,
            traced_programs,
            root,
            events,
        )

    (
        off_time,
        on_time,
        traced_time,
        off_programs,
        on_programs,
        traced_programs,
        root,
        events,
    ) = benchmark.pedantic(run_all, rounds=1, iterations=1)
    ratio = on_time / off_time if off_time else 1.0
    benchmark.extra_info["subjects"] = bids
    benchmark.extra_info["rounds"] = rounds
    benchmark.extra_info["ratio"] = round(ratio, 4)
    benchmark.extra_info["spans"] = len(events)
    print()
    print(f"Observability overhead on {len(subjects)} subjects, min of {rounds}")
    print(
        render_table(
            ["variant", "total", "spans recorded"],
            [
                ["obs off", fmt_ms(off_time), 0],
                ["metrics on", fmt_ms(on_time), 0],
                ["tracing on", fmt_ms(traced_time), len(events)],
            ],
        )
    )
    print(f"metrics-on ratio: {ratio:.3f} (budget {max_ratio:.2f})")
    # behaviour preservation first: observability must never change
    # what gets synthesized
    assert off_programs == on_programs, "metrics changed the synthesized programs"
    assert off_programs == traced_programs, "tracing changed the synthesized programs"
    # propagation invariant: every span of the traced leg carries the
    # root's trace_id
    assert events, "the traced leg recorded no spans"
    stray = [e for e in events if e["args"].get("trace_id") != root.trace_id]
    assert not stray, f"{len(stray)} spans lost the root trace_id"
    # the overhead gate proper
    assert ratio <= max_ratio, (
        f"metrics-on leg ran {ratio:.3f}x the disabled leg (budget {max_ratio})"
    )
