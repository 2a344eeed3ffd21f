"""Session-migration bench: export on worker A, resume on worker B, exactly.

De-stickies the service: a live demonstration session is serialized
into a protocol :class:`~repro.protocol.messages.SessionSnapshot`
(canonical JSON via the protocol codec), shipped across a **real
process boundary**, imported into a fresh
:class:`~repro.service.sessions.SessionManager`, and then *both*
workers continue the remainder of the demonstration independently:

* **source worker** (child process 1) — drives the first ``cut``
  actions of each subject, exports the session (wire bytes), keeps the
  non-evicted copy and finishes the trace: its per-call candidate
  lists are the reference;
* **target worker** (child process 2, fresh caches, memory backend —
  nothing shared but the wire bytes) — imports each snapshot, which
  replays the prefix through a fresh synthesizer, then finishes the
  trace the same way.

Assertions (correctness gates, not tolerances):

* every subject's post-migration per-call candidate lists are
  **byte-identical** between the two workers — the acceptance bar of
  the migration design (the rewrite store is value-addressed end to
  end, so replay reconstructs it exactly);
* the import replay cost stays proportional: resuming is bounded by
  :data:`MAX_RESUME_RATIO` × the source's cost of reaching the
  same prefix (3× — replay re-pays the incremental calls, it
  must not blow up asymptotically).

Reported: snapshot wire bytes per subject, export / import / continue
wall-clocks.  ``REPRO_MIG_BIDS`` picks the subjects (``+`` = scaled
instance), ``REPRO_MIG_CUT_FRACTION`` where the hand-off happens;
``--quick`` shrinks the workload for the CI smoke tier.
"""

import multiprocessing
import os
import time
from dataclasses import replace

from repro.benchmarks.suite import benchmark_by_id
from repro.harness.report import fmt_ms, render_table
from repro.synth.config import DEFAULT_CONFIG

DEFAULT_BIDS = "b1+,b5+,b15,b73"

#: Ceiling: import replay over the source's cost of the same prefix.
MAX_RESUME_RATIO = 3.0


def _subjects(spec):
    subjects = []
    for token in spec.split(","):
        token = token.strip()
        scaled = token.endswith("+")
        bid = token[:-1] if scaled else token
        benchmark = benchmark_by_id(bid)
        recording = benchmark.scaled_recording() if scaled else benchmark.record()
        subjects.append((token, benchmark, recording))
    return subjects


def _manager():
    from repro.service.sessions import SessionManager

    config = replace(DEFAULT_CONFIG, cache_backend="memory")
    return SessionManager(config, timeout=10.0)


def _continue_trace(manager, sid, actions, snapshots, cut):
    """Feed actions[cut:]; return the per-call candidate lists."""
    per_call = []
    for position in range(cut, len(actions)):
        manager.record_action(sid, actions[position], snapshots[position + 1])
        per_call.append(
            tuple(item.program for item in manager.candidates(sid).candidates)
        )
    return per_call


def _source_worker(spec, cut_fraction, pipe):
    """Child 1: demonstrate, export mid-trace, keep going (reference)."""
    from repro.engine.cache import reset_process_cache
    from repro.protocol.codec import DEFAULT_CODEC
    from repro.service.backends import reset_backends

    reset_process_cache()
    reset_backends()
    try:
        manager = _manager()
        results = []
        for label, benchmark, recording in _subjects(spec):
            length = recording.length - 1
            actions, snapshots = recording.prefix(length)
            cut = max(1, int(length * cut_fraction))
            started = time.perf_counter()
            sid = manager.create(snapshots[0], data=benchmark.data)
            for position in range(cut):
                manager.record_action(sid, actions[position], snapshots[position + 1])
            prefix_elapsed = time.perf_counter() - started
            started = time.perf_counter()
            wire = DEFAULT_CODEC.encode(manager.export_snapshot(sid, evict=False))
            export_elapsed = time.perf_counter() - started
            per_call = _continue_trace(manager, sid, actions, snapshots, cut)
            manager.close(sid)
            results.append(
                {
                    "label": label,
                    "cut": cut,
                    "length": length,
                    "wire": wire,
                    "wire_bytes": len(wire),
                    "prefix_elapsed": prefix_elapsed,
                    "export_elapsed": export_elapsed,
                    "per_call": per_call,
                }
            )
        pipe.send(results)
    finally:
        pipe.close()


def _target_worker(spec, handoffs, pipe):
    """Child 2: fresh process, import each snapshot, finish the trace."""
    from repro.engine.cache import reset_process_cache
    from repro.protocol.codec import DEFAULT_CODEC
    from repro.service.backends import reset_backends

    reset_process_cache()
    reset_backends()
    try:
        manager = _manager()
        results = []
        for (label, benchmark, recording), handoff in zip(_subjects(spec), handoffs):
            length = recording.length - 1
            actions, snapshots = recording.prefix(length)
            started = time.perf_counter()
            snapshot = DEFAULT_CODEC.decode(handoff["wire"])
            sid = manager.import_snapshot(snapshot).session
            import_elapsed = time.perf_counter() - started
            per_call = _continue_trace(manager, sid, actions, snapshots, handoff["cut"])
            manager.close(sid)
            results.append(
                {
                    "label": label,
                    "import_elapsed": import_elapsed,
                    "per_call": per_call,
                }
            )
        pipe.send(results)
    finally:
        pipe.close()


def _run_child(target, args):
    context = multiprocessing.get_context("fork")
    parent_end, child_end = context.Pipe()
    process = context.Process(target=target, args=args + (child_end,))
    process.start()
    child_end.close()
    try:
        result = parent_end.recv()
    finally:
        process.join()
    assert process.exitcode == 0, f"migration child exited {process.exitcode}"
    return result


def test_session_migration_round_trip(benchmark, quick):
    spec = os.environ.get("REPRO_MIG_BIDS", "b1+,b15" if quick else DEFAULT_BIDS)
    cut_fraction = float(os.environ.get("REPRO_MIG_CUT_FRACTION", "0.6"))
    max_resume_ratio = MAX_RESUME_RATIO
    subjects = _subjects(spec)  # validates the spec before forking

    def run_pair():
        exported = _run_child(_source_worker, (spec, cut_fraction))
        handoffs = [
            {"wire": item["wire"], "cut": item["cut"]} for item in exported
        ]
        imported = _run_child(_target_worker, (spec, handoffs))
        return exported, imported

    exported, imported = benchmark.pedantic(run_pair, rounds=1, iterations=1)

    rows = []
    total_wire = 0
    for source, target in zip(exported, imported):
        total_wire += source["wire_bytes"]
        rows.append(
            [
                source["label"],
                f"{source['cut']}/{source['length']}",
                f"{source['wire_bytes']}",
                fmt_ms(source["export_elapsed"]),
                fmt_ms(target["import_elapsed"]),
                "yes" if source["per_call"] == target["per_call"] else "NO",
            ]
        )
    print()
    print(f"Session migration over {len(subjects)} subjects (two forked workers)")
    print(
        render_table(
            ["subject", "handoff", "wire bytes", "export", "import+replay", "exact"],
            rows,
        )
    )

    benchmark.extra_info["subjects"] = spec
    benchmark.extra_info["wire_bytes_total"] = total_wire
    benchmark.extra_info["import_seconds"] = round(
        sum(item["import_elapsed"] for item in imported), 4
    )

    # the acceptance bar: byte-identical candidates after the hand-off
    for source, target in zip(exported, imported):
        assert source["per_call"] == target["per_call"], (
            f"{source['label']}: migrated session diverged from the source worker"
        )
        assert source["per_call"], (
            f"{source['label']}: no post-migration calls — raise the trace length"
        )
    # resuming is a replay of the prefix: it must stay proportional
    prefix_cost = sum(item["prefix_elapsed"] for item in exported)
    resume_cost = sum(item["import_elapsed"] for item in imported)
    assert resume_cost <= max_resume_ratio * max(prefix_cost, 1e-9), (
        f"import replay cost {resume_cost:.3f}s exceeds "
        f"{max_resume_ratio}x the source prefix cost {prefix_cost:.3f}s"
    )
