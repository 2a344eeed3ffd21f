"""Store codec bench: compressed payload rows in the fleet's cache tier, gated.

Drives the multi-session service workload (a
:class:`~repro.service.sessions.SessionManager` creating sessions,
feeding them action by action and closing them, as ``repro serve``
does per request) through the cache tier.  Every leg runs in a **fresh
child process** so it starts cold; a tier leg starts an in-process
cache server (:func:`~repro.fleet.cache_server.make_cache_server`) over
the leg's store file and points its sessions at it over
``remote://``:

* **memory** — no tier: the programs every tier leg must reproduce;
* **tier, untiered** — every row persisted (the child sets
  ``repro.engine.cache.TIER_COST`` to -1): the baseline of the
  tier-policy footprint comparison;
* **tier, tiered** (the default config) — cheap exact interior entries
  are recomputed instead of stored: the tier-policy footprint
  comparison;
* **tier, restarted** — a new process and a new cache server over the
  tiered store: the ``repro cache-serve`` restart shape.

Assertions (the floors are the module constants below):

* the synthesized program lists of every call of every session are
  **byte-identical** across all four runs — neither the tier, its store
  nor the tier policy may change synthesis output — and the restarted
  tier serves warm hits;
* tiering cuts the untiered store's footprint by ≥
  :data:`MIN_FOOTPRINT`;
* a codec microbenchmark over the store's own payload corpus (the
  decoded rows of the untiered store): both codecs decode to equal
  values, the store codec is ≥ :data:`MIN_SIZE_RATIO` smaller (the size
  claim the compressed store rests on), and its encode+decode
  round-trip stays within :data:`MAX_CPU_RATIO` of plain JSON's CPU.

No leg's wall time is gated.  Execution here is simulated at ~0.5 ms
per action, less than one tier read costs, so a restarted tier does not
beat a cold in-memory run; the timings are printed for the record.

The store codec is canonical JSON under the stdlib's C zlib, so the
win is **bytes** — ~10× smaller rows and cache-tier frames — at about
plain JSON's round-trip CPU (both halves run in C; measured 0.66–1.36×
JSON on a shared 2-core box).  The CPU ceiling asserted
here is a *regression* gate, not a speed claim.

``REPRO_STORE_BENCH_BIDS`` picks the subjects (``+`` suffix = scaled
instance); ``REPRO_STORE_BENCH_SESSIONS`` the sessions per subject;
``REPRO_STORE_BENCH_REPS`` the microbench repetitions (min-of-N, codecs
interleaved per rep).  ``--quick`` shrinks the workload for the CI
smoke tier.
"""

import multiprocessing
import os
import sqlite3
import sys
import tempfile
import time
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from helpers import cache_tier  # noqa: E402

from repro.benchmarks.suite import benchmark_by_id  # noqa: E402
from repro.harness.report import fmt_bytes, fmt_ms, render_table  # noqa: E402
from repro.protocol.codec import DEFAULT_CODEC, STORE_CODEC, sniff_codec  # noqa: E402
from repro.synth.config import DEFAULT_CONFIG  # noqa: E402

#: Loop-heavy, execution-dominated subjects — the entries the store
#: actually holds are dominated by their loop-body executions.
DEFAULT_BIDS = "b1+,b2+,b15,b73"

#: Floor: the tier policy cuts the untiered store's bytes by this factor.
MIN_FOOTPRINT = 1.5
#: Floor: store-codec rows are this many times smaller than plain JSON.
MIN_SIZE_RATIO = 4.0
#: Ceiling: store-codec round-trip CPU over plain JSON's.
MAX_CPU_RATIO = 3.0

#: The store file a cache server keeps in its ``--cache-dir``.
STORE_FILE = "execution-cache.sqlite"

#: Per-call deadline.  A call cut by its deadline could differ by
#: timing alone, so the bench asserts that none is.
CALL_TIMEOUT = 10.0


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


def _drive_sessions(backend, subjects, sessions):
    """Run the workload through a SessionManager; return measurements."""
    from repro.service.sessions import SessionManager

    config = replace(DEFAULT_CONFIG, cache_backend=backend)
    manager = SessionManager(config, timeout=CALL_TIMEOUT)
    programs = []
    elapsed = 0.0
    for _ in range(sessions):
        for _, benchmark, recording in subjects:
            length = recording.length - 1
            actions, snapshots = recording.prefix(length)
            started = time.perf_counter()
            sid = manager.create(snapshots[0], data=benchmark.data)
            per_call = []
            for position, action in enumerate(actions):
                manager.record_action(sid, action, snapshots[position + 1])
                per_call.append(
                    tuple(
                        item.program for item in manager.candidates(sid).candidates
                    )
                )
            manager.close(sid)
            elapsed += time.perf_counter() - started
            programs.append(per_call)
    totals = manager.stats()["totals"]
    return {
        "elapsed": elapsed,
        "programs": programs,
        "warm_hits": totals["warm_start_hits"],
        "timed_out": totals["timed_out_calls"],
    }


def _child(store_path, untiered, spec, sessions, pipe):
    """Child-process entry: isolate caches, drive, ship results.

    ``store_path`` ``None`` runs on ``memory``; otherwise the sessions
    run over a cache server on that store, serving in a thread of this
    process (:func:`helpers.cache_tier`).  ``untiered`` sets the
    cache's tier threshold to -1 in this process, so every exact row
    persists."""
    from repro.engine import cache as cache_module
    from repro.service.backends import flush_backends, reset_backends

    if untiered:
        cache_module.TIER_COST = -1
    reset_backends()
    try:
        subjects = _subjects(spec)
        if store_path is None:
            result = _drive_sessions("memory", subjects, sessions)
        else:
            with cache_tier(store_path) as name:
                result = _drive_sessions(name, subjects, sessions)
                result["tier_skips"] = cache_module.process_cache(name).tier_skips
                flush_backends()  # push buffered rows before the server stops
        pipe.send(result)
    finally:
        pipe.close()


def _run_child(store_path, spec, sessions, untiered=False):
    context = multiprocessing.get_context("fork")
    parent_end, child_end = context.Pipe()
    process = context.Process(
        target=_child, args=(store_path, untiered, spec, sessions, child_end)
    )
    process.start()
    child_end.close()
    try:
        result = parent_end.recv()
    finally:
        process.join()
    assert process.exitcode == 0, f"child over {store_path} exited {process.exitcode}"
    return result


def _store_rows(store_path):
    """Every ``(kind, payload-blob)`` row of a store, plus byte totals."""
    connection = sqlite3.connect(store_path)
    try:
        rows = [
            (kind, bytes(blob))
            for kind, blob in connection.execute(
                "SELECT kind, payload FROM entries ORDER BY rowid"
            )
        ]
        count, total = connection.execute(
            "SELECT COUNT(*), COALESCE(SUM(nbytes), 0) FROM entries"
        ).fetchone()
    finally:
        connection.close()
    return rows, int(count), int(total)


def _corpus(rows):
    """The store's payload dicts, decoded row by row."""
    return [sniff_codec(blob).decode_payload(blob) for _, blob in rows]


def _measure_codecs(payloads, reps):
    """Min-of-N encode/decode seconds and total bytes per codec.

    The codecs are interleaved within each repetition so clock drift
    and cache warmth hit both equally; min-of-N keeps scheduler noise
    out of the comparison.
    """
    results = {
        name: {"encode": float("inf"), "decode": float("inf"), "bytes": 0}
        for name in ("json", "binary")
    }
    decoded = {}
    for _ in range(reps):
        for name, codec in (("json", DEFAULT_CODEC), ("binary", STORE_CODEC)):
            slot = results[name]
            started = time.perf_counter()
            blobs = [codec.encode_payload(payload) for payload in payloads]
            slot["encode"] = min(slot["encode"], time.perf_counter() - started)
            started = time.perf_counter()
            decoded[name] = [codec.decode_payload(blob) for blob in blobs]
            slot["decode"] = min(slot["decode"], time.perf_counter() - started)
            slot["bytes"] = sum(len(blob) for blob in blobs)
    assert decoded["json"] == decoded["binary"], (
        "the codecs decoded the same payloads to different values"
    )
    assert decoded["binary"] == payloads, "binary round-trip changed a payload"
    return results


def test_store_codec(benchmark, quick):
    spec = os.environ.get(
        "REPRO_STORE_BENCH_BIDS", "b1+,b15" if quick else DEFAULT_BIDS
    )
    sessions = int(
        os.environ.get("REPRO_STORE_BENCH_SESSIONS", "1" if quick else "2")
    )
    reps = int(os.environ.get("REPRO_STORE_BENCH_REPS", "5" if quick else "9"))
    subjects = _subjects(spec)  # validates the spec before forking

    with tempfile.TemporaryDirectory(prefix="repro-codec-bench-") as root:
        store_full = os.path.join(root, "untiered", STORE_FILE)
        store_tiered = os.path.join(root, "tiered", STORE_FILE)

        def run_legs():
            memory = _run_child(None, spec, sessions)
            full = _run_child(store_full, spec, sessions, untiered=True)
            tiered = _run_child(store_tiered, spec, sessions)
            restarted = _run_child(store_tiered, spec, sessions)
            return memory, full, tiered, restarted

        memory, full, tiered, restarted = benchmark.pedantic(
            run_legs, rounds=1, iterations=1
        )

        # correctness first: neither the tier nor the tier policy may
        # change what gets synthesized, on calls that all ran to the end
        for label, run in (("memory", memory), ("untiered", full),
                           ("tiered", tiered), ("restarted", restarted)):
            assert run["timed_out"] == 0, f"{label}: a call hit its deadline"
        for label, run in (
            ("untiered", full),
            ("tiered", tiered),
            ("restarted", restarted),
        ):
            assert memory["programs"] == run["programs"], (
                f"the {label} tier run changed the synthesized programs"
            )
        assert memory["warm_hits"] == 0, "memory backend cannot warm-start"
        assert tiered["warm_hits"] == 0, "an empty store cannot warm-start"
        assert restarted["warm_hits"] > 0, "the restarted tier never served a hit"

        # footprint: the tier cut (full vs tiered) over identical workloads
        full_rows, full_entries, full_bytes = _store_rows(store_full)
        _, tiered_entries, tiered_bytes = _store_rows(store_tiered)
        tier_ratio = full_bytes / tiered_bytes if tiered_bytes else 0.0

        # codec microbench over the store's own payloads
        micro = _measure_codecs(_corpus(full_rows), reps)
        json_micro, bin_micro = micro["json"], micro["binary"]
        json_total = json_micro["encode"] + json_micro["decode"]
        bin_total = bin_micro["encode"] + bin_micro["decode"]
        micro_size = (
            json_micro["bytes"] / bin_micro["bytes"] if bin_micro["bytes"] else 0.0
        )
        cpu_ratio = bin_total / json_total if json_total else float("inf")

        benchmark.extra_info.update(
            subjects=spec,
            sessions=sessions,
            memory_seconds=round(memory["elapsed"], 4),
            restarted_seconds=round(restarted["elapsed"], 4),
            restarted_warm_hits=restarted["warm_hits"],
            untiered_store_bytes=full_bytes,
            tiered_store_bytes=tiered_bytes,
            tier_ratio=round(tier_ratio, 2),
            tier_skips=tiered.get("tier_skips", 0),
            micro_size_ratio=round(micro_size, 2),
            micro_cpu_ratio=round(cpu_ratio, 2),
        )
        print()
        print(
            f"Store codec on {len(subjects)} subjects × {sessions} sessions "
            f"(fresh process per leg; tier legs over remote://)"
        )
        print(
            render_table(
                ["leg", "total", "warm hits", "store entries", "store bytes"],
                [
                    ["memory (no tier)", fmt_ms(memory["elapsed"]),
                     memory["warm_hits"], "-", "-"],
                    ["tier, untiered", fmt_ms(full["elapsed"]),
                     full["warm_hits"], full_entries, fmt_bytes(full_bytes)],
                    ["tier, tiered", fmt_ms(tiered["elapsed"]),
                     tiered["warm_hits"], tiered_entries,
                     fmt_bytes(tiered_bytes)],
                    ["tier, restarted", fmt_ms(restarted["elapsed"]),
                     restarted["warm_hits"], tiered_entries,
                     fmt_bytes(tiered_bytes)],
                ],
            )
        )
        print(
            f"tiering: {tier_ratio:.2f}x smaller store "
            f"({tiered.get('tier_skips', 0)} writes skipped)"
        )
        print(
            f"codec micro ({len(full_rows)} payloads, min of {reps}): "
            f"binary {micro_size:.2f}x smaller, round-trip CPU "
            f"{cpu_ratio:.2f}x json "
            f"(encode {bin_micro['encode'] / json_micro['encode']:.2f}x, "
            f"decode {bin_micro['decode'] / json_micro['decode']:.2f}x)"
        )

        assert tier_ratio >= MIN_FOOTPRINT, (
            f"tiering cut the store only {tier_ratio:.2f}x "
            f"(< {MIN_FOOTPRINT}x): {full_bytes}B -> {tiered_bytes}B"
        )
        assert tiered.get("tier_skips", 0) > 0, (
            "the tier policy never skipped a write"
        )
        assert micro_size >= MIN_SIZE_RATIO, (
            f"binary only {micro_size:.2f}x smaller than json "
            f"(< {MIN_SIZE_RATIO}x)"
        )
        assert cpu_ratio <= MAX_CPU_RATIO, (
            f"binary round-trip CPU regressed to {cpu_ratio:.2f}x json "
            f"(> {MAX_CPU_RATIO}x): encode {bin_micro['encode']:.4f}s + "
            f"decode {bin_micro['decode']:.4f}s vs json {json_total:.4f}s"
        )
