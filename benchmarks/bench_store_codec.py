"""Store codec bench: compressed payloads + tiered persistence, gated.

Drives the multi-session service workload (the same create /
record-action / close loop as ``bench_service_sessions``) through the
persistent :class:`~repro.service.backends.FileBackend` (zlib-compressed JSON rows)
under both tier policies, each run in a **fresh child process** so
every measurement starts cold:

* **memory** — the in-process backend: the cold baseline every
  persistent run has to beat;
* **file / binary, untiered** — everything persisted (the child sets
  ``repro.engine.cache.TIER_COST`` to -1): the baseline of the
  tier-policy footprint comparison;
* **file / binary, tiered** (the default config) — cheap exact
  interior entries are recomputed instead of stored: the tier-policy
  footprint comparison;
* **file / binary, warm** — a new process over the tiered store: the
  restart case the store exists for.

Assertions (floors env-overridable, see below):

* the synthesized program lists of every call of every session are
  **byte-identical** across all four runs — neither the store nor the
  tier policy may change synthesis output;
* tiering cuts the untiered binary footprint by ≥ 1.5×;
* the warm file-backend run beats the cold in-memory baseline
  (speedup ≥ 1.0× **or** cross-process hit rate ≥ 50%, the same
  escape hatch as the service bench: the rate is the architectural
  claim, the wall-clock depends on how execution-bound the box is);
* a codec microbenchmark over the store's own payload corpus (the
  decoded rows of the untiered store): both codecs decode to equal
  values, the store codec is ≥ 4× smaller (the size claim the
  compressed store rests on), and its encode+decode round-trip stays
  within a bounded CPU factor of plain JSON.

The store codec is canonical JSON under the stdlib's C zlib, so the
win is **bytes** — ~10× smaller rows and cache-tier frames — at about
plain JSON's round-trip CPU (both halves run in C; measured 0.66–1.36×
JSON on a shared 2-core box).  The CPU ceiling asserted
here is a *regression* gate, not a speed claim.

``REPRO_STORE_BENCH_BIDS`` picks the subjects (``+`` suffix = scaled
instance); ``REPRO_STORE_BENCH_SESSIONS`` the sessions per subject;
``REPRO_STORE_BENCH_MIN_SPEEDUP`` / ``REPRO_STORE_BENCH_MIN_RATE`` /
``REPRO_STORE_BENCH_MIN_FOOTPRINT`` / ``REPRO_STORE_BENCH_MIN_SIZE_RATIO``
/ ``REPRO_STORE_BENCH_MAX_CPU_RATIO`` the floors and ceiling;
``REPRO_STORE_BENCH_REPS`` the microbench repetitions (min-of-N, codecs
interleaved per rep).  ``--quick`` shrinks the workload for the CI
smoke tier.
"""

import multiprocessing
import os
import sqlite3
import tempfile
import time
from dataclasses import replace

from repro.benchmarks.suite import benchmark_by_id
from repro.harness.report import fmt_bytes, fmt_ms, fmt_pct, render_table
from repro.protocol.codec import DEFAULT_CODEC, STORE_CODEC, sniff_codec
from repro.synth.config import DEFAULT_CONFIG

#: Loop-heavy, execution-dominated subjects — the entries the store
#: actually holds are dominated by their loop-body executions.
DEFAULT_BIDS = "b1+,b2+,b15,b73"


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
    manager = SessionManager(config, timeout=10.0)
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
    stats = manager.stats()
    totals = stats["totals"]
    return {
        "elapsed": elapsed,
        "programs": programs,
        "warm_hits": totals["warm_start_hits"],
        "misses": totals["cache_misses"],
    }


def _child(backend, store_dir, untiered, spec, sessions, pipe):
    """Child-process entry: isolate caches and env, drive, ship results.

    ``untiered`` sets the cache's tier threshold to -1 in this process,
    so every exact row persists."""
    os.environ["REPRO_CACHE_DIR"] = store_dir
    from repro.engine import cache as cache_module
    from repro.service.backends import flush_backends, reset_backends

    if untiered:
        cache_module.TIER_COST = -1
    cache_module.reset_process_cache()
    reset_backends()
    try:
        result = _drive_sessions(backend, _subjects(spec), sessions)
        if backend == "file":
            result["tier_skips"] = cache_module.process_cache("file").tier_skips
        flush_backends()  # os._exit skips atexit: push buffered entries out
        pipe.send(result)
    finally:
        pipe.close()


def _run_child(backend, store_dir, spec, sessions, untiered=False):
    context = multiprocessing.get_context("fork")
    parent_end, child_end = context.Pipe()
    process = context.Process(
        target=_child,
        args=(backend, store_dir, untiered, spec, sessions, child_end),
    )
    process.start()
    child_end.close()
    try:
        result = parent_end.recv()
    finally:
        process.join()
    assert process.exitcode == 0, f"{backend} child exited {process.exitcode}"
    return result


def _store_rows(store_dir):
    """Every ``(kind, payload-blob)`` row of a store, plus byte totals."""
    connection = sqlite3.connect(os.path.join(store_dir, "execution-cache.sqlite"))
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
    min_speedup = float(os.environ.get("REPRO_STORE_BENCH_MIN_SPEEDUP", "1.0"))
    min_rate = float(os.environ.get("REPRO_STORE_BENCH_MIN_RATE", "0.5"))
    min_footprint = float(os.environ.get("REPRO_STORE_BENCH_MIN_FOOTPRINT", "1.5"))
    min_size_ratio = float(
        os.environ.get("REPRO_STORE_BENCH_MIN_SIZE_RATIO", "4.0")
    )
    max_cpu_ratio = float(os.environ.get("REPRO_STORE_BENCH_MAX_CPU_RATIO", "3.0"))
    subjects = _subjects(spec)  # validates the spec before forking

    with tempfile.TemporaryDirectory(prefix="repro-codec-bench-") as root:
        dir_full = os.path.join(root, "binary-full")
        dir_tiered = os.path.join(root, "binary-tiered")

        def run_legs():
            memory = _run_child("memory", root, spec, sessions)
            bin_full = _run_child("file", dir_full, spec, sessions, untiered=True)
            bin_tiered = _run_child("file", dir_tiered, spec, sessions)
            bin_warm = _run_child("file", dir_tiered, spec, sessions)
            return memory, bin_full, bin_tiered, bin_warm

        memory, bin_full, bin_tiered, bin_warm = benchmark.pedantic(
            run_legs, rounds=1, iterations=1
        )

        # correctness first: neither the store nor the tier policy may
        # change what gets synthesized
        for label, run in (
            ("binary untiered", bin_full),
            ("binary tiered", bin_tiered),
            ("binary warm", bin_warm),
        ):
            assert memory["programs"] == run["programs"], (
                f"the {label} run changed the synthesized programs"
            )
        assert memory["warm_hits"] == 0, "memory backend cannot warm-start"
        assert bin_tiered["warm_hits"] == 0, "an empty store cannot warm-start"
        assert bin_warm["warm_hits"] > 0, "the warm store never served a hit"

        # footprint: the tier cut (full vs tiered) over identical workloads
        full_rows, full_entries, full_bytes = _store_rows(dir_full)
        _, tiered_entries, tiered_bytes = _store_rows(dir_tiered)
        tier_ratio = full_bytes / tiered_bytes if tiered_bytes else 0.0

        # warm start vs the cold in-memory baseline
        lookups = bin_warm["warm_hits"] + bin_warm["misses"]
        rate = bin_warm["warm_hits"] / lookups if lookups else 0.0
        speedup = (
            memory["elapsed"] / bin_warm["elapsed"] if bin_warm["elapsed"] else 0.0
        )

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
            warm_seconds=round(bin_warm["elapsed"], 4),
            speedup=round(speedup, 2),
            warm_rate=round(rate, 3),
            binary_store_bytes=full_bytes,
            tiered_store_bytes=tiered_bytes,
            tier_ratio=round(tier_ratio, 2),
            tier_skips=bin_tiered.get("tier_skips", 0),
            micro_size_ratio=round(micro_size, 2),
            micro_cpu_ratio=round(cpu_ratio, 2),
        )
        print()
        print(
            f"Store codec on {len(subjects)} subjects × {sessions} sessions "
            f"(fresh process per leg)"
        )
        print(
            render_table(
                ["leg", "total", "warm hits", "store entries", "store bytes"],
                [
                    ["memory (cold baseline)", fmt_ms(memory["elapsed"]),
                     memory["warm_hits"], "-", "-"],
                    ["file binary, untiered", fmt_ms(bin_full["elapsed"]),
                     bin_full["warm_hits"], full_entries, fmt_bytes(full_bytes)],
                    ["file binary, tiered", fmt_ms(bin_tiered["elapsed"]),
                     bin_tiered["warm_hits"], tiered_entries,
                     fmt_bytes(tiered_bytes)],
                    ["file binary, warm store", fmt_ms(bin_warm["elapsed"]),
                     bin_warm["warm_hits"], tiered_entries,
                     fmt_bytes(tiered_bytes)],
                ],
            )
        )
        print(
            f"tiering: {tier_ratio:.2f}x smaller store "
            f"({bin_tiered.get('tier_skips', 0)} writes skipped)"
        )
        print(f"warm start: {fmt_pct(rate)} hit rate, {speedup:.2f}x vs cold memory")
        print(
            f"codec micro ({len(full_rows)} payloads, min of {reps}): "
            f"binary {micro_size:.2f}x smaller, round-trip CPU "
            f"{cpu_ratio:.2f}x json "
            f"(encode {bin_micro['encode'] / json_micro['encode']:.2f}x, "
            f"decode {bin_micro['decode'] / json_micro['decode']:.2f}x)"
        )

        assert tier_ratio >= min_footprint, (
            f"tiering cut the store only {tier_ratio:.2f}x "
            f"(< {min_footprint}x): {full_bytes}B -> {tiered_bytes}B"
        )
        assert bin_tiered.get("tier_skips", 0) > 0, (
            "the tier policy never skipped a write"
        )
        assert speedup >= min_speedup or rate >= min_rate, (
            f"warm start lost to cold memory: speedup {speedup:.2f}x "
            f"< {min_speedup}x and rate {rate:.2f} < {min_rate}"
        )
        assert micro_size >= min_size_ratio, (
            f"binary only {micro_size:.2f}x smaller than json "
            f"(< {min_size_ratio}x)"
        )
        assert cpu_ratio <= max_cpu_ratio, (
            f"binary round-trip CPU regressed to {cpu_ratio:.2f}x json "
            f"(> {max_cpu_ratio}x): encode {bin_micro['encode']:.4f}s + "
            f"decode {bin_micro['decode']:.4f}s vs json {json_total:.4f}s"
        )
