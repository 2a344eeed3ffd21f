"""Service warm-start bench: cross-process execution reuse over one store.

Drives the multi-session workload through the *service* subsystem — one
:class:`~repro.service.sessions.SessionManager` per worker process,
sessions created / fed action by action / closed, exactly what ``repro
serve`` does per request — under three cache architectures, each in a
**fresh child process**:

* **memory** — the in-process backend: every process starts cold
  (today's default, the baseline);
* **file, cold store** — the persistent SQLite backend over an empty
  store: same work, plus the write-through that populates the store;
* **file, warm store** — a *new* process over the store the previous
  process left behind: executions are served from disk instead of the
  evaluator.  This is the ``repro serve`` restart / second-worker case,
  and it only works because every cache key is value-addressed
  (:mod:`repro.engine.keys`) — no object id survives the process
  boundary.

Assertions:

* the synthesized program lists of every call of every session are
  **byte-identical** across all three runs (the backend replays
  recorded outcomes verbatim — a correctness gate, not a tolerance);
* the cold-store run never sees a warm hit; the warm run does;
* the warm-start win clears the floor: cross-process hit rate
  ``warm_hits / (warm_hits + misses)`` ≥ 50% **or** wall-clock speedup
  over the memory baseline ≥ 1.3× (the rate is the architectural
  claim; the speedup depends on how execution-bound the box is);
* an end-to-end leg boots a real ``repro serve`` worker process over
  the warm store, drives one session through the thin HTTP client, and
  checks it synthesizes the same final candidates with warm hits.

``REPRO_SERVICE_BIDS`` picks the subjects (``+`` suffix = scaled
instance); ``REPRO_SERVICE_SESSIONS`` the sessions per subject;
``REPRO_SERVICE_MIN_SPEEDUP`` / ``REPRO_SERVICE_MIN_RATE`` the floors.
``--quick`` shrinks the workload for the CI smoke tier.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import replace

from repro.benchmarks.suite import benchmark_by_id
from repro.harness.report import fmt_ms, fmt_pct, render_table
from repro.synth.config import DEFAULT_CONFIG

#: Loop-heavy, execution-dominated subjects (the work the persistent
#: backend actually dedups across processes) — the parallel-validation
#: bench's reasoning applies unchanged.
DEFAULT_BIDS = "b1+,b2+,b5+,b15,b73"


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
    """Run the workload through a SessionManager; return measurements.

    Runs *inside a child process*.  Every session goes through the
    service surface (create / record-action / close); programs are the
    per-call candidate renderings — the byte-identity evidence.
    """
    from repro.service.sessions import SessionManager

    config = replace(
        DEFAULT_CONFIG,
        shared_cache=True,
        cache_backend=backend,
    )
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
    totals = manager.stats()["totals"]
    return {
        "elapsed": elapsed,
        "programs": programs,
        "warm_hits": totals["warm_start_hits"],
        "hits": totals["cache_hits"],
        "misses": totals["cache_misses"],
    }


def _child(backend, store_dir, spec, sessions, pipe):
    """Child-process entry: isolate caches, drive, ship results back."""
    os.environ["REPRO_CACHE_DIR"] = store_dir
    from repro.engine.cache import reset_process_cache
    from repro.service.backends import flush_backends, reset_backends

    reset_process_cache()
    reset_backends()
    try:
        result = _drive_sessions(backend, _subjects(spec), sessions)
        flush_backends()  # os._exit skips atexit: push buffered entries out
        pipe.send(result)
    finally:
        pipe.close()


def _run_child(backend, store_dir, spec, sessions):
    context = multiprocessing.get_context("fork")
    parent_end, child_end = context.Pipe()
    process = context.Process(
        target=_child, args=(backend, store_dir, spec, sessions, child_end)
    )
    process.start()
    child_end.close()
    try:
        result = parent_end.recv()
    finally:
        process.join()
    assert process.exitcode == 0, f"{backend} child exited {process.exitcode}"
    return result


def _serve_leg(store_dir, recording, data, reference_final):
    """Boot a real `repro serve` worker over the warm store; verify it."""
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = store_dir
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--backend", "file", "--timeout", "10",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    try:
        line = process.stdout.readline().strip()
        assert "listening on" in line, f"unexpected server banner: {line!r}"
        url = line.split()[-1]
        from repro.service.client import ServiceClient

        with ServiceClient(url, timeout=120.0) as client:
            assert client.health()
            length = recording.length - 1
            actions, snapshots = recording.prefix(length)
            sid = client.create_session(snapshots[0], data=data)
            proposed = None
            for position, action in enumerate(actions):
                proposed = client.record_action(sid, action, snapshots[position + 1])
            served_final = tuple(
                item.program for item in client.candidates(sid).candidates
            )
            stats = client.stats()
            client.close_session(sid)
        assert served_final == reference_final, (
            "served programs diverged from the in-process run"
        )
        assert stats["backend"] == "file"
        return proposed.stats.warm_start_hits, stats
    finally:
        process.terminate()
        process.wait(timeout=30)


def test_service_warm_start(benchmark, quick):
    spec = os.environ.get(
        "REPRO_SERVICE_BIDS", "b1+,b15" if quick else DEFAULT_BIDS
    )
    sessions = int(os.environ.get("REPRO_SERVICE_SESSIONS", "2" if quick else "4"))
    min_speedup = float(os.environ.get("REPRO_SERVICE_MIN_SPEEDUP", "1.3"))
    min_rate = float(os.environ.get("REPRO_SERVICE_MIN_RATE", "0.5"))
    subjects = _subjects(spec)  # validates the spec before forking

    with tempfile.TemporaryDirectory(prefix="repro-service-bench-") as store_dir:

        def run_trio():
            memory = _run_child("memory", store_dir, spec, sessions)
            cold = _run_child("file", store_dir, spec, sessions)
            warm = _run_child("file", store_dir, spec, sessions)
            return memory, cold, warm

        memory, cold, warm = benchmark.pedantic(run_trio, rounds=1, iterations=1)

        lookups = warm["warm_hits"] + warm["misses"]
        rate = warm["warm_hits"] / lookups if lookups else 0.0
        speedup = memory["elapsed"] / warm["elapsed"] if warm["elapsed"] else 0.0
        benchmark.extra_info["subjects"] = spec
        benchmark.extra_info["sessions"] = sessions
        benchmark.extra_info["memory_seconds"] = round(memory["elapsed"], 4)
        benchmark.extra_info["cold_seconds"] = round(cold["elapsed"], 4)
        benchmark.extra_info["warm_seconds"] = round(warm["elapsed"], 4)
        benchmark.extra_info["warm_hits"] = warm["warm_hits"]
        benchmark.extra_info["warm_rate"] = round(rate, 3)
        benchmark.extra_info["speedup"] = round(speedup, 2)
        print()
        print(
            f"Service warm start on {len(subjects)} subjects × {sessions} "
            f"sessions (fresh process per run, one store)"
        )
        print(
            render_table(
                ["run", "total", "warm hits", "misses"],
                [
                    ["memory backend (cold)", fmt_ms(memory["elapsed"]),
                     memory["warm_hits"], memory["misses"]],
                    ["file backend, cold store", fmt_ms(cold["elapsed"]),
                     cold["warm_hits"], cold["misses"]],
                    ["file backend, warm store", fmt_ms(warm["elapsed"]),
                     warm["warm_hits"], warm["misses"]],
                ],
            )
        )
        print(
            f"cross-process hit rate: {fmt_pct(rate)}; "
            f"speedup vs memory: {speedup:.2f}x"
        )

        # correctness first: byte-identical programs across architectures
        assert memory["programs"] == cold["programs"], (
            "the write-through backend changed the synthesized programs"
        )
        assert memory["programs"] == warm["programs"], (
            "warm-started synthesis changed the synthesized programs"
        )
        assert memory["warm_hits"] == 0, "memory backend cannot warm-start"
        assert cold["warm_hits"] == 0, "an empty store cannot warm-start"
        assert warm["warm_hits"] > 0, "the warm store never served a hit"
        assert rate >= min_rate or speedup >= min_speedup, (
            f"no warm-start win: rate {rate:.2f} < {min_rate} and "
            f"speedup {speedup:.2f}x < {min_speedup}x"
        )

        # end-to-end: a real `repro serve` worker over the same store
        label, bench_subject, recording = subjects[-1]
        reference_final = memory["programs"][len(subjects) - 1][-1]
        served_warm_hits, stats = _serve_leg(
            store_dir, recording, bench_subject.data.value, reference_final
        )
        benchmark.extra_info["served_warm_hits"] = served_warm_hits
        print(
            f"served leg ({label}): final call warm hits {served_warm_hits}, "
            f"backend {stats['backend']}, "
            f"persisted {stats['persisted_bytes']} bytes"
        )
        assert stats["totals"]["warm_start_hits"] > 0, (
            "the served worker never warm-started from the store"
        )
