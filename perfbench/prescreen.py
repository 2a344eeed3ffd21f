"""Pre-screen suite subjects for the benchmark's pools.

Each subject runs in its own fresh process (so the process-level shared
execution cache starts empty): its ground truth is recorded, capped at
``--cap`` actions, and replayed one action at a time through an
in-process ``SessionManager`` with a generous per-call deadline.  One
line per subject reports the calls, deadline hits, p50 and slowest
call, and the share of calls with a correct prediction.

Usage (from the repository root)::

    python3 perfbench/prescreen.py b1 b4 b16 --cap 60 --timeout 10
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402


def screen_one(bid: str, cap: int, timeout: float) -> dict:
    """Replay one subject in this process; the pre-screen row."""
    from repro.benchmarks.suite import benchmark_by_id
    from repro.service.sessions import SessionManager

    import checks

    benchmark = benchmark_by_id(bid)
    recording = benchmark.record(max_actions=cap)
    manager = SessionManager(timeout=timeout)
    sid = manager.create(recording.snapshots[0], data=benchmark.data)
    times, hits, predictions = [], 0, []
    for k, action in enumerate(recording.actions[:-1]):
        started = time.perf_counter()
        proposed = manager.record_action(sid, action, recording.snapshots[k + 1])
        times.append(time.perf_counter() - started)
        hits += proposed.stats.timed_out
        predictions.append(list(proposed.predictions))
    listed = manager.candidates(sid).candidates
    manager.close(sid)
    session = {
        "bid": bid, "cap": cap, "predictions": predictions,
        "program": listed[0].program if listed else "",
    }
    correct, scored, good = checks.score_sessions([session], {(bid, cap): recording})
    return {
        "bid": bid,
        "calls": len(times),
        "deadline_hits": hits,
        "p50_ms": round(common.percentile(times, 50) * 1000, 2),
        "max_ms": round(max(times) * 1000, 1),
        "total_s": round(sum(times), 3),
        "accuracy": round(correct / scored, 4) if scored else 0.0,
        "intended": bool(good),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("subjects", nargs="+")
    parser.add_argument("--cap", type=int, default=60)
    parser.add_argument("--timeout", type=float, default=10.0)
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    common.require_source()
    if args.one:
        print(json.dumps(screen_one(args.subjects[0], args.cap, args.timeout)))
        return 0
    print("bid   calls  hits  p50_ms   max_ms  total_s  accuracy  intended")
    for bid in args.subjects:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), bid, "--one",
             "--cap", str(args.cap), "--timeout", str(args.timeout)],
            env=common.child_env(), capture_output=True, text=True, check=True,
        ).stdout
        row = json.loads(out.strip().splitlines()[-1])
        print(
            f"{row['bid']:<5} {row['calls']:>5} {row['deadline_hits']:>5} "
            f"{row['p50_ms']:>7} {row['max_ms']:>8} {row['total_s']:>8} "
            f"{row['accuracy']:>9}  {row['intended']}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
