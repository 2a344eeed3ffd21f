"""Subject pools and the seeded session draw of each workload.

Why each pool member is here, with its pre-screen numbers, is recorded
in ``perfbench/README.md``; ``perfbench/prescreen.py`` regenerates them.

A run's work is fixed by ``(workload, seed, seconds)``: the number of
sessions is ``seconds`` times the workload's nominal session rate, sized
so that one run measures about ``seconds`` on a 2-core machine at the
recorded baseline.  Fixing the work, not the duration, keeps every
output check (accuracy, intended programs) identical across runs of the
same seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

#: Per-call synthesis deadline handed to every session (seconds).  Every
#: pooled subject finished its pre-screen with zero deadline hits at
#: this budget, so synthesized output does not depend on machine speed.
DEADLINE_S = 10.0


@dataclass(frozen=True)
class Workload:
    name: str
    pool: tuple
    cap: int  # actions recorded per subject (the session replays cap - 1)
    sessions_per_s: float  # nominal session rate that sizes the draw
    shape: str  # inproc | served | fleet
    threads: int = 1


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "inproc-loops",
            ("b12", "b15", "b16", "b18", "b19", "b20", "b26", "b30",
             "b33", "b34", "b36", "b37", "b40", "b47", "b48", "b71"),
            cap=30, sessions_per_s=0.8, shape="inproc",
        ),
        Workload(
            "served-short",
            ("b1", "b2", "b4", "b5", "b13", "b14", "b41", "b43", "b45", "b46",
             "b55", "b57", "b58", "b59", "b60", "b61", "b62", "b63", "b64",
             "b73", "b74", "b75", "b76"),
            cap=20, sessions_per_s=2.3, shape="served", threads=2,
        ),
        Workload(
            "fleet-warm",
            ("b1", "b2", "b4", "b5", "b41", "b43", "b45", "b46"),
            cap=13, sessions_per_s=0.1, shape="fleet",
        ),
    )
}


def draw(workload: Workload, seed: int, seconds: float) -> list[tuple[str, int]]:
    """The run's sessions, as ``(subject, cap)`` pairs in driving order.

    The draw walks seeded permutations of the pool: no subject repeats
    until the whole pool has run once, so a workload sized below its
    pool never repeats a site, and one sized at whole passes repeats
    every site equally often.
    """
    rng = random.Random(f"{workload.name}/{seed}")
    count = max(1, round(seconds * workload.sessions_per_s))
    chosen: list[str] = []
    while len(chosen) < count:
        chosen += rng.sample(workload.pool, len(workload.pool))
    return [(bid, workload.cap) for bid in chosen[:count]]


# ----------------------------------------------------------------------
# Inputs handed to the program
# ----------------------------------------------------------------------
def write_inputs(specs, path: str) -> None:
    """Record each distinct ``(subject, cap)`` once and write them."""
    from dataclasses import replace

    from repro import io as repro_io
    from repro.benchmarks.suite import benchmark_by_id

    recordings, data = {}, {}
    for bid, cap in sorted(set(specs)):
        benchmark = replace(benchmark_by_id(bid), _recording=None, _scaled_recording=None)
        recordings[f"{bid}@{cap}"] = repro_io.recording_to_json(benchmark.record(max_actions=cap))
        data[bid] = benchmark.data.value
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"recordings": recordings, "data": data, "sessions": specs,
                   "deadline": DEADLINE_S}, handle)


def read_inputs(path: str):
    """``(specs, {(bid, cap): (recording, data)}, deadline)`` from a file
    written by :func:`write_inputs`, as fresh program objects."""
    from repro import io as repro_io
    from repro.lang.data import DataSource

    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    inputs = {}
    for key, recording in payload["recordings"].items():
        bid, _, cap = key.partition("@")
        inputs[(bid, int(cap))] = (
            repro_io.recording_from_json(recording),
            DataSource(payload["data"][bid]),
        )
    specs = [(bid, int(cap)) for bid, cap in payload["sessions"]]
    return specs, inputs, payload["deadline"]


def inputs_path(directory: str) -> str:
    return os.path.join(directory, "inputs.json")
