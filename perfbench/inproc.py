"""The in-process deployment shape: one ``SessionManager``, no transport.

Started by :mod:`launch` as a program process.  It builds the manager
and answers ``ready`` on stdout (the end of set-up), then reads one line
from stdin: a JSON pair naming the inputs file to replay and the file to
write outputs to.
It replays the sessions one at a time, writes the outputs with the
measured wall time, answers ``done`` and waits for stdin to close.
"""

from __future__ import annotations

import json
import os
import sys

import drive
import pools


def main(tracer=None) -> int:
    from repro.service.sessions import SessionManager

    manager = SessionManager(timeout=pools.DEADLINE_S)
    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line:
        return 0  # released after set-up timing only
    source, target = json.loads(line)
    specs, inputs, deadline = pools.read_inputs(source)
    results, wall = drive.run_sessions(
        lambda: drive.InProcess(manager), specs, inputs, deadline, tracer=tracer
    )
    with open(target, "w", encoding="utf-8") as handle:
        json.dump({"sessions": results, "wall_s": wall}, handle)
    if tracer is not None:
        tracer.dump(os.path.join(os.path.dirname(target), f"spans-{os.getpid()}.json"))
    print("done", flush=True)
    sys.stdin.read()
    return 0
