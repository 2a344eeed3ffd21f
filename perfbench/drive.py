"""Closed-loop session replay, the same for every deployment shape.

A simulated user opens a session on a recording's first page, then
demonstrates one action at a time and waits for the proposal before the
next.  The session demonstrates every recorded action but the last, so
each call's predictions can be scored against the action that follows;
then it asks for the candidate list once and closes.  The round trip of
each ``record_action`` is timed as the caller sees it.

The program sees only the recordings (and each subject's input data);
the subjects' names never reach it.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Optional


class InProcess:
    """The ``SessionManager`` API, called directly."""

    def __init__(self, manager) -> None:
        self.manager = manager

    def create(self, snapshot, data, timeout):
        return self.manager.create(snapshot, data=data, timeout=timeout)

    def record_action(self, sid, action, snapshot):
        return self.manager.record_action(sid, action, snapshot)

    def candidates(self, sid):
        return self.manager.candidates(sid)

    def close(self, sid):
        return self.manager.close(sid)


class Served:
    """The same calls over HTTP through ``ServiceClient``."""

    def __init__(self, url: str) -> None:
        from repro.service.client import ServiceClient

        self.client = ServiceClient(url)

    def create(self, snapshot, data, timeout):
        return self.client.create_session(snapshot, data=data, timeout=timeout)

    def record_action(self, sid, action, snapshot):
        return self.client.record_action(sid, action, snapshot)

    def candidates(self, sid):
        return self.client.candidates(sid)

    def close(self, sid):
        return self.client.close_session(sid)


def drive_session(api, recording, data, deadline: float, tracer=None) -> dict:
    """Replay one demonstration; the session's outputs and timings."""
    out = {"latencies": [], "predictions": [], "deadline_hits": 0,
           "program": "", "error": None}
    try:
        sid = api.create(recording.snapshots[0], data, deadline)
        for k, action in enumerate(recording.actions[:-1]):
            snapshot = recording.snapshots[k + 1]
            if tracer is not None:
                with tracer.root("action"):
                    started = time.perf_counter()
                    proposed = api.record_action(sid, action, snapshot)
                    finished = time.perf_counter()
            else:
                started = time.perf_counter()
                proposed = api.record_action(sid, action, snapshot)
                finished = time.perf_counter()
            out["latencies"].append(finished - started)
            out["predictions"].append(list(proposed.predictions))
            out["deadline_hits"] += bool(proposed.stats.timed_out)
        listed = api.candidates(sid).candidates
        out["program"] = listed[0].program if listed else ""
        api.close(sid)
    except Exception as exc:  # every failure is counted, none stops the run
        out["error"] = f"{type(exc).__name__}: {exc}"
    return out


def run_sessions(make_api, specs, inputs, deadline, threads=1, tracer=None):
    """Drive ``specs`` (``(bid, cap)`` pairs) from ``threads`` client
    threads; returns ``(per-session outputs in spec order, wall seconds)``.
    """
    tasks: "queue.Queue[int]" = queue.Queue()
    for index in range(len(specs)):
        tasks.put(index)
    results: list[Optional[dict]] = [None] * len(specs)

    def client() -> None:
        api = make_api()
        while True:
            try:
                index = tasks.get_nowait()
            except queue.Empty:
                return
            bid, cap = specs[index]
            recording, data = inputs[(bid, cap)]
            outcome = drive_session(api, recording, data, deadline, tracer)
            outcome.update(bid=bid, cap=cap)
            results[index] = outcome

    started = time.perf_counter()
    if threads == 1:
        client()
    else:
        workers = [threading.Thread(target=client) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    return results, time.perf_counter() - started
