"""The repository benchmark: replay demonstrations through three
deployment shapes and time each layer.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload inproc-loops --seed 1 --seconds 20 --trace 0

Workloads (closed loops: a user waits for each proposal before the next
action; see ``perfbench/README.md`` for why each one is here):

* ``inproc-loops`` — loop-forming subjects, one session at a time,
  through ``SessionManager.record_action`` in one fresh process;
* ``served-short`` — cheap subjects drawn with replacement, two client
  threads against one ``repro serve`` worker (memory backend);
* ``fleet-warm`` — one ``repro cache-serve`` and two ``remote://``
  workers: a seed wave on worker 0, then the same subjects on worker 1.

``--trace 0`` prints the end-to-end metrics of one measured pass, after
set-up has been timed ``SETUP_REPS`` times.  ``--trace 1`` replays the
same inputs twice in fresh processes, untraced and then traced (every
process wrapped by ``perfbench/launch.py``), and prints the per-layer
metrics of the traced pass.  Outputs are checked outside the timed
region; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
import pools  # noqa: E402

#: Set-up is timed this many times per run; the median is reported.
SETUP_REPS = 7

HOST = "127.0.0.1"


class Pass:
    """What one measured pass produced."""

    def __init__(self) -> None:
        self.setups: list[float] = []
        self.sessions: list[dict] = []
        self.wall = 0.0
        self.rss_mb = 0.0
        self.client_spans: list = []
        self.program_spans: dict = {}
        self.warm_traces: frozenset = frozenset()
        self.store_stats: dict = {}


# ----------------------------------------------------------------------
# Deployment shapes
# ----------------------------------------------------------------------
def _boot(reps: int, start, trace_dir):
    """Start the program ``reps`` times, timing each set-up; keep the last."""
    setups, handles = [], None
    for rep in range(reps):
        last = rep == reps - 1
        handles, setup = start(rep, trace_dir if last else None)
        setups.append(setup)
        if not last:
            for program in handles[0]:
                program.stop()
    return setups, handles


def _spans(paths) -> dict:
    out = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        out[payload["pid"]] = [tuple(span) for span in payload["spans"]]
    return out


def run_inproc(workload, work, inputs, trace_dir, reps) -> Pass:
    import procs

    result = Pass()
    ready, done = re.compile(r"^(ready)$", re.M), re.compile(r"^(done)$", re.M)

    def start(rep, tdir):
        program = procs.Program(["inproc"], os.path.join(work, "program.log"), tdir)
        try:
            program.await_lines(ready, 1)
        except BaseException:
            program.stop(interrupt=False)
            raise
        return ([program],), time.perf_counter() - program.started

    result.setups, handles = _boot(reps, start, trace_dir)
    program = handles[0][0]
    outputs = os.path.join(trace_dir or work, "outputs.json")
    try:
        program.send(json.dumps([inputs, outputs]))
        program.await_lines(done, 1, timeout=170)
        result.rss_mb = program.peak_rss_mb()
    finally:
        program.stop(interrupt=False)
    with open(outputs, encoding="utf-8") as handle:
        payload = json.load(handle)
    result.sessions, result.wall = payload["sessions"], payload["wall_s"]
    if trace_dir is not None:
        result.program_spans = _spans(
            os.path.join(trace_dir, name) for name in os.listdir(trace_dir)
            if name.startswith("spans-")
        )
    return result


def _client_tracer(trace_dir):
    if trace_dir is None:
        return None
    import tracer

    return tracer.install(tracer.Tracer(), "client")


def run_served(workload, work, inputs, trace_dir, reps) -> Pass:
    import drive
    import procs

    specs, loaded, deadline = pools.read_inputs(inputs)
    result = Pass()

    def start(rep, tdir):
        program = procs.Program(
            ["serve", "--host", HOST, "--port", "0", "--backend", "memory",
             "--timeout", str(deadline)],
            os.path.join(work, "program.log"), tdir,
        )
        try:
            host, port = program.await_lines(procs.BANNER, 1)[0]
            procs.healthy(host, int(port))
        except BaseException:
            program.stop()
            raise
        return ([program], f"http://{host}:{port}"), time.perf_counter() - program.started

    result.setups, handles = _boot(reps, start, trace_dir)
    (program,), url = handles
    client_tracer = _client_tracer(trace_dir)
    try:
        result.sessions, result.wall = drive.run_sessions(
            lambda: drive.Served(url), specs, loaded, deadline,
            threads=workload.threads, tracer=client_tracer,
        )
        result.rss_mb = program.peak_rss_mb()
        if trace_dir is not None:
            client_tracer.enabled = False
            result.program_spans = _spans(program.dump_spans(trace_dir))
            result.client_spans = client_tracer.spans
    finally:
        program.stop()
    return result


def run_fleet(workload, work, inputs, trace_dir, reps) -> Pass:
    import drive
    import procs

    specs, loaded, deadline = pools.read_inputs(inputs)
    result = Pass()
    log = os.path.join(work, "program.log")

    def start(rep, tdir):
        store = tempfile.mkdtemp(prefix="store-", dir=work)  # every fleet starts empty
        cache = procs.Program(
            ["cache-serve", "--host", HOST, "--port", "0", "--cache-dir", store], log, tdir
        )
        started = [cache]
        try:
            chost, cport = cache.await_lines(procs.BANNER, 1)[0]
            procs.healthy(chost, int(cport))
            service = procs.Program(
                ["serve", "--host", HOST, "--port", "0", "--workers", "2",
                 "--backend", f"remote://{chost}:{cport}", "--timeout", str(deadline)],
                log, tdir,
            )
            started.append(service)
            urls = []
            for host, port in service.await_lines(procs.BANNER, 2):
                procs.healthy(host, int(port))
                urls.append(f"http://{host}:{port}")
        except BaseException:
            for program in started:
                program.stop()
            raise
        return (started, urls, (chost, int(cport))), time.perf_counter() - cache.started

    result.setups, handles = _boot(reps, start, trace_dir)
    programs, urls, cache_address = handles
    client_tracer = _client_tracer(trace_dir)
    try:
        seed, seed_wall = drive.run_sessions(
            lambda: drive.Served(urls[0]), specs, loaded, deadline, tracer=client_tracer
        )
        split = len(client_tracer.spans) if client_tracer is not None else 0
        warm, warm_wall = drive.run_sessions(
            lambda: drive.Served(urls[1]), specs, loaded, deadline, tracer=client_tracer
        )
        result.sessions, result.wall = seed + warm, seed_wall + warm_wall
        result.rss_mb = sum(program.peak_rss_mb() for program in programs)
        if trace_dir is not None:
            client_tracer.enabled = False
            result.store_stats = _get_json(*cache_address, "/v1/stats")
            for program in programs:
                result.program_spans.update(_spans(program.dump_spans(trace_dir)))
            result.client_spans = client_tracer.spans
            result.warm_traces = frozenset(
                span[5] for span in client_tracer.spans[split:] if span[0] == "action"
            )
    finally:
        for program in reversed(programs):
            program.stop()
    return result


def _get_json(host: str, port: int, path: str) -> dict:
    from http.client import HTTPConnection

    connection = HTTPConnection(host, port, timeout=10)
    try:
        connection.request("GET", path, headers={"Accept": "application/json"})
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


SHAPES = {"inproc": run_inproc, "served": run_served, "fleet": run_fleet}


# ----------------------------------------------------------------------
# Output checks (outside every timed region)
# ----------------------------------------------------------------------
def reference_predictions(specs, loaded, deadline):
    """Predictions of an in-process run over the same recordings."""
    import drive
    from repro.service.sessions import SessionManager

    manager = SessionManager(timeout=deadline)
    out = {}
    for key in sorted(set(specs)):
        recording, data = loaded[key]
        session = drive.drive_session(drive.InProcess(manager), recording, data, deadline)
        if session["error"] is not None:
            raise common.BenchError(f"in-process reference failed on {key}: {session['error']}")
        out[key] = session["predictions"]
    return out


def check(passes, specs, inputs_file, shape) -> dict:
    """Count attempted and failed calls; score accuracy and intent."""
    import checks

    _, loaded, deadline = pools.read_inputs(inputs_file)
    recordings = {key: recording for key, (recording, _) in loaded.items()}
    reference = reference_predictions(specs, loaded, deadline) if shape != "inproc" else None
    attempted = failed = 0
    problems: list[str] = []
    for measured in passes:
        for session in measured.sessions:
            calls = len(session["latencies"])
            attempted += calls + (session["error"] is not None)
            failed += session["deadline_hits"]
            if session["error"] is not None:
                failed += 1
                problems.append(f"{session['bid']}: {session['error']}")
                continue
            if reference is not None:
                expected = reference[(session["bid"], session["cap"])]
                diverged = sum(a != b for a, b in zip(session["predictions"], expected))
                diverged += abs(len(expected) - calls)
                if diverged:
                    failed += diverged
                    problems.append(f"{session['bid']}: {diverged} calls diverge from in-process")
    first = passes[0].sessions
    correct, scored, intended = checks.score_sessions(
        [s for s in first if s["error"] is None], recordings
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "accuracy": correct / scored if scored else 0.0,
        "intended": intended / len(first) if first else 0.0,
    }


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def end_to_end(measured: Pass, verdict: dict) -> dict:
    latencies = [value for s in measured.sessions for value in s["latencies"]]
    return {
        "setup_s": (common.median(measured.setups), "s"),
        "action_p50_ms": (common.percentile(latencies, 50) * 1000.0, "ms"),
        "action_p95_ms": (common.percentile(latencies, 95) * 1000.0, "ms"),
        "actions_per_s": (len(latencies) / measured.wall if measured.wall else 0.0, "1/s"),
        "peak_rss_mb": (measured.rss_mb, "MB"),
        "prediction_accuracy": (verdict["accuracy"], "ratio"),
        "intended_rate": (verdict["intended"], "ratio"),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    import layers

    workload = pools.WORKLOADS[workload_name]
    specs = pools.draw(workload, seed, seconds)
    inputs = pools.inputs_path(work)
    pools.write_inputs(specs, inputs)
    shape = SHAPES[workload.shape]
    if not trace:
        measured = shape(workload, work, inputs, None, SETUP_REPS)
        passes = [measured]
    else:
        plain = shape(workload, work, inputs, None, 1)
        trace_dir = os.path.join(work, "trace")
        os.makedirs(trace_dir)
        measured = shape(workload, work, inputs, trace_dir, 1)
        passes = [plain, measured]
    verdict = check(passes, specs, inputs, workload.shape)
    for problem in verdict["problems"]:
        print(f"check: {problem}", file=sys.stderr)
    sessions = len(measured.sessions)
    calls = sum(len(s["latencies"]) for s in measured.sessions)
    print(f"# {workload_name} seed={seed}: {sessions} sessions, {calls} calls, "
          f"{measured.wall:.2f} s measured, error_rate="
          f"{verdict['failed'] / max(1, verdict['attempted']):.4f}")
    if not trace:
        metrics = end_to_end(measured, verdict)
    else:
        metrics, split = layers.analyze(
            measured.client_spans, measured.program_spans, sessions, workload.shape,
            measured.warm_traces, measured.store_stats,
        )
        metrics["trace.overhead_ratio"] = (measured.wall / plain.wall, "ratio")
        print("# layer split (self time as a share of action time):")
        for name, share in split:
            print(f"#   {name:<28} {share:8.2%}")
    return {
        "correct": verdict["failed"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="WebRobot reproduction benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(pools.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.require_source()
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    work = os.path.join(common.WORK, f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    os.makedirs(work)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except common.BenchError as exc:
        print(f"perfbench: {exc} (logs kept in {work})", file=sys.stderr)
        return 1
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
