"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``stats``
    Print the benchmark-suite statistics (§7).
``record <bid> [-o FILE]``
    Instrument a benchmark's ground truth and write the recorded
    demonstration as JSON.
``synthesize <FILE> [--cut K] [--data JSON] [--stats] [--backend NAME]``
    Load a recorded demonstration, synthesize at prefix ``K`` (default:
    all but the last action), print the best program and prediction.
    ``--stats`` also prints synthesis + execution-engine telemetry
    (worklist activity, cache hits/misses and footprint, DOM index
    builds).  ``--backend`` names the execution cache's backend
    (``memory``, the default, or ``remote://host:port``, a running
    ``repro cache-serve``); any other name exits 2 before synthesis.
    ``--trace-out FILE`` records spans for the run and writes a Chrome
    trace-event JSON loadable in Perfetto / ``chrome://tracing``.
``metrics [--url URL]``
    Print Prometheus text-format metrics: scraped from a running
    service's ``GET /v1/metrics`` when ``--url`` is given, rendered
    from this process's registry otherwise.
``replay <PROGRAM-FILE> --benchmark <bid>``
    Run a serialized program for real against a benchmark's site and
    print the scraped outputs.
``check <PROGRAM-FILE> [--data JSON] [--json]``
    Statically check a serialized program: variable scoping, loop-
    variable usage, and (with ``--data``) value-path typing.
``lint <PROGRAM-FILE> [--disable RULE,...] [--json]``
    Flag robustness/intent smells: brittle selectors, mis-parametrized
    data entry, unrolled repetition, mergeable loops, and more.
``analyze <PROGRAM-FILE> [--recording FILE] [--data JSON] [--json]``
    Run the abstract-analysis layer over a program: effect summary
    (read-only / navigating / mutating), termination verdict per loop,
    symbolic replay-cost interval, and per-selector fragility scores
    (with ``--recording``, also whether each concrete selector
    resolves on any demonstrated snapshot).

``check``, ``lint``, and ``analyze`` form one diagnostics pipeline:
all three emit the same versioned findings document under ``--json``
(``{"version", "tool", "findings": [...], "errors", "warnings"}``),
differing only in the ``tool`` tag and the rules that can appear.
``export <PROGRAM-FILE> [--target selenium|playwright|imacros] [-o FILE]``
    Generate a standalone Selenium, Playwright, or iMacros script from
    a serialized program.
``explain <PROGRAM-FILE> --recording <FILE> [--summary]``
    Execute a program against a recorded demonstration under the trace
    semantics and print per-action provenance (which statement and
    loop iteration produced each action).
``serve [--host H] [--port P] [--workers N] [--backend memory|remote://H:P]``
    Run the multi-process session service: concurrent demonstration
    sessions over the typed ``/v1`` protocol routes (create /
    record-action / get-candidates / accept / reject / close / migrate
    / import), sharing the process-level execution cache — and, with
    ``--backend remote://host:port``, a ``repro cache-serve`` tier that
    every worker pointing at it shares and that outlives them.  An
    unknown backend exits 2 before any port is bound.
    ``--session-ttl`` evicts idle sessions.  See
    :mod:`repro.service.server`.
``cache-serve [--host H] [--port P] [--cache-dir DIR] [--max-bytes N]``
    Run the fleet's cache tier over the store file
    ``DIR/execution-cache.sqlite`` (default ``~/.cache/repro``).  See
    :mod:`repro.fleet.cache_server`.
``protocol-schema``
    Print the interaction protocol's machine-readable wire schema
    (message types, field specs, ``PROTOCOL_VERSION``).  CI diffs this
    output against the committed ``src/repro/protocol/schema.json`` so
    wire changes are always explicit.
``q1|q2|q3|q4``
    Regenerate the corresponding evaluation artifact (same as
    ``python -m repro.harness.qN``).
``ablations``
    Run the extensions report: the paper's published failure cases
    (b6, b9, b10) with this repo's opt-in extensions off and on.
``scaling``
    Run the incremental-vs-from-scratch trace-length scaling
    comparison.
``drift``
    Run the drift-robustness study (raw paths vs. synthesized
    programs, plain vs. repaired replay).

Each command imports what it runs, inside its handler: ``cache-serve``
never loads the synthesizer, and ``serve`` loads it before its banner.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    from repro.lang.data import DataSource


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WebRobot reproduction: record, synthesize, replay, evaluate.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("stats", help="print benchmark-suite statistics")

    record = commands.add_parser("record", help="record a benchmark ground truth")
    record.add_argument("bid", help="benchmark id, e.g. b21")
    record.add_argument("-o", "--output", default=None, help="output JSON file")
    record.add_argument("--max-actions", type=int, default=500)

    synth = commands.add_parser("synthesize", help="synthesize from a recording")
    synth.add_argument("recording", help="JSON file produced by 'record'")
    synth.add_argument("--cut", type=int, default=None,
                       help="prefix length (default: all but the last action)")
    synth.add_argument("--data", default=None,
                       help="JSON file with the input data source")
    synth.add_argument("--timeout", type=float, default=1.0)
    synth.add_argument("--stats", action="store_true",
                       help="print synthesis + execution-engine telemetry")
    synth.add_argument("--backend", default="memory", metavar="BACKEND",
                       help="execution-cache backend: memory (default) or "
                            "remote://host:port, a running cache-serve")
    synth.add_argument("--trace-out", default=None, metavar="FILE",
                       help="record spans and write a Chrome trace-event "
                            "JSON (open in Perfetto)")

    metrics = commands.add_parser(
        "metrics", help="print Prometheus text-format metrics"
    )
    metrics.add_argument("--url", default=None,
                         help="scrape a running service's /v1/metrics "
                              "instead of this process's registry")
    metrics.add_argument("--fleet", default=None, metavar="URL,URL,...",
                         help="scrape every listed worker/cache server and "
                              "merge the dumps, each sample tagged with an "
                              "instance label")

    serve = commands.add_parser("serve", help="run the session service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=None,
                       help="base port (default 8738; 0 = OS-assigned)")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker processes on consecutive ports, each "
                            "with its own execution cache (shared only "
                            "through a remote:// backend)")
    serve.add_argument("--backend", default="memory", metavar="BACKEND",
                       help="execution-cache backend: memory (default) or "
                            "remote://host:port, a cache-serve every "
                            "worker shares")
    serve.add_argument("--timeout", type=float, default=1.0,
                       help="per-action synthesis budget in seconds")
    serve.add_argument("--session-ttl", type=float, default=None,
                       help="evict sessions idle longer than this many "
                            "seconds (default: never)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every request to stderr")

    cache_serve = commands.add_parser(
        "cache-serve",
        help="run the execution cache as a standalone fleet server",
    )
    cache_serve.add_argument("--host", default="127.0.0.1")
    cache_serve.add_argument("--port", type=int, default=None,
                             help="port (default 8799; 0 = OS-assigned)")
    cache_serve.add_argument("--cache-dir", default=None,
                             help="directory of the store file "
                                  "execution-cache.sqlite (default: "
                                  "~/.cache/repro)")
    cache_serve.add_argument("--max-bytes", type=int, default=None,
                             help="store size budget before eviction "
                                  "(default: 256 MiB)")
    cache_serve.add_argument("--verbose", action="store_true",
                             help="log every request to stderr")

    rebalance = commands.add_parser(
        "rebalance", help="drain hot workers toward the fleet average"
    )
    rebalance.add_argument("--fleet", required=True, metavar="URL,URL,...",
                           help="worker base URLs to balance across")
    rebalance.add_argument("--interval", type=float, default=None,
                           help="seconds between rounds (default: one shot)")
    rebalance.add_argument("--skew", type=int, default=None,
                           help="tolerated session-count spread (default 2)")
    rebalance.add_argument("--dry-run", action="store_true",
                           help="plan and print moves without migrating")
    rebalance.add_argument("--timeout", type=float, default=10.0,
                           help="per-request timeout when polling/migrating")

    commands.add_parser("protocol-schema",
                        help="print the interaction protocol wire schema")

    replay = commands.add_parser("replay", help="run a serialized program")
    replay.add_argument("program", help="JSON file with a serialized program")
    replay.add_argument("--benchmark", required=True, help="benchmark id for the site")

    check = commands.add_parser("check", help="statically check a program")
    check.add_argument("program", help="JSON file with a serialized program")
    check.add_argument("--data", default=None,
                       help="JSON file with the input data source")
    check.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the shared findings document as JSON")

    lint = commands.add_parser("lint", help="flag robustness/intent smells")
    lint.add_argument("program", help="JSON file with a serialized program")
    lint.add_argument("--disable", default="",
                      help="comma-separated lint rule ids to suppress")
    lint.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the shared findings document as JSON")

    analyze = commands.add_parser(
        "analyze", help="abstract analysis: effects, termination, cost, fragility"
    )
    analyze.add_argument("program", help="JSON file with a serialized program")
    analyze.add_argument("--recording", default=None,
                         help="JSON recording whose snapshots selectors are "
                              "checked against")
    analyze.add_argument("--data", default=None,
                         help="JSON file with the input data source")
    analyze.add_argument("--json", action="store_true", dest="as_json",
                         help="emit the analysis + findings document as JSON")

    export = commands.add_parser("export", help="generate an automation script")
    export.add_argument("program", help="JSON file with a serialized program")
    export.add_argument("--target", default="selenium",
                        choices=("selenium", "playwright", "imacros"))
    export.add_argument("--start-url", default="", help="URL baked into main()")
    export.add_argument("-o", "--output", default=None,
                        help="output .py file (default: stdout)")

    explain = commands.add_parser("explain", help="trace a program's provenance")
    explain.add_argument("program", help="JSON file with a serialized program")
    explain.add_argument("--recording", required=True,
                         help="JSON recording the program runs against")
    explain.add_argument("--data", default=None,
                         help="JSON file with the input data source")
    explain.add_argument("--summary", action="store_true",
                         help="print per-statement totals instead of per-action lines")

    for experiment in ("q1", "q2", "q3", "q4"):
        commands.add_parser(experiment, help=f"regenerate the {experiment} artifact")
    commands.add_parser("ablations", help="run the published-failure-case extensions report")
    commands.add_parser("scaling", help="run the trace-length scaling comparison")
    commands.add_parser("drift", help="run the drift-robustness replay study")
    return parser


def _cmd_stats() -> int:
    from repro.harness.stats import render_statistics

    print(render_statistics())
    return 0


def _cmd_record(bid: str, output: Optional[str], max_actions: int) -> int:
    from repro import io as repro_io
    from repro.benchmarks.suite import all_benchmarks, benchmark_by_id

    try:
        benchmark = benchmark_by_id(bid)
    except KeyError:
        known = ", ".join(b.bid for b in all_benchmarks()[:5])
        print(f"unknown benchmark {bid!r} (try one of {known}, ...)", file=sys.stderr)
        return 2
    recording = benchmark.record(max_actions=max_actions)
    destination = output or f"{bid}.recording.json"
    with open(destination, "w", encoding="utf-8") as handle:
        repro_io.dump(recording, handle)
    print(f"recorded {recording.length} actions "
          f"({len(recording.outputs)} outputs) -> {destination}")
    return 0


def _backend_resolves(command: str, backend: str) -> bool:
    """Resolve the cache backend once, before any work: an unknown name
    is one line on stderr, not a traceback or a server whose every
    session fails."""
    from repro.service.backends import resolve_backend

    try:
        resolve_backend(backend)
    except ValueError as error:
        print(f"repro {command}: {error}", file=sys.stderr)
        return False
    return True


def _cmd_synthesize(path: str, cut: Optional[int], data_path: Optional[str],
                    timeout: float, show_stats: bool = False,
                    backend: str = "memory",
                    trace_out: Optional[str] = None) -> int:
    from dataclasses import replace

    from repro import io as repro_io
    from repro.lang.pretty import format_program
    from repro.synth.config import DEFAULT_CONFIG
    from repro.synth.synthesizer import Synthesizer

    if not _backend_resolves("synthesize", backend):
        return 2
    if trace_out is not None:
        from repro.obs import tracing as obs_tracing

        obs_tracing.enable(path=trace_out)
    with open(path, encoding="utf-8") as handle:
        recording = repro_io.load(handle)
    data = _load_data(data_path)
    prefix = cut if cut is not None else recording.length - 1
    prefix = max(1, min(prefix, recording.length - 1))
    actions, snapshots = recording.prefix(prefix)
    config = replace(DEFAULT_CONFIG, cache_backend=backend)
    from contextlib import nullcontext

    trace_scope = nullcontext()
    if trace_out is not None:
        from repro.obs import context as obs_context

        # one root context for the run, so every span shares a trace_id
        trace_scope = obs_context.use(obs_context.new_root())
    with trace_scope:
        result = Synthesizer(data, config).synthesize(
            actions, snapshots, timeout=timeout
        )
    if trace_out is not None:
        from repro.obs import tracing as obs_tracing

        obs_tracing.write(trace_out)
        print(f"wrote trace -> {trace_out}", file=sys.stderr)
    if show_stats:
        from repro.harness.report import render_synthesis_stats

        print(render_synthesis_stats(result.stats))
        print()
    if result.best_program is None:
        print(f"no generalizing program after {prefix} actions")
        return 1
    print(f"programs found: {len(result.programs)} "
          f"(in {result.stats.elapsed * 1000:.0f} ms)")
    print(format_program(result.best_program))
    print(f"\npredicted next action: {result.best_prediction}")
    return 0


def _cmd_metrics(url: Optional[str], fleet: Optional[str] = None) -> int:
    """Prometheus text metrics: scrape a server/fleet, or render locally."""
    if fleet is not None:
        from repro.fleet.metrics import merge_exposition, scrape_text, split_host_port

        scrapes = []
        failures = 0
        for member in (part.strip() for part in fleet.split(",")):
            if not member:
                continue
            try:
                host, port = split_host_port(member)
                scrapes.append((f"{host}:{port}", scrape_text(member)))
            except (OSError, ValueError) as error:
                failures += 1
                print(f"cannot scrape {member}: {error}", file=sys.stderr)
        sys.stdout.write(merge_exposition(scrapes))
        return 1 if failures else 0
    if url is None:
        from repro.obs import metrics as obs_metrics

        sys.stdout.write(obs_metrics.registry().render())
        return 0
    from repro.fleet.metrics import scrape_text

    try:
        text = scrape_text(url)
    except ValueError:
        print(f"bad service URL {url!r}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"cannot scrape {url}: {error}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


def _cmd_serve(arguments) -> int:
    from dataclasses import replace

    if not _backend_resolves("serve", arguments.backend):
        return 2  # before the server stack loads or any port is bound
    from repro.service.server import DEFAULT_PORT, serve
    from repro.synth.config import DEFAULT_CONFIG

    config = replace(DEFAULT_CONFIG, cache_backend=arguments.backend)
    port = arguments.port if arguments.port is not None else DEFAULT_PORT
    return serve(
        host=arguments.host,
        port=port,
        workers=max(1, arguments.workers),
        config=config,
        timeout=arguments.timeout,
        quiet=not arguments.verbose,
        max_idle_s=arguments.session_ttl,
    )


def _cmd_cache_serve(arguments) -> int:
    from repro.fleet.cache_server import DEFAULT_CACHE_PORT, serve_cache

    path = None
    if arguments.cache_dir is not None:
        path = os.path.join(arguments.cache_dir, "execution-cache.sqlite")
    return serve_cache(
        host=arguments.host,
        port=arguments.port if arguments.port is not None else DEFAULT_CACHE_PORT,
        path=path,
        max_bytes=arguments.max_bytes,
        quiet=not arguments.verbose,
    )


def _cmd_rebalance(arguments) -> int:
    from repro.fleet.rebalance import DEFAULT_SKEW, run_rebalancer

    urls = [
        url if "//" in url else f"http://{url}"
        for url in (part.strip() for part in arguments.fleet.split(","))
        if url
    ]
    if len(urls) < 2:
        print("rebalance: need at least two --fleet URLs", file=sys.stderr)
        return 2
    return run_rebalancer(
        urls,
        interval=arguments.interval,
        skew=arguments.skew if arguments.skew is not None else DEFAULT_SKEW,
        dry_run=arguments.dry_run,
        timeout=arguments.timeout,
    )


def _cmd_replay(program_path: str, bid: str) -> int:
    from repro import io as repro_io
    from repro.benchmarks.suite import benchmark_by_id
    from repro.browser.replayer import Replayer

    with open(program_path, encoding="utf-8") as handle:
        program = repro_io.load(handle)
    benchmark = benchmark_by_id(bid)
    browser = benchmark.fresh_browser()
    outcome = Replayer(browser, raise_errors=False).run(program)
    if outcome.error is not None:
        print(f"replay failed: {outcome.error}", file=sys.stderr)
        return 1
    for value in outcome.outputs:
        print(value)
    return 0


def _load_data(data_path: Optional[str]) -> DataSource:
    from repro.lang.data import EMPTY_DATA, DataSource

    if data_path is None:
        return EMPTY_DATA
    with open(data_path, encoding="utf-8") as handle:
        return DataSource(json.load(handle))


def _load_program(path: str):
    from repro import io as repro_io

    try:
        with open(path, encoding="utf-8") as handle:
            loaded = repro_io.load(handle)
    except OSError as error:
        print(f"cannot read {path}: {error.strerror or error}", file=sys.stderr)
        return None
    from repro.lang.ast import Program

    if not isinstance(loaded, Program):
        print(f"{path} does not contain a serialized program", file=sys.stderr)
        return None
    return loaded


def _cmd_check(program_path: str, data_path: Optional[str],
               as_json: bool = False) -> int:
    from repro.analysis.report import findings_from_check, findings_payload
    from repro.lang.check import check_program, errors_only

    program = _load_program(program_path)
    if program is None:
        return 2
    data = _load_data(data_path) if data_path is not None else None
    diagnostics = check_program(program, data)
    if as_json:
        payload = findings_payload("check", findings_from_check(diagnostics))
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if errors_only(diagnostics) else 0
    for diagnostic in diagnostics:
        print(diagnostic)
    if errors_only(diagnostics):
        return 1
    print(f"ok: {len(diagnostics)} warning(s)" if diagnostics else "ok")
    return 0


def _cmd_lint(program_path: str, disable: str, as_json: bool = False) -> int:
    from repro.analysis.report import findings_from_lint, findings_payload
    from repro.lang.lint import lint_program, warnings_only

    program = _load_program(program_path)
    if program is None:
        return 2
    disabled = {rule.strip() for rule in disable.split(",") if rule.strip()}
    try:
        findings = lint_program(program, disable=disabled or None)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if as_json:
        payload = findings_payload("lint", findings_from_lint(findings))
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if warnings_only(findings) else 0
    for finding in findings:
        print(finding)
    if warnings_only(findings):
        return 1
    print(f"ok: {len(findings)} info finding(s)" if findings else "ok")
    return 0


def _cmd_analyze(program_path: str, recording_path: Optional[str],
                 data_path: Optional[str], as_json: bool = False) -> int:
    from repro import io as repro_io
    from repro.analysis.report import ERROR, analyze_program, findings_payload

    program = _load_program(program_path)
    if program is None:
        return 2
    snapshots = ()
    if recording_path is not None:
        with open(recording_path, encoding="utf-8") as handle:
            snapshots = tuple(repro_io.load(handle).snapshots)
    data = _load_data(data_path)
    analysis = analyze_program(program, data, snapshots)
    errors = sum(1 for f in analysis.findings if f.severity == ERROR)
    if as_json:
        payload = findings_payload(
            "analyze", analysis.findings, extra={"analysis": analysis.to_json()}
        )
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if errors else 0
    replay = "safe to auto-replay" if analysis.effect.safe_to_replay else "side-effecting"
    print(f"effect:      {analysis.effect.classification} ({replay})")
    print(f"termination: {analysis.termination}")
    print(f"cost:        {analysis.cost} actions")
    print(f"fragility:   {analysis.fragility}")
    for verdict in analysis.loops:
        print(f"  {verdict}")
    for report in analysis.selectors:
        print(f"  {report}")
    for finding in analysis.findings:
        print(finding)
    if errors:
        return 1
    print(f"ok: {len(analysis.findings)} finding(s)" if analysis.findings else "ok")
    return 0


def _cmd_export(program_path: str, target: str, start_url: str,
                output: Optional[str]) -> int:
    from repro.export import export_program

    program = _load_program(program_path)
    if program is None:
        return 2
    source = export_program(program, target=target, start_url=start_url)
    if output is None:
        print(source, end="")
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(source)
        print(f"wrote {target} script -> {output}")
    return 0


def _cmd_explain(program_path: str, recording_path: str,
                 data_path: Optional[str], summary: bool) -> int:
    from repro import io as repro_io
    from repro.semantics.provenance import explain, render_explanation, render_summary
    from repro.semantics.trace import DOMTrace

    program = _load_program(program_path)
    if program is None:
        return 2
    with open(recording_path, encoding="utf-8") as handle:
        recording = repro_io.load(handle)
    data = _load_data(data_path)
    result = explain(program, DOMTrace(recording.snapshots), data)
    if summary:
        print(render_summary(program, result))
    else:
        print(render_explanation(program, result))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    arguments = _build_parser().parse_args(argv)
    if arguments.command == "stats":
        return _cmd_stats()
    if arguments.command == "record":
        return _cmd_record(arguments.bid, arguments.output, arguments.max_actions)
    if arguments.command == "synthesize":
        return _cmd_synthesize(
            arguments.recording, arguments.cut, arguments.data,
            arguments.timeout, arguments.stats, arguments.backend,
            arguments.trace_out,
        )
    if arguments.command == "metrics":
        return _cmd_metrics(arguments.url, arguments.fleet)
    if arguments.command == "serve":
        return _cmd_serve(arguments)
    if arguments.command == "cache-serve":
        return _cmd_cache_serve(arguments)
    if arguments.command == "rebalance":
        return _cmd_rebalance(arguments)
    if arguments.command == "protocol-schema":
        from repro.protocol.schema import main as protocol_schema_main

        return protocol_schema_main()
    if arguments.command == "replay":
        return _cmd_replay(arguments.program, arguments.benchmark)
    if arguments.command == "check":
        return _cmd_check(arguments.program, arguments.data, arguments.as_json)
    if arguments.command == "lint":
        return _cmd_lint(arguments.program, arguments.disable, arguments.as_json)
    if arguments.command == "analyze":
        return _cmd_analyze(arguments.program, arguments.recording,
                            arguments.data, arguments.as_json)
    if arguments.command == "export":
        return _cmd_export(arguments.program, arguments.target,
                           arguments.start_url, arguments.output)
    if arguments.command == "explain":
        return _cmd_explain(arguments.program, arguments.recording,
                            arguments.data, arguments.summary)
    if arguments.command in ("q1", "q2", "q3", "q4", "ablations", "scaling", "drift"):
        module = __import__(f"repro.harness.{arguments.command}",
                            fromlist=["main"])
        module.main()
        return 0
    raise AssertionError(f"unhandled command {arguments.command!r}")


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
