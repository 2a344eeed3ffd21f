"""Start one program process, optionally traced.

Usage::

    python3 perfbench/launch.py [--trace-dir DIR] -- serve --port 0 ...
    python3 perfbench/launch.py [--trace-dir DIR] -- inproc

Arguments after ``--`` go to the ``repro`` command line, except
``inproc``, which runs the benchmark's in-process session driver
(:mod:`inproc`).  With ``--trace-dir`` the program's public functions
are wrapped before anything runs (:mod:`tracer`), so processes that
``serve --workers N`` forks inherit the wrappers, and every process
writes its spans into ``DIR`` on ``SIGUSR1``.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


def main(argv: list[str]) -> int:
    trace_dir = None
    if argv[:1] == ["--trace-dir"]:
        trace_dir, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    common.require_source()
    tracer = None
    if trace_dir is not None:
        import tracer as tracing

        tracer = tracing.install(tracing.Tracer(), "server")
        tracing.dump_on_signal(tracer, trace_dir)
    if argv[:1] == ["inproc"]:
        import inproc

        return inproc.main(tracer)
    from repro.cli import main as repro_main

    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
