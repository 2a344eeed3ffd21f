"""Shared configuration for the benchmark harnesses.

Each ``bench_*`` file regenerates one table or figure from the paper's
evaluation (§7).  They run under ``pytest benchmarks/ --benchmark-only``;
the regenerated artifact is printed to stdout (run with ``-s`` to watch).

Environment knobs honoured across benches:

* ``REPRO_TRACE_CAP``    — prediction tests per benchmark (default 100)
* ``REPRO_TIMEOUT``      — per-test synthesis timeout (default 1.0 s)
* ``REPRO_SUBSET``       — restrict to a comma-separated benchmark list
* ``REPRO_Q2_TRACE_CAP`` — cheaper cap for the 3-variant Table 1 run
* ``REPRO_Q2_TIMEOUT``   — per-test timeout of the Table 1 run (default 0.5 s)
* ``REPRO_Q3_TRACE_CAP`` — task-length cap for interactive sessions
* ``REPRO_Q4_TIMEOUT``   — per-run baseline budget (default 60 s)

Every other bench reads only its own sizing and floor overrides
(``REPRO_EXT_*``, ``REPRO_CACHE_*``, ``REPRO_SPEC_*``, ...), listed in
its module docstring.

``--quick`` shrinks the perf benches (fewer sessions, shorter traces,
slightly relaxed speedup floors) to a CI-smoke-tier footprint; see the
``quick`` fixture.  The full runs remain the source of record.
"""

import os
import sys

import pytest

# `tests/helpers.py` style path setup is not needed here; benches import
# only the installed `repro` package.


def pytest_addoption(parser):
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="run the perf benches in their reduced CI smoke configuration",
    )


@pytest.fixture
def quick(request):
    """Whether the bench should use its reduced smoke configuration."""
    return request.config.getoption("--quick")


def pytest_configure(config):
    # pytest-benchmark defaults: one round is meaningful for experiment
    # harnesses (they are deterministic end-to-end drivers, not
    # microbenchmarks), so keep calibration off.
    config.option.benchmark_min_rounds = 1
    config.option.benchmark_warmup = False
