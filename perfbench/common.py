"""Paths, child-process environment and small statistics helpers.

Every benchmark file runs from the root of a source checkout: the
program under test is imported from ``src/`` and nothing is installed.
Scratch files (recordings handed to the program, cache stores, span
dumps) live under ``.perfbench_work/`` inside the checkout.
"""

from __future__ import annotations

import math
import os
import sys
from typing import Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")


class BenchError(RuntimeError):
    """The benchmark cannot run or an output check failed."""


def require_source() -> None:
    """Make ``repro`` importable from the checkout, or fail loudly."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program source at {SRC}: run from a full checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> dict:
    """Environment for program processes: the checkout's source first."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
    # the program's own knobs stay at their defaults whatever the caller set
    for name in list(env):
        if name.startswith("REPRO_"):
            del env[name]
    # one hash seed for every run: set and dict orders, and with them the
    # allocation pattern the garbage collector sees, repeat run to run
    env["PYTHONHASHSEED"] = "0"
    return env


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    position = q / 100.0 * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50)
