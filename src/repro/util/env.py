"""Numeric deployment knobs read from the environment.

A malformed value (``REPRO_REMOTE_TIMEOUT=1s``) falls back to the
default instead of crashing the process with a traceback: every knob
read through here is a tuning value, never a correctness switch.
"""

from __future__ import annotations

import os
from typing import TypeVar

T = TypeVar("T")


def env_int(name: str, default: T) -> int | T:
    """``int(os.environ[name])``, or ``default`` when unset or malformed."""
    raw = os.environ.get(name, "").strip()
    try:
        return int(raw) if raw else default
    except ValueError:
        return default


def env_float(name: str, default: T) -> float | T:
    """``float(os.environ[name])``, or ``default`` when unset or malformed."""
    raw = os.environ.get(name, "").strip()
    try:
        return float(raw) if raw else default
    except ValueError:
        return default
