"""The memoizing execution engine (caching, DOM indexing, one exec seam).

Public surface:

* :class:`repro.engine.engine.ExecutionEngine` — the facade every
  synthesizer-stack module executes through.
* :class:`repro.engine.cache.ExecutionCache` — the process-level
  memoization of simulated execution: exact-window, terminal-prefix
  and consistency-check tables behind one lock plus snapshot
  interning, so concurrent sessions over the same site reuse each
  other's executions
  (``process_cache()`` holds the process-wide instance per backend).
* :mod:`repro.engine.index` — lazy per-snapshot DOM indexes powering
  descendant-axis selector steps.
* :mod:`repro.engine.keys` — value-addressed key primitives (stable
  content digests for snapshots, windows, data sources, and composite
  cache keys) that make entries meaningful across processes and
  restarts.
"""

from repro.engine.cache import (
    CacheCounters,
    ExecutionCache,
    process_cache,
    reset_process_cache,
)
from repro.engine.engine import ExecutionEngine
from repro.engine.index import (
    SnapshotIndex,
    build_count,
    index_for,
    set_dom_indexes,
)
from repro.engine.keys import (
    action_digest,
    data_key,
    digest_int,
    snapshot_key,
    stable_digest,
)

__all__ = [
    "CacheCounters",
    "ExecutionCache",
    "ExecutionEngine",
    "SnapshotIndex",
    "action_digest",
    "build_count",
    "data_key",
    "digest_int",
    "index_for",
    "process_cache",
    "reset_process_cache",
    "set_dom_indexes",
    "snapshot_key",
    "stable_digest",
]
