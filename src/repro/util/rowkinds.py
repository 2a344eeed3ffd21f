"""Execution-cache row kinds: the ``kind`` column of every store row.

A leaf module with no imports, so the processes that only keep or relay
rows — the file store (:mod:`repro.service.backends`) and the fleet
cache server (:mod:`repro.fleet.cache_server`) — name the kinds without
loading the engine that encodes rows (:mod:`repro.engine.rows`).

Kinds are stored for store introspection and tier-aware eviction;
lookups key on the digest alone, whose input already carries the kind
tag, so kinds can never collide even without a column filter.  Kind 2,
the consistency rows of earlier builds, is no longer one.
"""

#: Interior execution entries (recomputable) and whole-program terminal
#: outcomes.
EXACT, TERMINAL = 0, 1
