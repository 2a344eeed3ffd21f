"""Fleet tier: many workers, one networked execution cache.

``repro serve --workers N`` is one machine, each worker with its own
in-process execution cache; this package is what turns it into a fleet
whose workers share one cache tier.  Value-addressed cache keys
(:mod:`repro.engine.keys`) make every entry location-independent, so
the pieces here are pure plumbing:

:mod:`repro.fleet.pool`
    A process-wide keep-alive HTTP connection pool, shared by
    :class:`~repro.service.client.ServiceClient` and the remote backend
    — one pooled socket per (host, port) instead of a fresh TCP
    handshake per request.

:mod:`repro.fleet.cache_server`
    ``repro cache-serve`` — the execution cache as a standalone
    ThreadingHTTPServer over its own SQLite store
    (:class:`~repro.service.backends.FileBackend`), speaking store-codec
    (zlib-compressed JSON) payload batches on ``POST /v1/cache/get`` /
    ``POST /v1/cache/put``
    (its health, stats and error bodies are JSON).

:mod:`repro.fleet.remote`
    :class:`~repro.fleet.remote.RemoteBackend` — the ``remote://host:port``
    cache backend: pooled keep-alive requests, per-request timeouts,
    bounded retries with exponential backoff + jitter, and a circuit
    breaker that degrades every failure to a cache miss, never an
    error, so workers stay correct through cache-tier restarts.

:mod:`repro.fleet.rebalance`
    ``repro rebalance`` — a controller that polls worker
    ``/v1/metrics``, computes session-count skew, and drains hot
    workers through the existing migrate-push flow.

:mod:`repro.fleet.metrics`
    Prometheus text-exposition helpers: scrape, parse, and merge many
    workers' dumps into one ``instance``-labeled stream
    (``repro metrics --fleet``).

This module stays import-light on purpose: :mod:`repro.service` imports
parts of the fleet lazily (and vice versa), so nothing here may import
the service layer at module import time.
"""
