"""The synthesis service: sessions, server, and cache backends.

This package turns the synthesizer into a servable, multi-process
system:

* :mod:`repro.service.backends` — the execution-cache backend seam
  (``memory``, or the ``remote://`` fleet tier that keeps the cache's
  payload rows under the value-addressed keys of
  :mod:`repro.engine.keys`) and the SQLite store the fleet's cache
  server keeps those rows in.
* :mod:`repro.service.sessions` — the session manager driving one
  incremental :class:`~repro.synth.synthesizer.Synthesizer` per
  concurrent demonstration session (the session state itself is the
  unified :class:`repro.protocol.session.Session` core), with idle
  eviction and snapshot export/import for worker migration.
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  typed, versioned interaction protocol (:mod:`repro.protocol`) over
  stdlib HTTP (``repro serve``, ``/v1/...`` routes) and the typed
  client that speaks it.

Only the backends module is imported here.  It loads no synthesizer:
its imports are the leaf store codec (:mod:`repro.protocol.codec`), the
row kinds (:mod:`repro.util.rowkinds`) and :mod:`repro.obs`, so the
fleet cache server runs on it alone.  The session and server modules
pull in the whole synthesizer stack and are imported explicitly by
their users.
"""

from repro.service.backends import (  # noqa: F401
    CacheBackend,
    resolve_backend,
)
