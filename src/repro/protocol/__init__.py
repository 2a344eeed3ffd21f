"""The typed, versioned interaction protocol: the single session API.

Every surface that speaks about demonstration sessions — the paper-loop
simulator (:mod:`repro.interact`), the session service
(:mod:`repro.service`), its HTTP server and thin client, and the
migration tooling — speaks the message types defined here:

* :mod:`repro.protocol.messages` — the message dataclasses
  (``CreateSession``, ``ActionRecorded``, ``ProgramProposed``,
  ``CandidateList``, ``Accept``/``Reject``, ``SessionClosed``,
  ``ErrorEnvelope``, ``SessionSnapshot``, …) plus
  ``PROTOCOL_VERSION`` and the wire field specs they encode by.
* :mod:`repro.protocol.codec` — the codecs with round-trip
  validation: ``JsonCodec`` (canonical JSON) for the session wire,
  ``BinaryCodec`` (the same JSON under zlib) for store rows and the
  cache tier's data plane.
* :mod:`repro.protocol.schema` — the machine-readable wire schema
  (``repro protocol-schema``), diffed against the committed
  ``schema.json`` in CI so wire changes are always explicit.
* :mod:`repro.protocol.session` — the unified :class:`Session` core
  that both the interactive loop and the service drive, including
  ``export_snapshot`` / ``from_snapshot`` for worker migration.

Only the dependency-light message/codec layers are imported here; the
session core pulls in the synthesizer stack and is imported explicitly
by its users.
"""

from repro.protocol.messages import (  # noqa: F401
    PROTOCOL_VERSION,
    Accept,
    Accepted,
    ActionRecorded,
    CallStats,
    Candidate,
    CandidateList,
    CloseSession,
    CreateSession,
    ErrorEnvelope,
    Migrated,
    MigrateSession,
    ProgramProposed,
    ProtocolError,
    Reject,
    Rejected,
    SessionClosed,
    SessionCreated,
    SessionSnapshot,
    SessionTotals,
    message_types,
)
from repro.protocol.codec import DEFAULT_CODEC, Codec, JsonCodec  # noqa: F401
