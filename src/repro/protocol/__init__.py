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
  cache tier's data plane.  A leaf: it defines ``ProtocolError`` and
  loads the message layer only to encode or decode a message.
* :mod:`repro.protocol.schema` — the machine-readable wire schema
  (``repro protocol-schema``), diffed against the committed
  ``schema.json`` in CI so wire changes are always explicit.
* :mod:`repro.protocol.session` — the unified :class:`Session` core
  that both the interactive loop and the service drive, including
  ``export_snapshot`` / ``from_snapshot`` for worker migration.

Importing this package imports none of them.  The names below resolve
on first access, each from its defining module, so the store and the
fleet cache server (:mod:`repro.protocol.codec` only) never load the
message layer or the synthesizer stack behind the session core.
"""

from repro.util.lazy import lazy_exports

#: Each re-exported name and the module that defines it.
_EXPORTS = {
    "PROTOCOL_VERSION": "repro.protocol.messages",
    "Accept": "repro.protocol.messages",
    "Accepted": "repro.protocol.messages",
    "ActionRecorded": "repro.protocol.messages",
    "CallStats": "repro.protocol.messages",
    "Candidate": "repro.protocol.messages",
    "CandidateList": "repro.protocol.messages",
    "CloseSession": "repro.protocol.messages",
    "CreateSession": "repro.protocol.messages",
    "ErrorEnvelope": "repro.protocol.messages",
    "Migrated": "repro.protocol.messages",
    "MigrateSession": "repro.protocol.messages",
    "ProgramProposed": "repro.protocol.messages",
    "Reject": "repro.protocol.messages",
    "Rejected": "repro.protocol.messages",
    "SessionClosed": "repro.protocol.messages",
    "SessionCreated": "repro.protocol.messages",
    "SessionSnapshot": "repro.protocol.messages",
    "SessionTotals": "repro.protocol.messages",
    "message_types": "repro.protocol.messages",
    "ProtocolError": "repro.protocol.codec",
    "DEFAULT_CODEC": "repro.protocol.codec",
    "Codec": "repro.protocol.codec",
    "JsonCodec": "repro.protocol.codec",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
