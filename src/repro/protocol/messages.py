"""Protocol message types and their wire field specs.

One dataclass per message, one declarative field spec per dataclass —
the spec drives *everything*: wire encoding, strict decoding, and the
machine-readable schema (:mod:`repro.protocol.schema`).  A message can
therefore never encode differently from what the committed schema says
without CI noticing.

Wire shape: every message is a JSON object carrying ``"v"``
(:data:`PROTOCOL_VERSION`) and ``"type"`` (the message tag) plus one
key per field.  All fields are always present (``null`` for an absent
optional), so encodings are canonical and byte-stable.  One envelope
key is conditional: ``"trace"`` (added in v3) carries the sender's
``trace_id-span_id`` pair and appears only while a
:mod:`repro.obs.context` trace context is active — with observability
off, encodings are unchanged from v2 modulo the version integer.  DOM snapshots
and actions reuse the recorded-demonstration shapes of
:mod:`repro.io`; a :class:`SessionSnapshot` stores its DOM trace as a
deduplicated pool plus per-position references, exactly like a stored
recording.

Versioning policy: ``PROTOCOL_VERSION`` is a single integer; a decoder
accepts exactly its own version and rejects everything else with
:class:`ProtocolError` (defined in the leaf :mod:`repro.protocol.codec`
and re-exported here) — version negotiation is the client's job (the
server advertises its version on ``/healthz``).  Any field addition,
removal, or retyping bumps the version and must land together with a
regenerated ``schema.json`` (the ``protocol-compat`` CI step diffs it).
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Optional

from repro import io as repro_io
from repro.dom.node import DOMNode
from repro.lang.actions import Action
from repro.obs import context as obs_context
from repro.protocol.codec import ProtocolError  # noqa: F401 - re-exported
from repro.util.errors import ParseError

#: The wire version every message carries.  Bump on any wire change.
PROTOCOL_VERSION = 3


# ----------------------------------------------------------------------
# Message dataclasses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CallStats:
    """Per-call synthesis telemetry riding a :class:`ProgramProposed`."""

    elapsed: float = 0.0
    timed_out: bool = False
    cache_hits: int = 0
    cache_misses: int = 0
    cross_session_hits: int = 0
    warm_start_hits: int = 0
    backend: str = "memory"


@dataclass(frozen=True)
class SessionTotals:
    """Aggregated session telemetry (rides closes and snapshots)."""

    calls: int = 0
    actions: int = 0
    elapsed: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cross_session_hits: int = 0
    warm_start_hits: int = 0
    timed_out_calls: int = 0
    rejections: int = 0


@dataclass(frozen=True)
class AnalysisSummary:
    """The static-analysis verdict block riding proposals and candidates.

    The wire form of :meth:`repro.analysis.report.ProgramAnalysis.summary_json`:
    effect classification (``read-only`` / ``navigating`` / ``mutating``),
    whether auto-replay is side-effect-safe, the termination verdict
    (``terminating`` / ``progress`` / ``unknown``), the symbolic
    replay-cost interval (``cost_max`` null = unbounded), and the worst
    selector fragility score.  Added in protocol v2.
    """

    effect: str
    safe_replay: bool
    termination: str
    cost_min: int
    cost_max: Optional[int]
    fragility: int


@dataclass(frozen=True)
class Candidate:
    """One ranked candidate program, rendered for the wire."""

    index: int
    program: str
    statements: int
    analysis: Optional[AnalysisSummary] = None


@dataclass(frozen=True)
class CreateSession:
    """Open a session on the initial page snapshot (client → server)."""

    snapshot: DOMNode
    data: Optional[Any] = None  # raw JSON value of the DataSource
    timeout: Optional[float] = None


@dataclass(frozen=True)
class SessionCreated:
    """A session id minted for a :class:`CreateSession` (server → client)."""

    session: str


@dataclass(frozen=True)
class ActionRecorded:
    """One demonstrated step: the action plus the snapshot it produced."""

    session: str
    action: Action
    snapshot: DOMNode


@dataclass(frozen=True)
class ProgramProposed:
    """The synthesizer's answer to one recorded action."""

    session: str
    actions: int
    programs: int
    predictions: tuple[str, ...]
    stats: CallStats
    #: Static analysis of the top-ranked program (None when no program).
    analysis: Optional[AnalysisSummary] = None


@dataclass(frozen=True)
class CandidateList:
    """The session's ranked candidate programs."""

    session: str
    candidates: tuple[Candidate, ...]


@dataclass(frozen=True)
class Accept:
    """The user fixes one candidate program (client → server)."""

    session: str
    index: int = 0


@dataclass(frozen=True)
class Accepted:
    """Acknowledges an :class:`Accept` with the rendered program."""

    session: str
    index: int
    program: str


@dataclass(frozen=True)
class Reject:
    """The user rejects every current proposal (client → server)."""

    session: str


@dataclass(frozen=True)
class Rejected:
    """Acknowledges a :class:`Reject`; carries the running count."""

    session: str
    rejections: int


@dataclass(frozen=True)
class CloseSession:
    """End a session (client → server)."""

    session: str


@dataclass(frozen=True)
class SessionClosed:
    """A closed session's final aggregated telemetry."""

    session: str
    stats: SessionTotals


@dataclass(frozen=True)
class MigrateSession:
    """Move a session off this worker.

    With ``target`` the worker pushes the snapshot to the target
    worker's import endpoint; without, it answers with the
    :class:`SessionSnapshot` for the caller to place.
    """

    session: str
    target: Optional[str] = None


@dataclass(frozen=True)
class Migrated:
    """A session now lives on another worker."""

    session: str
    target: str
    target_session: str


@dataclass(frozen=True)
class ErrorEnvelope:
    """Every non-2xx response: a machine code, a message, the session."""

    code: str
    message: str
    session: Optional[str] = None


@dataclass(frozen=True)
class SessionSnapshot:
    """A session's full serializable state (worker migration).

    ``snapshots`` is the recorded DOM trace (``len(actions) + 1``
    entries); on the wire it is stored as a deduplicated pool plus
    references, since scrape-heavy traces repeat the same page object.
    Importing replays the trace through a fresh synthesizer — the
    rewrite store is value-addressed end to end, so the resumed session
    produces byte-identical subsequent candidates.
    """

    session: str
    created: float
    timeout: Optional[float]
    data: Optional[Any]  # raw JSON value of the DataSource
    actions: tuple[Action, ...]
    snapshots: tuple[DOMNode, ...]
    accepted_index: Optional[int]
    stats: SessionTotals  # carries the rejection count too


# ----------------------------------------------------------------------
# Wire field specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FieldSpec:
    """One wire field: its name, value kind, and nullability."""

    name: str
    kind: str
    optional: bool = False


def _spec(cls, tag: Optional[str], *fields: FieldSpec) -> "_MessageSpec":
    declared = tuple(field.name for field in dataclass_fields(cls))
    spec_names = tuple(field.name for field in fields)
    if declared != spec_names:  # pragma: no cover - definition-time guard
        raise AssertionError(f"{cls.__name__} spec fields {spec_names} != dataclass {declared}")
    return _MessageSpec(cls, tag, fields)


@dataclass(frozen=True)
class _MessageSpec:
    cls: type
    tag: Optional[str]  # None = struct (nested value, not a top-level message)
    fields: tuple[FieldSpec, ...]


_CALL_STATS_SPEC = _spec(
    CallStats,
    None,
    FieldSpec("elapsed", "float"),
    FieldSpec("timed_out", "bool"),
    FieldSpec("cache_hits", "int"),
    FieldSpec("cache_misses", "int"),
    FieldSpec("cross_session_hits", "int"),
    FieldSpec("warm_start_hits", "int"),
    FieldSpec("backend", "str"),
)

_TOTALS_SPEC = _spec(
    SessionTotals,
    None,
    FieldSpec("calls", "int"),
    FieldSpec("actions", "int"),
    FieldSpec("elapsed", "float"),
    FieldSpec("cache_hits", "int"),
    FieldSpec("cache_misses", "int"),
    FieldSpec("cross_session_hits", "int"),
    FieldSpec("warm_start_hits", "int"),
    FieldSpec("timed_out_calls", "int"),
    FieldSpec("rejections", "int"),
)

_ANALYSIS_SPEC = _spec(
    AnalysisSummary,
    None,
    FieldSpec("effect", "str"),
    FieldSpec("safe_replay", "bool"),
    FieldSpec("termination", "str"),
    FieldSpec("cost_min", "int"),
    FieldSpec("cost_max", "int", optional=True),
    FieldSpec("fragility", "int"),
)

_CANDIDATE_SPEC = _spec(
    Candidate,
    None,
    FieldSpec("index", "int"),
    FieldSpec("program", "str"),
    FieldSpec("statements", "int"),
    FieldSpec("analysis", "analysis", optional=True),
)

_MESSAGE_SPECS: tuple[_MessageSpec, ...] = (
    _spec(
        CreateSession,
        "create_session",
        FieldSpec("snapshot", "dom"),
        FieldSpec("data", "json", optional=True),
        FieldSpec("timeout", "float", optional=True),
    ),
    _spec(SessionCreated, "session_created", FieldSpec("session", "str")),
    _spec(
        ActionRecorded,
        "action_recorded",
        FieldSpec("session", "str"),
        FieldSpec("action", "action"),
        FieldSpec("snapshot", "dom"),
    ),
    _spec(
        ProgramProposed,
        "program_proposed",
        FieldSpec("session", "str"),
        FieldSpec("actions", "int"),
        FieldSpec("programs", "int"),
        FieldSpec("predictions", "str_list"),
        FieldSpec("stats", "call_stats"),
        FieldSpec("analysis", "analysis", optional=True),
    ),
    _spec(
        CandidateList,
        "candidate_list",
        FieldSpec("session", "str"),
        FieldSpec("candidates", "candidate_list"),
    ),
    _spec(Accept, "accept", FieldSpec("session", "str"), FieldSpec("index", "int")),
    _spec(
        Accepted,
        "accepted",
        FieldSpec("session", "str"),
        FieldSpec("index", "int"),
        FieldSpec("program", "str"),
    ),
    _spec(Reject, "reject", FieldSpec("session", "str")),
    _spec(
        Rejected,
        "rejected",
        FieldSpec("session", "str"),
        FieldSpec("rejections", "int"),
    ),
    _spec(CloseSession, "close_session", FieldSpec("session", "str")),
    _spec(
        SessionClosed,
        "session_closed",
        FieldSpec("session", "str"),
        FieldSpec("stats", "totals"),
    ),
    _spec(
        MigrateSession,
        "migrate_session",
        FieldSpec("session", "str"),
        FieldSpec("target", "str", optional=True),
    ),
    _spec(
        Migrated,
        "migrated",
        FieldSpec("session", "str"),
        FieldSpec("target", "str"),
        FieldSpec("target_session", "str"),
    ),
    _spec(
        ErrorEnvelope,
        "error",
        FieldSpec("code", "str"),
        FieldSpec("message", "str"),
        FieldSpec("session", "str", optional=True),
    ),
    _spec(
        SessionSnapshot,
        "session_snapshot",
        FieldSpec("session", "str"),
        FieldSpec("created", "float"),
        FieldSpec("timeout", "float", optional=True),
        FieldSpec("data", "json", optional=True),
        FieldSpec("actions", "action_list"),
        FieldSpec("snapshots", "dom_trace"),
        FieldSpec("accepted_index", "int", optional=True),
        FieldSpec("stats", "totals"),
    ),
)

_SPEC_BY_TAG = {spec.tag: spec for spec in _MESSAGE_SPECS}
_SPEC_BY_CLASS = {spec.cls: spec for spec in _MESSAGE_SPECS}
_STRUCT_SPECS = {
    "call_stats": _CALL_STATS_SPEC,
    "totals": _TOTALS_SPEC,
    "candidate": _CANDIDATE_SPEC,
    "analysis": _ANALYSIS_SPEC,
}

#: Public view for the schema generator and tests.
MESSAGE_SPECS = _MESSAGE_SPECS
STRUCT_SPECS = _STRUCT_SPECS


def message_types() -> tuple[type, ...]:
    """Every top-level message class, in registry order."""
    return tuple(spec.cls for spec in _MESSAGE_SPECS)


# ----------------------------------------------------------------------
# Value (en|de)coders per field kind
# ----------------------------------------------------------------------
def _encode_dom_trace(snapshots: tuple[DOMNode, ...]) -> dict:
    pool: list[dict] = []
    refs: list[int] = []
    seen: dict = {}
    for snapshot in snapshots:
        # dedup structurally (content_key), not by object identity: on
        # the service path every snapshot was freshly decoded from its
        # own request, so identical pages are distinct objects — yet a
        # scrape-heavy trace must still pool them once
        key = snapshot.content_key() if snapshot.frozen else id(snapshot)
        if key not in seen:
            seen[key] = len(pool)
            pool.append(repro_io.dom_to_json(snapshot))
        refs.append(seen[key])
    return {"pool": pool, "refs": refs}


def _decode_dom_trace(payload) -> tuple[DOMNode, ...]:
    if not isinstance(payload, dict) or "pool" not in payload or "refs" not in payload:
        raise ProtocolError("dom trace requires 'pool' and 'refs'")
    pool = [repro_io.dom_from_json(item) for item in payload["pool"]]
    try:
        return tuple(pool[ref] for ref in payload["refs"])
    except (IndexError, TypeError) as exc:
        raise ProtocolError("dom trace reference out of range") from exc


def _check(value, types, kind: str):
    if isinstance(value, bool) and bool not in (
        types if isinstance(types, tuple) else (types,)
    ):
        raise ProtocolError(f"expected {kind}, got a bool")
    if not isinstance(value, types):
        raise ProtocolError(f"expected {kind}, got {type(value).__name__}")
    return value


def _encode_value(kind: str, value):
    if kind == "str" or kind == "json":
        return value
    if kind == "int" or kind == "bool":
        return value
    if kind == "float":
        return float(value)
    if kind == "dom":
        return repro_io.dom_to_json(value)
    if kind == "action":
        return repro_io.action_to_json(value)
    if kind == "action_list":
        return [repro_io.action_to_json(action) for action in value]
    if kind == "dom_trace":
        return _encode_dom_trace(value)
    if kind == "str_list":
        return list(value)
    if kind == "candidate_list":
        return [_encode_struct(_CANDIDATE_SPEC, item) for item in value]
    if kind in _STRUCT_SPECS:
        return _encode_struct(_STRUCT_SPECS[kind], value)
    raise AssertionError(f"unknown field kind {kind!r}")  # pragma: no cover


def _decode_value(kind: str, value):
    if kind == "str":
        return _check(value, str, "a string")
    if kind == "json":
        return value
    if kind == "int":
        return _check(value, int, "an integer")
    if kind == "bool":
        return _check(value, bool, "a boolean")
    if kind == "float":
        return float(_check(value, (int, float), "a number"))
    if kind == "dom":
        return repro_io.dom_from_json(_check(value, dict, "a snapshot object"))
    if kind == "action":
        return repro_io.action_from_json(_check(value, dict, "an action object"))
    if kind == "action_list":
        _check(value, list, "an action list")
        return tuple(repro_io.action_from_json(item) for item in value)
    if kind == "dom_trace":
        return _decode_dom_trace(value)
    if kind == "str_list":
        _check(value, list, "a string list")
        return tuple(_check(item, str, "a string") for item in value)
    if kind == "candidate_list":
        _check(value, list, "a candidate list")
        return tuple(_decode_struct(_CANDIDATE_SPEC, item) for item in value)
    if kind in _STRUCT_SPECS:
        return _decode_struct(_STRUCT_SPECS[kind], value)
    raise AssertionError(f"unknown field kind {kind!r}")  # pragma: no cover


def _encode_struct(spec: _MessageSpec, value) -> dict:
    return {
        field.name: (
            None
            if getattr(value, field.name) is None
            else _encode_value(field.kind, getattr(value, field.name))
        )
        for field in spec.fields
    }


def _decode_struct(spec: _MessageSpec, payload):
    _check(payload, dict, f"a {spec.cls.__name__} object")
    return spec.cls(**_decode_fields(spec, payload, ()))


def _decode_fields(spec: _MessageSpec, payload: dict, reserved: tuple) -> dict:
    known = {field.name for field in spec.fields}
    unknown = set(payload) - known - set(reserved)
    if unknown:
        raise ProtocolError(
            f"{spec.cls.__name__}: unknown field(s) {sorted(unknown)}"
        )
    values = {}
    for field in spec.fields:
        if field.name not in payload:
            raise ProtocolError(f"{spec.cls.__name__}: missing field {field.name!r}")
        raw = payload[field.name]
        if raw is None:
            if not field.optional:
                raise ProtocolError(
                    f"{spec.cls.__name__}: field {field.name!r} must not be null"
                )
            values[field.name] = None
        else:
            try:
                values[field.name] = _decode_value(field.kind, raw)
            except (ProtocolError, ParseError) as exc:
                raise ProtocolError(f"{spec.cls.__name__}.{field.name}: {exc}") from None
    return values


# ----------------------------------------------------------------------
# Top-level wire conversion
# ----------------------------------------------------------------------
def to_wire(message) -> dict:
    """The JSON-ready wire object for a message."""
    spec = _SPEC_BY_CLASS.get(type(message))
    if spec is None:
        raise ProtocolError(f"{type(message).__name__} is not a protocol message")
    wire: dict = {"v": PROTOCOL_VERSION, "type": spec.tag}
    for field in spec.fields:
        value = getattr(message, field.name)
        if value is None:
            if not field.optional:
                raise ProtocolError(
                    f"{spec.cls.__name__}: field {field.name!r} must not be None"
                )
            wire[field.name] = None
        else:
            wire[field.name] = _encode_value(field.kind, value)
    ctx = obs_context.current()
    if ctx is not None:
        wire[obs_context.WIRE_KEY] = ctx.wire_value()
    return wire


def from_wire(wire) -> object:
    """Decode one wire object into its message dataclass (strict)."""
    if not isinstance(wire, dict):
        raise ProtocolError("a wire message must be a JSON object")
    version = wire.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} (this side speaks {PROTOCOL_VERSION})"
        )
    tag = wire.get("type")
    spec = _SPEC_BY_TAG.get(tag)
    if spec is None:
        raise ProtocolError(f"unknown message type {tag!r}")
    trace = obs_context.parse(wire.get(obs_context.WIRE_KEY))
    if trace is not None:
        obs_context.note_received(trace)
    return spec.cls(**_decode_fields(spec, wire, ("v", "type", obs_context.WIRE_KEY)))


def wire_type(message) -> str:
    """The wire tag of a message instance."""
    spec = _SPEC_BY_CLASS.get(type(message))
    if spec is None:
        raise ProtocolError(f"{type(message).__name__} is not a protocol message")
    return spec.tag
