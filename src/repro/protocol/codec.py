"""The protocol codec seam.

A :class:`Codec` turns protocol messages into bytes and back, and —
since the same seam now serves the persistent store — arbitrary
JSON-shaped payload values via :meth:`Codec.encode_payload` /
:meth:`Codec.decode_payload`.

Each hop uses exactly one of two implementations:

* :class:`JsonCodec` — canonical JSON (sorted keys, compact
  separators), so every message has exactly one encoding and golden
  wire fixtures are byte-stable.  The session service wire and every
  operational (health, stats, error) body.
* :class:`BinaryCodec` — the same canonical JSON, zlib-compressed
  (default level, no preset dictionary).  Store rows and the cache
  tier's data plane, where its ~10× size cut over plain JSON pays;
  the stdlib's C deflate keeps the round trip within ~1.4× of JSON's
  CPU.  Decoding is bounded (:data:`MAX_DECODED_BYTES`), since
  cache-tier bodies arrive from the network.

Payloads are self-describing: every zlib stream this codec writes
starts with 0x78, which no JSON document can, so :func:`sniff_codec`
reads stores that still hold plain JSON rows.

The module is a leaf: :class:`ProtocolError` lives here, and the
message layer (:mod:`repro.protocol.messages`, which loads the DOM and
action types) is imported only inside the message ``encode``/``decode``
methods.  A process that moves payloads only — the store and the
fleet cache server — never loads it.
"""

from __future__ import annotations

import json
import zlib

from repro.obs import metrics as obs_metrics
from repro.util.errors import ReproError


class ProtocolError(ReproError):
    """A malformed, unknown, or version-incompatible wire message."""


_codec_ops = None
_codec_bytes = None


def _publish(codec_name: str, op: str, nbytes: int) -> None:
    """Count one codec operation (lazy family resolution, no-op when
    ``REPRO_OBS=off``).  ``op`` distinguishes message encode/decode
    from the store's payload encode/decode."""
    global _codec_ops, _codec_bytes
    if _codec_ops is None:
        registry = obs_metrics.registry()
        _codec_ops = registry.counter(
            "repro_codec_ops_total",
            "Codec operations by codec and op kind.",
            ("codec", "op"),
        )
        _codec_bytes = registry.counter(
            "repro_codec_bytes_total",
            "Bytes produced (encode) or consumed (decode) per codec and op.",
            ("codec", "op"),
        )
    _codec_ops.labels(codec=codec_name, op=op).inc()
    _codec_bytes.labels(codec=codec_name, op=op).inc(nbytes)


class Codec:
    """Encodes protocol messages (and raw payload values) to bytes."""

    #: Short name surfaced in telemetry and the schema document.
    name: str = "codec"
    #: The HTTP content type of this codec's payloads.
    content_type: str = "application/octet-stream"

    def encode(self, message) -> bytes:
        """The canonical byte encoding of one message."""
        raise NotImplementedError

    def decode(self, payload: bytes):
        """Decode one message; raises :class:`ProtocolError` on bad wire."""
        raise NotImplementedError

    # -- raw payload values (store entries, bare dict replies) ---------
    def encode_payload(self, value) -> bytes:
        """Canonical byte encoding of one JSON-shaped value."""
        raise NotImplementedError

    def decode_payload(self, payload: bytes):
        """Decode one value; raises :class:`ProtocolError` on bad bytes."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def roundtrip(self, message):
        """Encode → decode → re-encode; assert byte stability.

        Returns the decoded message.  This is the schema round-trip
        validation used by tests and by ``JsonCodec.selfcheck``-style
        assertions: a message that cannot survive its own wire format
        must never leave the process.
        """
        encoded = self.encode(message)
        decoded = self.decode(encoded)
        again = self.encode(decoded)
        if again != encoded:
            raise ProtocolError(
                f"{type(message).__name__} does not round-trip byte-stably"
            )
        return decoded


def _canonical(value) -> bytes:
    """The canonical JSON bytes of one value (sorted keys, compact)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _parse(raw: bytes):
    """Parse JSON bytes; raises :class:`ProtocolError` on bad input
    (including nesting deep enough to exhaust the parser's recursion)."""
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError, RecursionError) as exc:
        raise ProtocolError(f"undecodable payload: {exc}") from exc


class JsonCodec(Codec):
    """Canonical JSON: sorted keys, compact separators, UTF-8."""

    name = "json"
    content_type = "application/json"

    def encode(self, message) -> bytes:
        from repro.protocol.messages import to_wire

        raw = _canonical(to_wire(message))
        _publish("json", "encode", len(raw))
        return raw

    def decode(self, payload: bytes):
        from repro.protocol.messages import from_wire

        wire = _parse(payload)
        _publish("json", "decode", len(payload))
        return from_wire(wire)

    def encode_payload(self, value) -> bytes:
        raw = _canonical(value)
        _publish("json", "encode_payload", len(raw))
        return raw

    def decode_payload(self, payload: bytes):
        value = _parse(payload)
        _publish("json", "decode_payload", len(payload))
        return value


#: The first byte of every zlib stream this codec writes (deflate with
#: a 32K window); no JSON document starts with it.
_ZLIB_LEAD = b"\x78"

#: Ceiling on one payload's decompressed size: deflate expands up to
#: ~1000×, so an unbounded inflate of a network body is a memory bomb.
MAX_DECODED_BYTES = 64 << 20


class BodyTooLarge(ProtocolError):
    """A request declared a body longer than :data:`MAX_DECODED_BYTES`.

    Both HTTP servers answer it 413 without reading the body and close
    the connection, so a client cannot make a handler buffer (or wait
    for) an unbounded body.
    """


def request_length(headers) -> int:
    """The declared ``Content-Length`` of a request, refused past
    :data:`MAX_DECODED_BYTES` (:class:`BodyTooLarge`)."""
    length = int(headers.get("Content-Length", "0"))
    if length > MAX_DECODED_BYTES:
        raise BodyTooLarge(
            f"request body of {length} bytes exceeds {MAX_DECODED_BYTES}"
        )
    return length


def _inflate(payload: bytes):
    """Decompress one zlib stream and parse its JSON, strictly.

    Anything but exactly one complete, checksummed stream whose output
    fits :data:`MAX_DECODED_BYTES` and parses as JSON raises
    :class:`ProtocolError`.
    """
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(payload, MAX_DECODED_BYTES)
    except zlib.error as exc:
        raise ProtocolError(f"corrupt compressed payload: {exc}") from exc
    if inflater.unconsumed_tail or (
        not inflater.eof and len(raw) >= MAX_DECODED_BYTES
    ):
        raise ProtocolError(
            f"compressed payload inflates past {MAX_DECODED_BYTES} bytes"
        )
    if not inflater.eof:
        raise ProtocolError("truncated compressed payload")
    if inflater.unused_data:
        raise ProtocolError(
            f"{len(inflater.unused_data)} trailing bytes after payload"
        )
    return _parse(raw)


class BinaryCodec(Codec):
    """Canonical JSON under zlib: the store and cache-tier format."""

    name = "binary"
    content_type = "application/x-repro-binary"

    def encode(self, message) -> bytes:
        from repro.protocol.messages import to_wire

        raw = zlib.compress(_canonical(to_wire(message)))
        _publish("binary", "encode", len(raw))
        return raw

    def decode(self, payload: bytes):
        from repro.protocol.messages import from_wire

        wire = _inflate(payload)
        _publish("binary", "decode", len(payload))
        return from_wire(wire)

    def encode_payload(self, value) -> bytes:
        raw = zlib.compress(_canonical(value))
        _publish("binary", "encode_payload", len(raw))
        return raw

    def decode_payload(self, payload: bytes):
        value = _inflate(payload)
        _publish("binary", "decode_payload", len(payload))
        return value


#: The service wire codec (and the format of every operational body).
DEFAULT_CODEC = JsonCodec()

#: The store and cache-tier data-plane codec.
STORE_CODEC = BinaryCodec()


def sniff_codec(payload: bytes) -> Codec:
    """The codec that produced ``payload``, by its first byte.

    zlib streams start with 0x78 (``x``), which no JSON document's
    first byte can be, so the sniff is unambiguous.
    """
    if payload[:1] == _ZLIB_LEAD:
        return STORE_CODEC
    return DEFAULT_CODEC
