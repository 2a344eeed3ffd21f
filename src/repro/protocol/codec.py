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
* :class:`BinaryCodec` — the compact binary payload format:
  length-prefixed values with a string table and a structural list
  table, so the step/selector lists that repeat across a store entry
  encode once and every later occurrence is a two-byte reference.
  Store rows and the cache tier's data plane, where its 7–8× size
  cut pays; on a loopback wire the pure-Python encoder is slower than
  C ``json`` for no gain, so the service wire stays JSON.

Payloads are self-describing: a binary payload always starts with a
byte ≥ 0x80, which no JSON document can, so :func:`sniff_codec` reads
stores that still hold JSON rows.
"""

from __future__ import annotations

import json
import struct

from repro.obs import metrics as obs_metrics
from repro.protocol.messages import ProtocolError, from_wire, to_wire

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


class JsonCodec(Codec):
    """Canonical JSON: sorted keys, compact separators, UTF-8."""

    name = "json"
    content_type = "application/json"

    def encode(self, message) -> bytes:
        raw = json.dumps(
            to_wire(message), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        _publish("json", "encode", len(raw))
        return raw

    def decode(self, payload: bytes):
        try:
            wire = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"undecodable payload: {exc}") from exc
        _publish("json", "decode", len(payload))
        return from_wire(wire)

    def encode_payload(self, value) -> bytes:
        raw = json.dumps(
            value, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        _publish("json", "encode_payload", len(raw))
        return raw

    def decode_payload(self, payload: bytes):
        try:
            value = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"undecodable payload: {exc}") from exc
        _publish("json", "decode_payload", len(payload))
        return value


# ---------------------------------------------------------------------------
# The binary format.
#
# Layout: two header bytes (magic 0xC3, format version) followed by one
# value.  Values are tagged:
#
#   0x00 None          0x01 False           0x02 True
#   0x03 int           zigzag LEB128 varint (small ints, 1–9 bytes)
#   0x04 float         8 bytes, big-endian IEEE-754 double
#   0x05 str inline    varint byte length + UTF-8; appended to the
#                      string table on both encode and decode
#   0x06 str ref       varint index into the string table
#   0x07 list inline   varint count + elements; registered in the list
#                      table *after* its elements (post-order), so
#                      encoder and decoder assign identical indices
#   0x08 dict          varint count + (key, value) pairs, keys sorted
#   0x09 list ref      varint index into the list table
#   0x0A big int       varint byte length + signed big-endian bytes
#                      (the 128-bit snapshot digests: ~19 bytes vs ~39
#                      JSON digit chars, and C-speed via int.to_bytes)
#   0x0B dict ref      varint index into _DICTIONARY, the preset table
#                      below — cross-payload redundancy (step lists,
#                      tag names, action kinds) as two-byte refs with
#                      no per-payload warm-up
#
# Every construct is deterministic for a given object graph (sorted
# dict keys, deterministic intern order, ints ≥ 2**62 always tag 0x0A)
# and encode(decode(b)) == b, so golden fixtures are stable.  The
# magic byte is ≥ 0x80, which no JSON document's first byte can be, so
# payloads self-describe for mixed stores and content sniffing.
#
# The list table is what exploits step/selector redundancy: a selector
# is a list of 6-element step lists, and the same steps recur across
# every action of a loop body, so each repeat costs two bytes.  Intern
# keys must be cheap — this codec races C ``json`` — so only *flat*
# lists intern structurally, keyed as ``(tuple(map(type, v)),
# tuple(v))`` (both C-speed; the type tuple disambiguates
# ``True``/``1``, which hash equal).  Nested lists intern by object
# identity, which shared-construction payload builders hit for free.
#
# _DICTIONARY is the preset half of that table — the zstd-dictionary
# idea applied to the store: the flat step lists and strings that
# recur across *entries* are pre-registered at fixed indices, so each
# payload's first occurrence is already a ref.  The dictionary is part
# of the format: any change to it changes wire bytes and MUST bump
# FORMAT_VERSION (the golden-fixture CI gate enforces this).  Entries
# the dictionary misses just intern per-payload as usual.
# ---------------------------------------------------------------------------

MAGIC = 0xC3
FORMAT_VERSION = 1
HEADER = bytes((MAGIC, FORMAT_VERSION))

_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_STR_REF = 0x06
_T_LIST = 0x07
_T_DICT = 0x08
_T_LIST_REF = 0x09
_T_INTBYTES = 0x0A
_T_DREF = 0x0B

#: Ints outside this range use the length-prefixed 0x0A form.
_INT_VARINT_BOUND = 1 << 62

#: Varints longer than this are corrupt, not merely large.
_MAX_VARINT_BYTES = 10
#: Big-int payloads longer than this are corrupt (8 Mbit of integer).
_MAX_INTBYTES = 1 << 20



#: The preset intern table: strings and flat step lists that recur
#: across store entries and wire messages (HTML tag names, DSL action
#: kinds, payload field keys, and the step patterns the virtual suite
#: and real list/table DOMs produce).  Index order is frozen: entry i
#: encodes as ``0x0B varint(i)``.  Changing, reordering, or removing
#: entries changes wire bytes and requires a FORMAT_VERSION bump —
#: append-only growth is the safe evolution.  List entries are stored
#: as tuples; the decoder materializes a fresh list per reference so
#: callers can never mutate the dictionary through a decoded value.
_DICTIONARY: tuple = (
    'v',
    'a',
    'ScrapeText',
    'e',
    'sel',
    'div',
    'html',
    'body',
    'li',
    'ul',
    'Click',
    'GoBack',
    'class',
    'story',
    'h2',
    'span',
    'b',
    'x',
    'ok',
    'ScrapeLink',
    'ExtractURL',
    'SendKeys',
    'EnterData',
    't',
    'table',
    'tbody',
    'tr',
    'td',
    'th',
    'ol',
    'p',
    'h1',
    'h3',
    'section',
    'article',
    'input',
    'button',
    'form',
    'nav',
    'id',
    (False, 'html', None, None, False, 1),
    (False, 'body', None, None, False, 1),
    (False, 'div', None, None, False, 1),
    (False, 'div', None, None, False, 2),
    (False, 'ul', None, None, False, 1),
    (True, 'ul', None, None, False, 1),
    (False, 'li', None, None, False, 1),
    ('GoBack', None, None, None),
    (False, 'li', None, None, False, 2),
    (False, 'li', None, None, False, 3),
    (False, 'li', None, None, False, 4),
    (False, 'li', None, None, False, 5),
    (True, 'a', None, None, False, 1),
    (True, 'li', None, None, False, 3),
    (True, 'li', None, None, False, 4),
    (True, 'li', None, None, False, 5),
    (True, 'li', None, None, False, 2),
    (True, 'div', None, None, False, 1),
    (True, 'div', None, None, False, 2),
    (True, 'ul', None, None, False, 2),
    (True, 'li', None, None, False, 1),
    (True, 'a', None, None, False, 2),
    (True, 'div', 'class', 'story', False, 1),
    (True, 'h2', None, None, False, 1),
    (False, 'a', None, None, False, 1),
    (True, 'div', 'class', 'story', False, 2),
    (False, 'div', 'class', 'story', False, 1),
    (False, 'div', 'class', 'story', False, 2),
    (True, 'a', None, None, False, 3),
    (True, 'div', 'class', 'story', False, 3),
    (False, 'div', 'class', 'story', False, 3),
    (True, 'a', None, None, False, 4),
    (True, 'div', 'class', 'story', False, 4),
    (False, 'div', 'class', 'story', False, 4),
    (True, 'a', None, None, False, 5),
    (True, 'div', 'class', 'story', False, 5),
    (False, 'div', 'class', 'story', False, 5),
    (True, 'a', None, None, False, 6),
    (True, 'div', 'class', 'story', False, 6),
    (False, 'div', 'class', 'story', False, 6),
    (True, 'a', None, None, False, 7),
    (True, 'div', 'class', 'story', False, 7),
    (False, 'div', 'class', 'story', False, 7),
    (True, 'div', None, None, False, 3),
    (True, 'a', None, None, False, 8),
    (True, 'div', 'class', 'story', False, 8),
    (False, 'div', 'class', 'story', False, 8),
    (False, 'div', None, None, False, 3),
    (True, 'a', None, None, False, 9),
    (True, 'div', 'class', 'story', False, 9),
    (False, 'div', 'class', 'story', False, 9),
    (True, 'ul', None, None, False, 3),
    (True, 'a', None, None, False, 10),
    (True, 'div', 'class', 'story', False, 10),
    (False, 'div', 'class', 'story', False, 10),
    (True, 'a', None, None, False, 11),
    (True, 'div', 'class', 'story', False, 11),
    (False, 'div', 'class', 'story', False, 11),
    (True, 'a', None, None, False, 12),
    (True, 'div', 'class', 'story', False, 12),
    (False, 'div', 'class', 'story', False, 12),
    (True, 'a', None, None, False, 13),
    (True, 'div', 'class', 'story', False, 13),
    (False, 'div', 'class', 'story', False, 13),
    (True, 'b', None, None, False, 1),
    (True, 'li', None, None, False, 6),
    (True, 'span', None, None, False, 1),
    (True, 'a', None, None, False, 14),
    (True, 'div', 'class', 'story', False, 14),
    (False, 'div', 'class', 'story', False, 14),
    (True, 'li', None, None, False, 7),
    (False, 'span', None, None, False, 1),
    (True, 'li', None, None, False, 8),
    (True, 'a', None, None, False, 15),
    (True, 'div', 'class', 'story', False, 15),
    (False, 'div', 'class', 'story', False, 15),
    (False, 'b', None, None, False, 1),
    (True, 'li', None, None, False, 9),
    (True, 'a', None, None, False, 16),
    (True, 'div', 'class', 'story', False, 16),
    (False, 'div', 'class', 'story', False, 16),
    (True, 'a', None, None, False, 17),
    (True, 'div', 'class', 'story', False, 17),
    (False, 'div', 'class', 'story', False, 17),
    (True, 'li', None, None, False, 10),
    (True, 'a', None, None, False, 18),
    (True, 'div', 'class', 'story', False, 18),
    (False, 'div', 'class', 'story', False, 18),
    (True, 'li', None, None, False, 11),
    (True, 'li', None, None, False, 12),
    (True, 'a', None, None, False, 19),
    (True, 'div', 'class', 'story', False, 19),
    (False, 'div', 'class', 'story', False, 19),
    (True, 'li', None, None, False, 13),
    (True, 'b', None, None, False, 2),
    (True, 'li', None, None, False, 14),
    (True, 'li', None, None, False, 15),
    (True, 'b', None, None, False, 3),
    ('ExtractURL', None, None, None),)

#: Encode-side lookups: string value -> index, flat-list key -> index.
_DICT_STR: dict = {
    v: i for i, v in enumerate(_DICTIONARY) if type(v) is str
}
_DICT_LIST: dict = {
    (tuple(map(type, v)), v): i
    for i, v in enumerate(_DICTIONARY)
    if type(v) is tuple
}
_DICT_LEN = len(_DICTIONARY)

# The string-ref fast path emits a single index byte; keep all string
# entries in the one-byte varint range (lists may spill past it).
assert max(_DICT_STR.values()) < 0x80

_pack_double = struct.Struct(">d").pack
_unpack_double = struct.Struct(">d").unpack_from




#: Stack-frame marker: the completed container was a dict (no table slot).
_DICT_FRAME = object()


def encode_value(value) -> bytes:
    """One JSON-shaped value as canonical binary bytes (with header).

    A single iterative loop with an explicit stack: this codec races
    the C ``json`` module, so there are no per-element function calls
    and every hot sub-encoding (refs, small ints, varints) is inlined.

    Two intern layers feed the list table.  Identity first: any list
    *object* already encoded — flat or nested — becomes a two-byte ref,
    so payload builders that share sub-lists (``entry_to_payload``
    reuses one list per distinct step) get refs for free.  Then
    structure, for *flat* lists only (no nested containers, no floats):
    those are the redundant ones — selector steps, element paths, env
    triples — and their keys build entirely in C (``tuple(map(type,
    v))`` + ``tuple(v)``; the type tuple disambiguates ``True``/``1``,
    which hash equal but encode differently; floats are excluded
    because ``0.0``/``-0.0`` collide even with the type guard).  The
    output is deterministic for a given object graph, and
    ``encode(decode(b)) == b``: decode aliases exactly where refs were
    emitted, so re-encode takes the identity path to the same slots.
    """
    buf = bytearray(HEADER)
    append = buf.append
    strings: dict = {}
    lists: dict = {}
    idlists: dict = {}
    nlists = 0
    #: Iterators of still-open containers, innermost last.
    stack: list = []
    #: Parallel stack: the intern key to register when a container
    #: closes — None for uninternable lists, _DICT_FRAME for dicts.
    frames: list = []
    items = iter((value,))
    while True:
        # branch order is token frequency on real store corpora: list
        # occurrences (refs + inline) outnumber every scalar kind
        for item in items:
            tp = type(item)
            if tp is list:
                key = None
                dref = None
                ref = idlists.get(id(item))
                if ref is None:
                    types = tuple(map(type, item))
                    if not (
                        list in types or dict in types or float in types
                    ):
                        key = (types, tuple(item))
                        try:
                            dref = _DICT_LIST.get(key)
                            if dref is None:
                                ref = lists.get(key)
                            else:
                                # remember dictionary hits by identity
                                # too: negative slots mean _T_DREF
                                idlists[id(item)] = -dref - 1
                        except TypeError:
                            # hashable-check by use: odd elements fall
                            # through to the inline path and fail there
                            key = None
                elif ref < 0:
                    dref = -ref - 1
                    ref = None
                if dref is not None:
                    append(_T_DREF)
                    if dref < 0x80:
                        append(dref)
                    else:
                        while dref > 0x7F:
                            append((dref & 0x7F) | 0x80)
                            dref >>= 7
                        append(dref)
                elif ref is not None:
                    append(_T_LIST_REF)
                    if ref < 0x80:
                        append(ref)
                    else:
                        while ref > 0x7F:
                            append((ref & 0x7F) | 0x80)
                            ref >>= 7
                        append(ref)
                else:
                    count = len(item)
                    append(_T_LIST)
                    if count < 0x80:
                        append(count)
                    else:
                        while count > 0x7F:
                            append((count & 0x7F) | 0x80)
                            count >>= 7
                        append(count)
                    if count:
                        stack.append(items)
                        frames.append((key, item))
                        items = iter(item)
                        break
                    # an empty list completes at once: register in
                    # stream order, exactly where the decoder appends
                    if key is not None:
                        lists[key] = nlists
                    idlists[id(item)] = nlists
                    nlists += 1
            elif tp is str:
                ref = _DICT_STR.get(item)
                if ref is not None:
                    append(_T_DREF)
                    append(ref)
                elif (ref := strings.get(item)) is not None:
                    append(_T_STR_REF)
                    if ref < 0x80:
                        append(ref)
                    else:
                        while ref > 0x7F:
                            append((ref & 0x7F) | 0x80)
                            ref >>= 7
                        append(ref)
                else:
                    raw = item.encode("utf-8")
                    length = len(raw)
                    append(_T_STR)
                    if length < 0x80:
                        append(length)
                    else:
                        while length > 0x7F:
                            append((length & 0x7F) | 0x80)
                            length >>= 7
                        append(length)
                    buf += raw
                    strings[item] = len(strings)
            elif item is None:
                append(_T_NONE)
            elif tp is int:
                if -_INT_VARINT_BOUND <= item < _INT_VARINT_BOUND:
                    # zigzag: sign in the low bit keeps varints short
                    n = (item << 1) if item >= 0 else ((-item << 1) - 1)
                    append(_T_INT)
                    if n < 0x80:
                        append(n)
                    else:
                        while n > 0x7F:
                            append((n & 0x7F) | 0x80)
                            n >>= 7
                        append(n)
                else:
                    raw = item.to_bytes(
                        (item.bit_length() + 8) // 8, "big", signed=True
                    )
                    length = len(raw)
                    append(_T_INTBYTES)
                    if length < 0x80:
                        append(length)
                    else:
                        while length > 0x7F:
                            append((length & 0x7F) | 0x80)
                            length >>= 7
                        append(length)
                    buf += raw
            elif tp is bool:
                append(_T_TRUE if item else _T_FALSE)
            elif tp is dict:
                for key in item:
                    if type(key) is not str:
                        raise ValueError(
                            "binary codec requires str dict keys, "
                            f"got {type(key).__name__}"
                        )
                count = len(item)
                append(_T_DICT)
                if count < 0x80:
                    append(count)
                else:
                    while count > 0x7F:
                        append((count & 0x7F) | 0x80)
                        count >>= 7
                    append(count)
                if count:
                    stack.append(items)
                    frames.append(_DICT_FRAME)
                    pairs = sorted(item.items())
                    items = iter(
                        [part for pair in pairs for part in pair]
                    )
                    break
            elif tp is float:
                append(_T_FLOAT)
                buf += _pack_double(item)
            else:
                raise ValueError(
                    f"binary codec cannot encode {type(item).__name__}"
                )
        else:
            # items exhausted without a push: the innermost container
            # just closed — register it post-order, mirroring the
            # decoder's completion-time table append
            if not stack:
                return bytes(buf)
            items = stack.pop()
            frame = frames.pop()
            if frame is not _DICT_FRAME:
                key, obj = frame
                if key is not None:
                    lists[key] = nlists
                idlists[id(obj)] = nlists
                nlists += 1


#: Stack-frame sentinel: a dict slot waiting for its next key.
_NEED_KEY = object()


def decode_value(payload: bytes):
    """Decode canonical binary bytes back to the value.

    Raises :class:`ProtocolError` on any corruption — truncation, bad
    refs, unknown tags, trailing garbage — never any other exception.
    The same iterative single-loop shape as :func:`encode_value`, for
    the same reason: refs must cost two byte reads and a table index.
    """
    if len(payload) < 2 or payload[0] != MAGIC:
        raise ProtocolError("not a binary payload (bad magic)")
    if payload[1] != FORMAT_VERSION:
        raise ProtocolError(
            f"unsupported binary format version {payload[1]}"
        )
    data = payload
    end = len(data)
    pos = 2
    strings: list = []
    lists: list = []
    #: Saved *outer* frames: (append_method, remaining, container, key).
    #: The innermost frame lives in locals — ``cappend`` is the bound
    #: ``list.append`` when it is a list (the hot case by far), None
    #: for dicts and the root, so attaching a value to a list costs a
    #: call and a decrement instead of stack indexing.
    stack: list = []
    cappend = None
    ccontainer = None
    cremaining = 1
    ckey = _NEED_KEY
    while True:
        if pos >= end:
            raise ProtocolError(
                f"corrupt binary payload at byte {pos}: truncated value"
            )
        tag = data[pos]
        pos += 1
        if tag == _T_STR_REF or tag == _T_LIST_REF:
            if pos < end and data[pos] < 0x80:
                ref = data[pos]
                pos += 1
            else:
                ref = 0
                shift = 0
                start = pos
                while True:
                    if pos >= end:
                        raise ProtocolError(
                            f"corrupt binary payload at byte {pos}: "
                            "truncated varint"
                        )
                    byte = data[pos]
                    pos += 1
                    ref |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
                    if pos - start > _MAX_VARINT_BYTES:
                        raise ProtocolError(
                            f"corrupt binary payload at byte {pos}: "
                            "varint too long"
                        )
            table = strings if tag == _T_STR_REF else lists
            if ref >= len(table):
                raise ProtocolError(
                    f"corrupt binary payload at byte {pos}: "
                    f"ref {ref} out of range"
                )
            value = table[ref]
        elif tag == _T_DREF:
            if pos < end and data[pos] < 0x80:
                ref = data[pos]
                pos += 1
            else:
                ref = 0
                shift = 0
                start = pos
                while True:
                    if pos >= end:
                        raise ProtocolError(
                            f"corrupt binary payload at byte {pos}: "
                            "truncated varint"
                        )
                    byte = data[pos]
                    pos += 1
                    ref |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
                    if pos - start > _MAX_VARINT_BYTES:
                        raise ProtocolError(
                            f"corrupt binary payload at byte {pos}: "
                            "varint too long"
                        )
            if ref >= _DICT_LEN:
                raise ProtocolError(
                    f"corrupt binary payload at byte {pos}: "
                    f"dictionary ref {ref} out of range"
                )
            value = _DICTIONARY[ref]
            if type(value) is not str:
                # a fresh list per reference: decoded values must never
                # alias the (module-lifetime) dictionary tuples
                value = list(value)
        elif tag == _T_INT:
            if pos < end and data[pos] < 0x80:
                raw = data[pos]
                pos += 1
            else:
                raw = 0
                shift = 0
                start = pos
                while True:
                    if pos >= end:
                        raise ProtocolError(
                            f"corrupt binary payload at byte {pos}: "
                            "truncated varint"
                        )
                    byte = data[pos]
                    pos += 1
                    raw |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
                    if pos - start > _MAX_VARINT_BYTES:
                        raise ProtocolError(
                            f"corrupt binary payload at byte {pos}: "
                            "varint too long"
                        )
            value = (raw >> 1) ^ -(raw & 1)
        elif tag == _T_NONE:
            value = None
        elif tag == _T_FALSE:
            value = False
        elif tag == _T_TRUE:
            value = True
        elif tag == _T_STR or tag == _T_INTBYTES:
            if pos < end and data[pos] < 0x80:
                length = data[pos]
                pos += 1
            else:
                length = 0
                shift = 0
                start = pos
                while True:
                    if pos >= end:
                        raise ProtocolError(
                            f"corrupt binary payload at byte {pos}: "
                            "truncated varint"
                        )
                    byte = data[pos]
                    pos += 1
                    length |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
                    if pos - start > _MAX_VARINT_BYTES:
                        raise ProtocolError(
                            f"corrupt binary payload at byte {pos}: "
                            "varint too long"
                        )
            if length > end - pos:
                raise ProtocolError(
                    f"corrupt binary payload at byte {pos}: "
                    "length overruns payload"
                )
            if tag == _T_STR:
                try:
                    value = data[pos : pos + length].decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ProtocolError(
                        f"corrupt binary payload at byte {pos}: "
                        f"bad UTF-8: {exc}"
                    ) from exc
                strings.append(value)
            else:
                if length > _MAX_INTBYTES:
                    raise ProtocolError(
                        f"corrupt binary payload at byte {pos}: "
                        "big int implausibly long"
                    )
                value = int.from_bytes(
                    data[pos : pos + length], "big", signed=True
                )
            pos += length
        elif tag == _T_LIST or tag == _T_DICT:
            if pos < end and data[pos] < 0x80:
                count = data[pos]
                pos += 1
            else:
                count = 0
                shift = 0
                start = pos
                while True:
                    if pos >= end:
                        raise ProtocolError(
                            f"corrupt binary payload at byte {pos}: "
                            "truncated varint"
                        )
                    byte = data[pos]
                    pos += 1
                    count |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
                    if pos - start > _MAX_VARINT_BYTES:
                        raise ProtocolError(
                            f"corrupt binary payload at byte {pos}: "
                            "varint too long"
                        )
            if count > end - pos:
                raise ProtocolError(
                    f"corrupt binary payload at byte {pos}: "
                    "count overruns payload"
                )
            if tag == _T_LIST:
                value = []
                if count:
                    stack.append((cappend, cremaining, ccontainer, ckey))
                    ccontainer = value
                    cappend = value.append
                    cremaining = count
                    ckey = _NEED_KEY
                    continue
                lists.append(value)
            else:
                value = {}
                if count:
                    stack.append((cappend, cremaining, ccontainer, ckey))
                    ccontainer = value
                    cappend = None
                    cremaining = count
                    ckey = _NEED_KEY
                    continue
        elif tag == _T_FLOAT:
            if end - pos < 8:
                raise ProtocolError(
                    f"corrupt binary payload at byte {pos}: truncated float"
                )
            value = _unpack_double(data, pos)[0]
            pos += 8
        else:
            raise ProtocolError(
                f"corrupt binary payload at byte {pos}: "
                f"unknown tag 0x{tag:02x}"
            )
        # attach the completed value, unwinding containers that filled
        while True:
            if cappend is not None:
                cappend(value)
                cremaining -= 1
                if cremaining:
                    break
                # completion-time registration: the encoder's
                # post-order intern indices line up with this append
                lists.append(ccontainer)
                value = ccontainer
                cappend, cremaining, ccontainer, ckey = stack.pop()
            elif ccontainer is None:
                if pos != end:
                    raise ProtocolError(
                        f"{end - pos} trailing bytes after value"
                    )
                return value
            elif ckey is _NEED_KEY:
                if type(value) is not str:
                    raise ProtocolError(
                        f"corrupt binary payload at byte {pos}: "
                        "non-string dict key"
                    )
                ckey = value
                break
            else:
                ccontainer[ckey] = value
                ckey = _NEED_KEY
                cremaining -= 1
                if cremaining:
                    break
                value = ccontainer
                cappend, cremaining, ccontainer, ckey = stack.pop()


class BinaryCodec(Codec):
    """The compact length-prefixed binary format with intern tables."""

    name = "binary"
    content_type = "application/x-repro-binary"

    def encode(self, message) -> bytes:
        raw = encode_value(to_wire(message))
        _publish("binary", "encode", len(raw))
        return raw

    def decode(self, payload: bytes):
        wire = decode_value(payload)
        _publish("binary", "decode", len(payload))
        return from_wire(wire)

    def encode_payload(self, value) -> bytes:
        raw = encode_value(value)
        _publish("binary", "encode_payload", len(raw))
        return raw

    def decode_payload(self, payload: bytes):
        value = decode_value(payload)
        _publish("binary", "decode_payload", len(payload))
        return value


#: The service wire codec (and the format of every operational body).
DEFAULT_CODEC = JsonCodec()

#: The store and cache-tier data-plane codec.
STORE_CODEC = BinaryCodec()


def sniff_codec(payload: bytes) -> Codec:
    """The codec that produced ``payload``, by magic byte.

    Binary payloads start with 0xC3; no JSON document's first byte is
    ≥ 0x80, so the sniff is unambiguous.
    """
    if payload[:1] == HEADER[:1]:
        return STORE_CODEC
    return DEFAULT_CODEC
