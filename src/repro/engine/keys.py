"""Value-addressed cache keys: stable content digests for everything.

PR 3's process-level cache made execution entries shareable *within* a
process by interning structurally equal snapshots onto one canonical
object, so the id-keyed window keys coincided.  Serving synthesis from
multiple worker processes (or warm-starting a cold process from a
persistent store) needs the stronger property this module provides:
every component of an execution-cache key is a **value**, reproducible
in any process from the content alone —

* snapshots are addressed by :meth:`repro.dom.node.DOMNode.content_key`
  (a 128-bit structural digest, memoized on frozen roots),
* DOM windows by tuples of those digests
  (:meth:`repro.semantics.trace.DOMTrace.value_key`),
* data sources by :func:`data_key` (a digest of the frozen JSON value),
* statements and environments by their alpha-canonical forms and
  fingerprints, which are already values, and
* complete composite keys by :func:`stable_digest`, a canonical
  byte-encoding hashed with BLAKE2 — independent of ``PYTHONHASHSEED``,
  object ids, and interpreter version, which is what lets the
  ``remote://`` backend of :mod:`repro.service.backends` address one
  cache-server store from many processes and across restarts.

``stable_digest`` understands the exact value vocabulary cache keys are
built from: ``None``, booleans, ints, floats, strings, bytes, tuples,
lists, (sorted) dicts, and the repo's frozen dataclasses (predicates,
steps, selectors, variables, value paths, counter templates, actions).
Anything else is a bug in the caller, and raises.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, is_dataclass

from repro.dom.node import DOMNode

#: Digest width (bytes).  128 bits: collisions are negligible while the
#: keys stay cheap to store, compare, and ship over process boundaries.
DIGEST_SIZE = 16


def _encode(hasher, value) -> None:
    """Feed one canonical, prefix-free encoding of ``value`` to ``hasher``."""
    if value is None:
        hasher.update(b"N")
    elif value is True:
        hasher.update(b"T")
    elif value is False:
        hasher.update(b"F")
    elif type(value) is int:
        raw = b"%d" % value
        hasher.update(b"i%d:" % len(raw))
        hasher.update(raw)
    elif type(value) is str:
        raw = value.encode("utf-8", "surrogatepass")
        hasher.update(b"s%d:" % len(raw))
        hasher.update(raw)
    elif type(value) is bytes:
        hasher.update(b"b%d:" % len(value))
        hasher.update(value)
    elif type(value) is float:
        raw = repr(value).encode("ascii")
        hasher.update(b"f%d:" % len(raw))
        hasher.update(raw)
    elif type(value) in (tuple, list):
        hasher.update(b"(%d:" % len(value))
        for item in value:
            _encode(hasher, item)
        hasher.update(b")")
    elif type(value) is dict:
        hasher.update(b"{%d:" % len(value))
        for key in sorted(value):
            _encode(hasher, key)
            _encode(hasher, value[key])
        hasher.update(b"}")
    elif is_dataclass(value) and not isinstance(value, type):
        # class name first: Predicate and TokenPredicate share fields
        # but not matching semantics, so they must never collide
        name = type(value).__name__.encode("ascii")
        hasher.update(b"d%d:" % len(name))
        hasher.update(name)
        for field in fields(value):
            _encode(hasher, getattr(value, field.name))
        hasher.update(b";")
    elif isinstance(value, DOMNode):
        hasher.update(b"D")
        _encode(hasher, value.content_key())
    else:
        raise TypeError(f"cannot stably encode {type(value).__name__}: {value!r}")


def stable_digest(value) -> bytes:
    """A process-independent BLAKE2 digest of a key-vocabulary value."""
    hasher = hashlib.blake2b(digest_size=DIGEST_SIZE)
    _encode(hasher, value)
    return hasher.digest()


def digest_int(value) -> int:
    """:func:`stable_digest` as an int (fast to hash, JSON-serializable)."""
    return int.from_bytes(stable_digest(value), "big")


def snapshot_key(root: DOMNode) -> int:
    """The value-addressed key of one snapshot (its content digest)."""
    return root.content_key()


#: Value-keyed memo for :func:`action_digest`: actions restored from a
#: persistent store are *new objects* equal to previously digested ones,
#: so an id-keyed memo alone re-walks their selectors on every
#: consistency-key construction.  Keying by the action itself (frozen
#: dataclass, cached selector hash) makes equal actions digest once per
#: process.  Bounded by wholesale flush; lost entries just recompute.
_ACTION_DIGESTS: dict = {}
_ACTION_DIGESTS_LIMIT = 1 << 16


def action_digest(action) -> int:
    """The content digest of one action, memoized by value."""
    key = _ACTION_DIGESTS.get(action)
    if key is None:
        if len(_ACTION_DIGESTS) >= _ACTION_DIGESTS_LIMIT:
            _ACTION_DIGESTS.clear()
        key = _ACTION_DIGESTS[action] = digest_int(action)
    return key


#: Bounded id-keyed memo for :func:`data_key`: sources are long-lived
#: (one per session, interned by the shared cache), so the digest of the
#: wrapped JSON value is computed once per object.  Each entry holds the
#: source itself so ids cannot be recycled while memoized.
_DATA_KEYS: dict[int, tuple] = {}
_DATA_KEYS_LIMIT = 64


def data_key(source) -> int:
    """The value-addressed key of a :class:`~repro.lang.data.DataSource`.

    A digest of the wrapped JSON value, so two sessions that each loaded
    equal data address the same entries — in any process.  The wrapped
    value is assumed immutable once handed to a synthesizer (the same
    contract the shared cache's data interning already relies on).
    """
    entry = _DATA_KEYS.get(id(source))
    if entry is None or entry[0] is not source:
        if len(_DATA_KEYS) >= _DATA_KEYS_LIMIT:
            _DATA_KEYS.pop(next(iter(_DATA_KEYS)))
        entry = (source, digest_int(source.value))
        _DATA_KEYS[id(source)] = entry
    return entry[1]
