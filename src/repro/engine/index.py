"""Per-snapshot DOM indexes: O(log n) descendant-axis selector steps.

The hot operations of the selector machinery are "the *i*-th descendant
of an anchor matching φ" (:func:`repro.dom.xpath._apply_step` on the
``desc`` axis) and its inverse "which index addresses this node"
(:func:`repro.dom.xpath.index_among_descendants`).  Both walk the whole
subtree in the naive implementation, and the synthesizer issues them
millions of times per session — once per selector step per candidate
execution.

A :class:`SnapshotIndex` is built lazily, once per frozen snapshot, by a
single pre-order walk that records

* each node's pre-order position and the last position inside its
  subtree (so "is a descendant of" becomes one interval check), and
* document-order *buckets* of nodes per predicate family: tag, exact
  ``(tag, attr, value)`` for every attribute in
  :data:`repro.dom.xpath.SELECTOR_ATTRIBUTES`, and whitespace-token
  buckets for the token predicates.

With buckets sorted by pre-order position, the *i*-th match under an
anchor is a binary search plus an index, and ranking a node is a binary
search.  Predicates outside the indexed families (e.g. the counter
attributes of numbered pagination templates) answer
:data:`UNSUPPORTED`, telling the caller to fall back to the linear walk.

On top of the point lookups, the index carries the *bucket enumeration*
layer the selector search runs on: memoized raw paths, per-node
predicate families, per-parent child-rank maps, and per-element
decomposition plans (every ``prefix / step(φ, k)`` reading of one
element, in the exact order the legacy ancestor walk emits them).  See
:mod:`repro.synth.alternatives` for the consumers.

Indexes attach to the snapshot root (``DOMNode._snapshot_index``), the
same lifetime discipline as the resolve memo; :func:`build_count` feeds
the engine's telemetry and :func:`track_builds` scopes build attribution
to one caller (thread-local, so concurrent synthesizers do not steal
each other's builds).  ``REPRO_DOM_INDEX=0`` (or
:func:`set_dom_indexes`) disables the machinery for A/B measurements.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from typing import Optional

from repro.dom.node import DOMNode
from repro.dom.xpath import (
    CHILD,
    DESC,
    EPSILON,
    SELECTOR_ATTRIBUTES,
    ConcreteSelector,
    Predicate,
    Step,
    TokenPredicate,
    predicate_family,
)

#: Sentinel answer: the predicate family is not indexed — use the
#: linear fallback.  Distinct from ``None``, which means "no match".
UNSUPPORTED = object()

#: Per-snapshot byte budget for the enumeration memo (the Decomposition
#: lists the selector search pins on snapshots) — ``REPRO_ENUM_MEMO_BYTES``
#: overrides.  8 MiB default: roomy for real pages, bounded for servers.
_ENUM_MEMO_BYTES = int(os.environ.get("REPRO_ENUM_MEMO_BYTES", str(8 << 20)))

_ENABLED = os.environ.get("REPRO_DOM_INDEX", "1") != "0"
_BUILDS = 0
_TRACKERS = threading.local()
#: Serializes lazy index construction: without it two sessions on
#: different threads racing on a cold shared snapshot would each pay the full pre-order
#: walk and one build would be discarded (correct but wasted, and the
#: build counters would double-count).  ``index_for`` only takes the
#: lock on the cold path.
_BUILD_LOCK = threading.Lock()


def set_dom_indexes(enabled: bool) -> bool:
    """Globally enable/disable index use; returns the previous setting."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = enabled
    return previous


def dom_indexes_enabled() -> bool:
    """Whether snapshot indexes are consulted at all."""
    return _ENABLED


def build_count() -> int:
    """Process-wide number of snapshot indexes built so far.

    For attributing builds to one synthesize call use
    :func:`track_builds` — deltas of this global misattribute builds the
    moment two sessions interleave in one process.
    """
    return _BUILDS


class BuildTracker:
    """Counts the snapshot-index builds forced inside one scope."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


@contextmanager
def track_builds():
    """Attribute index builds on *this thread* to the yielded tracker.

    Scopes nest (an outer scope also counts its inner scopes' builds)
    and are thread-local, so two synthesizers interleaving — across
    calls or across threads — each see exactly the builds their own
    work forced.
    """
    stack = getattr(_TRACKERS, "stack", None)
    if stack is None:
        stack = _TRACKERS.stack = []
    tracker = BuildTracker()
    stack.append(tracker)
    try:
        yield tracker
    finally:
        stack.remove(tracker)


def _record_build() -> None:
    # callers hold _BUILD_LOCK (index_for) or are single-threaded test
    # constructions, so the increments below are not racy
    global _BUILDS
    _BUILDS += 1
    for tracker in getattr(_TRACKERS, "stack", ()):
        tracker.count += 1


#: Approximate bytes per memoized enumeration result element (a
#: ``Decomposition`` or a step tuple with its share of shared selectors).
_ENUM_ITEM_BYTES = 112
#: Fixed per-entry overhead (key tuple + dict slot + list skeleton).
_ENUM_ENTRY_OVERHEAD = 96


class EnumMemo:
    """A byte-accounted LRU for the enumeration layer's pinned results.

    The selector search memoizes whole decomposition / relative-step
    lists on the snapshot's index (see :mod:`repro.synth.alternatives`).
    Those lists pin ``Decomposition`` objects for the snapshot's
    lifetime — cache state like any other — so this table accounts them
    in bytes (:attr:`approx_bytes`, surfaced through the shared cache's
    footprint gauges) and evicts least-recently-written entries once
    ``max_bytes`` is exceeded, instead of growing without bound over a
    long-lived server process.

    Exposes the mapping surface the enumeration call sites use
    (``get`` / item assignment).  Writes take a small lock so sessions
    on concurrent threads cannot corrupt the byte account; reads stay
    lockless (a dict probe of an immutable result).
    """

    __slots__ = ("_table", "_lock", "max_bytes", "approx_bytes", "evictions")

    def __init__(self, max_bytes: Optional[int] = None) -> None:
        self._table: dict[tuple, object] = {}
        self._lock = threading.Lock()
        self.max_bytes = _ENUM_MEMO_BYTES if max_bytes is None else max_bytes
        self.approx_bytes = 0
        self.evictions = 0

    @staticmethod
    def _entry_bytes(value) -> int:
        try:
            length = len(value)
        except TypeError:
            length = 1
        return _ENUM_ENTRY_OVERHEAD + _ENUM_ITEM_BYTES * length

    def __len__(self) -> int:
        return len(self._table)

    def get(self, key: tuple):
        """The memoized result for ``key``, or ``None``."""
        return self._table.get(key)

    def __setitem__(self, key: tuple, value) -> None:
        size = self._entry_bytes(value)
        with self._lock:
            previous = self._table.pop(key, None)
            if previous is not None:
                self.approx_bytes -= self._entry_bytes(previous)
            self._table[key] = value
            self.approx_bytes += size
            while self.approx_bytes > self.max_bytes and len(self._table) > 1:
                old_key = next(iter(self._table))
                if old_key == key:
                    break  # never evict the entry just written
                old = self._table.pop(old_key)
                self.approx_bytes -= self._entry_bytes(old)
                self.evictions += 1


def bucket_key(pred: Predicate) -> Optional[tuple]:
    """The index bucket a predicate's matches live in, or ``None``.

    Exact subclass checks matter: a future ``Predicate`` subclass with
    different ``matches`` semantics must not silently reuse these
    buckets.
    """
    kind = type(pred)
    if kind is Predicate:
        if pred.attr is None:
            return ("tag", pred.tag)
        # falsy values are not bucketed by _file (and value=None matches
        # *absent* attributes), so they must take the linear fallback
        if pred.attr in SELECTOR_ATTRIBUTES and pred.value:
            return ("attr", pred.tag, pred.attr, pred.value)
        return None
    if kind is TokenPredicate:
        if pred.attr in SELECTOR_ATTRIBUTES and pred.value:
            return ("token", pred.tag, pred.attr, pred.value)
        return None
    return None


class SnapshotIndex:
    """Document-order predicate buckets plus pre-order intervals.

    The ``_raw_paths`` / ``_pred_lists`` / ``_child_ranks`` / ``_plans``
    dicts are lazily filled memo layers for the enumeration APIs below;
    they live on the index (not on a search object) so every selector
    search over the same snapshot — within a session and across
    sessions — shares them.  The buckets pin every node of the
    snapshot, so id-keyed memo entries can never go stale.

    The memo layers are safe to fill from sessions on concurrent
    threads without locks: every entry is a deterministic function of
    the immutable snapshot, and each write is a single id-keyed dict
    assignment — a lost check-then-act race recomputes the same value,
    it never corrupts the table.
    """

    __slots__ = (
        "_pre",
        "_end",
        "_buckets",
        "_root",
        "_raw_paths",
        "_pred_lists",
        "_child_ranks",
        "_plans",
        "enum_memo",
    )

    def __init__(self, root: DOMNode) -> None:
        _record_build()
        self._root = root
        self._raw_paths: dict[int, ConcreteSelector] = {}
        self._pred_lists: dict[tuple, list[Predicate]] = {}
        self._child_ranks: dict[tuple, dict[int, int]] = {}
        self._plans: dict[tuple, tuple] = {}
        #: Cross-session memo for the enumeration layer: the selector
        #: search stores full decomposition / relative-step results here
        #: keyed by target node id + bounds, so every search object over
        #: this snapshot — including other sessions' — reuses them.
        #: (Results depend only on the immutable snapshot, never on the
        #: querying session.)  Byte-accounted and evictable — see
        #: :class:`EnumMemo`.
        self.enum_memo = EnumMemo()
        pre: dict[int, int] = {}
        end: dict[int, int] = {}
        buckets: dict[tuple, tuple[list[DOMNode], list[int]]] = {}
        position = 0
        stack: list[tuple[DOMNode, bool]] = [(root, False)]
        while stack:
            node, closing = stack.pop()
            if closing:
                end[id(node)] = position - 1
                continue
            pre[id(node)] = position
            self._file(buckets, node, position)
            position += 1
            stack.append((node, True))
            for child in reversed(node.children):
                stack.append((child, False))
        self._pre = pre
        self._end = end
        self._buckets = buckets

    @staticmethod
    def _file(
        buckets: dict[tuple, tuple[list[DOMNode], list[int]]],
        node: DOMNode,
        position: int,
    ) -> None:
        keys = [("tag", node.tag)]
        for attr in SELECTOR_ATTRIBUTES:
            value = node.attrs.get(attr)
            if not value:
                continue
            keys.append(("attr", node.tag, attr, value))
            for token in value.split():
                keys.append(("token", node.tag, attr, token))
        for key in keys:
            bucket = buckets.get(key)
            if bucket is None:
                bucket = buckets[key] = ([], [])
            bucket[0].append(node)
            bucket[1].append(position)

    # ------------------------------------------------------------------
    def nth(self, pred: Predicate, index: int, anchor: Optional[DOMNode]):
        """The ``index``-th match of ``pred`` in the anchor's pool.

        ``anchor is None`` is the virtual document (the whole snapshot,
        root included); otherwise the pool is the anchor's proper
        descendants.  Returns the node, ``None`` when there is no
        ``index``-th match, or :data:`UNSUPPORTED`.
        """
        key = bucket_key(pred)
        if key is None:
            return UNSUPPORTED
        bucket = self._buckets.get(key)
        if bucket is None:
            return None
        nodes, positions = bucket
        if anchor is None:
            return nodes[index - 1] if index <= len(nodes) else None
        anchor_pre = self._pre.get(id(anchor))
        if anchor_pre is None:
            return UNSUPPORTED  # anchor is not in this snapshot
        at = bisect_right(positions, anchor_pre) + index - 1
        if at >= len(positions) or positions[at] > self._end[id(anchor)]:
            return None
        return nodes[at]

    def rank(self, pred: Predicate, node: DOMNode, anchor: Optional[DOMNode]):
        """1-based index of ``node`` among ``pred``'s matches in the pool.

        Same pool convention as :meth:`nth`.  Returns ``None`` when the
        node is not a matching member of the pool, or
        :data:`UNSUPPORTED`.
        """
        key = bucket_key(pred)
        if key is None:
            return UNSUPPORTED
        node_pre = self._pre.get(id(node))
        if node_pre is None:
            return UNSUPPORTED
        bucket = self._buckets.get(key)
        if bucket is None:
            return None
        _, positions = bucket
        at = bisect_left(positions, node_pre)
        if at >= len(positions) or positions[at] != node_pre:
            return None  # the predicate does not match the node
        if anchor is None:
            return at + 1
        anchor_pre = self._pre.get(id(anchor))
        if anchor_pre is None:
            return UNSUPPORTED
        if not anchor_pre < node_pre <= self._end[id(anchor)]:
            return None  # node is outside the anchor's subtree
        return at - bisect_right(positions, anchor_pre) + 1

    # ------------------------------------------------------------------
    # Bucket enumeration (the selector-search layer)
    # ------------------------------------------------------------------
    def contains(self, node: DOMNode) -> bool:
        """Whether ``node`` belongs to the indexed snapshot."""
        return id(node) in self._pre

    def raw_path_of(self, node: DOMNode) -> ConcreteSelector:
        """Memoized :func:`repro.dom.xpath.raw_path` of an indexed node.

        Walks up only to the nearest memoized ancestor (iteratively, so
        arbitrarily deep snapshots cannot blow the recursion limit) and
        extends down, filling the memo for the whole chain — after one
        chain is paid every sibling's path is a single step extension.
        """
        path = self._raw_paths.get(id(node))
        if path is not None:
            return path
        chain: list[DOMNode] = []
        current: Optional[DOMNode] = node
        path = EPSILON
        while current is not None:
            cached = self._raw_paths.get(id(current))
            if cached is not None:
                path = cached
                break
            chain.append(current)
            current = current.parent
        for item in reversed(chain):
            path = path.child(Predicate(item.tag), item.child_index_by_tag())
            self._raw_paths[id(item)] = path
        return path

    def raw_steps_between(self, base: DOMNode, target: DOMNode) -> tuple[Step, ...]:
        """The child-axis steps from ``base`` down to ``target``.

        With both raw paths memoized, the chain is a tuple slice — the
        ancestor walk of the legacy ``_raw_chain`` disappears.
        """
        return self.raw_path_of(target).steps[len(self.raw_path_of(base).steps):]

    def predicates_of(
        self, node: DOMNode, use_alternatives: bool, token_predicates: bool
    ) -> list[Predicate]:
        """Memoized predicate family of ``node`` (selector-search order)."""
        key = (id(node), use_alternatives, token_predicates)
        preds = self._pred_lists.get(key)
        if preds is None:
            if use_alternatives:
                preds = predicate_family(node, token_predicates)
            else:
                preds = [Predicate(node.tag)]
            self._pred_lists[key] = preds
        return preds

    def child_rank(self, node: DOMNode, pred: Predicate) -> Optional[int]:
        """:func:`repro.dom.xpath.index_among_children`, batch-memoized.

        The first query for a ``(parent, predicate)`` pair walks the
        siblings once and ranks *every* matching child; queries for the
        siblings — the common case when consecutive actions target list
        rows — are dict hits.
        """
        if not pred.matches(node):
            return None
        parent = node.parent
        if parent is None:
            return 1  # the virtual document's only child is the root
        key = (id(parent), bucket_key(pred))
        if key[1] is None:  # unbucketed predicate: rank without caching
            rank = 0
            for sibling in parent.children:
                if pred.matches(sibling):
                    rank += 1
                if sibling is node:
                    return rank
            return None
        ranks = self._child_ranks.get(key)
        if ranks is None:
            ranks = {}
            rank = 0
            for sibling in parent.children:
                if pred.matches(sibling):
                    rank += 1
                    ranks[id(sibling)] = rank
            self._child_ranks[key] = ranks
        return ranks.get(id(node))

    def element_plan(
        self, element: DOMNode, use_alternatives: bool, token_predicates: bool
    ) -> tuple:
        """Every ``(prefix, axis, pred, index)`` element-step reading.

        This is the per-element invariant part of a decomposition — what
        the legacy ancestor walk recomputes per suffix — in the exact
        order that walk emits: child axis from the parent prefix, then
        descendant axis anchored at the document, then at the parent.
        Cached per element, so it is shared across every target that has
        ``element`` on its ancestor chain and across search objects.
        """
        key = (id(element), use_alternatives, token_predicates)
        plan = self._plans.get(key)
        if plan is None:
            preds = self.predicates_of(element, use_alternatives, token_predicates)
            parent = element.parent
            parent_prefix = EPSILON if parent is None else self.raw_path_of(parent)
            entries = []
            for pred in preds:
                index = self.child_rank(element, pred)
                if index is not None:
                    entries.append((parent_prefix, CHILD, pred, index))
            if use_alternatives:
                anchors: list[Optional[DOMNode]] = [None]
                if parent is not None:
                    anchors.append(parent)
                for anchor in anchors:
                    prefix = EPSILON if anchor is None else parent_prefix
                    for pred in preds:
                        index = self.rank(pred, element, anchor)
                        if index is UNSUPPORTED:  # pragma: no cover - defensive
                            index = None
                        if index is not None:
                            entries.append((prefix, DESC, pred, index))
            plan = self._plans[key] = tuple(entries)
        return plan


def index_for(root: DOMNode) -> Optional[SnapshotIndex]:
    """The (lazily built) index of a frozen snapshot, else ``None``.

    Mutable snapshots are never indexed: the buckets would go stale.
    """
    if not _ENABLED or not root.frozen:
        return None
    index = root._snapshot_index
    if index is None:
        # double-checked: the hot path above never locks, and losers of
        # the cold-path race reuse the winner's index instead of
        # building (and then discarding) their own
        with _BUILD_LOCK:
            index = root._snapshot_index
            if index is None:
                index = root._snapshot_index = SnapshotIndex(root)
    return index
