"""Selector search: the paper's ``AlternativeSelectors`` (§2, Figures 10/11).

Recorded actions use absolute child-axis XPaths; intended programs usually
need *other* selectors for the same nodes (attribute-anchored descendant
steps like ``//div[@class='locatorPhone'][1]``).  This module enumerates,
with bounds, the alternative ways a node can be addressed:

* :func:`node_predicates` — the predicates φ a node satisfies;
* :func:`relative_step_candidates` — step sequences from an ancestor to a
  descendant (used as loop-variable suffixes);
* :func:`decompositions` — ways to write a selector as
  ``prefix / step(φ, k) / suffix``, the shape anti-unification matches on;
* :func:`alternative_selectors` — whole-selector alternatives (used for
  while-loop clicks).

With ``use_alternatives=False`` every function degenerates to the raw
child-axis forms only, which is exactly Table 1's "No selector" ablation.

Enumeration runs in one of two modes.  With ``use_index_enumeration``
(the default, gated by
:attr:`repro.synth.config.SynthesisConfig.use_index_enumeration`) and a
frozen snapshot, candidates are read off the per-snapshot bucket layer
of :class:`repro.engine.index.SnapshotIndex` — memoized raw paths,
predicate families, child-rank maps, and per-element decomposition
plans — instead of re-walking ancestor chains and sibling lists per
query.  The legacy ancestor-walk path is kept verbatim (flag off, or
unindexed snapshots) and both paths produce identical candidate lists
in identical order; ``tests/test_synth_index_enumeration.py`` holds the
parity property tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dom.node import DOMNode
from repro.dom.xpath import (
    CHILD,
    DESC,
    EPSILON,
    ConcreteSelector,
    Predicate,
    Step,
    index_among_children,
    index_among_descendants,
    predicate_family,
    raw_path,
    resolve,
)
from repro.engine.index import (
    UNSUPPORTED,
    SnapshotIndex,
    dom_indexes_enabled,
    index_for,
)
from repro.synth.config import SynthesisConfig

#: Cap on selector decompositions considered per concrete selector.
MAX_DECOMPOSITIONS = 64

#: Longest child-step chain allowed after a descendant anchor step in
#: generated suffixes.
MAX_SUFFIX_CHILD_STEPS = 2


@dataclass(frozen=True)
class Decomposition:
    """One way to address a node as ``prefix / step(pred, index) / suffix``.

    ``prefix`` addresses an anchor; the *element step* selects the
    ``index``-th match of ``pred`` under the anchor along ``axis``; the
    ``suffix`` steps descend from the element to the target node.  Loop
    speculation matches decompositions of consecutive actions that agree
    on everything but ``index``.
    """

    prefix: ConcreteSelector
    axis: str
    pred: Predicate
    index: int
    suffix: tuple[Step, ...]

    def assemble(self) -> ConcreteSelector:
        """Rebuild the full concrete selector this decomposition denotes."""
        element = (
            self.prefix.child(self.pred, self.index)
            if self.axis == CHILD
            else self.prefix.desc(self.pred, self.index)
        )
        return element.concat(self.suffix)

    def match_key(self) -> tuple:
        """Everything but the index — equal keys + consecutive indices
        make an anti-unification candidate."""
        return (self.prefix, self.axis, self.pred, self.suffix)


def node_predicates(
    node: DOMNode, use_alternatives: bool = True, token_predicates: bool = False
) -> list[Predicate]:
    """Predicates satisfied by ``node``: its tag, then attribute refinements.

    Attribute predicates come first because they are both more selective
    and what the paper's intended programs use.  With ``token_predicates``
    (the beyond-the-paper extension), one predicate per whitespace token
    of a multi-token ``class`` is added — these are what cover sibling
    nodes whose classes share a token but are not equal (the b6 case).
    """
    if not use_alternatives:
        return [Predicate(node.tag)]
    # one token predicate per whitespace token, even for single-token
    # classes: a row with class="match" must pair with its
    # class="match highlight" sibling through the *same* (token)
    # predicate — see predicate_family for the full ordering contract
    return predicate_family(node, token_predicates)


def _raw_chain(base: DOMNode, target: DOMNode) -> tuple[Step, ...]:
    """The child-axis tag/index steps from ``base`` down to ``target``."""
    chain: list[DOMNode] = []
    node = target
    while node is not base:
        chain.append(node)
        if node.parent is None:
            raise ValueError("base is not an ancestor of target")
        node = node.parent
    chain.reverse()
    return tuple(
        Step(CHILD, Predicate(item.tag), item.child_index_by_tag()) for item in chain
    )


def relative_step_candidates(
    base: DOMNode,
    target: DOMNode,
    use_alternatives: bool = True,
    token_predicates: bool = False,
    use_index_enumeration: bool = True,
) -> list[tuple[Step, ...]]:
    """Bounded step sequences that reach ``target`` from ``base``.

    Always includes the raw child chain.  With alternatives enabled, also
    descendant-anchored forms: ``//φ(target)[k]`` and
    ``//φ(mid)[k] / raw-chain`` for intermediate nodes with short
    remaining chains.
    """
    if base is target:
        return [()]
    if not (base.is_ancestor_of(target)):
        return []
    root = base.root()
    index = index_for(root) if use_index_enumeration else None
    if index is not None and not (index.contains(base) and index.contains(target)):
        index = None  # foreign nodes: take the ancestor-walk path
    if index is not None:
        memo_key = (
            "rel",
            id(base),
            id(target),
            use_alternatives,
            token_predicates,
        )
        cached = index.enum_memo.get(memo_key)
        if cached is not None:
            return cached
    candidates: list[tuple[Step, ...]] = []
    seen: set[tuple[Step, ...]] = set()

    def add(steps: tuple[Step, ...]) -> None:
        if steps not in seen:
            seen.add(steps)
            candidates.append(steps)

    if use_alternatives:
        # Descendant-anchored forms first: they generalize across pages.
        chain_nodes: list[DOMNode] = []
        node = target
        while node is not base:
            chain_nodes.append(node)
            node = node.parent
        chain_nodes.reverse()  # base's child ... target
        for position, mid in enumerate(chain_nodes):
            remaining = len(chain_nodes) - 1 - position
            if remaining > MAX_SUFFIX_CHILD_STEPS:
                continue
            if index is not None:
                # every chain node sits between base and target, so the
                # index covers it; predicates_of only yields bucketed
                # predicates, so rank should never be UNSUPPORTED here —
                # but a sentinel must never become a step index
                tail = index.raw_steps_between(mid, target)
                for pred in index.predicates_of(mid, True, token_predicates):
                    rank = index.rank(pred, mid, base)
                    if rank is UNSUPPORTED:  # pragma: no cover - defensive
                        rank = index_among_descendants(base, mid, pred, root)
                    if rank is not None:
                        add((Step(DESC, pred, rank),) + tail)
                continue
            tail = _raw_chain(mid, target)
            for pred in node_predicates(mid, True, token_predicates):
                position_index = index_among_descendants(base, mid, pred, root)
                if position_index is not None:
                    add((Step(DESC, pred, position_index),) + tail)
    if index is not None:
        add(index.raw_steps_between(base, target))
        index.enum_memo[memo_key] = candidates
    else:
        add(_raw_chain(base, target))
    return candidates


def decompositions(
    selector: ConcreteSelector,
    dom: DOMNode,
    use_alternatives: bool = True,
    max_results: int = 128,
    token_predicates: bool = False,
    use_index_enumeration: bool = True,
) -> list[Decomposition]:
    """All bounded ``prefix/step/suffix`` readings of ``selector`` on ``dom``.

    Anchors for the element step are the element's parent (child axis) and
    every ancestor including the document (descendant axis).  Prefixes are
    raw paths — generality enters through the predicate, the axis, and the
    suffix, plus later parametrization of the prefix itself.
    """
    target = resolve(selector, dom)
    if target is None:
        return []
    index = (
        index_for(dom)
        if use_index_enumeration and dom.parent is None
        else None
    )
    if index is not None:
        return _decompositions_indexed(
            index,
            target,
            use_alternatives,
            max_results,
            token_predicates,
        )
    root = dom
    results: list[Decomposition] = []
    element: DOMNode | None = target
    while element is not None and len(results) < max_results:
        suffixes = relative_step_candidates(
            element,
            target,
            use_alternatives,
            token_predicates,
            use_index_enumeration=False,
        )
        for suffix in suffixes:
            preds = node_predicates(element, use_alternatives, token_predicates)
            # Child axis from the element's parent.
            parent_prefix = raw_path(element.parent) if element.parent else EPSILON
            for pred in preds:
                child_index = index_among_children(element, pred)
                if child_index is not None:
                    results.append(
                        Decomposition(parent_prefix, CHILD, pred, child_index, suffix)
                    )
            if use_alternatives:
                # Descendant axis, anchored at the document and at the
                # element's parent.  (Intermediate ancestors are possible
                # anchors too, but the paper's programs use the document —
                # Dscts(ε, φ) — or the parent, and every extra anchor
                # multiplies the candidate space.)
                anchors: list[DOMNode | None] = [None]
                if element.parent is not None:
                    anchors.append(element.parent)
                for anchor in anchors:
                    anchor_prefix = EPSILON if anchor is None else raw_path(anchor)
                    for pred in preds:
                        desc_index = index_among_descendants(anchor, element, pred, root)
                        if desc_index is not None:
                            results.append(
                                Decomposition(anchor_prefix, DESC, pred, desc_index, suffix)
                            )
            if len(results) >= max_results:
                break
        element = element.parent
    return results[:max_results]


def _decompositions_indexed(
    index: SnapshotIndex,
    target: DOMNode,
    use_alternatives: bool,
    max_results: int,
    token_predicates: bool,
) -> list[Decomposition]:
    """Bucket-driven :func:`decompositions` body (identical output).

    The per-element inner work of the ancestor walk — predicate family,
    parent raw path, child ranks, descendant ranks — is invariant across
    suffixes and across targets sharing the ancestor, so it is read off
    the snapshot index's cached *element plan* and only the cross
    product with the suffixes is materialised here, in the legacy
    emission order.  Whole results are memoized on the index (they
    depend only on the target node and the bounds), which is what lets
    a second session over the same snapshot enumerate for free.
    """
    memo_key = (
        "decomp",
        id(target),
        use_alternatives,
        max_results,
        token_predicates,
    )
    cached = index.enum_memo.get(memo_key)
    if cached is not None:
        return cached
    results: list[Decomposition] = []
    element: DOMNode | None = target
    while element is not None and len(results) < max_results:
        suffixes = relative_step_candidates(
            element,
            target,
            use_alternatives,
            token_predicates,
            use_index_enumeration=True,
        )
        plan = index.element_plan(element, use_alternatives, token_predicates)
        for suffix in suffixes:
            for prefix, axis, pred, step_index in plan:
                results.append(Decomposition(prefix, axis, pred, step_index, suffix))
            if len(results) >= max_results:
                break
        element = element.parent
    results = results[:max_results]
    index.enum_memo[memo_key] = results
    return results


def alternative_selectors(
    selector: ConcreteSelector,
    dom: DOMNode,
    use_alternatives: bool = True,
    max_results: int = 24,
    use_index_enumeration: bool = True,
) -> list[ConcreteSelector]:
    """Whole-selector alternatives denoting the same node on ``dom``.

    The raw selector itself is always included (first).  Attribute-
    anchored forms follow, deduplicated, each verified to resolve to the
    same node.
    """
    target = resolve(selector, dom)
    if target is None:
        return []
    raw = raw_path(target)
    results = [raw]
    if not use_alternatives:
        return results
    seen = {raw, selector}
    if selector != raw:
        results.insert(0, selector)
    for decomposition in decompositions(
        selector, dom, use_alternatives=True, use_index_enumeration=use_index_enumeration
    ):
        candidate = decomposition.assemble()
        if candidate in seen:
            continue
        seen.add(candidate)
        if resolve(candidate, dom) is target:
            results.append(candidate)
        if len(results) >= max_results:
            break
    return results


def common_alternatives(
    selector_a: ConcreteSelector,
    dom_a: DOMNode,
    selector_b: ConcreteSelector,
    dom_b: DOMNode,
    use_alternatives: bool = True,
    max_results: int = 8,
    use_index_enumeration: bool = True,
) -> list[ConcreteSelector]:
    """Selectors that address both recorded nodes on their own snapshots.

    Used for while-loop clicks: the terminating Click must resolve to the
    "next page" button on *every* page, so candidate selectors must at
    least work for the two exhibited iterations.
    """
    options_a = alternative_selectors(
        selector_a, dom_a, use_alternatives, use_index_enumeration=use_index_enumeration
    )
    options_b = set(
        alternative_selectors(
            selector_b, dom_b, use_alternatives, use_index_enumeration=use_index_enumeration
        )
    )
    shared = [candidate for candidate in options_a if candidate in options_b]
    return shared[:max_results]


class SelectorSearch:
    """Memoised front-end to the selector-search queries.

    The synthesizer issues the same decomposition and relative-step
    queries over and over (across spans, across incremental calls).
    Snapshots are immutable, so caching by ``(selector, id(snapshot))`` is
    sound as long as the snapshots are kept alive — which this object does
    by holding references in its keys' companion sets.

    ``enum_indexed`` / ``enum_fallback`` count the *uncached* enumeration
    queries by the path that answered them (bucket-driven vs ancestor
    walk); the synthesizer surfaces per-call deltas through
    :class:`repro.synth.synthesizer.SynthesisStats`.
    """

    def __init__(
        self,
        use_alternatives: bool = True,
        token_predicates: bool = False,
        use_index_enumeration: bool = True,
    ) -> None:
        self.use_alternatives = use_alternatives
        self.token_predicates = token_predicates
        self.use_index_enumeration = use_index_enumeration
        self.enum_indexed = 0
        self.enum_fallback = 0
        self._decomp_cache: dict[tuple, list[Decomposition]] = {}
        self._relative_cache: dict[tuple, list[tuple[Step, ...]]] = {}
        self._alternatives_cache: dict[tuple, list[ConcreteSelector]] = {}
        self._pairing_cache: dict[tuple, object] = {}
        self._pins: list = []  # keeps cached DOMs alive so ids stay valid

    @classmethod
    def for_config(cls, config: SynthesisConfig) -> "SelectorSearch":
        """The search a synthesis run under ``config`` queries."""
        return cls(
            use_alternatives=config.use_alternative_selectors,
            token_predicates=config.use_token_predicates,
            use_index_enumeration=config.use_index_enumeration,
        )

    def _pin(self, *objects) -> None:
        self._pins.append(objects)

    def _count_enumeration(self, root: DOMNode) -> None:
        """Classify one uncached query by the path eligible to answer it.

        Mirrors the guards of :func:`index_for` / the raw functions
        without calling them — classification must not force an index
        build the query itself would never perform (e.g. a selector that
        does not resolve).
        """
        if (
            self.use_index_enumeration
            and root.parent is None
            and root.frozen
            and dom_indexes_enabled()
        ):
            self.enum_indexed += 1
        else:
            self.enum_fallback += 1

    def decompositions(self, selector: ConcreteSelector, dom: DOMNode) -> list[Decomposition]:
        """Memoised :func:`decompositions`."""
        key = (selector, id(dom))
        hit = self._decomp_cache.get(key)
        if hit is None:
            self._count_enumeration(dom)
            hit = decompositions(
                selector,
                dom,
                use_alternatives=self.use_alternatives,
                max_results=MAX_DECOMPOSITIONS,
                token_predicates=self.token_predicates,
                use_index_enumeration=self.use_index_enumeration,
            )
            self._decomp_cache[key] = hit
            self._pin(dom)
        return hit

    def relative(self, base: DOMNode, target: DOMNode) -> list[tuple[Step, ...]]:
        """Memoised :func:`relative_step_candidates`."""
        key = (id(base), id(target))
        hit = self._relative_cache.get(key)
        if hit is None:
            self._count_enumeration(base.root())
            hit = relative_step_candidates(
                base,
                target,
                use_alternatives=self.use_alternatives,
                token_predicates=self.token_predicates,
                use_index_enumeration=self.use_index_enumeration,
            )
            self._relative_cache[key] = hit
            self._pin(base, target)
        return hit

    def alternatives(
        self, selector: ConcreteSelector, dom: DOMNode, max_results: int = 24
    ) -> list[ConcreteSelector]:
        """Memoised :func:`alternative_selectors`."""
        key = (selector, id(dom), max_results)
        hit = self._alternatives_cache.get(key)
        if hit is None:
            self._count_enumeration(dom)
            hit = alternative_selectors(
                selector,
                dom,
                use_alternatives=self.use_alternatives,
                max_results=max_results,
                use_index_enumeration=self.use_index_enumeration,
            )
            self._alternatives_cache[key] = hit
            self._pin(dom)
        return hit

    def common(
        self,
        selector_a: ConcreteSelector,
        dom_a: DOMNode,
        selector_b: ConcreteSelector,
        dom_b: DOMNode,
        max_results: int = 8,
    ) -> list[ConcreteSelector]:
        """Memoised :func:`common_alternatives`."""
        options_a = self.alternatives(selector_a, dom_a)
        options_b = set(self.alternatives(selector_b, dom_b))
        shared = [candidate for candidate in options_a if candidate in options_b]
        return shared[:max_results]

    def _decomposition_keys(self, selector: ConcreteSelector, dom: DOMNode) -> set[tuple]:
        """The ``(match_key, index)`` set of a selector's decompositions."""
        key = ("dk", selector, id(dom))
        hit = self._pairing_cache.get(key)
        if hit is None:
            hit = {
                (item.match_key(), item.index)
                for item in self.decompositions(selector, dom)
            }
            self._pairing_cache[key] = hit
            self._pin(dom)
        return hit

    def loop_pairings(
        self,
        first_sel: ConcreteSelector,
        first_dom: DOMNode,
        second_sel: ConcreteSelector,
        second_dom: DOMNode,
        limit: int,
    ) -> list[Decomposition]:
        """Decompositions of ``first_sel`` at index 1 whose match key also
        occurs at index 2 among ``second_sel``'s decompositions.

        This is the var-free core of selector anti-unification (Figure 10
        rule (4)); results are memoised because the same statement pairs
        are anti-unified across many spans and incremental calls.
        """
        key = (first_sel, id(first_dom), second_sel, id(second_dom), limit)
        hit = self._pairing_cache.get(key)
        if hit is not None:
            return hit
        results: list[Decomposition] = []
        seen: set[tuple] = set()
        first_options = self.decompositions(first_sel, first_dom)
        if first_options:
            second_keys = self._decomposition_keys(second_sel, second_dom)
            for item in first_options:
                if item.index != 1:
                    continue
                match = item.match_key()
                if match in seen or (match, 2) not in second_keys:
                    continue
                seen.add(match)
                results.append(item)
                if len(results) >= limit:
                    break
        self._pairing_cache[key] = results
        self._pin(first_dom, second_dom)
        return results
