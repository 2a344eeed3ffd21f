"""Speculation for numbered pagination (extension beyond the paper).

§7.1 reports b9 — a job site paginating "using page numbers and a 'next
10 pages' button" — as unsupported: advancing one page clicks a
*different* button every time, so no selector the while-loop rule can
anti-unify terminates the loop.  The give-away structure is in the
*attributes*: consecutive page controls carry a counter
(``data-page='2'`` / ``data-page='3'``, ``href='?page=4'``, ...).

This module speculates :class:`~repro.lang.ast.PaginateLoop` rewrites:

1. like the while-loop rule, conjecture a first iteration
   ``S_i ·· S_p`` ending in a Click, with the matching Click one
   iteration later at ``S_q``;
2. instead of anti-unifying the two click *selectors*, anti-unify the
   two clicked *nodes' attributes*: an attribute whose values split as
   ``prefix + k + suffix`` and ``prefix + (k+1) + suffix`` yields a
   :class:`~repro.lang.ast.CounterTemplate`;
3. scan the trace beyond ``S_q``, consuming clicks the template
   explains; the first click it cannot explain is the block-advance
   ("next 10 pages") candidate — its alternative selectors become the
   loop's ``advance`` options.

Everything emitted here is speculative; Algorithm 3's semantic
validation separates the pagers from coincidental counters.  Enabled by
``SynthesisConfig.use_numbered_pagination`` (off by default, matching
the published system).
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.dom.node import DOMNode
from repro.dom.xpath import (
    DESC,
    ConcreteSelector,
    Predicate,
    index_among_descendants,
    resolve,
)
from repro.lang.ast import (
    CLICK,
    ActionStmt,
    CounterTemplate,
    PaginateLoop,
    Statement,
    selector_of,
)

#: Cap on advance-button selector candidates per paginate span.
MAX_PAGINATE_ADVANCE_ALTERNATIVES = 4


def counter_pair(first: str, second: str) -> Optional[tuple[str, int, str]]:
    """Split two strings as ``prefix+k+suffix`` / ``prefix+(k+1)+suffix``.

    Returns ``(prefix, k, suffix)`` or ``None``.  The common prefix and
    suffix are trimmed back to digit-run boundaries so ``page-12`` /
    ``page-13`` yields counter 12 (not prefix ``page-1``, counter 2),
    and values with leading zeros are rejected (they would not
    round-trip through ``str``).
    """
    if first == second:
        return None
    limit = min(len(first), len(second))
    prefix_len = 0
    while prefix_len < limit and first[prefix_len] == second[prefix_len]:
        prefix_len += 1
    while prefix_len > 0 and first[prefix_len - 1].isdigit():
        prefix_len -= 1
    suffix_len = 0
    while (
        suffix_len < limit - prefix_len
        and first[len(first) - 1 - suffix_len] == second[len(second) - 1 - suffix_len]
    ):
        suffix_len += 1
    while suffix_len > 0 and first[len(first) - suffix_len].isdigit():
        suffix_len -= 1
    middle_first = first[prefix_len : len(first) - suffix_len]
    middle_second = second[prefix_len : len(second) - suffix_len]
    if not (middle_first.isdigit() and middle_second.isdigit()):
        return None
    counter, successor = int(middle_first), int(middle_second)
    if successor != counter + 1:
        return None
    if str(counter) != middle_first or str(successor) != middle_second:
        return None
    suffix = first[len(first) - suffix_len :] if suffix_len else ""
    return first[:prefix_len], counter, suffix


def counter_templates(
    node1: DOMNode, dom1: DOMNode, node2: DOMNode, dom2: DOMNode
) -> Iterator[tuple[CounterTemplate, int]]:
    """Templates whose instantiations at ``k``/``k+1`` address the nodes.

    One candidate per counter-bearing attribute shared by the two
    clicked nodes.  Templates are document-anchored descendant steps;
    the match index must agree on both snapshots (it is baked into the
    template).
    """
    if node1.tag != node2.tag:
        return
    for attr, value1 in node1.attrs.items():
        value2 = node2.attrs.get(attr)
        if value2 is None:
            continue
        split = counter_pair(value1, value2)
        if split is None:
            continue
        prefix, counter, suffix = split
        index1 = index_among_descendants(
            None, node1, Predicate(node1.tag, attr, value1), dom1
        )
        index2 = index_among_descendants(
            None, node2, Predicate(node2.tag, attr, value2), dom2
        )
        if index1 is None or index1 != index2:
            continue
        template = CounterTemplate(
            prefix_steps=(),
            axis=DESC,
            tag=node1.tag,
            attr=attr,
            value_prefix=prefix,
            value_suffix=suffix,
            index=index1,
        )
        yield template, counter


def _concrete_click(stmt: Statement) -> Optional[ConcreteSelector]:
    """The selector of a concrete Click statement, else ``None``."""
    if (
        isinstance(stmt, ActionStmt)
        and stmt.kind == CLICK
        and stmt.target is not None
        and stmt.target.is_concrete
    ):
        return ConcreteSelector(stmt.target.steps)
    return None


def advance_candidates(tuple_, ctx, second: int, template: CounterTemplate,
                       next_counter: int) -> list[ConcreteSelector]:
    """Advance-button selector options for one paginate span.

    Walks the statements after the second exhibited click, consuming
    clicks the template explains (incrementing the expected counter);
    the first unexplained click is conjectured to be the block-advance
    button, and its alternative selectors are returned (bounded).
    """
    counter = next_counter
    for index in range(second + 1, tuple_.length):
        selector = _concrete_click(tuple_.statements[index])
        if selector is None:
            continue
        dom = ctx.context_dom(tuple_, index)
        clicked = resolve(selector, dom)
        if clicked is None:
            continue
        if resolve(template.instantiate(counter), dom) is clicked:
            counter += 1
            continue
        return ctx.search.alternatives(
            selector, dom, max_results=MAX_PAGINATE_ADVANCE_ALTERNATIVES
        )
    return []


def speculate_paginate(tuple_, ctx, emit) -> None:
    """Enumerate paginate-loop s-rewrites of ``tuple_``'s program.

    ``emit(stmt, start, end)`` receives each candidate with the span of
    its conjectured first iteration (body + templated click), mirroring
    Algorithm 2's while-loop case.  Spans are *not* pruned by
    ``spec_start``: the advance button may only become visible in later
    increments of the trace, so new candidates can arise from old spans.
    """
    # imported here: speculate imports this module at load time
    from repro.synth.speculate import MAX_BODY

    statements = tuple_.statements
    length = tuple_.length
    for span_len in range(2, MAX_BODY + 1):
        for start in range(0, length - span_len):
            pivot = start + span_len - 1
            second = pivot + span_len
            if second >= length:
                continue
            first_selector = _concrete_click(statements[pivot])
            second_selector = _concrete_click(statements[second])
            if first_selector is None or second_selector is None:
                continue
            dom1 = ctx.context_dom(tuple_, pivot)
            dom2 = ctx.context_dom(tuple_, second)
            node1 = resolve(first_selector, dom1)
            node2 = resolve(second_selector, dom2)
            if node1 is None or node2 is None:
                continue
            body = statements[start:pivot]
            for template, counter in counter_templates(node1, dom1, node2, dom2):
                advances = advance_candidates(tuple_, ctx, second, template, counter + 2)
                for advance in (None, *advances):
                    advance_selector = (
                        selector_of(advance) if advance is not None else None
                    )
                    loop = PaginateLoop(body, template, advance_selector, start=counter)
                    emit(loop, start, pivot)
