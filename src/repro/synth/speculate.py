"""The Speculate procedure (Algorithm 2).

Speculation enumerates candidate *spans*: a conjectured first iteration
``S_i ·· S_j`` together with a pivot pair ``(S_p, S_q)`` where
``q = p + (j − i + 1)`` places ``S_q`` at ``S_p``'s position in the
conjectured *second* iteration.  Anti-unifying the pivot pair yields the
loop variable, collection, and one body statement; parametrizing the rest
of the span completes candidate loop bodies.  While-loop candidates
instead look for a repeated Click one iteration apart (lines 14-16).

Everything produced here is a *speculative* rewrite: only its first
iteration is known to match the trace.  :mod:`repro.synth.validate`
separates the true rewrites from the spurious ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from repro.dom.node import DOMNode
from repro.dom.xpath import ConcreteSelector
from repro.engine.engine import ExecutionEngine
from repro.lang.actions import Action
from repro.lang.ast import (
    CLICK,
    ActionStmt,
    ForEachSelector,
    ForEachValue,
    Statement,
    ValuePathsOf,
    WhileLoop,
    canonical_statement,
    selector_of,
    statement_size,
)
from repro.lang.data import DataSource
from repro.synth.anti_unify import StatementAU, anti_unify_statements
from repro.synth.alternatives import SelectorSearch
from repro.synth.config import SynthesisConfig
from repro.synth.paginate import speculate_paginate
from repro.synth.parametrize import parametrize_statement
from repro.synth.periodicity import shape_sequence
from repro.synth.rewrite import RewriteTuple

#: Maximum number of statements in a speculated first iteration (bounds
#: the span enumeration in Algorithm 2).
MAX_BODY = 8

#: Cap on the Cartesian product of parametrized bodies generated for one
#: ``(i, p, j, q)`` span.
MAX_LOOP_BODIES_PER_SPAN = 16

#: Cap on the common alternative selectors tried for a while loop's
#: terminating click.
MAX_WHILE_CLICK_ALTERNATIVES = 4


@dataclass(frozen=True)
class SRewrite:
    """A speculative rewrite ``(S', S_i, S_j)`` in statement indices.

    ``stmt`` replaces the slice ``statements[start .. end]`` (inclusive,
    0-based) — the conjectured first iteration.
    """

    stmt: Statement
    start: int
    end: int


class SpeculationContext:
    """Immutable inputs shared by speculation and validation.

    Holds the master recorded traces and per-call configuration.  The
    snapshot a statement's slice starts on (its *context DOM*) is where
    its selectors are decomposed and resolved.  ``engine`` is the
    memoizing :class:`~repro.engine.engine.ExecutionEngine` validation
    executes through — the only simulated-execution entry point for the
    whole synthesis stack.
    """

    def __init__(
        self,
        actions: Sequence[Action],
        snapshots: Sequence[DOMNode],
        data: DataSource,
        config: SynthesisConfig,
        search: "SelectorSearch | None" = None,
        engine: "ExecutionEngine | None" = None,
    ) -> None:
        self.actions = actions
        self.snapshots = snapshots
        self.data = data
        self.config = config
        self.engine = engine or ExecutionEngine.for_config(data, config)
        self.search = search or SelectorSearch.for_config(config)
        # Statement-level memos.  Statement objects are shared between a
        # tuple and its extensions, so id-keyed caching hits across spans
        # and across incremental calls; the search object pins referents.
        if not hasattr(self.search, "stmt_caches"):
            # (anti-unify, parametrize, canonical-statement, statement-size)
            self.search.stmt_caches = ({}, {}, {}, {})

    def context_dom(self, tuple_: RewriteTuple, stmt_index: int) -> DOMNode:
        """The snapshot the statement's first action executed on."""
        return self.snapshots[tuple_.bounds[stmt_index]]

    def anti_unify(self, first, first_dom, second, second_dom) -> list[StatementAU]:
        """Memoised :func:`anti_unify_statements`.

        Sharing memoised results (including their loop variables) between
        spans is safe: a reused variable can never end up bound at two
        nesting levels of one program, because every loop's variable comes
        from the memo entry of its *own* pivot pair, and the pivot pair of
        a loop nesting another is necessarily a different statement pair.
        """
        cache = self.search.stmt_caches[0]
        key = (id(first), id(first_dom), id(second), id(second_dom))
        hit = cache.get(key)
        if hit is None:
            hit = anti_unify_statements(
                first, first_dom, second, second_dom, self.config, self.search
            )
            cache[key] = hit
            self.search._pin(first, first_dom, second, second_dom)
        return hit

    @staticmethod
    def _composite_key(stmt: Statement) -> "tuple | None":
        """A component-identity key for freshly assembled loops.

        Speculated loops are constructed anew per span, but their
        variables, collections, and body statements all come out of
        memos and are shared objects — equal component ids imply equal
        loops.  ``None`` means the statement form has no such key.
        """
        if isinstance(stmt, (ForEachSelector, ForEachValue)):
            return (
                type(stmt).__name__,
                id(stmt.var),
                id(stmt.collection),
                tuple(map(id, stmt.body)),
            )
        if isinstance(stmt, WhileLoop):
            # the click statement is rebuilt per emission, but its step
            # tuple is shared with the memoised common-selector result
            return ("while", tuple(map(id, stmt.body)), id(stmt.click.target.steps))
        return None

    def canonical_key(self, stmt: Statement) -> tuple:
        """Memoised :func:`repro.lang.ast.canonical_statement` for dedup."""
        key = self._composite_key(stmt)
        if key is None:
            return canonical_statement(stmt)
        cache = self.search.stmt_caches[2]
        hit = cache.get(key)
        if hit is None:
            hit = canonical_statement(stmt)
            cache[key] = hit
            self.search._pin(stmt)
        return hit

    def statement_size(self, stmt: Statement) -> int:
        """Memoised :func:`repro.lang.ast.statement_size` (ranking key)."""
        key = self._composite_key(stmt)
        if key is None:
            return statement_size(stmt)
        cache = self.search.stmt_caches[3]
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = statement_size(stmt)
            self.search._pin(stmt)
        return hit

    def parametrize(self, stmt, candidate: StatementAU, dom) -> list[Statement]:
        """Memoised :func:`parametrize_statement` against an AU's binding."""
        cache = self.search.stmt_caches[1]
        key = (id(stmt), id(candidate), id(dom))
        hit = cache.get(key)
        if hit is None:
            hit = parametrize_statement(
                stmt, candidate.var, candidate.first, dom, self.config, self.search
            )
            cache[key] = hit
            self.search._pin(stmt, candidate, dom)
        return hit


def speculate(tuple_: RewriteTuple, ctx: SpeculationContext) -> list[SRewrite]:
    """Algorithm 2: all s-rewrites of ``tuple_``'s program.

    Spans whose second iteration ends before ``tuple_.spec_start`` were
    already explored on an ancestor tuple and are skipped (§5.4).
    Paginate spans (extension) are exempt from that pruning — their
    advance-button options can appear in later trace increments.
    """
    results: list[SRewrite] = []
    seen: set[tuple] = set()
    if ctx.config.use_numbered_pagination:
        speculate_paginate(
            tuple_,
            ctx,
            lambda stmt, start, end: _emit(ctx, results, seen, stmt, start, end),
        )
    if tuple_.spec_start >= tuple_.length:
        # every possible second-iteration position was already explored
        # on an ancestor tuple (e.g. a pure loop-absorption extension)
        return results
    _speculate_foreach(tuple_, ctx, results, seen)
    _speculate_while(tuple_, ctx, results, seen)
    return results


def _emit(
    ctx: SpeculationContext,
    results: list[SRewrite],
    seen: set[tuple],
    stmt: Statement,
    start: int,
    end: int,
) -> None:
    key = (ctx.canonical_key(stmt), start, end)
    if key not in seen:
        seen.add(key)
        results.append(SRewrite(stmt, start, end))


def _speculate_foreach(
    tuple_: RewriteTuple,
    ctx: SpeculationContext,
    results: list[SRewrite],
    seen: set[tuple],
) -> None:
    """Lines 2-13: selector-loop and value-loop spans.

    Pivot pairs whose statement shapes differ are skipped before
    anti-unification: shape inequality refutes every Figure 10 rule
    (:mod:`repro.synth.periodicity`), so the gate only saves work.
    """
    statements = tuple_.statements
    length = tuple_.length
    shapes = shape_sequence(statements)
    for span_len in range(1, MAX_BODY + 1):
        for start in range(0, length - span_len):
            end = start + span_len - 1  # inclusive first-iteration end
            for pivot in range(start, end + 1):
                second = pivot + span_len
                if second >= length:
                    break
                if second < tuple_.spec_start:
                    continue  # already explored on an ancestor tuple
                if shapes[pivot] != shapes[second]:
                    continue  # the rules cannot unify shape-distinct pivots
                pivot_dom = ctx.context_dom(tuple_, pivot)
                second_dom = ctx.context_dom(tuple_, second)
                unified = ctx.anti_unify(
                    statements[pivot], pivot_dom, statements[second], second_dom
                )
                for candidate in unified:
                    _assemble_loops(
                        tuple_, ctx, candidate, start, end, pivot, results, seen
                    )


def _assemble_loops(
    tuple_: RewriteTuple,
    ctx: SpeculationContext,
    candidate: StatementAU,
    start: int,
    end: int,
    pivot: int,
    results: list[SRewrite],
    seen: set[tuple],
) -> None:
    """Lines 4-7 / 10-13: parametrize the span and build loop statements."""
    statements = tuple_.statements
    variant_lists: list[list[Statement]] = []
    for index in range(start, end + 1):
        if index == pivot:
            variant_lists.append([candidate.stmt])
            continue
        variants = ctx.parametrize(
            statements[index], candidate, ctx.context_dom(tuple_, index)
        )
        if len(variants) > 1:
            # Dedup each slot *before* the Cartesian product: alpha-
            # equivalent variants would only produce loops `_emit` drops
            # anyway, but they multiply the product and burn the
            # `MAX_LOOP_BODIES_PER_SPAN` clip on bodies that cannot
            # survive dedup.  Pruning per-slot keeps the clip cheap and
            # spends it on distinct bodies only.
            unique: list[Statement] = []
            slot_seen: set[tuple] = set()
            for variant in variants:
                variant_key = ctx.canonical_key(variant)
                if variant_key not in slot_seen:
                    slot_seen.add(variant_key)
                    unique.append(variant)
            variants = unique
        variant_lists.append(variants)
    bodies = itertools.islice(
        itertools.product(*variant_lists), MAX_LOOP_BODIES_PER_SPAN
    )
    value_loop = isinstance(candidate.collection, ValuePathsOf)
    for body in bodies:
        if value_loop:
            loop: Statement = ForEachValue(candidate.var, candidate.collection, tuple(body))
        else:
            loop = ForEachSelector(candidate.var, candidate.collection, tuple(body))
        _emit(ctx, results, seen, loop, start, end)


def _speculate_while(
    tuple_: RewriteTuple,
    ctx: SpeculationContext,
    results: list[SRewrite],
    seen: set[tuple],
) -> None:
    """Lines 14-16: click-terminated while-loop spans.

    The body is ``S_i ·· S_p`` with ``S_p`` a Click whose selector
    re-occurs one iteration later at ``S_q``.  Following §2's "selector
    search", the terminating click may use any selector that addresses the
    recorded button on both exhibited pages (P3's click does exactly
    this), including the raw recorded one.
    """
    statements = tuple_.statements
    length = tuple_.length
    for span_len in range(2, MAX_BODY + 1):
        for start in range(0, length - span_len):
            pivot = start + span_len - 1  # the Click ending the iteration
            second = pivot + span_len
            if second >= length:
                continue
            if second < tuple_.spec_start:
                continue
            first_click = statements[pivot]
            second_click = statements[second]
            if not (
                isinstance(first_click, ActionStmt)
                and isinstance(second_click, ActionStmt)
                and first_click.kind == CLICK
                and second_click.kind == CLICK
                and first_click.target.is_concrete
                and second_click.target.is_concrete
            ):
                continue
            shared = ctx.search.common(
                ConcreteSelector(first_click.target.steps),
                ctx.context_dom(tuple_, pivot),
                ConcreteSelector(second_click.target.steps),
                ctx.context_dom(tuple_, second),
                max_results=MAX_WHILE_CLICK_ALTERNATIVES,
            )
            for selector in shared:
                loop = WhileLoop(
                    statements[start:pivot],
                    ActionStmt(CLICK, selector_of(selector)),
                )
                _emit(ctx, results, seen, loop, start, pivot)
