"""The rewrite-based baseline synthesizer of §7.4 (Table 2).

This is the conventional, *correct-by-construction* approach the paper
compares against: equality saturation over the action trace with three
rules —

* **Split**  — a slice can be cut into two adjacent slices (all split
  points; associativity exposes every partition);
* **Reroll** — a slice that is syntactically ``r ≥ 2`` unrollings of one
  loop template becomes that loop (the rule itself verifies *every*
  iteration, hence correct by construction — no speculation, no
  semantic validation);
* **Unsplit** — rerolled slices recombine into statement sequences.

The engine keeps, per trace span, a bounded set of *item lists* (sequences
of statements covering the span) — the e-class-analysis view of the
saturated e-graph.  Nested loops require rerolling lists whose items are
loops themselves, which is exactly where the item-list sets blow up
combinatorially: single loops stay cheap, doubly-nested get slow, and
three-level nesting exhausts the budget, reproducing Table 2's shape.

Like the paper's baseline, only selector loops over raw selectors are
supported (no alternative selectors, no value paths, no while loops).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.dom.node import DOMNode
from repro.dom.xpath import ConcreteSelector
from repro.lang.actions import Action, action_to_statement
from repro.lang.ast import (
    ActionStmt,
    ChildrenOf,
    ForEachSelector,
    Program,
    Selector,
    Statement,
    Var,
    canonical_statement,
    program_size,
)
from repro.synth.alternatives import SelectorSearch
from repro.synth.anti_unify import anti_unify_statements
from repro.synth.parametrize import parametrize_statement

ItemList = tuple[Statement, ...]


@dataclass
class BaselineResult:
    """Outcome of one baseline synthesis run."""

    program: Optional[Program]
    elapsed: float
    timed_out: bool
    spans: int = 0
    item_lists: int = 0

    @property
    def solved(self) -> bool:
        """Whether any program was produced."""
        return self.program is not None


class _Timeout(Exception):
    pass


# ----------------------------------------------------------------------
# Syntactic substitution (for correct-by-construction unrolling)
# ----------------------------------------------------------------------
def substitute(stmt: Statement, var: Var, binding: ConcreteSelector) -> Statement:
    """Replace ``var`` by a concrete selector throughout a statement."""
    if isinstance(stmt, ActionStmt):
        target = stmt.target
        if target is not None and target.base == var:
            target = Selector(None, binding.steps + target.steps)
        return ActionStmt(stmt.kind, target, stmt.text, stmt.value)
    if isinstance(stmt, ForEachSelector):
        base = stmt.collection.base
        if base.base == var:
            base = Selector(None, binding.steps + base.steps)
        collection = type(stmt.collection)(base, stmt.collection.pred)
        body = tuple(substitute(child, var, binding) for child in stmt.body)
        return ForEachSelector(stmt.var, collection, body)
    return stmt


def unroll(loop: ForEachSelector, count: int) -> list[Statement]:
    """Syntactically unroll ``count`` iterations of a selector loop."""
    base = ConcreteSelector(loop.collection.base.steps)
    extend = base.child if isinstance(loop.collection, ChildrenOf) else base.desc
    statements: list[Statement] = []
    for iteration in range(1, count + 1):
        element = extend(loop.collection.pred, iteration)
        for stmt in loop.body:
            statements.append(substitute(stmt, loop.var, element))
    return statements


# ----------------------------------------------------------------------
# The Reroll rule
# ----------------------------------------------------------------------
class _Reroller:
    """Builds loops whose unrolling syntactically equals an item list."""

    def __init__(self, dom: DOMNode, deadline: float) -> None:
        self.dom = dom
        self.deadline = deadline
        # raw selectors only, like the paper's baseline; one search per
        # run, so its memos serve every reroll attempt
        self.search = SelectorSearch(use_alternatives=False)
        self._cache: dict[tuple, Optional[Statement]] = {}

    def _check_time(self) -> None:
        if time.perf_counter() > self.deadline:
            raise _Timeout()

    def reroll(self, items: ItemList) -> Optional[Statement]:
        """The loop statement rerolling ``items``, or None."""
        key = tuple(canonical_statement(stmt) for stmt in items)
        if key in self._cache:
            return self._cache[key]
        result = self._reroll_uncached(items)
        self._cache[key] = result
        return result

    def _reroll_uncached(self, items: ItemList) -> Optional[Statement]:
        length = len(items)
        for body_len in range(1, length // 2 + 1):
            if length % body_len:
                continue
            repetitions = length // body_len
            loop = self._try_template(items, body_len, repetitions)
            if loop is not None:
                return loop
        return None

    def _try_template(
        self, items: ItemList, body_len: int, repetitions: int
    ) -> Optional[Statement]:
        """Infer a template from iterations 1-2, then verify all of them."""
        self._check_time()
        first = items[:body_len]
        second = items[body_len : 2 * body_len]
        for pivot in range(body_len):
            unified = anti_unify_statements(
                first[pivot], self.dom, second[pivot], self.dom, self.search
            )
            for candidate in unified:
                body: list[Statement] = []
                feasible = True
                for position in range(body_len):
                    if position == pivot:
                        body.append(candidate.stmt)
                        continue
                    variants = parametrize_statement(
                        first[position],
                        candidate.var,
                        candidate.first,
                        self.dom,
                        self.search,
                    )
                    # correct-by-construction: take the parametrized form
                    # whose unrolling will be verified below; raw-only mode
                    # yields at most one besides the unchanged statement
                    body.append(variants[0])
                    if not variants:
                        feasible = False
                        break
                if not feasible:
                    continue
                loop = ForEachSelector(
                    candidate.var, candidate.collection, tuple(body)
                )
                if self._verify(loop, items, repetitions):
                    return loop
        return None

    def _verify(self, loop: ForEachSelector, items: ItemList, repetitions: int) -> bool:
        """The correct-by-construction check: full syntactic unrolling."""
        unrolled = unroll(loop, repetitions)
        if len(unrolled) != len(items):
            return False
        return all(
            canonical_statement(a) == canonical_statement(b)
            for a, b in zip(unrolled, items)
        )


# ----------------------------------------------------------------------
# Saturation over spans
# ----------------------------------------------------------------------
def synthesize_baseline(
    actions: Sequence[Action],
    snapshots: Sequence[DOMNode],
    timeout: float = 60.0,
    max_lists_per_span: int = 24,
) -> BaselineResult:
    """Saturate Split/Reroll/Unsplit over the trace; extract a program.

    ``snapshots[0]`` provides the DOM context (like the paper's baseline,
    only single-page selector-loop tasks are supported).  Returns the
    smallest program covering the whole trace once saturation converges,
    or a timeout marker.
    """
    started = time.perf_counter()
    deadline = started + timeout
    length = len(actions)
    if length == 0:
        return BaselineResult(Program(()), 0.0, False)
    reroller = _Reroller(snapshots[0], deadline)
    # items[(i, j)] — bounded set of statement sequences covering [i, j)
    items: dict[tuple[int, int], list[ItemList]] = {}
    total_lists = 0
    try:
        for index in range(length):
            singleton = (action_to_statement(actions[index]),)
            items[(index, index + 1)] = _with_reroll(
                [singleton], reroller
            )
        for span_len in range(2, length + 1):
            for start in range(0, length - span_len + 1):
                end = start + span_len
                collected: list[ItemList] = []
                seen: set[tuple] = set()
                for split in range(start + 1, end):  # the Split rule
                    for left in items[(start, split)]:
                        for right in items[(split, end)]:
                            merged = left + right  # the Unsplit rule
                            key = tuple(canonical_statement(s) for s in merged)
                            if key not in seen:
                                seen.add(key)
                                collected.append(merged)
                    if time.perf_counter() > deadline:
                        raise _Timeout()
                collected.sort(key=len)
                collected = collected[:max_lists_per_span]
                items[(start, end)] = _with_reroll(collected, reroller)
                total_lists += len(items[(start, end)])
    except _Timeout:
        return BaselineResult(
            None, time.perf_counter() - started, True,
            spans=len(items), item_lists=total_lists,
        )
    candidates = items.get((0, length), [])
    if not candidates:
        return BaselineResult(
            None, time.perf_counter() - started, False,
            spans=len(items), item_lists=total_lists,
        )
    best = min(
        (Program(item_list) for item_list in candidates),
        key=lambda program: (len(program.statements), program_size(program)),
    )
    return BaselineResult(
        best, time.perf_counter() - started, False,
        spans=len(items), item_lists=total_lists,
    )


def _with_reroll(collected: list[ItemList], reroller: _Reroller) -> list[ItemList]:
    """Apply the Reroll rule to every item list; loops join the set."""
    result = list(collected)
    seen = {tuple(canonical_statement(s) for s in item_list) for item_list in result}
    for item_list in collected:
        if len(item_list) < 2:
            continue
        loop = reroller.reroll(item_list)
        if loop is not None:
            rolled = (loop,)
            key = (canonical_statement(loop),)
            if key not in seen:
                seen.add(key)
                result.insert(0, rolled)  # rolled forms sort first (len 1)
    return result
