"""Static refutation of speculated candidates (the pruning analysis).

Algorithm 3 accepts a speculative rewrite only if executing its
statement over the remaining DOM trace reproduces the recorded slice
*exactly* through at least one statement boundary beyond the
speculated first iteration.  That gives two conditions any successful
candidate must satisfy, both checkable without running the engine:

1. **Structural**: a boundary ``b >= end + 2`` must exist in the
   tuple's bounds — otherwise no matched slice can extend past the
   first iteration and validation always fails.
2. **Feasibility**: the first ``L = bounds[end + 2] - bounds[start]``
   recorded actions after the candidate's start must be a prefix of
   the statement's *emission language* — the set of action traces its
   execution can possibly produce.

The emission language is overapproximated by a small NFA over the
statement structure: an action statement is one transition, a
``foreach`` body is a cycle (iteration counts are abstracted to
``*``, a sound overapproximation of any bound), a while loop is a
``body · click`` cycle whose exit sits between body and click, and a
paginate loop is a ``body · click`` cycle whose click matches any
recorded ``Click`` (the counter is not tracked).  Halting can cut an
execution anywhere, so produced traces are *prefixes* of NFA paths —
the simulation below therefore only prefix-matches and never needs
accept states.

Per-position transition matching is exact where the statement is
concrete and wildcard where it mentions a loop variable:

* kinds must match; ``SendKeys`` text is compared literally;
* a concrete ``EnterData`` path must equal the recorded path *and*
  exist in the input data (otherwise the statement is stuck and the
  transition is dead);
* a concrete selector must resolve on the position's snapshot to the
  *same node* as the recorded action's selector (the engine's
  consistency notion), and must resolve at all (else stuck);
* variable-based selectors and paths match anything of the right
  shape — their bindings are unknown statically.

Because the NFA overapproximates emissions and matching overapproximates
consistency, a candidate whose simulation dies before consuming ``L``
reference symbols **cannot** validate: pruning it is sound, and the
synthesized programs stay byte-identical (the prune-parity tests and
``benchmarks/bench_static_prune.py`` pin this).

This is the hot-path half of the analysis layer: the canonical win is
a speculated loop body that kept a raw first-iteration selector (the
unchanged variant :mod:`repro.synth.speculate`'s assembly always
emits) — at iteration two it re-resolves to the iteration-one node
while the recording moved on, and the NFA dies within a body length
instead of costing an engine execution.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.dom.node import DOMNode
from repro.dom.xpath import ConcreteSelector, resolve
from repro.lang.actions import Action
from repro.lang.ast import (
    CLICK,
    ENTER_DATA,
    SEND_KEYS,
    ActionStmt,
    ForEachSelector,
    ForEachValue,
    PaginateLoop,
    Statement,
    WhileLoop,
)
from repro.lang.data import DataSource

#: Default cap on simulated reference positions: refutations that need
#: more lookahead than this are skipped (sound — the candidate just
#: proceeds to real validation).  Divergence from a stale selector
#: shows up within a body length, far below the cap.
SIMULATION_CAP = 16

#: Epsilon edge marker (loop back-edges and zero-iteration skips).
_EPS = None

#: Wildcard transition: matches any recorded Click (paginate controls).
_ANY_CLICK = "any-click"

#: Compiled NFA: per-state list of (label, successor) edges, where a
#: label is an ActionStmt to emission-match, _ANY_CLICK, or _EPS.
_Label = Union[ActionStmt, str, None]
_Edge = tuple[_Label, int]
_Transitions = list[list[_Edge]]


# ----------------------------------------------------------------------
# Compilation (context-free, memoized on the statement object)
# ----------------------------------------------------------------------
def _build(stmt: Statement, start: int, transitions: _Transitions) -> int:
    """Add ``stmt``'s emission shape starting at ``start``; return exit."""

    def new_state() -> int:
        transitions.append([])
        return len(transitions) - 1

    if isinstance(stmt, ActionStmt):
        end = new_state()
        transitions[start].append((stmt, end))
        return end
    if isinstance(stmt, (ForEachSelector, ForEachValue)):
        current = start
        for child in stmt.body:
            current = _build(child, current, transitions)
        # iteration boundary: back for another round; the loop exits
        # (and zero-iterates) at `start` itself
        transitions[current].append((_EPS, start))
        return start
    if isinstance(stmt, WhileLoop):
        current = start
        for child in stmt.body:
            current = _build(child, current, transitions)
        after_click = _build(stmt.click, current, transitions)
        transitions[after_click].append((_EPS, start))
        # the loop exits after a body run, before the click
        return current
    if isinstance(stmt, PaginateLoop):
        current = start
        for child in stmt.body:
            current = _build(child, current, transitions)
        # template or advance click: which button depends on the page
        # and the counter, so any recorded Click is allowed
        transitions[current].append((_ANY_CLICK, start))
        return current
    raise TypeError(f"not a statement: {stmt!r}")


def _compiled(stmt: Statement) -> _Transitions:
    """The statement's emission NFA, cached on the (frozen) statement.

    The structure is context-free — labels are the statement's own
    ``ActionStmt`` objects, matched against a concrete trace only at
    simulation time — so one compilation serves every window and every
    session that speculates this statement object.
    """
    cached: Optional[_Transitions] = stmt.__dict__.get("_emission_nfa")
    if cached is None:
        cached = [[]]
        _build(stmt, 0, cached)
        object.__setattr__(stmt, "_emission_nfa", cached)
    return cached


# ----------------------------------------------------------------------
# Simulation
# ----------------------------------------------------------------------
def _emission_matches(
    stmt: ActionStmt, action: Action, snapshot: DOMNode, data: DataSource
) -> bool:
    """Could executing ``stmt`` on ``snapshot`` emit something consistent
    with the recorded ``action``?  Wildcards where the statement is
    symbolic, exact everywhere else."""
    if stmt.kind != action.kind:
        return False
    if stmt.kind == SEND_KEYS and stmt.text != action.text:
        return False
    if stmt.kind == ENTER_DATA and stmt.value is not None and stmt.value.base is None:
        if stmt.value != action.path:
            return False
        if not data.contains(stmt.value):
            return False  # the statement is stuck: nothing is emitted
    target = stmt.target
    if target is not None and target.base is None:
        node = resolve(ConcreteSelector(target.steps), snapshot)
        if node is None:
            return False  # stuck: valid() fails, nothing is emitted
        recorded = (
            resolve(action.selector, snapshot)
            if action.selector is not None
            else None
        )
        if recorded is None or node is not recorded:
            return False
    return True


def _eps_closure(states: set[int], transitions: _Transitions) -> set[int]:
    closure = set(states)
    stack = list(states)
    while stack:
        state = stack.pop()
        for label, successor in transitions[state]:
            if label is _EPS and successor not in closure:
                closure.add(successor)
                stack.append(successor)
    return closure


def infeasible(
    stmt: Statement,
    actions: Sequence[Action],
    snapshots: Sequence[DOMNode],
    data: DataSource,
    start: int,
    min_count: int,
    cap: int = SIMULATION_CAP,
) -> bool:
    """Can ``stmt`` provably *not* emit ``min_count`` actions consistent
    with ``actions[start:]`` on their snapshots?

    True means every execution of ``stmt`` over the window diverges
    from (or halts before) the first ``min_count`` reference actions —
    Algorithm 3 must reject, so the candidate can be dropped unrun.
    False is the safe answer everywhere else (including past ``cap``).
    """
    if min_count <= 0:
        return False
    transitions = _compiled(stmt)
    limit = min(min_count, cap, len(actions) - start)
    states = _eps_closure({0}, transitions)
    memo: dict[tuple[int, int], bool] = {}
    for position in range(limit):
        action = actions[start + position]
        snapshot = snapshots[start + position]
        successors: set[int] = set()
        for state in states:
            for label, successor in transitions[state]:
                if label is None or successor in successors:
                    continue
                if isinstance(label, ActionStmt):
                    key = (id(label), position)
                    cached = memo.get(key)
                    if cached is None:
                        cached = _emission_matches(label, action, snapshot, data)
                        memo[key] = cached
                    matched = cached
                else:  # _ANY_CLICK
                    matched = action.kind == CLICK
                if matched:
                    successors.add(successor)
        if not successors:
            # the NFA died after `position` symbols < min_count: no
            # execution can reproduce the required slice
            return True
        states = _eps_closure(successors, transitions)
    return False
