"""Statement shapes: the pivot gate of span enumeration (optimization).

Algorithm 2 enumerates every span ``(i, p, j, q)`` of a tuple's program
and anti-unifies each pivot pair — but most pairs cannot anti-unify at
all (a Click never unifies with a ScrapeText; a loop never unifies with
an action).  That fact is visible in a cheap abstraction of the
statement list: its *shape sequence*.

:func:`statement_shape` maps a statement to a hashable key such that
shape inequality implies :func:`~repro.synth.anti_unify.
anti_unify_statements` returns nothing (the key captures exactly the
non-selector conditions the rules require: action kinds and constant
arguments, loop collection type and predicate, body kind trees).
Speculation skips anti-unification whenever the pivot pair's shapes
differ.  This is behaviour-preserving — it precomputes a necessary
condition of the rules — so the gate is unconditional.
"""

from __future__ import annotations

from typing import Sequence

from repro.lang.ast import (
    ActionStmt,
    ForEachSelector,
    ForEachValue,
    PaginateLoop,
    Statement,
    WhileLoop,
)

Shape = tuple


def statement_shape(stmt: Statement) -> Shape:
    """A hashable key whose inequality refutes anti-unifiability.

    Soundness contract (checked by the tests): for any two statements
    ``a``, ``b`` and any snapshots, ``statement_shape(a) !=
    statement_shape(b)`` implies ``anti_unify_statements(a, …, b, …) ==
    []``.  The key therefore contains only what the Figure 10 rules
    require to *agree* between iterations — never the selectors, which
    are exactly what varies.
    """
    if isinstance(stmt, ActionStmt):
        # rule (1)/(3): same kind, same constant text, value pivots only
        # between concrete paths of equal accessor length
        value_key = None
        if stmt.value is not None:
            value_key = (stmt.value.base is None, len(stmt.value.accessors))
        return ("a", stmt.kind, stmt.text, value_key)
    if isinstance(stmt, ForEachSelector):
        # rule (2): same collection type and predicate, alpha-equivalent
        # bodies (body kind trees are a necessary condition)
        return (
            "fs",
            type(stmt.collection).__name__,
            stmt.collection.pred,
            _body_shape(stmt.body),
        )
    if isinstance(stmt, ForEachValue):
        return ("fv", len(stmt.collection.path.accessors), _body_shape(stmt.body))
    if isinstance(stmt, WhileLoop):
        # no rule lifts while loops; the shape still distinguishes them
        # from everything else so the gate never mixes categories
        return ("w", _body_shape(stmt.body), statement_shape(stmt.click))
    if isinstance(stmt, PaginateLoop):
        return ("pg", _body_shape(stmt.body))
    raise TypeError(f"not a statement: {stmt!r}")


def _body_shape(body: tuple[Statement, ...]) -> Shape:
    return tuple(statement_shape(child) for child in body)


def shape_sequence(statements: Sequence[Statement]) -> list[Shape]:
    """The shape of every statement, in order (one tuple-program pass)."""
    return [statement_shape(stmt) for stmt in statements]

