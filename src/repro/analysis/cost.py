"""Symbolic cost intervals: how many actions can a replay emit?

The abstract domain is an interval ``[lo, hi]`` over emitted-action
counts, with ``hi is None`` encoding an unbounded maximum.  Intervals
compose by summation over statement sequences and by scaling over
loops whose iteration count is statically known (a ``foreach`` over a
concrete value path of a known :class:`~repro.lang.data.DataSource`
runs exactly once per array element).

Soundness (pinned by the property tests) is asymmetric, mirroring the
trace semantics' halting behaviour:

* the **upper bound** holds for *every* run — halting mid-statement
  only ever shortens the emission (produced traces are prefixes);
* the **lower bound** holds for *complete* runs — a replay that went
  stuck (a selector or value path stopped resolving) may emit fewer.

Selector loops and the unbounded pagination forms get ``[0, ∞)`` /
``[body_lo, ∞)``: how many nodes match — or how many pages exist — is
a property of the page, not the program.  The interval still tells
the user how predictable a replay is: a tighter, cheaper interval
means fewer surprises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.lang.ast import (
    ActionStmt,
    ForEachSelector,
    ForEachValue,
    PaginateLoop,
    Program,
    Statement,
    WhileLoop,
)
from repro.lang.data import DataPathError, DataSource


@dataclass(frozen=True)
class CostInterval:
    """An interval of emitted-action counts; ``hi is None`` = unbounded."""

    lo: int
    hi: Optional[int]

    def add(self, other: "CostInterval") -> "CostInterval":
        """Sequential composition: sums, unbounded absorbing."""
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return CostInterval(self.lo + other.lo, hi)

    def scale(self, count: int) -> "CostInterval":
        """Exactly ``count`` repetitions of this interval."""
        hi = None if self.hi is None else self.hi * count
        return CostInterval(self.lo * count, hi)

    def contains(self, count: int) -> bool:
        """Is a measured action count inside the interval?"""
        return count >= self.lo and (self.hi is None or count <= self.hi)

    @property
    def bounded(self) -> bool:
        """Whether the maximum is finite."""
        return self.hi is not None

    def __str__(self) -> str:
        upper = "inf)" if self.hi is None else f"{self.hi}]"
        return f"[{self.lo}, {upper}"


#: The empty program's cost.
ZERO = CostInterval(0, 0)


def _loop_upper(body: CostInterval) -> Optional[int]:
    """Unbounded iterations of ``body``: 0 if the body emits nothing."""
    return 0 if body.hi == 0 else None


def statement_cost(stmt: Statement, data: Optional[DataSource] = None) -> CostInterval:
    """The cost interval of one statement.

    ``data`` sharpens value loops over concrete paths to an exact
    iteration count; without it (or for paths rooted at an enclosing
    loop variable) the loop is unbounded above and zero below.
    """
    if isinstance(stmt, ActionStmt):
        return CostInterval(1, 1)
    if isinstance(stmt, ForEachSelector):
        body = _body_cost(stmt.body, data)
        return CostInterval(0, _loop_upper(body))
    if isinstance(stmt, ForEachValue):
        body = _body_cost(stmt.body, data)
        path = stmt.collection.path
        if data is not None and path.base is None:
            try:
                count = len(data.value_paths(path))
            except DataPathError:
                # the evaluator skips the loop when the path is not an
                # array: zero iterations, zero actions
                return ZERO
            return body.scale(count)
        return CostInterval(0, _loop_upper(body))
    if isinstance(stmt, WhileLoop):
        # at least one full body run before the exit check; each further
        # iteration adds a click, so the maximum is page-dependent
        body = _body_cost(stmt.body, data)
        return CostInterval(body.lo, None)
    if isinstance(stmt, PaginateLoop):
        body = _body_cost(stmt.body, data)
        return CostInterval(body.lo, None)
    raise TypeError(f"not a statement: {stmt!r}")


def _body_cost(body: tuple[Statement, ...], data: Optional[DataSource]) -> CostInterval:
    cost = ZERO
    for stmt in body:
        cost = cost.add(statement_cost(stmt, data))
    return cost


def program_cost(program: Program, data: Optional[DataSource] = None) -> CostInterval:
    """The cost interval of a whole program."""
    return _body_cost(program.statements, data)
