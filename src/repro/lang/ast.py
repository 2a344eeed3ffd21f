"""Abstract syntax of the web RPA language (Figure 6 of the paper).

A :class:`Program` is a sequence of statements.  Loop-free statements are
all represented by :class:`ActionStmt` with a ``kind`` drawn from
:data:`ACTION_KINDS`; the three loop forms get their own classes:

* :class:`ForEachSelector` — ``foreach ϱ in Children/Dscts(n, φ) do P``
* :class:`ForEachValue`    — ``foreach ϑ in ValuePaths(v) do P``
* :class:`WhileLoop`       — ``while true do { P ; Click(n) }``

Symbolic selectors (:class:`Selector`) extend concrete selectors with an
optional variable base ϱ; symbolic value paths (:class:`ValuePath`) extend
concrete data paths with an optional variable base ϑ.  Everything is a
frozen dataclass, hence hashable, which the synthesizer relies on for
worklist deduplication.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from repro.dom.xpath import CHILD, DESC, ConcreteSelector, Predicate, Step

# ----------------------------------------------------------------------
# Variables
# ----------------------------------------------------------------------
SEL_VAR = "sel"
VAL_VAR = "val"

_fresh_counter = itertools.count(1)


@dataclass(frozen=True)
class Var:
    """A loop variable: ϱ (``kind == SEL_VAR``) or ϑ (``kind == VAL_VAR``)."""

    kind: str
    uid: int

    def __str__(self) -> str:
        prefix = "r" if self.kind == SEL_VAR else "d"
        return f"{prefix}{self.uid}"


def fresh_var(kind: str) -> Var:
    """Allocate a globally fresh variable of the given kind."""
    return Var(kind, next(_fresh_counter))


# ----------------------------------------------------------------------
# Selectors and value paths
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Selector:
    """A symbolic selector ``n ::= ε | ϱ | n/φ[i] | n//φ[i]``.

    ``base is None`` encodes ε (the document); otherwise the selector is
    rooted at the node a loop variable is bound to.
    """

    base: Optional[Var] = None
    steps: tuple[Step, ...] = ()

    def __post_init__(self) -> None:
        if self.base is not None and self.base.kind != SEL_VAR:
            raise ValueError("selector base must be a selector variable")

    @property
    def is_concrete(self) -> bool:
        """True when the selector mentions no variable."""
        return self.base is None

    def __str__(self) -> str:
        prefix = str(self.base) if self.base is not None else ""
        suffix = "".join(str(step) for step in self.steps)
        if not prefix and not suffix:
            return "/"
        return prefix + suffix


def selector_of(concrete: ConcreteSelector) -> Selector:
    """Lift a concrete selector into the symbolic syntax."""
    return Selector(None, concrete.steps)


@dataclass(frozen=True)
class ValuePath:
    """A symbolic value path ``v ::= x | ϑ | v[key] | v[i]``.

    ``base is None`` encodes the input variable ``x``; accessors are string
    keys or 1-based integer indices.  A value path with ``base is None`` is
    also a *concrete* value path θ as used inside actions.
    """

    base: Optional[Var] = None
    accessors: tuple[Union[str, int], ...] = ()

    def __post_init__(self) -> None:
        if self.base is not None and self.base.kind != VAL_VAR:
            raise ValueError("value path base must be a value variable")

    @property
    def is_concrete(self) -> bool:
        """True when the path is rooted at ``x`` rather than a variable."""
        return self.base is None

    def extend(self, accessor: Union[str, int]) -> "ValuePath":
        """Append one accessor."""
        return ValuePath(self.base, self.accessors + (accessor,))

    def __str__(self) -> str:
        prefix = str(self.base) if self.base is not None else "x"
        parts = []
        for accessor in self.accessors:
            if isinstance(accessor, int):
                parts.append(f"[{accessor}]")
            else:
                parts.append(f'["{accessor}"]')
        return prefix + "".join(parts)


#: The bare input value path ``x``.
X = ValuePath(None, ())


# ----------------------------------------------------------------------
# Collections (N and V in Figure 6)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChildrenOf:
    """``Children(n, φ)``: the matching children of ``n`` in order."""

    base: Selector
    pred: Predicate

    def __str__(self) -> str:
        return f"Children({self.base}, {self.pred})"


@dataclass(frozen=True)
class DescendantsOf:
    """``Dscts(n, φ)``: the matching descendants of ``n`` in doc order."""

    base: Selector
    pred: Predicate

    def __str__(self) -> str:
        return f"Dscts({self.base}, {self.pred})"


@dataclass(frozen=True)
class ValuePathsOf:
    """``ValuePaths(v)``: one path per element of the array ``v`` denotes."""

    path: ValuePath

    def __str__(self) -> str:
        return f"ValuePaths({self.path})"


SelectorCollection = Union[ChildrenOf, DescendantsOf]


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
CLICK = "Click"
SCRAPE_TEXT = "ScrapeText"
SCRAPE_LINK = "ScrapeLink"
DOWNLOAD = "Download"
GO_BACK = "GoBack"
EXTRACT_URL = "ExtractURL"
SEND_KEYS = "SendKeys"
ENTER_DATA = "EnterData"

#: Loop-free statement kinds, with the argument shape of each.
ACTION_KINDS = {
    CLICK: "node",
    SCRAPE_TEXT: "node",
    SCRAPE_LINK: "node",
    DOWNLOAD: "node",
    GO_BACK: "none",
    EXTRACT_URL: "none",
    SEND_KEYS: "node+text",
    ENTER_DATA: "node+value",
}


@dataclass(frozen=True)
class ActionStmt:
    """A loop-free statement: one browser/data interaction.

    ``target`` is present for all node-addressing kinds, ``text`` only for
    ``SendKeys`` and ``value`` only for ``EnterData``.
    """

    kind: str
    target: Optional[Selector] = None
    text: Optional[str] = None
    value: Optional[ValuePath] = None

    def __post_init__(self) -> None:
        shape = ACTION_KINDS.get(self.kind)
        if shape is None:
            raise ValueError(f"unknown action kind {self.kind!r}")
        if shape == "none" and self.target is not None:
            raise ValueError(f"{self.kind} takes no selector")
        if shape != "none" and self.target is None:
            raise ValueError(f"{self.kind} requires a selector")
        if (self.text is not None) != (shape == "node+text"):
            raise ValueError(f"bad text argument for {self.kind}")
        if (self.value is not None) != (shape == "node+value"):
            raise ValueError(f"bad value argument for {self.kind}")

    def __str__(self) -> str:
        if self.kind in (GO_BACK, EXTRACT_URL):
            return self.kind
        if self.kind == SEND_KEYS:
            return f'{self.kind}({self.target}, "{self.text}")'
        if self.kind == ENTER_DATA:
            return f"{self.kind}({self.target}, {self.value})"
        return f"{self.kind}({self.target})"


@dataclass(frozen=True)
class ForEachSelector:
    """``foreach ϱ in N do P`` over a selector collection."""

    var: Var
    collection: SelectorCollection
    body: tuple["Statement", ...]

    def __post_init__(self) -> None:
        if self.var.kind != SEL_VAR:
            raise ValueError("selector loop variable must have kind SEL_VAR")
        if not self.body:
            raise ValueError("loop body must be non-empty")


@dataclass(frozen=True)
class ForEachValue:
    """``foreach ϑ in ValuePaths(v) do P`` over input-data paths."""

    var: Var
    collection: ValuePathsOf
    body: tuple["Statement", ...]

    def __post_init__(self) -> None:
        if self.var.kind != VAL_VAR:
            raise ValueError("value loop variable must have kind VAL_VAR")
        if not self.body:
            raise ValueError("loop body must be non-empty")


@dataclass(frozen=True)
class WhileLoop:
    """``while true do { P ; Click(n) }`` — click-terminated pagination."""

    body: tuple["Statement", ...]
    click: ActionStmt

    def __post_init__(self) -> None:
        if self.click.kind != CLICK:
            raise ValueError("while loops terminate with a Click statement")


@dataclass(frozen=True)
class CounterTemplate:
    """A concrete selector with an integer hole in one attribute value.

    ``instantiate(k)`` produces the selector whose hole step carries the
    predicate ``tag[@attr='{value_prefix}{k}{value_suffix}']``.  This is
    the selector family of numbered pagination controls: page-number
    buttons differing only in a counter-bearing attribute
    (``data-page='2'`` / ``data-page='3'``, ``href='?page=4'``, ...).

    Part of the numbered-pagination extension (beyond the paper — §7.1
    names this mechanism as unsupported).
    """

    prefix_steps: tuple[Step, ...]
    axis: str
    tag: str
    attr: str
    value_prefix: str
    value_suffix: str
    index: int = 1
    suffix_steps: tuple[Step, ...] = ()

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("template step indices are 1-based")

    def instantiate(self, counter: int) -> ConcreteSelector:
        """The concrete selector addressing page-control ``counter``."""
        if self.axis not in (CHILD, DESC):
            raise ValueError(f"unknown axis {self.axis!r}")
        value = f"{self.value_prefix}{counter}{self.value_suffix}"
        hole = Step(self.axis, Predicate(self.tag, self.attr, value), self.index)
        return ConcreteSelector(self.prefix_steps + (hole,) + self.suffix_steps)

    def hole_text(self, marker: str = "{k}") -> str:
        """The template rendered with ``marker`` in the hole."""
        value = f"{self.value_prefix}{marker}{self.value_suffix}"
        hole = Step(self.axis, Predicate(self.tag, self.attr, value), self.index)
        steps = self.prefix_steps + (hole,) + self.suffix_steps
        return "".join(str(step) for step in steps)

    def __str__(self) -> str:
        return self.hole_text()


@dataclass(frozen=True)
class PaginateLoop:
    """Numbered pagination (extension): counter-templated page clicks.

    Executes ``body`` once per page.  After each round, the counter κ
    (starting at ``start``) addresses the next page control through
    ``template``: if ``template(κ)`` denotes a node it is clicked;
    otherwise the optional ``advance`` control (a "next block of pages"
    button) is clicked when present — landing on page κ, so the counter
    keeps advancing uniformly; when neither resolves, the loop ends.

    This covers the paper's b9 failure case (timesjobs-style numbered
    pagers with a "next 10 pages" button), which no click-terminated
    while loop can express: advancing one page means clicking a
    *different* button every iteration.
    """

    body: tuple["Statement", ...]
    template: CounterTemplate
    advance: Optional[Selector] = None
    start: int = 2

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError("paginate body must be non-empty")
        if self.advance is not None and self.advance.base is not None:
            raise ValueError("paginate advance selector must be concrete")
        if self.start < 0:
            raise ValueError("paginate counter must start at a non-negative page")


Statement = Union[ActionStmt, ForEachSelector, ForEachValue, WhileLoop, PaginateLoop]


@dataclass(frozen=True)
class Program:
    """A web RPA program: a statement sequence."""

    statements: tuple[Statement, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.statements)

    def __iter__(self) -> Iterator[Statement]:
        return iter(self.statements)


# ----------------------------------------------------------------------
# Size and alpha-equivalence
# ----------------------------------------------------------------------
def selector_size(selector: Selector) -> int:
    """AST size of a symbolic selector (base + steps)."""
    return 1 + len(selector.steps)


def statement_size(stmt: Statement) -> int:
    """AST node count of one statement (used by the smallest-program rank)."""
    if isinstance(stmt, ActionStmt):
        size = 1
        if stmt.target is not None:
            size += selector_size(stmt.target)
        if stmt.value is not None:
            size += 1 + len(stmt.value.accessors)
        if stmt.text is not None:
            size += 1
        return size
    if isinstance(stmt, ForEachSelector):
        return 2 + selector_size(stmt.collection.base) + sum(
            statement_size(child) for child in stmt.body
        )
    if isinstance(stmt, ForEachValue):
        return 2 + len(stmt.collection.path.accessors) + sum(
            statement_size(child) for child in stmt.body
        )
    if isinstance(stmt, WhileLoop):
        return 1 + statement_size(stmt.click) + sum(
            statement_size(child) for child in stmt.body
        )
    if isinstance(stmt, PaginateLoop):
        template_size = 2 + len(stmt.template.prefix_steps) + len(stmt.template.suffix_steps)
        advance_size = 0 if stmt.advance is None else selector_size(stmt.advance)
        return (
            1
            + template_size
            + advance_size
            + sum(statement_size(child) for child in stmt.body)
        )
    raise TypeError(f"not a statement: {stmt!r}")


def program_size(program: Program) -> int:
    """Total AST node count of a program."""
    return sum(statement_size(stmt) for stmt in program.statements)


def statement_depth(stmt: Statement) -> int:
    """Loop-nesting depth of one statement (0 for loop-free)."""
    if isinstance(stmt, (ForEachSelector, ForEachValue, WhileLoop, PaginateLoop)):
        return 1 + max((statement_depth(child) for child in stmt.body), default=0)
    return 0


def program_depth(program: Program) -> int:
    """Maximum loop-nesting depth across a program's statements."""
    return max((statement_depth(stmt) for stmt in program.statements), default=0)


def _canon_var(var: Var, names: dict[Var, int]) -> tuple:
    """Bound variables get de Bruijn-style numbers; free ones keep their uid."""
    if var in names:
        return ("var", names[var])
    return ("free", var.kind, var.uid)


def _canon_selector(selector: Selector, names: dict[Var, int]) -> tuple:
    base = _canon_var(selector.base, names) if selector.base is not None else ("eps",)
    return (base, selector.steps)


def _canon_path(path: ValuePath, names: dict[Var, int]) -> tuple:
    base = _canon_var(path.base, names) if path.base is not None else ("x",)
    return (base, path.accessors)


def _canon_stmt(stmt: Statement, names: dict[Var, int]) -> tuple[object, ...]:
    if isinstance(stmt, ActionStmt):
        return (
            stmt.kind,
            _canon_selector(stmt.target, names) if stmt.target else None,
            stmt.text,
            _canon_path(stmt.value, names) if stmt.value else None,
        )
    if isinstance(stmt, ForEachSelector):
        inner = dict(names)
        inner[stmt.var] = len(names)
        coll_tag = "children" if isinstance(stmt.collection, ChildrenOf) else "dscts"
        return (
            "foreach-sel",
            coll_tag,
            _canon_selector(stmt.collection.base, names),
            stmt.collection.pred,
            tuple(_canon_stmt(child, inner) for child in stmt.body),
        )
    if isinstance(stmt, ForEachValue):
        inner = dict(names)
        inner[stmt.var] = len(names)
        return (
            "foreach-val",
            _canon_path(stmt.collection.path, names),
            tuple(_canon_stmt(child, inner) for child in stmt.body),
        )
    if isinstance(stmt, WhileLoop):
        return (
            "while",
            tuple(_canon_stmt(child, names) for child in stmt.body),
            _canon_stmt(stmt.click, names),
        )
    if isinstance(stmt, PaginateLoop):
        return (
            "paginate",
            stmt.template,
            _canon_selector(stmt.advance, names) if stmt.advance is not None else None,
            stmt.start,
            tuple(_canon_stmt(child, names) for child in stmt.body),
        )
    raise TypeError(f"not a statement: {stmt!r}")


def canonical_statement(stmt: Statement) -> tuple[object, ...]:
    """A hashable key identifying ``stmt`` up to bound-variable renaming.

    The key is cached on the statement object itself: statements are
    frozen (hence immutable) dataclasses, so the digest can never go
    stale, and the synthesizer re-canonicalizes the same shared
    statement objects constantly — worklist dedup keys, speculation
    dedup, ranking ties — making this the cheapest possible memo: no
    table, no eviction, no pinning.
    """
    cached: Optional[tuple[object, ...]] = stmt.__dict__.get("_canonical")
    if cached is None:
        cached = _canon_stmt(stmt, {})
        object.__setattr__(stmt, "_canonical", cached)
    return cached


def statement_binders(stmt: Statement) -> tuple[Var, ...]:
    """The loop variables ``stmt`` binds, in pre-order (outer loops and
    earlier siblings first).  Cached on each loop statement object, like
    :func:`canonical_statement`, so shared sub-statements are walked
    once."""
    if isinstance(stmt, ActionStmt):
        return ()
    cached: Optional[tuple[Var, ...]] = stmt.__dict__.get("_binders")
    if cached is None:
        cached = (stmt.var,) if isinstance(stmt, (ForEachSelector, ForEachValue)) else ()
        for child in stmt.body:
            cached += statement_binders(child)
        object.__setattr__(stmt, "_binders", cached)
    return cached


def canonical_program(program: Program) -> tuple[tuple[object, ...], ...]:
    """A hashable key identifying ``program`` up to alpha-equivalence."""
    return tuple(canonical_statement(stmt) for stmt in program.statements)


def alpha_equivalent(a: Statement, b: Statement) -> bool:
    """Alpha-equivalence of statements (Figure 10 rule (2) side condition)."""
    return canonical_statement(a) == canonical_statement(b)


def alpha_equivalent_bodies(
    body_a: tuple[Statement, ...],
    var_a: Var,
    body_b: tuple[Statement, ...],
    var_b: Var,
) -> bool:
    """Alpha-equivalence of two loop bodies relative to their loop variables.

    Used by the anti-unification rule for nested selector loops, where the
    bodies mention *different* loop variables that must correspond.
    """
    if len(body_a) != len(body_b):
        return False
    names_a: dict[Var, int] = {var_a: 0}
    names_b: dict[Var, int] = {var_b: 0}
    return all(
        _canon_stmt(sa, names_a) == _canon_stmt(sb, names_b)
        for sa, sb in zip(body_a, body_b)
    )
