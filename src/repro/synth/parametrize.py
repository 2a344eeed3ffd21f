"""Parametrization of statements against a loop-variable binding (Figure 11).

Once anti-unification has fixed the loop variable ϱ (or ϑ) and its
first-iteration binding, the *other* statements of the conjectured first
iteration must be rewritten to mention the variable where appropriate:

* rule (1)/(3): a statement may stay as-is (it may simply not use ϱ);
* rule (2): a node action whose target lies under the binding's node gets
  targets of the form ``ϱ/suffix`` (via alternative selectors);
* rules (4)-(6): a nested selector loop gets its collection base rewritten
  the same way;
* the value analogues rewrite ``EnterData`` paths and nested value-loop
  collections that extend the binding's accessor prefix.

Parametrized variants are returned *before* the unchanged statement: the
speculation step truncates the Cartesian product of variants, and variants
that do use the loop variable are far more likely to validate.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.dom.node import DOMNode
from repro.dom.xpath import ConcreteSelector, resolve
from repro.lang.ast import (
    SEL_VAR,
    ActionStmt,
    ForEachSelector,
    ForEachValue,
    PaginateLoop,
    Selector,
    Statement,
    ValuePath,
    ValuePathsOf,
    Var,
    WhileLoop,
)
from repro.synth.alternatives import SelectorSearch, relative_step_candidates
from repro.synth.config import SynthesisConfig

Binding = Union[ConcreteSelector, ValuePath]

#: Cap on parametrized variants per non-pivot statement (the unchanged
#: statement is always among them).
MAX_PARAMETRIZE_VARIANTS = 4


def parametrize_statement(
    stmt: Statement,
    var: Var,
    first_binding: Binding,
    dom: DOMNode,
    config: SynthesisConfig,
    search: Optional[SelectorSearch] = None,
) -> list[Statement]:
    """All parametrizations of ``stmt`` under ``var ↦ first_binding``.

    ``dom`` is the snapshot the statement's first action executed on — the
    alternative-selector search runs against it.  The result always ends
    with the unchanged statement (rule (1)) and is capped at
    :data:`MAX_PARAMETRIZE_VARIANTS` entries.
    """
    if search is None:
        search = SelectorSearch.for_config(config)
    if var.kind == SEL_VAR:
        assert isinstance(first_binding, ConcreteSelector)
        variants = _parametrize_selector(stmt, var, first_binding, dom, config, search)
    else:
        assert isinstance(first_binding, ValuePath)
        variants = _parametrize_value(stmt, var, first_binding)
    variants = variants[: MAX_PARAMETRIZE_VARIANTS - 1]
    variants.append(stmt)
    return variants


# ----------------------------------------------------------------------
# Selector-variable case (Figure 11 as printed)
# ----------------------------------------------------------------------
def _suffixes_under(
    binding: ConcreteSelector,
    target: ConcreteSelector,
    dom: DOMNode,
    search: SelectorSearch,
) -> list[tuple]:
    """Step sequences ``suffix`` with ``binding/suffix`` ≡ ``target`` on dom."""
    base_node = resolve(binding, dom)
    if base_node is None:
        return []
    target_node = resolve(target, dom)
    if target_node is None:
        return []
    if base_node is not target_node and not base_node.is_ancestor_of(target_node):
        return []
    return search.relative(base_node, target_node)


def _parametrize_selector(
    stmt: Statement,
    var: Var,
    binding: ConcreteSelector,
    dom: DOMNode,
    config: SynthesisConfig,
    search: SelectorSearch,
) -> list[Statement]:
    if isinstance(stmt, ActionStmt):
        if stmt.target is None or not stmt.target.is_concrete:
            return []
        target = ConcreteSelector(stmt.target.steps)
        return [
            ActionStmt(stmt.kind, Selector(var, suffix), stmt.text, stmt.value)
            for suffix in _suffixes_under(binding, target, dom, search)
        ]
    if isinstance(stmt, ForEachSelector):
        base = stmt.collection.base
        if not base.is_concrete:
            return []
        collection_type = type(stmt.collection)
        return [
            ForEachSelector(
                stmt.var,
                collection_type(Selector(var, suffix), stmt.collection.pred),
                stmt.body,
            )
            for suffix in _suffixes_under(
                binding, ConcreteSelector(base.steps), dom, search
            )
        ]
    # Value loops, while loops and paginate loops inside a selector loop
    # keep their (page-independent or concrete) form; rule (1) covers them.
    if isinstance(stmt, (ForEachValue, WhileLoop, PaginateLoop)):
        return []
    raise TypeError(f"not a statement: {stmt!r}")


# ----------------------------------------------------------------------
# Value-variable case (the EnterData analogues of Figure 11)
# ----------------------------------------------------------------------
def _parametrize_value(
    stmt: Statement,
    var: Var,
    binding: ValuePath,
) -> list[Statement]:
    prefix = binding.accessors
    if isinstance(stmt, ActionStmt):
        value = stmt.value
        if value is None or not value.is_concrete:
            return []
        if value.accessors[: len(prefix)] != prefix:
            return []
        rest = value.accessors[len(prefix):]
        return [
            ActionStmt(stmt.kind, stmt.target, stmt.text, ValuePath(var, rest))
        ]
    if isinstance(stmt, ForEachValue):
        path = stmt.collection.path
        if not path.is_concrete or path.accessors[: len(prefix)] != prefix:
            return []
        rest = path.accessors[len(prefix):]
        return [
            ForEachValue(stmt.var, ValuePathsOf(ValuePath(var, rest)), stmt.body)
        ]
    if isinstance(stmt, (ForEachSelector, WhileLoop, PaginateLoop)):
        return []
    raise TypeError(f"not a statement: {stmt!r}")
