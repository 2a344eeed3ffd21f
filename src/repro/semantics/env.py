"""Evaluation environments (Σ in the paper's judgments).

An environment maps selector variables ϱ to concrete selectors and
value-path variables ϑ to concrete value paths.  Environments are
persistent: binding returns a new environment, which matches how the
inference rules thread Σ.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.dom.xpath import ConcreteSelector
from repro.lang.ast import SEL_VAR, VAL_VAR, Selector, ValuePath, Var
from repro.util.errors import ReproError

Binding = Union[ConcreteSelector, ValuePath]


class Env:
    """An immutable variable environment."""

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Optional[dict[Var, Binding]] = None) -> None:
        self._bindings: dict[Var, Binding] = dict(bindings) if bindings else {}

    @staticmethod
    def empty() -> "Env":
        """The environment with no bindings."""
        return _EMPTY

    def bind(self, var: Var, value: Binding) -> "Env":
        """Return a new environment with ``var`` bound to ``value``."""
        if var.kind == SEL_VAR and not isinstance(value, ConcreteSelector):
            raise ReproError(f"selector variable {var} bound to {value!r}")
        if var.kind == VAL_VAR:
            if not isinstance(value, ValuePath) or not value.is_concrete:
                raise ReproError(f"value variable {var} bound to {value!r}")
        updated = dict(self._bindings)
        updated[var] = value
        return Env(updated)

    def lookup(self, var: Var) -> Binding:
        """The binding of ``var``; raises if unbound."""
        try:
            return self._bindings[var]
        except KeyError as exc:
            raise ReproError(f"unbound variable {var}") from exc

    def __contains__(self, var: Var) -> bool:
        return var in self._bindings

    def __len__(self) -> int:
        return len(self._bindings)

    def items(self):
        """The ``(variable, binding)`` pairs."""
        return self._bindings.items()

    def fingerprint(self) -> tuple:
        """A hashable value identity of the bindings.

        Two environments with equal fingerprints make every program
        execute identically; the execution engine uses this as its cache
        key component for Σ.
        """
        return tuple(
            sorted(
                self._bindings.items(),
                key=lambda item: (item[0].kind, item[0].uid),
            )
        )

    # ------------------------------------------------------------------
    # Substitution (Figure 8 rules (1)-(8))
    # ------------------------------------------------------------------
    def resolve_selector(self, selector: Selector) -> ConcreteSelector:
        """Evaluate a symbolic selector to a concrete one (rules (1)-(4))."""
        if selector.base is None:
            return ConcreteSelector(selector.steps)
        bound = self.lookup(selector.base)
        assert isinstance(bound, ConcreteSelector)
        return bound.concat(selector.steps)

    def resolve_path(self, path: ValuePath) -> ValuePath:
        """Evaluate a symbolic value path to a concrete one (rules (5)-(8))."""
        if path.base is None:
            return path
        bound = self.lookup(path.base)
        assert isinstance(bound, ValuePath)
        return ValuePath(None, bound.accessors + path.accessors)


_EMPTY = Env()
