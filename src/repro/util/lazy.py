"""Lazy package exports (PEP 562).

A package that re-exports names from its submodules binds them on first
access instead of importing every submodule up front::

    _EXPORTS = {"Synthesizer": "repro.synth.synthesizer", ...}
    __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

so importing one light submodule never loads its heavy siblings.
"""

from __future__ import annotations

from importlib import import_module


def lazy_exports(namespace: dict, exports: dict[str, str]):
    """The ``__getattr__``/``__dir__`` pair of a package whose public
    names (``exports``: name -> defining module) resolve on first use."""
    package = namespace["__name__"]

    def __getattr__(name: str):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module), name)
        namespace[name] = value  # later lookups skip this hook
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
