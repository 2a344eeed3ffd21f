"""Payload rows: the persistent form of execution-cache entries.

A backend (:mod:`repro.service.backends`) keeps rows addressed by
``(kind, digest)``; :class:`~repro.engine.cache.ExecutionCache` is the
one place that turns entries into rows (:func:`entry_to_payload`) and
rows back into entries (:func:`decode_entry`).  Rows are
codec-ready values — lists, dicts, strings, ints, bools and ``None`` —
so any store codec (:mod:`repro.protocol.codec`) can carry them, and
the fleet cache server relays them without decoding.

Row schema: an execution entry is ``{"a": [action, ...], "e": env}``,
plus ``"x"`` (the examined window prefix) on terminal entries and
``"ok": true`` when ``exact_budget_ok`` holds; an action is
``[kind, selector steps, text, value path]`` and a step the six-field
row of :meth:`StepInterner.step_to_row`.  Only executions become
rows: a consistency check costs microseconds to recompute, so its memo
stays in the process (kind 2, which earlier builds wrote for it, is
never read again).
"""

from __future__ import annotations

from typing import Optional

from repro.dom.xpath import CHILD, DESC, ConcreteSelector, Predicate, Step, TokenPredicate
from repro.lang.actions import Action
from repro.lang.ast import SEL_VAR, ValuePath, Var
from repro.semantics.env import Env
from repro.util.rowkinds import EXACT, TERMINAL  # noqa: F401 - re-exported


# ----------------------------------------------------------------------
# Payload conversion (exact structural values — no string round-trips)
# ----------------------------------------------------------------------
class StepInterner:
    """Payload rows for :class:`Step` objects, and a bounded memo back.

    Encode side: :meth:`step_to_row` builds a step's six-field row.
    Decode side: maps rows back to interned :class:`Step` objects,
    skipping Predicate/Step re-construction — restored selectors repeat
    the same few steps thousands of times (every card of a list page
    shares most of its raw path).

    The decode memo is bounded as an LRU (hits migrate to the back once
    the table passes half capacity; the oldest entry drops when full),
    owned per :class:`~repro.engine.cache.ExecutionCache`, so one
    cache's traffic can never flush another's hot steps mid-decode.
    Losing an entry only costs reconstruction.
    """

    __slots__ = ("capacity", "_steps")

    def __init__(self, capacity: int = 1 << 15) -> None:
        self.capacity = capacity
        self._steps: dict[tuple, Step] = {}

    @staticmethod
    def step_to_row(step: Step) -> list:
        pred = step.pred
        return [
            step.axis == DESC,
            pred.tag,
            pred.attr,
            pred.value,
            type(pred) is TokenPredicate,
            step.index,
        ]

    def row_to_step(self, row: list) -> Step:
        key = tuple(row)
        steps = self._steps
        step = steps.get(key)
        if step is None:
            desc, tag, attr, value, token, index = key
            pred_type = TokenPredicate if token else Predicate
            step = Step(DESC if desc else CHILD, pred_type(tag, attr, value), index)
            if len(steps) >= self.capacity:
                del steps[next(iter(steps))]
            steps[key] = step
        elif len(steps) > (self.capacity >> 1):
            steps[key] = steps.pop(key)
        return step


#: Fallback interner behind the module-level conversion functions
#: (tests and tools call them without a cache).  Each cache owns its
#: own instance.
_DEFAULT_INTERNER = StepInterner()


def _steps_to_payload(steps: tuple[Step, ...]) -> list:
    row = StepInterner.step_to_row
    return [row(step) for step in steps]


def _steps_from_payload(payload: list, interner: StepInterner) -> tuple[Step, ...]:
    step = interner.row_to_step
    return tuple(step(item) for item in payload)


def action_to_payload(action: Action) -> list:
    """One action as a codec-ready value (structural, lossless)."""
    selector = (
        None if action.selector is None else _steps_to_payload(action.selector.steps)
    )
    path = None if action.path is None else list(action.path.accessors)
    return [action.kind, selector, action.text, path]


def action_from_payload(
    payload: list, interner: Optional[StepInterner] = None
) -> Action:
    """Rebuild an action from :func:`action_to_payload` output."""
    interner = interner or _DEFAULT_INTERNER
    kind, selector, text, path = payload
    return Action(
        kind,
        None
        if selector is None
        else ConcreteSelector(_steps_from_payload(selector, interner)),
        text,
        None if path is None else ValuePath(None, tuple(path)),
    )


def env_to_payload(env: Optional[Env]) -> Optional[list]:
    """An environment's bindings as a codec-ready value."""
    if env is None:
        return None
    bindings = []
    for var, binding in env.fingerprint():
        if isinstance(binding, ConcreteSelector):
            bindings.append(
                [var.kind, var.uid, _steps_to_payload(binding.steps)]
            )
        else:  # a concrete ValuePath
            bindings.append([var.kind, var.uid, list(binding.accessors)])
    return bindings


def env_from_payload(
    payload: Optional[list], interner: Optional[StepInterner] = None
) -> Optional[Env]:
    """Rebuild an environment from :func:`env_to_payload` output."""
    if payload is None:
        return None
    interner = interner or _DEFAULT_INTERNER
    bindings = {}
    for kind, uid, value in payload:
        var = Var(kind, uid)
        if kind == SEL_VAR:
            bindings[var] = ConcreteSelector(_steps_from_payload(value, interner))
        else:
            bindings[var] = ValuePath(None, tuple(value))
    return Env(bindings)


def entry_to_payload(
    actions: tuple,
    env: Env,
    examined: Optional[tuple[int, ...]],
    exact_budget_ok: bool,
) -> dict:
    """An execution-cache entry as a codec-ready dict."""
    payload: dict = {
        "a": [action_to_payload(action) for action in actions],
        "e": env_to_payload(env),
    }
    if examined is not None:
        payload["x"] = list(examined)
    if exact_budget_ok:
        payload["ok"] = True
    return payload


def entry_from_payload(
    payload: dict, interner: Optional[StepInterner] = None
) -> tuple:
    """``(actions, env, examined, exact_budget_ok)`` back from a payload."""
    interner = interner or _DEFAULT_INTERNER
    actions = tuple(action_from_payload(item, interner) for item in payload["a"])
    env = env_from_payload(payload["e"], interner)
    examined = tuple(payload["x"]) if "x" in payload else None
    return actions, env, examined, bool(payload.get("ok", False))


def decode_entry(
    payload: Optional[dict], interner: Optional[StepInterner] = None
) -> Optional[tuple]:
    """:func:`entry_from_payload`, with a missing, corrupt or foreign
    payload read as a miss (``None``) instead of raising."""
    if payload is None:
        return None
    try:
        return entry_from_payload(payload, interner)
    except (KeyError, TypeError, ValueError, IndexError):
        return None

