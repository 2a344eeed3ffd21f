"""The Validate procedure (Algorithm 3).

A speculative rewrite ``(S', i, j)`` is validated by *executing* ``S'``
under the trace semantics over all remaining DOMs: if the produced action
trace exactly reproduces the recorded slice from statement ``i`` through
some statement ``r > j`` (one full iteration beyond the speculated first
one), the rewrite is true and a new worklist tuple replacing
``S_i ·· S_r`` with ``S'`` is returned.

Exact reproduction matters: executing ``S'`` over *all* remaining DOMs
means a loop that would keep running past its conjectured slice shows up
as a longer or inconsistent trace, and the s-rewrite is rejected —
installing it would break invariant I2.

:func:`validate` is a *pure* function of ``(candidate, tuple_, ctx)``:
it never mutates the tuple, the context, or any synthesis state — its
only shared touch-point is the context's execution engine, whose cache
fills are semantics-neutral.
"""

from __future__ import annotations

from typing import Optional

from repro.semantics.trace import DOMTrace
from repro.synth.rewrite import RewriteTuple
from repro.synth.speculate import SpeculationContext, SRewrite


def validate(
    candidate: SRewrite,
    tuple_: RewriteTuple,
    ctx: SpeculationContext,
) -> Optional[RewriteTuple]:
    """Check one s-rewrite; return the rewritten tuple or ``None``.

    Implements Algorithm 3 for a single Ω element: line 3 executes ``S'``
    against ``Π_i ++ ·· ++ Π_l`` (a contiguous window of the master DOM
    trace, by invariant I1), line 4 finds the matched slice end ``r``.
    Execution goes through the context's memoizing engine: identical
    candidates conjectured from different worklist tuples run once.
    """
    start_action = tuple_.bounds[candidate.start]
    trace_end = tuple_.covered
    window = DOMTrace(ctx.snapshots, start_action, trace_end)
    produced = ctx.engine.execute(
        [candidate.stmt], window, max_actions=len(window)
    ).actions
    count = len(produced)
    if count == 0:
        return None

    # The produced actions must reproduce the recorded slice exactly.
    reference = ctx.actions[start_action : start_action + count]
    if ctx.engine.consistent_prefix_length(produced, reference, window) != count:
        return None

    # The matched slice must end on a statement boundary strictly beyond
    # the first iteration: bounds[r + 1] == start_action + count for some
    # r in [j + 1, l - 1].
    target = start_action + count
    bounds = tuple_.bounds
    boundary = _find_boundary(bounds, target)
    if boundary is None:
        return None
    matched_end = boundary - 1  # r, inclusive statement index
    if matched_end < candidate.end + 1:
        return None

    statements = (
        tuple_.statements[: candidate.start]
        + (candidate.stmt,)
        + tuple_.statements[matched_end + 1 :]
    )
    new_bounds = bounds[: candidate.start + 1] + bounds[matched_end + 1 :]
    return RewriteTuple(statements, new_bounds, spec_start=0)


def _find_boundary(bounds: tuple[int, ...], target: int) -> Optional[int]:
    """Index ``b`` with ``bounds[b] == target``, or None (binary search)."""
    low, high = 0, len(bounds) - 1
    while low <= high:
        mid = (low + high) // 2
        value = bounds[mid]
        if value == target:
            return mid
        if value < target:
            low = mid + 1
        else:
            high = mid - 1
    return None
