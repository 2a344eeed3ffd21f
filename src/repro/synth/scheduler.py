"""Validation of one worklist pop's candidate list (Algorithm 1).

Algorithm 1's inner loop pops a worklist tuple, speculates candidate
rewrites, validates each against the trace, and pushes the survivors.
:class:`SerialScheduler` is the validation half: it ranks the
candidates and validates them in rank order under the per-span rewrite
cap.  Executing validation (Algorithm 3) is the only check a candidate
passes through.  The synthesizer owns the worklist and the
speculation half (:mod:`repro.synth.synthesizer`).

Validation stays on the calling thread: under the GIL, threads here
only add cost (DESIGN.md, "Concurrency model").  Throughput across
sessions comes from the shared execution cache and from forked
``repro serve --workers`` processes.
"""

from __future__ import annotations

from typing import Callable

from repro.synth.rewrite import RewriteTuple
from repro.synth.speculate import SpeculationContext, SRewrite
from repro.synth.validate import validate
from repro.util.timer import Deadline

#: ``push(rewritten)`` — the synthesizer's worklist/store insertion.
PushFn = Callable[[RewriteTuple], None]

#: Per popped tuple, keep only this many validated rewrites covering the
#: same trace slice (smallest statements win).
MAX_REWRITES_PER_SPAN = 3


def _rank_order(candidates: list[SRewrite], context: SpeculationContext) -> None:
    """Sort candidates smallest-statements-first within each span.

    Validating smallest statements first makes the per-span cap keep
    the most-parametrized (hence smallest) true rewrites — e.g. a loop
    whose body fully uses the loop variable beats one that kept a raw
    first-iteration selector.
    """
    candidates.sort(
        key=lambda item: (item.start, item.end, context.statement_size(item.stmt))
    )


class SerialScheduler:
    """Algorithm 1's inline validation loop over one pop's candidates."""

    def process_pop(
        self,
        current: RewriteTuple,
        candidates: list[SRewrite],
        context: SpeculationContext,
        deadline: Deadline,
        stats,
        push: PushFn,
    ) -> None:
        """Validate ``candidates`` against ``current``; push survivors.

        Mutates ``stats`` (``validated``, ``validations``,
        ``timed_out``).  The deadline is checked between candidates, so
        a call overruns its budget by at most one validation.
        """
        _rank_order(candidates, context)
        per_span: dict[tuple, int] = {}
        for candidate in candidates:
            if deadline.expired():
                stats.timed_out = True
                break
            span_key = (candidate.start, candidate.end)
            if per_span.get(span_key, 0) >= MAX_REWRITES_PER_SPAN:
                continue
            stats.validations += 1
            rewritten = validate(candidate, current, context)
            if rewritten is not None:
                per_span[span_key] = per_span.get(span_key, 0) + 1
                stats.validated += 1
                push(rewritten)
