"""Validation of one worklist pop's candidate list (Algorithm 1).

Algorithm 1's inner loop pops a worklist tuple, speculates candidate
rewrites, validates each against the trace, and pushes the survivors.
:class:`SerialScheduler` is the validation half: it statically prunes
the candidates, ranks them, and validates them in rank order under the
per-span rewrite cap.  The synthesizer owns the worklist and the
speculation half (:mod:`repro.synth.synthesizer`).

Validation stays on the calling thread: under the GIL, threads here
only add cost (DESIGN.md, "Concurrency model").  Throughput across
sessions comes from the shared execution cache and from forked
``repro serve --workers`` processes.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.analysis.feasibility import infeasible
from repro.semantics.trace import DOMTrace
from repro.synth.rewrite import RewriteTuple
from repro.synth.speculate import SpeculationContext, SRewrite
from repro.synth.validate import validate
from repro.util.timer import Deadline

#: ``push(rewritten)`` — the synthesizer's worklist/store insertion.
PushFn = Callable[[RewriteTuple], None]

#: Per popped tuple, keep only this many validated rewrites covering the
#: same trace slice (smallest statements win).
MAX_REWRITES_PER_SPAN = 3


def _static_prune(
    current: RewriteTuple,
    candidates: list[SRewrite],
    context: SpeculationContext,
    stats,
) -> None:
    """Drop candidates Algorithm 3 provably rejects, before validation.

    Two sound refutations (see :mod:`repro.analysis.feasibility`): the
    tuple has no statement boundary ``>= end + 2`` for the matched
    slice to end on, or the candidate's emission NFA cannot
    prefix-match the ``bounds[end + 2] - bounds[start]`` recorded
    actions a successful validation must reproduce.  Both only fire
    where ``validate`` would certainly return ``None``, so the pushed
    tuples — and the synthesized programs — are byte-identical with
    pruning on or off; only the engine executions saved differ
    (``stats.pruned`` counts them).

    Runs in place, before ranking — a pruned candidate costs no rank
    key.
    """
    if not candidates or not context.config.static_prune:
        return
    bounds = current.bounds
    last = len(bounds) - 1
    kept: list[SRewrite] = []
    for candidate in candidates:
        boundary = candidate.end + 2
        if boundary > last:
            stats.pruned += 1
            continue
        start_action = bounds[candidate.start]
        min_count = bounds[boundary] - start_action
        if infeasible(
            candidate.stmt,
            context.actions,
            context.snapshots,
            context.data,
            start_action,
            min_count,
        ):
            stats.pruned += 1
            continue
        kept.append(candidate)
    if len(kept) != len(candidates):
        candidates[:] = kept


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


def _read_ahead(
    current: RewriteTuple, candidates: list[SRewrite], context: SpeculationContext
) -> Iterator[tuple]:
    """The executions validating ``candidates`` is about to make, as
    :meth:`ExecutionEngine.prefetch_executions` runs.

    For the first :data:`MAX_REWRITES_PER_SPAN` candidates of each span
    in rank order (a later one runs only if one of those fails): the
    validation run over the rest of the trace, and the generalization
    run one snapshot past it that ``_try_generalize`` makes when the
    rewrite ends the tuple.
    """
    per_span: dict[tuple, int] = {}
    for candidate in candidates:
        span_key = (candidate.start, candidate.end)
        seen = per_span.get(span_key, 0)
        if seen >= MAX_REWRITES_PER_SPAN:
            continue
        per_span[span_key] = seen + 1
        start_action = current.bounds[candidate.start]
        for stop in (current.covered, len(context.actions) + 1):
            window = DOMTrace(context.snapshots, start_action, stop)
            yield [candidate.stmt], window, len(window)


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

        Mutates ``stats`` (``validated``, ``validations``, ``pruned``,
        ``timed_out``).  The deadline is checked between candidates, so
        a call overruns its budget by at most one validation.

        Over a persistent backend the executions the loop is about to
        make are read ahead in one batch (:func:`_read_ahead`); each
        still counts its own hit or miss where it runs.
        """
        _static_prune(current, candidates, context, stats)
        _rank_order(candidates, context)
        engine = context.engine
        with engine.prefetching():
            if not deadline.expired():
                engine.prefetch_executions(_read_ahead(current, candidates, context))
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
