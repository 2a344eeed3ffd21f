"""Synthesizer configuration.

The defaults correspond to the full-fledged WebRobot configuration used in
Q1; the ablation variants of Table 1 are obtained through
:func:`no_selector_config` and :func:`no_incremental_config`.  No field
reads the environment: a configuration is exactly what its caller
built.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class SynthesisConfig:
    """Tunable knobs of the synthesis engine.

    Only what a paper ablation (Table 1), the extensions bench, a
    deployment or a parity oracle sets is a field here.  The search
    bounds are module constants next to their readers:
    :data:`~repro.synth.speculate.MAX_BODY` and
    :data:`~repro.synth.speculate.MAX_LOOP_BODIES_PER_SPAN`,
    :data:`~repro.synth.parametrize.MAX_PARAMETRIZE_VARIANTS`,
    :data:`~repro.synth.scheduler.MAX_REWRITES_PER_SPAN`,
    :data:`~repro.synth.synthesizer.MAX_STORE_TUPLES`, and
    :data:`~repro.synth.alternatives.MAX_DECOMPOSITIONS` /
    :data:`~repro.synth.alternatives.MAX_SUFFIX_CHILD_STEPS`.  Selector
    enumeration reads the per-snapshot DOM index whenever the snapshot
    has one; :func:`repro.engine.index.set_dom_indexes` is the only
    switch between it and the ancestor walk, and no field selects it.

    Attributes
    ----------
    timeout:
        Wall-clock budget per ``synthesize`` call in seconds (the paper
        uses 1 second per prediction test).
    use_alternative_selectors:
        When False, ``AlternativeSelectors`` degenerates to the identity —
        the "No selector" ablation of Table 1.
    use_token_predicates:
        Opt-in extension beyond the paper: whitespace-token class
        predicates (``div[@class~='match']``), which solve the paper's
        "disjunctive selector" failure case b6.  Off by default to match
        the published system.
    use_numbered_pagination:
        Opt-in extension beyond the paper: speculate
        :class:`~repro.lang.ast.PaginateLoop` rewrites for numbered
        pagers (counter-templated page clicks plus an optional
        next-block button), the paper's b9 failure case.  Off by
        default to match the published system.
    incremental:
        When False, every call rebuilds the worklist from scratch — the
        "No incremental" ablation of Table 1 (§5.4).
    use_execution_cache:
        Memoize simulated execution in the
        :class:`~repro.engine.engine.ExecutionEngine` (identical
        ``(statement, window)`` executions across worklist pops and
        across incremental calls run once), and let loop runs that
        absorb their whole window record *continuations*, so the
        extension and generalization checks resume the trailing loop
        at its last started iteration instead of re-executing it —
        per-call extension cost becomes O(new actions), the §5.4
        interactivity requirement.  Behaviour-preserving; the
        engine-cache and incremental-pipeline benches measure it.
    cache_backend:
        Name of the execution-cache backend
        (:func:`repro.service.backends.resolve_backend`): ``"memory"``
        (the default) keeps the in-process tables only;
        ``"remote://host:port"`` adds the fleet's cache tier, a
        ``repro cache-serve`` process whose rows every worker pointing
        at it shares.  Every memoizing engine joins the process-level
        cache of its backend.  Behaviour-preserving: the cache keys are
        value-addressed end to end, and hits replay recorded outcomes
        verbatim.
    """

    timeout: float = 1.0
    use_alternative_selectors: bool = True
    use_token_predicates: bool = False
    use_numbered_pagination: bool = False
    incremental: bool = True
    use_execution_cache: bool = True
    cache_backend: str = "memory"


#: The full-fledged configuration (Table 1 row 1).
DEFAULT_CONFIG = SynthesisConfig()


def no_selector_config(base: SynthesisConfig = DEFAULT_CONFIG) -> SynthesisConfig:
    """Table 1's "No selector" ablation: raw XPaths only."""
    return replace(base, use_alternative_selectors=False)


def token_predicate_config(base: SynthesisConfig = DEFAULT_CONFIG) -> SynthesisConfig:
    """The disjunctive-selector extension switched on (beyond the paper)."""
    return replace(base, use_token_predicates=True)


def numbered_pagination_config(base: SynthesisConfig = DEFAULT_CONFIG) -> SynthesisConfig:
    """The numbered-pagination extension switched on (beyond the paper)."""
    return replace(base, use_numbered_pagination=True)


def no_incremental_config(base: SynthesisConfig = DEFAULT_CONFIG) -> SynthesisConfig:
    """Table 1's "No incremental" ablation: fresh worklist per call."""
    return replace(base, incremental=False)


def no_execution_cache_config(base: SynthesisConfig = DEFAULT_CONFIG) -> SynthesisConfig:
    """Execution memoization off: every simulated run recomputed."""
    return replace(base, use_execution_cache=False)
