"""Abstract program analysis over the web RPA DSL.

The synthesizer answers "which programs are trace-consistent?"; this
package answers "what will a program *do* when replayed?" — without
executing it.  Four abstract domains, one per module:

:mod:`repro.analysis.effects`
    Effect summaries: does the program only read the page, does it
    navigate, does it mutate state (type keystrokes, enter data,
    download)?  The service accept-path and the future real-browser
    bridge use this to refuse auto-replay of mutating programs.
:mod:`repro.analysis.termination`
    Termination/progress verdicts for the unbounded loop forms: does
    the trailing click of a ``while`` loop plausibly change pagination
    state; is a paginate counter strictly advancing?
:mod:`repro.analysis.fragility`
    Selector fragility scores — how many single-node structural
    perturbations break each selector — the static twin of
    :mod:`repro.browser.repair`'s dynamic drift repair.
:mod:`repro.analysis.cost`
    Symbolic cost intervals: min/max emitted actions as a function of
    loop bounds.

:mod:`repro.analysis.feasibility` is the synthesis-hot-path client: a
statically sound refutation of speculated candidates (can this
statement's emission language possibly reproduce the recorded slice it
must cover?), used by :mod:`repro.synth.scheduler` to drop candidates
before validation ever executes them.

:mod:`repro.analysis.report` aggregates the domains into one
:class:`~repro.analysis.report.ProgramAnalysis` with unified findings —
the same machine-readable shape ``repro check`` / ``repro lint`` /
``repro analyze`` all emit under ``--json``.
"""

from repro.analysis.cost import CostInterval, program_cost, statement_cost
from repro.analysis.effects import (
    EffectSummary,
    MUTATE_KINDS,
    NAVIGATE_KINDS,
    READ_KINDS,
    effect_of_program,
    effect_of_statement,
)
from repro.analysis.fragility import (
    SelectorReport,
    fragility_of_program,
    selector_fragility,
)
from repro.analysis.report import (
    Finding,
    ProgramAnalysis,
    analyze_program,
    findings_payload,
)
from repro.analysis.termination import (
    PROGRESS,
    TERMINATING,
    UNKNOWN,
    LoopVerdict,
    termination_of_program,
)

__all__ = [
    "CostInterval",
    "EffectSummary",
    "Finding",
    "LoopVerdict",
    "MUTATE_KINDS",
    "NAVIGATE_KINDS",
    "PROGRESS",
    "ProgramAnalysis",
    "READ_KINDS",
    "SelectorReport",
    "TERMINATING",
    "UNKNOWN",
    "analyze_program",
    "effect_of_program",
    "effect_of_statement",
    "findings_payload",
    "fragility_of_program",
    "program_cost",
    "selector_fragility",
    "statement_cost",
    "termination_of_program",
]
