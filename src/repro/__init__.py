"""repro — a reproduction of WebRobot (PLDI 2022).

Web robotic process automation via interactive programming-by-
demonstration: record actions + DOM snapshots, synthesize generalizing
programs through speculative rewriting, and automate the rest of the
task.

Quick start::

    from repro import Browser, Synthesizer, DataSource
    from repro.benchmarks.sites.store_locator import StoreLocatorSite

    browser = Browser(StoreLocatorSite(), DataSource({"zips": ["48104"]}))
    ...  # perform a few actions
    result = Synthesizer(browser.data).synthesize(*browser.trace())
    print(result.best_program, result.best_prediction)

See ``examples/`` for complete end-to-end scenarios and ``DESIGN.md`` for
the paper-to-module map.
"""

from repro.util.lazy import lazy_exports

#: Each public name and the module that defines it.  None is imported
#: here: a name is resolved on first access (PEP 562), so a process that
#: imports one subpackage — the fleet cache server, say — never loads
#: the synthesizer through this package.
_EXPORTS = {
    "ExecutionEngine": "repro.engine.engine",
    "Browser": "repro.browser.virtual",
    "Recording": "repro.browser.recorder",
    "record_ground_truth": "repro.browser.recorder",
    "Replayer": "repro.browser.replayer",
    "RepairingReplayer": "repro.browser.repair",
    "VirtualWebsite": "repro.browser.virtual",
    "InteractiveSession": "repro.interact.session",
    "SessionReport": "repro.interact.session",
    "NoisyUser": "repro.interact.user",
    "OracleUser": "repro.interact.user",
    "Action": "repro.lang.actions",
    "DataSource": "repro.lang.data",
    "Program": "repro.lang.ast",
    "format_program": "repro.lang.pretty",
    "parse_program": "repro.lang.parser",
    "export_program": "repro.export",
    "check_program": "repro.lang.check",
    "assert_well_formed": "repro.lang.check",
    "LintFinding": "repro.lang.lint",
    "lint_program": "repro.lang.lint",
    "DEFAULT_CONFIG": "repro.synth.config",
    "SynthesisConfig": "repro.synth.config",
    "SynthesisProblem": "repro.synth.problem",
    "SynthesisResult": "repro.synth.synthesizer",
    "Synthesizer": "repro.synth.synthesizer",
    "generalizes": "repro.synth.problem",
    "satisfies": "repro.synth.problem",
}

__version__ = "1.1.0"

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
