"""Incremental synthesis: resumable loops and the default loop's parity.

Two properties pinned here:

1. **Default/baseline parity** — the default configuration (the
   process-level execution cache, resumable loops) must synthesize
   byte-identical ranked output to :func:`no_execution_cache_config`
   (every run recomputed) on randomized traces: memoization is a pure
   optimization.

2. **Resumable-loop correctness** — continuation entries are a pure
   optimization: a session taking resume hits must produce exactly the
   output of the same session without the cache; and the engine-level
   stitched result must equal a from-scratch execution on every
   growing window.
"""

from hypothesis import given, settings

from repro.lang import EMPTY_DATA
from repro.lang.ast import canonical_program
from repro.semantics import evaluator
from repro.semantics.trace import DOMTrace
from repro.engine.cache import reset_process_cache
from repro.engine.engine import ExecutionEngine
from repro.synth.config import DEFAULT_CONFIG, no_execution_cache_config
from repro.synth.synthesizer import Synthesizer

from helpers import (
    TIMEOUT,
    _session_outputs,
    cards_page,
    random_traces,
    scrape_cards_trace,
)

class TestDefaultLoop:
    @given(random_traces())
    @settings(max_examples=15, deadline=None)
    def test_default_equals_serial_on_randomized_traces(self, trace):
        actions, snapshots = trace
        serial = Synthesizer(EMPTY_DATA, no_execution_cache_config())
        shared = Synthesizer(EMPTY_DATA, DEFAULT_CONFIG)
        assert _session_outputs(serial, actions, snapshots) == _session_outputs(
            shared, actions, snapshots
        )

    def test_phase_times_are_recorded(self):
        dom = cards_page(5)
        actions, snapshots = scrape_cards_trace(dom, 4)
        synthesizer = Synthesizer(EMPTY_DATA)
        for cut in range(1, len(actions) + 1):
            stats = synthesizer.synthesize(
                actions[:cut], snapshots[: cut + 1], timeout=TIMEOUT
            ).stats
        assert stats.speculate_s > 0.0
        assert stats.validate_s > 0.0
        assert stats.extend_s > 0.0


class TestResumableLoops:
    def test_session_output_identical_with_resume_off(self):
        """Continuations are invisible: byte-identical ranked output."""
        dom = cards_page(6)
        actions, snapshots = scrape_cards_trace(dom, 5)
        reset_process_cache()  # earlier sessions over this site would pre-fill it
        resuming = Synthesizer(EMPTY_DATA, DEFAULT_CONFIG)
        baseline = Synthesizer(EMPTY_DATA, no_execution_cache_config())
        resume_total = 0
        for cut in range(1, len(actions) + 1):
            grown = resuming.synthesize(
                actions[:cut], snapshots[: cut + 1], timeout=TIMEOUT
            )
            flat = baseline.synthesize(
                actions[:cut], snapshots[: cut + 1], timeout=TIMEOUT
            )
            resume_total += grown.stats.cache_resume_hits
            assert flat.stats.cache_resume_hits == 0
            assert [canonical_program(p) for p in grown.programs] == [
                canonical_program(p) for p in flat.programs
            ]
            assert [str(a) for a in grown.predictions] == [
                str(a) for a in flat.predictions
            ]
        # the optimization actually engaged on this loop-heavy trace
        assert resume_total > 0

    def test_growing_session_matches_from_scratch(self):
        """One-action-at-a-time growth vs a fresh synthesizer per cut.

        The incremental store retains rewrites a one-shot call would
        not rediscover, so the ranked *lists* may differ in length —
        but the winning program and every prediction must agree.

        The growing session runs first and alone, from a cold cache:
        fresh synthesizers (this test's, or earlier tests' over the same
        site) would pre-fill the shared cache with the very executions
        it is meant to resume.
        """
        dom = cards_page(6)
        actions, snapshots = scrape_cards_trace(dom, 5)
        reset_process_cache()
        session = Synthesizer(EMPTY_DATA, DEFAULT_CONFIG)
        resume_total = 0
        grown_results = []
        for cut in range(1, len(actions) + 1):
            grown = session.synthesize(
                actions[:cut], snapshots[: cut + 1], timeout=TIMEOUT
            )
            resume_total += grown.stats.cache_resume_hits
            grown_results.append(grown)
        reset_process_cache()
        try:
            for cut, grown in enumerate(grown_results, start=1):
                scratch_synth = Synthesizer(EMPTY_DATA, DEFAULT_CONFIG)
                scratch = scratch_synth.synthesize(
                    actions[:cut], snapshots[: cut + 1], timeout=TIMEOUT
                )
                grown_best = grown.best_program
                scratch_best = scratch.best_program
                assert (grown_best is None) == (scratch_best is None)
                if grown_best is not None:
                    assert canonical_program(grown_best) == canonical_program(
                        scratch_best
                    )
                assert [str(a) for a in grown.predictions] == [
                    str(a) for a in scratch.predictions
                ]
        finally:
            # the scratch runs filled every window this site has; later
            # resume checks over it must start cold again
            reset_process_cache()
        assert resume_total > 0

    def test_engine_resume_matches_fresh_execution(self):
        """The stitched resume equals from-scratch on every window."""
        dom = cards_page(6)
        actions, snapshots = scrape_cards_trace(dom, 5)
        synthesizer = Synthesizer(EMPTY_DATA, no_execution_cache_config())
        program = synthesizer.synthesize(actions, snapshots, timeout=TIMEOUT).best_program
        assert program is not None
        statement = program.statements[0]

        engine = ExecutionEngine.for_config(EMPTY_DATA, DEFAULT_CONFIG)
        for end in range(1, len(snapshots) + 1):
            window = DOMTrace(snapshots, 0, end)
            resumed = engine.execute(
                [statement], window, max_actions=len(window), resumable=True
            )
            fresh = evaluator.execute([statement], window, EMPTY_DATA)
            assert resumed.actions == fresh.actions
            assert resumed.env.fingerprint() == fresh.env.fingerprint()
        assert engine.counters().resume_hits > 0
