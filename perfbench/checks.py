"""Output checks, run outside the timed region.

Every shape reports the same wire-level outputs: per call, the rendered
predictions of the ``ProgramProposed``; per session, the rendered top
candidate program.  The checks work on those strings, so the in-process,
served and fleet runs are judged by one code path:

* ``prediction_accuracy`` — the paper's Q1 test: some offered prediction
  is ``actions_consistent`` with the recorded next action;
* ``intended_rate`` — the final top program, replayed on the scaled-up
  site (the demonstrated site when the subject has none), scrapes the
  ground truth's output there;
* divergence — served and fleet predictions must equal an in-process run
  over the same recordings, call by call.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache


@lru_cache(maxsize=None)
def _parsed_action(text: str):
    from repro.lang.actions import statement_to_action
    from repro.lang.parser import parse_program

    statements = parse_program(text).statements
    if len(statements) != 1:
        raise ValueError(f"prediction {text!r} is not one action")
    return statement_to_action(statements[0])


def prediction_correct(predictions, expected, dom) -> bool:
    """Whether some rendered prediction is consistent with ``expected``."""
    from repro.semantics.consistency import actions_consistent

    return any(
        actions_consistent(_parsed_action(text), expected, dom)
        for text in predictions
    )


@lru_cache(maxsize=None)
def _scaled_truth(bid: str):
    from repro.benchmarks.suite import benchmark_by_id

    # a private copy: the suite object may hold a capped recording
    benchmark = replace(benchmark_by_id(bid), _recording=None, _scaled_recording=None)
    recording = benchmark.scaled_recording() or benchmark.record()
    return benchmark, recording.outputs


@lru_cache(maxsize=None)
def intended(bid: str, program_text: str) -> bool:
    """Whether the rendered program scrapes the ground truth's output
    when replayed on the scaled-up site."""
    from repro.browser.replayer import Replayer
    from repro.lang.parser import parse_program

    if not program_text:
        return False
    benchmark, outputs = _scaled_truth(bid)
    browser = benchmark.fresh_scaled_browser() or benchmark.fresh_browser()
    outcome = Replayer(browser, max_actions=500, raise_errors=False).run(
        parse_program(program_text)
    )
    return outcome.error is None and outcome.outputs == outputs


def score_sessions(sessions, recordings) -> tuple[int, int, int]:
    """``(correct calls, scored calls, intended sessions)``.

    ``sessions`` are dicts with ``bid``, ``cap``, ``predictions`` (one
    list of strings per call) and ``program``; ``recordings`` maps
    ``(bid, cap)`` to the replayed recording.  A session demonstrates all
    but the recording's last action, so call ``k`` is scored against
    action ``k + 1``.
    """
    correct = scored = good = 0
    for session in sessions:
        recording = recordings[(session["bid"], session["cap"])]
        for k, predictions in enumerate(session["predictions"]):
            scored += 1
            correct += prediction_correct(
                predictions, recording.actions[k + 1], recording.snapshots[k + 1]
            )
        good += intended(session["bid"], session["program"])
    return correct, scored, good
