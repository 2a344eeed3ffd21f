"""Ranking of generalizing programs (Algorithm 1 line 8).

The paper "aims to synthesize a smallest program in size" (§4): programs
are ordered by AST node count, then statement-sequence length, then
program text.  The final text tie-break makes ranking a total
deterministic order, so results are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.lang.actions import Action
from repro.lang.ast import Program, program_size
from repro.lang.pretty import format_program


@dataclass(frozen=True)
class Candidate:
    """One generalizing program with its ranking inputs.

    ``statements`` is the rewrite tuple's top-level statement count (a
    lower count means loops absorbed more of the demonstration);
    ``text`` is the pretty-printed form, cached because it is the final
    tie-break.
    """

    program: Program
    prediction: Action
    statements: int
    text: str

    @classmethod
    def of(cls, program: Program, prediction: Action, statements: int) -> "Candidate":
        """Build a candidate, computing the cached text form."""
        return cls(program, prediction, statements, format_program(program))


def _by_size(candidate: Candidate) -> tuple:
    return (program_size(candidate.program), candidate.statements, candidate.text)


def rank(candidates: Sequence[Candidate]) -> list[Candidate]:
    """Order candidates best-first: smallest program first."""
    return sorted(candidates, key=_by_size)
