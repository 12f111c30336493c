"""Three-valued outcomes for executable property checks.

A check either Holds (hypotheses satisfied, conclusion verified), is
Vacuous (some hypothesis failed, named in the trace), or is a Discrepancy
(hypotheses satisfied but the conclusion failed, with a witness).
"""
from __future__ import annotations

from typing import Any, NamedTuple

HOLDS = "holds"
VACUOUS = "vacuous"
DISCREPANCY = "discrepancy"


class Verdict(NamedTuple):
    status: str
    hypothesis_trace: tuple[tuple[str, bool], ...] = ()
    witness: Any = None
    note: str | None = None

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "hypothesis_trace": [[name, ok] for name, ok in self.hypothesis_trace],
            "witness": self.witness,
            "note": self.note,
        }


def holds(note=None, trace=()) -> Verdict:
    return Verdict(HOLDS, tuple(trace), None, note)


def vacuous(trace, note=None) -> Verdict:
    v = Verdict(VACUOUS, tuple(trace), None, note)
    if note is None and not any(not ok for _, ok in v.hypothesis_trace):
        raise ValueError("a vacuous verdict must name a failed hypothesis")
    return v


def discrepancy(witness, trace=()) -> Verdict:
    if witness is None:
        raise ValueError("a discrepancy must carry a witness")
    return Verdict(DISCREPANCY, tuple(trace), witness)
