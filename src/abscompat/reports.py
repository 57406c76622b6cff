"""Report values returned by relation checks.

A relation evaluates to a defect (the operator-norm residual of its defining
identity) and a thresholded verdict; consistency checks bundle several sides
and record whether their verdicts agree, or differ only in ``_near_threshold``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Mapping

import numpy as np

from .linalg import _pairs


@dataclass(frozen=True)
class RelationReport:
    """Named relation with verdict, defect and the tolerance that decided it.

    Invariant: ``verdict == (defect <= tolerance_used)``.
    """

    relation_name: str
    verdict: bool
    defect: float
    tolerance_used: float
    witnesses: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.defect < 0:
            raise ValueError("defect must be nonnegative")
        if self.verdict != (self.defect <= self.tolerance_used):
            raise ValueError("verdict inconsistent with defect/tolerance")

    @classmethod
    def from_defect(
        cls,
        name: str,
        defect: float,
        tol: float,
        witnesses: Mapping[str, np.ndarray] | None = None,
    ) -> "RelationReport":
        defect = float(max(defect, 0.0))
        return cls(name, defect <= tol, defect, float(tol), dict(witnesses or {}))

    def to_dict(self) -> dict:
        return {
            "relation": self.relation_name,
            "verdict": self.verdict,
            "defect": self.defect,
            "tolerance": self.tolerance_used,
            "witnesses": {key: _pairs(np.atleast_2d(mat)) for key, mat in self.witnesses.items()},
        }


@dataclass(frozen=True)
class SideCheck:
    """One side of an if-and-only-if, as a named defect with verdict."""

    label: str
    verdict: bool
    defect: float


@dataclass(frozen=True)
class ClauseCheck:
    """All sides of one equivalence clause plus the agreement flags.

    ``indeterminate`` marks near-threshold disagreements: the verdicts differ
    but every side's defect lies in the ``_near_threshold`` band, so the
    clause is neither confirmed nor refuted at this precision.
    """

    name: str
    sides: tuple[SideCheck, ...]
    agree: bool
    indeterminate: bool


@dataclass(frozen=True)
class ConsistencyReport:
    """Per-clause verdict pairs for a multi-clause characterization."""

    relation_name: str
    clauses: tuple[ClauseCheck, ...]
    tolerance_used: float
    consistent: bool

    def to_dict(self) -> dict:
        return {
            "relation": self.relation_name,
            "tolerance": self.tolerance_used,
            "consistent": self.consistent,
            "clauses": [
                {
                    "name": c.name,
                    "agree": c.agree,
                    "indeterminate": c.indeterminate,
                    "sides": [asdict(s) for s in c.sides],
                }
                for c in self.clauses
            ],
        }


def _near_threshold(defect, tol: float):
    """Whether a defect, or each defect of an array, lies within 10 tol of tol."""
    return abs(defect - tol) <= 10.0 * tol


def make_clause(name: str, sides: list[SideCheck], tol: float) -> ClauseCheck:
    """Assemble a clause; flag near-threshold disagreements as indeterminate."""
    agree = len({s.verdict for s in sides}) == 1
    near = all(_near_threshold(s.defect, tol) for s in sides)
    return ClauseCheck(name, tuple(sides), agree, (not agree) and near)


def make_consistency(
    name: str, clauses: list[ClauseCheck], tol: float
) -> ConsistencyReport:
    consistent = all(c.agree or c.indeterminate for c in clauses)
    return ConsistencyReport(name, tuple(clauses), float(tol), consistent)
