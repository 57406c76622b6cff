"""Shared tolerance configuration threaded through every predicate."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds used by decompositions and relation verdicts.

    relation : verdict threshold for relation defects, unit-ball slack
               (||x|| - 1 <= relation), Hermiticity gates (scaled by max(1, |a|)
               in ``herm_eig``) and reconstruction invariants.
    rank     : singular values below rank * sigma_max are treated as zero.

    Both must be finite and positive: a NaN threshold makes every comparison
    false and an infinite one every comparison true.
    """

    relation: float = 1e-8
    rank: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("relation", "rank"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"tolerance {name!r} must be finite and positive, got {value}")


DEFAULT_TOL = ToleranceConfig()
