"""Binary relations and unary characterizations on unit-ball elements:
orthogonality, domain/range/full absolute compatibility with defects, the
orthogonality and Jordan-product characterizations, projection and
partial-isometry tests, the commutative (diagonal) characterization, and
spectral tripotents.

A defect is always the operator-norm residual of the defining identity; a
verdict is the comparison of that defect against the relation tolerance.
"""

from __future__ import annotations

import warnings
from enum import Enum
from functools import reduce
from typing import NamedTuple

import numpy as np

from .algebra import AlgebraElement, AlgebraShape, _block_diag, is_positive, jordan, unit
from .errors import (
    CrossCheckMismatch,
    EndpointAmbiguity,
    LengthMismatch,
    NotContraction,
    NotInUnitInterval,
)
from .linalg import (
    _abs_herm, _abs_parts, _eigh, _herm_eigvals, _hermitize, _rank_cut_svd, op_norm,
)
from .reports import (
    ConsistencyReport,
    RelationReport,
    SideCheck,
    make_clause,
    make_consistency,
)
from .tolerance import DEFAULT_TOL, ToleranceConfig

__all__ = [
    "CompatKind",
    "IntervalBoundary",
    "compat_defect",
    "is_orthogonal",
    "is_projection",
    "is_partial_isometry",
    "check_orth_characterization",
    "check_p00_equivalences",
    "check_tripotent_characterization",
    "commutative_compat_check",
    "spectral_tripotent",
]


class CompatKind(Enum):
    DOMAIN = "domain"
    RANGE = "range"
    FULL = "full"


class IntervalBoundary(Enum):
    CLOSED_CLOSED = "closed_closed"
    OPEN_OPEN = "open_open"
    CLOSED_OPEN = "closed_open"
    OPEN_CLOSED = "open_closed"

    @property
    def lo_closed(self) -> bool:
        return self in (IntervalBoundary.CLOSED_CLOSED, IntervalBoundary.CLOSED_OPEN)

    @property
    def hi_closed(self) -> bool:
        return self in (IntervalBoundary.CLOSED_CLOSED, IntervalBoundary.OPEN_CLOSED)


class _CompatStack(NamedTuple):
    """Per pair: the defect at the kind asked for, each side's defect, both
    operands' norms, and the identity's terms by witness name, per block."""

    defect: np.ndarray
    sides: dict[CompatKind, np.ndarray]
    norm_a: np.ndarray
    norm_b: np.ndarray
    terms: dict[str, list[np.ndarray]]


def _compat_stack(
    a: np.ndarray, b: np.ndarray, shape: AlgebraShape, kind: CompatKind,
    tol: ToleranceConfig,
) -> _CompatStack:
    """Defect of | |a|-|b| | + | 1-|a|-|b| | = 1 for each pair (a[k], b[k]) of
    (N, n, n) stacks of ``shape``, or for one pair of matrices: domain uses
    |a|, |b|, range |a*|, |b*|, full both, at once. A direct sum's norm and
    defect are its largest block's; norms in (1, 1+tol] are renormalized to 1."""
    sides = (CompatKind.DOMAIN, CompatKind.RANGE) if kind is CompatKind.FULL else (kind,)
    wanted = (CompatKind.DOMAIN in sides, CompatKind.RANGE in sides)
    absolutes, norms = [], []  # per operand: (sides, ..., d, d) stacks per block
    for m in (a, b):
        blocks, block_norms = zip(*(_abs_parts(m[..., sl, sl], *wanted)
                                    for sl in shape.block_slices()))
        norm = reduce(np.maximum, block_norms)
        if norm.max() > 1.0:
            band = (norm > 1.0) & (norm <= 1.0 + tol.relation)
            scale = np.where(band, norm, 1.0)[..., None, None]
            blocks = [x / scale for x in blocks]
        absolutes.append(blocks)
        norms.append(norm)
    residuals, diffs, gaps = [], [], []
    for x, y in zip(*absolutes):
        one = np.eye(x.shape[-1])
        diff, gap = _abs_herm(np.array((x - y, one - x - y)))
        diffs.append(diff)
        gaps.append(gap)
        # the residual's norm: its eigenvalue of largest modulus
        residuals.append(np.abs(_eigh(diff + gap - one, vectors=False)).max(-1))
    per_side = reduce(np.maximum, residuals)
    terms = {}
    for s, side in enumerate(sides):
        suffix = "_adj" if side is CompatKind.RANGE else ""
        for key, blocks in zip(("abs_a", "abs_b", "abs_diff", "unit_gap"),
                               (*absolutes, diffs, gaps)):
            terms[key + suffix] = [blk[s] for blk in blocks]
    return _CompatStack(per_side.max(axis=0), dict(zip(sides, per_side)), *norms, terms)


def _compat_pair(
    a: AlgebraElement, b: AlgebraElement, kind: CompatKind, tol: ToleranceConfig
) -> tuple[_CompatStack, AlgebraElement, AlgebraElement]:
    """``_compat_stack`` of one pair of contractions, and a, b gated into the
    unit ball: renormalized from (1, 1+tol], NotContraction beyond."""
    a._check_same_shape(b)
    k = _compat_stack(a.matrix, b.matrix, a.shape, kind, tol)
    gated = []
    for label, x, norm in (("first operand", a, k.norm_a), ("second operand", b, k.norm_b)):
        if norm > 1.0 + tol.relation:
            raise NotContraction(f"{label}: operator norm 1 + {norm - 1.0:.2g} "
                                 f"exceeds 1 + tol ({tol.relation:g})")
        gated.append(AlgebraElement._wrap(x.shape, x.matrix / norm) if norm > 1.0 else x)
    return k, gated[0], gated[1]


def compat_defect(
    a: AlgebraElement,
    b: AlgebraElement,
    kind: CompatKind = CompatKind.FULL,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> RelationReport:
    """Absolute-compatibility defect for contractions a, b.

    Domain uses |a|, |b|; Range uses |a*|, |b*|; Full is the max of both.
    Witnesses carry the absolute values and both terms of the identity.
    """
    k = _compat_pair(a, b, kind, tol)[0]
    witnesses = {key: _block_diag(a.shape, blocks) for key, blocks in k.terms.items()}
    return RelationReport.from_defect(
        f"compat_{kind.value}", k.defect, tol.relation, witnesses
    )


def is_orthogonal(
    a: AlgebraElement, b: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL
) -> RelationReport:
    """a b* = b* a = 0; defect = max(|a b*|, |b* a|)."""
    a._check_same_shape(b)
    bh = b.matrix.conj().T
    defect = max(op_norm(a.matrix @ bh), op_norm(bh @ a.matrix))
    return RelationReport.from_defect("orthogonal", defect, tol.relation)


def is_projection(
    a: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL
) -> RelationReport:
    """p = p* = p^2; defect = max(|a^2 - a|, |a - a*|)."""
    m = a.matrix
    defect = max(op_norm(m @ m - m), op_norm(m - m.conj().T))
    return RelationReport.from_defect("projection", defect, tol.relation)


def is_partial_isometry(
    a: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL
) -> RelationReport:
    """u u* u = u; defect = |a a* a - a|."""
    m = a.matrix
    defect = op_norm(m @ m.conj().T @ m - m)
    return RelationReport.from_defect("partial_isometry", defect, tol.relation)


# ---------------------------------------------------------------------------
# characterizations
# ---------------------------------------------------------------------------


def _norm_sum_gap(abs_a: list[np.ndarray], abs_b: list[np.ndarray]) -> float:
    """max(0, lambda_max(|a| + |b|) - 1):  zero iff |a| + |b| <= 1."""
    lam_max = max(_herm_eigvals(x + y)[-1] for x, y in zip(abs_a, abs_b))
    return max(0.0, float(lam_max) - 1.0)


def check_orth_characterization(
    a: AlgebraElement, b: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL
) -> ConsistencyReport:
    """Numerically evaluate both sides of the orthogonality equivalences.

    (a)  a b* = 0   <=>  |a|+|b| <= 1 and domain compat
                    <=>  |a|+|b| <= 1 and range compat of the adjoints;
    (b)  the adjoint-side mirror of (a);
    (c)  a orthogonal b  <=>  both norm conditions and both compatibilities;
    plus the self-adjoint clause when both inputs are Hermitian.
    """
    k, a, b = _compat_pair(a, b, CompatKind.FULL, tol)
    t = tol.relation

    dom = float(k.sides[CompatKind.DOMAIN])
    # |(a*)*| = |a|: range compat of the adjoints is domain compat of a, b,
    # and domain compat of the adjoints is range compat of a, b
    rng_ = float(k.sides[CompatKind.RANGE])
    gap = _norm_sum_gap(k.terms["abs_a"], k.terms["abs_b"])
    gap_adj = _norm_sum_gap(k.terms["abs_a_adj"], k.terms["abs_b_adj"])

    ab_star = op_norm(a.matrix @ b.matrix.conj().T)
    bstar_a = op_norm(b.matrix.conj().T @ a.matrix)

    def side(label: str, defect: float) -> SideCheck:
        return SideCheck(label, defect <= t, float(max(defect, 0.0)))

    clause_a = make_clause(
        "a: a b* = 0",
        [
            side("a b* = 0", ab_star),
            side("|a|+|b| <= 1 and domain compat", max(gap, dom)),
            side("|a|+|b| <= 1 and adjoints range compat", max(gap, dom)),
        ],
        t,
    )
    clause_b = make_clause(
        "b: b* a = 0",
        [
            side("b* a = 0", bstar_a),
            side("|a*|+|b*| <= 1 and range compat", max(gap_adj, rng_)),
            side("|a*|+|b*| <= 1 and adjoints domain compat", max(gap_adj, rng_)),
        ],
        t,
    )
    clause_c = make_clause(
        "c: a orthogonal b",
        [
            side("a b* = b* a = 0", max(ab_star, bstar_a)),
            side("norm sums <= 1 and both compat", max(gap, gap_adj, dom, rng_)),
        ],
        t,
    )
    clauses = [clause_a, clause_b, clause_c]

    herm_gap = max(
        op_norm(a.matrix - a.matrix.conj().T), op_norm(b.matrix - b.matrix.conj().T)
    )
    if herm_gap <= tol.relation:
        clauses.append(
            make_clause(
                "self-adjoint: a orthogonal b",
                [
                    side("a b* = b* a = 0", max(ab_star, bstar_a)),
                    side("|a|+|b| <= 1 and full compat", max(gap, dom, rng_)),
                ],
                t,
            )
        )
    return make_consistency("orthogonality_characterization", clauses, t)


def _unit_interval_gate(
    x: AlgebraElement, tol: ToleranceConfig, label: str
) -> None:
    herm_gap = op_norm(x.matrix - x.matrix.conj().T)
    if herm_gap > tol.relation:
        raise NotInUnitInterval(f"{label} is not Hermitian within {tol.relation:g}")
    lam = _herm_eigvals(x.matrix)
    if lam[0] < -tol.relation or lam[-1] > 1.0 + tol.relation:
        raise NotInUnitInterval(
            f"{label} has spectrum [{lam[0]:.4g}, {lam[-1]:.4g}] outside [0, 1]"
        )


def check_p00_equivalences(
    a: AlgebraElement, b: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL
) -> ConsistencyReport:
    """The four equivalent Jordan-product conditions for 0 <= a, b <= 1:

    (a) absolute compatibility;
    (b) 2 a.b = a + b - |a - b|;
    (c) a.b and (1-a).(1-b) positive with vanishing product;
    (d) a.(1-b) and (1-a).b positive with vanishing product.

    All four are evaluated independently and reported as one clause whose
    sides must agree.
    """
    a._check_same_shape(b)
    _unit_interval_gate(a, tol, "first operand")
    _unit_interval_gate(b, tol, "second operand")
    t = tol.relation
    one = unit(a.shape)

    d_compat = compat_defect(a, b, CompatKind.FULL, tol).defect

    lhs = 2.0 * jordan(a, b)
    rhs = a + b - (a - b).map_blocks(lambda blk: _abs_herm(_hermitize(blk)))
    d_jordan = op_norm((lhs - rhs).matrix)

    prod1, prod2 = jordan(a, b), jordan(one - a, one - b)
    d_complement = max(
        is_positive(prod1, tol).defect, is_positive(prod2, tol).defect,
        op_norm((prod1 @ prod2).matrix),
    )

    mix1, mix2 = jordan(a, one - b), jordan(one - a, b)
    d_mixed = max(
        is_positive(mix1, tol).defect, is_positive(mix2, tol).defect,
        op_norm((mix1 @ mix2).matrix),
    )

    clause = make_clause(
        "jordan-product equivalences",
        [
            SideCheck("absolute compatibility", d_compat <= t, d_compat),
            SideCheck("2 a.b = a + b - |a-b|", d_jordan <= t, d_jordan),
            SideCheck("complement products positive orthogonal",
                      d_complement <= t, d_complement),
            SideCheck("mixed products positive orthogonal", d_mixed <= t, d_mixed),
        ],
        t,
    )
    return make_consistency("jordan_product_equivalences", [clause], t)


def check_tripotent_characterization(
    a: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL
) -> ConsistencyReport:
    """Self-compatibility against the partial-isometry identity: for a
    contraction a, a compat a holds exactly when a a* a = a."""
    k, a, _ = _compat_pair(a, a, CompatKind.FULL, tol)
    t = tol.relation
    d_compat = float(k.defect)
    d_piso = is_partial_isometry(a, tol).defect
    clause = make_clause(
        "self-compat vs partial isometry",
        [
            SideCheck("self compat", d_compat <= t, d_compat),
            SideCheck("a a* a = a", d_piso <= t, d_piso),
        ],
        t,
    )
    return make_consistency("tripotent_characterization", [clause], t)


# ---------------------------------------------------------------------------
# commutative (diagonal) characterization
# ---------------------------------------------------------------------------


def commutative_compat_check(
    f: np.ndarray, g: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL
) -> RelationReport:
    """Pointwise compatibility test for functions on a finite set: at every
    coordinate the product must vanish (for scalars: one factor is zero)
    unless one factor has modulus one.

    Per-coordinate defect 2 min(|f|, |g|, 1-|f|, 1-|g|), which is exactly the
    scalar residual of the defining identity; the overall defect is the worst
    coordinate. The verdict is always cross-validated against compat_defect
    on diag(f), diag(g), whose defect is kept as the 0-d witness
    ``identity_defect``; a disagreement outside the near-threshold band
    raises a CrossCheckMismatch warning.
    """
    f = np.atleast_1d(np.asarray(f, dtype=np.complex128))
    g = np.atleast_1d(np.asarray(g, dtype=np.complex128))
    if f.ndim != 1 or g.ndim != 1:
        raise LengthMismatch("function samples must be one-dimensional")
    if f.shape != g.shape:
        raise LengthMismatch(f"length mismatch: {f.shape[0]} vs {g.shape[0]}")
    t = tol.relation
    fa, ga = np.abs(f), np.abs(g)
    if fa.max(initial=0.0) > 1.0 + t or ga.max(initial=0.0) > 1.0 + t:
        raise NotContraction("function values must lie in the closed unit disk")
    fa = np.minimum(fa, 1.0)
    ga = np.minimum(ga, 1.0)

    per_coord = 2.0 * np.minimum.reduce([fa, ga, 1.0 - fa, 1.0 - ga])
    defect = float(per_coord.max(initial=0.0))
    oracle = compat_defect(
        AlgebraElement.single(np.diag(f)),
        AlgebraElement.single(np.diag(g)),
        CompatKind.DOMAIN,
        tol,
    )
    report = RelationReport.from_defect(
        "commutative_compat", defect, t,
        {"diag_f": np.diag(f), "diag_g": np.diag(g),
         "identity_defect": np.asarray(oracle.defect)},
    )
    if oracle.verdict != report.verdict:
        near = abs(defect - t) <= 10.0 * t and abs(oracle.defect - t) <= 10.0 * t
        if not near:
            warnings.warn(
                "pointwise characterization disagrees with the defining "
                f"identity on diagonals (defects {defect:.3g} vs "
                f"{oracle.defect:.3g})",
                CrossCheckMismatch,
            )
    return report


# ---------------------------------------------------------------------------
# spectral tripotents
# ---------------------------------------------------------------------------


def spectral_tripotent(
    a: AlgebraElement,
    lo: float,
    hi: float,
    boundary: IntervalBoundary = IntervalBoundary.CLOSED_CLOSED,
    tol: ToleranceConfig = DEFAULT_TOL,
    snap: bool = True,
) -> AlgebraElement:
    """u P, with a = u |a| polar and P the spectral projection of |a| onto the
    singular values in [lo, hi] (endpoint membership per ``boundary``).

    Singular values within tol of an endpoint are snapped onto it and then
    admitted or rejected per the boundary flag; with snap=False such values
    raise EndpointAmbiguity instead. The result is a partial isometry.
    """
    if not (0.0 <= lo < hi):
        raise ValueError(f"need 0 <= lo < hi, got [{lo}, {hi}]")
    t = tol.relation

    def member(sigma: float) -> bool:
        near_lo = abs(sigma - lo) <= t
        near_hi = abs(sigma - hi) <= t
        if near_lo or near_hi:
            if not snap:
                raise EndpointAmbiguity(
                    f"singular value {sigma:.12g} within {t:g} of an endpoint"
                )
            # snap to the nearest endpoint, then apply the boundary flag
            if near_lo and (not near_hi or abs(sigma - lo) <= abs(sigma - hi)):
                return boundary.lo_closed
            return boundary.hi_closed
        return lo < sigma < hi

    def cut_block(blk: np.ndarray) -> np.ndarray:
        u_blk, sigma, right_h, _ = _rank_cut_svd(blk, tol.rank)
        sel = np.array([member(float(s)) for s in sigma], dtype=bool)
        cols = right_h[sel, :].conj().T
        proj = cols @ cols.conj().T
        return u_blk @ proj

    return a.map_blocks(cut_block)
