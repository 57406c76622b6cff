"""Binary relations and unary characterizations on unit-ball elements:
orthogonality, domain/range/full absolute compatibility with defects, the
orthogonality and Jordan-product characterizations, projection and
partial-isometry tests, the commutative (diagonal) characterization, and
spectral tripotents.

A defect is always the operator-norm residual of the defining identity; a
verdict is the comparison of that defect against the relation tolerance.
Every gate into the unit ball applies one rule, ``_beyond_ball``: x is in
the ball when ||x|| - 1 <= tol.relation (for a pair, ``_CompatStack.excess``).
"""

from __future__ import annotations

import warnings
from enum import Enum
from functools import reduce
from typing import NamedTuple

import numpy as np

from .algebra import AlgebraElement, AlgebraShape, _block_diag, _jordan, _positive_defects
from .errors import (
    CrossCheckMismatch,
    EndpointAmbiguity,
    LengthMismatch,
    NotContraction,
    NotInUnitInterval,
)
from .linalg import (
    _abs_parts, _adj, _calculus, _diag, _eigh, _herm_eigvals, _hermitize, _op_norm,
    _rank_cut_svd, op_norm,
)
from .reports import (
    ConsistencyReport,
    RelationReport,
    SideCheck,
    _near_threshold,
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


def _beyond_ball(excess, tol: ToleranceConfig):
    """Whether an excess ||x|| - 1 puts x outside the unit ball (NaN does not)."""
    return excess > tol.relation


class _CompatStack(NamedTuple):
    """Per pair: the defect at the kind asked for, each side's defect, both norms
    and the excess max(||a||, ||b||) - 1; per block, the (sides, operands, N, d, d)
    absolute values and the (2, sides, N, d, d) | |a|-|b| | and | 1-|a|-|b| |;
    and whether any operand's norm is above 1, decided once per call."""

    defect: np.ndarray
    sides: dict[CompatKind, np.ndarray]
    norm_a: np.ndarray
    norm_b: np.ndarray
    excess: np.ndarray
    terms: list[tuple[np.ndarray, np.ndarray]]
    above_one: bool


_TERMS = ("abs_a", "abs_b", "abs_diff", "unit_gap")  # compat_defect's witnesses per side
_WITNESSES = {CompatKind.DOMAIN: _TERMS, CompatKind.RANGE: tuple(t + "_adj" for t in _TERMS)}
_WITNESSES[CompatKind.FULL] = _WITNESSES[CompatKind.DOMAIN] + _WITNESSES[CompatKind.RANGE]


def _compat_stack(
    a: np.ndarray, b: np.ndarray, shape: AlgebraShape, kind: CompatKind,
    tol: ToleranceConfig,
) -> _CompatStack:
    """Defect of | |a|-|b| | + | 1-|a|-|b| | = 1 for each pair (a[k], b[k]) of
    (N, n, n) stacks of ``shape``: domain uses |a|, |b|, range |a*|, |b*|,
    full both, at once, from one SVD per block of a and b stacked together
    (of a alone when ``b is a``). A direct sum's norm and defect are its
    largest block's. Only operands in the unit ball with norms above 1 are
    divided by their norm (dividing by 1 can flip the sign of a zero), so a
    pair's values do not depend on its stack."""
    sides = (CompatKind.DOMAIN, CompatKind.RANGE) if kind is CompatKind.FULL else (kind,)
    wanted = (CompatKind.DOMAIN in sides, CompatKind.RANGE in sides)
    operands = a[None] if b is a else np.array((a, b))
    absolutes, block_norms = zip(*(_abs_parts(operands[..., sl, sl], *wanted)
                                   for sl in shape.block_slices()))
    norm = reduce(np.maximum, block_norms)
    if above_one := norm.max() > 1.0:
        band = ((norm > 1.0) & ~_beyond_ball(norm - 1.0, tol))[..., None, None]
        scale = np.where(band, norm[..., None, None], 1.0)
        absolutes = [np.where(band, x / scale, x) for x in absolutes]
    one, terms, residuals = np.eye(shape.total_dim, dtype=complex), [], []  # 1 - x: no cast
    for sl, x in zip(shape.block_slices(), absolutes):
        x_a, x_b, eye = x[:, 0], x[:, -1], one[sl, sl]
        diff_gap = _calculus(np.array((x_a - x_b, eye - x_a - x_b)), np.abs)
        terms.append((x, diff_gap))
        # the residual's norm: its eigenvalue of largest modulus
        residuals.append(np.abs(_eigh(diff_gap[0] + diff_gap[1] - eye, vectors=False)).max(-1))
    # the larger of the first and last rows: a single row is its own
    per_side, norm_a, norm_b = reduce(np.maximum, residuals), norm[0], norm[-1]
    return _CompatStack(np.maximum(per_side[0], per_side[-1]), dict(zip(sides, per_side)),
                        norm_a, norm_b, np.maximum(norm_a, norm_b) - 1.0, terms, above_one)


def _operand(label: str, i: int, n: int) -> str:
    """An operand's name in a message: with its pair in a stack of several."""
    return label if n == 1 else f"{label} of pair {i}"


def _gated(
    a: np.ndarray, b: np.ndarray, shape: AlgebraShape, kind: CompatKind,
    tol: ToleranceConfig,
) -> tuple[_CompatStack, np.ndarray, np.ndarray]:
    """``_compat_stack`` of (N, n, n) stacks of contractions, and a, b gated
    into the unit ball: renormalized from norms above 1, NotContraction beyond."""
    k = _compat_stack(a, b, shape, kind, tol)
    if not k.above_one:
        return k, a, b
    gated = []
    for label, x, norm in (("first operand", a, k.norm_a), ("second operand", b, k.norm_b)):
        i = norm.argmax()
        if _beyond_ball(norm[i] - 1.0, tol):
            raise NotContraction(f"{_operand(label, i, len(x))}: operator norm 1 + "
                                 f"{norm[i] - 1.0:.2g} exceeds 1 + tol ({tol.relation:g})")
        scale = np.maximum(norm, 1.0)[:, None, None]
        gated.append(np.where(scale > 1.0, x / scale, x))
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
    a._check_same_shape(b)
    m = a.matrix[None]
    k = _gated(m, m if b is a else b.matrix[None], a.shape, kind, tol)[0]
    keys, n = _WITNESSES[kind], a.shape.total_dim
    w = np.zeros((len(k.sides), len(_TERMS), n, n), dtype=np.complex128)  # every witness
    for sl, (x, diff_gap) in zip(a.shape.block_slices(), k.terms):
        w[:, :2, sl, sl] = x[:, :, 0]  # a self pair's one operand fills both
        w[:, 2:, sl, sl] = diff_gap[:, :, 0].swapaxes(0, 1)
    return RelationReport.from_defect(f"compat_{kind.value}", k.defect[0], tol.relation,
                                      dict(zip(keys, w.reshape(-1, n, n))))


def _star_norms(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|a b*| and |b* a| of two matrices or of each pair of two stacks."""
    bh = _adj(b)
    return _op_norm(a @ bh), _op_norm(bh @ a)


def is_orthogonal(
    a: AlgebraElement, b: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL
) -> RelationReport:
    """a b* = b* a = 0; defect = max(|a b*|, |b* a|)."""
    a._check_same_shape(b)
    defect = max(*_star_norms(a.matrix, b.matrix))
    return RelationReport.from_defect("orthogonal", defect, tol.relation)


def is_projection(
    a: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL
) -> RelationReport:
    """p = p* = p^2; defect = max(|a^2 - a|, |a - a*|)."""
    m = a.matrix
    defect = max(op_norm(m @ m - m), op_norm(m - m.conj().T))
    return RelationReport.from_defect("projection", defect, tol.relation)


def _piso_defects(m: np.ndarray) -> np.ndarray:
    """|m m* m - m| of a matrix or of each matrix of a stack."""
    return _op_norm(m @ _adj(m) @ m - m)


def is_partial_isometry(
    a: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL
) -> RelationReport:
    """u u* u = u; defect = |a a* a - a|."""
    return RelationReport.from_defect("partial_isometry", _piso_defects(a.matrix),
                                      tol.relation)


# ---------------------------------------------------------------------------
# characterizations: each public check is the N=1 case of one on (N, n, n) stacks
# ---------------------------------------------------------------------------


def _report(name: str, clauses: list, t: float) -> ConsistencyReport:
    """A report from ``(clause name, [(side label, defect), ...])`` pairs."""
    return make_consistency(name, [
        make_clause(clause, [SideCheck(label, d <= t, d) for label, d in sides], t)
        for clause, sides in clauses], t)


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
    a._check_same_shape(b)
    return _orth_reports(a.matrix[None], b.matrix[None], a.shape, tol)[0]


def _orth_reports(
    a: np.ndarray, b: np.ndarray, shape: AlgebraShape, tol: ToleranceConfig
) -> list[ConsistencyReport]:
    k, a, b = _gated(a, b, shape, CompatKind.FULL, tol)
    # lambda_max of |a| + |b| and of |a*| + |b*|: a norm sum is <= 1 iff it is
    lam_max = reduce(np.maximum, (_herm_eigvals(x[:, 0] + x[:, -1])[..., -1]
                                  for x, _ in k.terms))
    herm_gaps = np.maximum(*(_op_norm(x - _adj(x)) for x in (a, b)))
    rows = zip(*(x.tolist() for x in (k.sides[CompatKind.DOMAIN], k.sides[CompatKind.RANGE],
                                      *lam_max, *_star_norms(a, b), herm_gaps)))
    t, reports = tol.relation, []
    for dom, rng_, lam, lam_adj, ab_star, bstar_a, herm_gap in rows:
        gap, gap_adj = max(0.0, lam - 1.0), max(0.0, lam_adj - 1.0)
        both, full = max(ab_star, bstar_a), max(gap, dom, rng_)
        # |(a*)*| = |a|: range compat of the adjoints is domain compat of a, b,
        # and domain compat of the adjoints is range compat of a, b
        clauses = [
            ("a: a b* = 0", [("a b* = 0", ab_star),
                             ("|a|+|b| <= 1 and domain compat", max(gap, dom)),
                             ("|a|+|b| <= 1 and adjoints range compat", max(gap, dom))]),
            ("b: b* a = 0", [("b* a = 0", bstar_a),
                             ("|a*|+|b*| <= 1 and range compat", max(gap_adj, rng_)),
                             ("|a*|+|b*| <= 1 and adjoints domain compat",
                              max(gap_adj, rng_))]),
            ("c: a orthogonal b", [("a b* = b* a = 0", both),
                                   ("norm sums <= 1 and both compat",
                                    max(gap, gap_adj, dom, rng_))]),
        ]
        if herm_gap <= t:
            clauses.append(("self-adjoint: a orthogonal b", [
                ("a b* = b* a = 0", both), ("|a|+|b| <= 1 and full compat", full)]))
        reports.append(_report("orthogonality_characterization", clauses, t))
    return reports


def _unit_interval_gate(x: np.ndarray, tol: ToleranceConfig, label: str) -> None:
    """NotInUnitInterval unless each matrix of the stack x is Hermitian with
    spectrum in [0, 1], within tol."""
    t = tol.relation
    bad = np.flatnonzero(_op_norm(x - _adj(x)) > t)
    if bad.size:
        raise NotInUnitInterval(f"{_operand(label, bad[0], len(x))} is not Hermitian "
                                f"within {t:g}")
    lam = _herm_eigvals(x)
    bad = np.flatnonzero((lam[:, 0] < -t) | _beyond_ball(lam[:, -1] - 1.0, tol))
    if bad.size:
        i = bad[0]
        raise NotInUnitInterval(f"{_operand(label, i, len(x))} has spectrum "
                                f"[{lam[i, 0]:.4g}, {lam[i, -1]:.4g}] outside [0, 1]")


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
    return _p00_reports(a.matrix[None], b.matrix[None], a.shape, tol)[0]


def _p00_reports(
    a: np.ndarray, b: np.ndarray, shape: AlgebraShape, tol: ToleranceConfig
) -> list[ConsistencyReport]:
    _unit_interval_gate(a, tol, "first operand")
    _unit_interval_gate(b, tol, "second operand")
    t = tol.relation
    n, one = len(a), np.eye(shape.total_dim)
    d_compat = _gated(a, b, shape, CompatKind.FULL, tol)[0].defect.tolist()
    diff = a - b
    abs_diff = np.zeros_like(diff)  # |a - b| block by block
    for sl in shape.block_slices():
        abs_diff[..., sl, sl] = _calculus(_hermitize(diff[..., sl, sl]), np.abs)
    d_jordan = _op_norm(2.0 * _jordan(a, b) - (a + b - abs_diff)).tolist()

    # a.b, (1-a).(1-b), a.(1-b), (1-a).b: positive, and the two pairs' products
    prods = np.array([_jordan(a, b), _jordan(one - a, one - b),
                      _jordan(a, one - b), _jordan(one - a, b)])
    positive = _positive_defects(prods.reshape(4 * n, *one.shape))
    products = _op_norm(prods[0::2] @ prods[1::2]).tolist()

    p = [positive[j * n:(j + 1) * n] for j in range(4)]
    rows = zip(d_compat, d_jordan, map(max, p[0], p[1], products[0]),
               map(max, p[2], p[3], products[1]))
    labels = ("absolute compatibility", "2 a.b = a + b - |a-b|",
              "complement products positive orthogonal", "mixed products positive orthogonal")
    return [_report("jordan_product_equivalences",
                    [("jordan-product equivalences", list(zip(labels, row)))], t)
            for row in rows]


def check_tripotent_characterization(
    a: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL
) -> ConsistencyReport:
    """Self-compatibility against the partial-isometry identity: for a
    contraction a, a compat a holds exactly when a a* a = a."""
    return _tripotent_reports(a.matrix[None], a.shape, tol)[0]


def _tripotent_reports(
    a: np.ndarray, shape: AlgebraShape, tol: ToleranceConfig
) -> list[ConsistencyReport]:
    k, a, _ = _gated(a, a, shape, CompatKind.FULL, tol)
    return [_report("tripotent_characterization", [("self-compat vs partial isometry", [
                ("self compat", d_compat), ("a a* a = a", d_piso)])], tol.relation)
            for d_compat, d_piso in zip(k.defect.tolist(), _piso_defects(a).tolist())]


# ---------------------------------------------------------------------------
# commutative (diagonal) characterization
# ---------------------------------------------------------------------------


def _commutative_defects(
    a: np.ndarray, b: np.ndarray, tol: ToleranceConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``commutative_compat_check`` of each pair of (N, n, n) stacks of
    diagonal matrices diag(f), diag(g) in the unit ball (within tol): the
    pointwise defect, the identity's defect and whether their verdicts
    disagree, warning as the one-pair check does."""
    fa, ga = (np.minimum(np.abs(np.diagonal(x, axis1=-2, axis2=-1)), 1.0) for x in (a, b))
    pointwise = (2.0 * np.minimum.reduce([fa, ga, 1.0 - fa, 1.0 - ga])).max(-1, initial=0.0)
    shape = AlgebraShape((a.shape[-1],))
    identity = _gated(a, b, shape, CompatKind.DOMAIN, tol)[0].defect
    t = tol.relation
    split = (pointwise <= t) != (identity <= t)
    near = _near_threshold(pointwise, t) & _near_threshold(identity, t)
    for p, i in zip(pointwise[split & ~near].tolist(), identity[split & ~near].tolist()):
        warnings.warn("pointwise characterization disagrees with the defining identity on "
                      f"diagonals (defects {p:.3g} vs {i:.3g})", CrossCheckMismatch)
    return pointwise, identity, split


def commutative_compat_check(
    f: np.ndarray, g: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL
) -> RelationReport:
    """Pointwise compatibility test for functions on a finite set: at every
    coordinate the product must vanish (for scalars: one factor is zero)
    unless one factor has modulus one.

    Per-coordinate defect 2 min(|f|, |g|, 1-|f|, 1-|g|), which is exactly the
    scalar residual of the defining identity; the overall defect is the worst
    coordinate. The verdict is always cross-validated against the defining
    identity (domain kind) on diag(f), diag(g), whose defect is kept as the
    0-d witness ``identity_defect``; a disagreement outside the
    near-threshold band raises a CrossCheckMismatch warning. Values outside
    the disk raise NotContraction; empty samples and other non-finite values
    raise ValueError.
    """
    f = np.atleast_1d(np.asarray(f, dtype=np.complex128))
    g = np.atleast_1d(np.asarray(g, dtype=np.complex128))
    if f.ndim != 1 or g.ndim != 1:
        raise LengthMismatch("function samples must be one-dimensional")
    if f.shape != g.shape:
        raise LengthMismatch(f"length mismatch: {f.shape[0]} vs {g.shape[0]}")
    if not f.size:
        raise ValueError("function samples must be nonempty")
    t = tol.relation
    # f and g apart: a NaN in either must reach the finiteness check below
    if any(_beyond_ball(np.abs(x).max(initial=0.0) - 1.0, tol) for x in (f, g)):
        raise NotContraction("function values must lie in the closed unit disk")
    if not (np.isfinite(f).all() and np.isfinite(g).all()):
        raise ValueError("function values must be finite")
    a, b = _diag(f[None]), _diag(g[None])
    defect, identity = (float(x[0]) for x in _commutative_defects(a, b, tol)[:2])
    return RelationReport.from_defect(
        "commutative_compat", defect, t,
        {"diag_f": a[0], "diag_g": b[0], "identity_defect": np.asarray(identity)},
    )


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

    def cut_block(blk: np.ndarray) -> np.ndarray:
        u_blk, sigma, right_h, _ = _rank_cut_svd(blk, tol.rank)
        d_lo, d_hi = np.abs(sigma - lo), np.abs(sigma - hi)
        near = np.minimum(d_lo, d_hi) <= tol.relation
        if near.any() and not snap:
            raise EndpointAmbiguity(f"singular value {sigma[near][0]:.12g} "
                                    f"within {tol.relation:g} of an endpoint")
        # snap to the nearest endpoint (lo on a tie), then apply its boundary flag
        sel = np.where(near, np.where(d_lo <= d_hi, boundary.lo_closed, boundary.hi_closed),
                       (lo < sigma) & (sigma < hi))
        cols = right_h[sel, :].conj().T
        proj = cols @ cols.conj().T
        return u_blk @ proj

    # block by block: a full-matrix SVD may mix degenerate blocks numerically
    return AlgebraElement._wrap(a.shape, _block_diag(a.shape, map(cut_block, a.blocks())))
