"""Linear maps between block algebras: structural builders (*-homomorphisms,
*-anti-homomorphisms, two-sided unitary multiplications), sampled
contractivity and compatibility-preservation audits, triple-homomorphism
testing and classification into homomorphic/anti-homomorphic block ideals,
and seeded counterexample fuzzing.

Preservation verdicts are one-sided: "false" carries a concrete witness and
is conclusive, "true" only means no violation was found within the budget.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .algebra import AlgebraElement, AlgebraShape, _block_diag, unit
from .errors import (
    AmbiguousBlock,
    GeneratorExhausted,
    NotContraction,
    NotTripleHom,
    NotUnitary,
    ShapeIncompatible,
    ShapeMismatch,
)
from .linalg import _op_norm, _svd, op_norm
from .relations import (CompatKind, _beyond_ball, _compat_stack, compat_defect,
                        is_partial_isometry)
from .reports import RelationReport
from .sampling import _contraction_draw, _drawn_pairs, _elements, _fixed_pairs, _wrapped
from .tolerance import DEFAULT_TOL, ToleranceConfig

__all__ = [
    "Provenance",
    "LinearMap",
    "PreservationReport",
    "Witness",
    "TripleHomClassification",
    "build_block_map",
    "build_star_hom",
    "build_star_anti_hom",
    "build_sandwich",
    "transpose_map",
    "identity_map",
    "scale_map",
    "is_contractive_sampled",
    "is_triple_hom",
    "preserves_compat_sampled",
    "classify_triple_hom",
    "fuzz_counterexample",
    "range_version_adapter",
]


class Provenance(Enum):
    STAR_HOM = "star_hom"
    STAR_ANTI_HOM = "star_anti_hom"
    SANDWICH = "sandwich"
    TRANSPOSE = "transpose"
    CUSTOM = "custom"


MAX_TOTAL_DIM = 32
"""Largest total dimension of a map's domain or codomain: the m^2 x n^2 action
takes 16 MiB at n = m = 32, and larger shapes are refused before allocating."""
# Largest ``verify-suite --trials`` and ``fuzz --budget``: at about 1.5 ms a trial
# (dims 2,3) and 70 us a pair (M2 doubling hom) on 2 cores, the runs take minutes
MAX_TRIALS, MAX_BUDGET = 10**5, 10**6


def _check_map_shapes(*shapes: AlgebraShape) -> None:
    n = max(shape.total_dim for shape in shapes)
    if n > MAX_TOTAL_DIM:
        raise ShapeIncompatible(
            f"total dimension {n} exceeds the limit {MAX_TOTAL_DIM} for linear maps")


class LinearMap:
    """Complex-linear map given by its action matrix on vectorized elements.

    The action has size (codomain total_dim^2) x (domain total_dim^2) and is
    masked so block-diagonal inputs produce block-diagonal outputs exactly.
    """

    __slots__ = ("domain_shape", "codomain_shape", "action", "provenance")

    def __init__(
        self,
        domain_shape: AlgebraShape,
        codomain_shape: AlgebraShape,
        action: np.ndarray,
        provenance: Provenance = Provenance.CUSTOM,
    ) -> None:
        _check_map_shapes(domain_shape, codomain_shape)
        n, m = domain_shape.total_dim, codomain_shape.total_dim
        action = np.asarray(action, dtype=np.complex128)
        if action.shape != (m * m, n * n):
            raise ShapeIncompatible(
                f"action must be {(m * m, n * n)}, got {action.shape}"
            )
        masked = action.copy()
        masked[~codomain_shape.inblock_mask.reshape(-1), :] = 0.0
        masked[:, ~domain_shape.inblock_mask.reshape(-1)] = 0.0
        if not np.isfinite(masked).all():
            raise ValueError("action entries must be finite")
        masked.flags.writeable = False
        object.__setattr__(self, "domain_shape", domain_shape)
        object.__setattr__(self, "codomain_shape", codomain_shape)
        object.__setattr__(self, "action", masked)
        object.__setattr__(self, "provenance", provenance)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("LinearMap is immutable")

    def apply(self, x: AlgebraElement) -> AlgebraElement:
        if x.shape != self.domain_shape:
            raise ShapeMismatch(
                f"map expects shape {self.domain_shape.block_dims}, "
                f"got {x.shape.block_dims}"
            )
        # masked action rows put exact zeros off-block
        return AlgebraElement._wrap(self.codomain_shape, self._apply_stack(x.matrix[None])[0])

    __call__ = apply

    def _apply_stack(self, x: np.ndarray) -> np.ndarray:
        """T of each matrix of an (N, n, n) stack, unchecked: one matrix-vector
        product per matrix (a matrix product of the stack sums in another
        order for dense actions)."""
        m = self.codomain_shape.total_dim
        return (self.action @ x.reshape(len(x), -1, 1)).reshape(len(x), m, m)


def _map_from_block_action(
    domain: AlgebraShape,
    codomain: AlgebraShape,
    fn,
    provenance: Provenance,
) -> LinearMap:
    """Assemble the action matrix column by column from a callable on full
    matrices (which must return block-diagonal output)."""
    _check_map_shapes(domain, codomain)
    n, m = domain.total_dim, codomain.total_dim
    action = np.zeros((m * m, n * n), dtype=np.complex128)
    for col, e_ij in zip(np.flatnonzero(domain.inblock_mask), _basis_stack(domain)):
        action[:, col] = fn(e_ij).reshape(-1)
    return LinearMap(domain, codomain, action, provenance)


def _check_unitary_block(w: np.ndarray, dim: int, tol: ToleranceConfig,
                         name: str = "builder block") -> np.ndarray:
    w = np.asarray(w, dtype=np.complex128)
    if w.shape != (dim, dim):
        raise ShapeIncompatible(f"unitary block must be {dim}x{dim}, got {w.shape}")
    if op_norm(w.conj().T @ w - np.eye(dim)) > tol.relation:
        raise NotUnitary(f"{name} is not unitary within tolerance")
    return w


def _resolve_blockwise(
    domain: AlgebraShape,
    codomain: AlgebraShape,
    block_assignment: Sequence[int | None],
    unitaries: Sequence[np.ndarray | None] | None,
    tol: ToleranceConfig,
) -> list[tuple[int | None, np.ndarray | None]]:
    if len(block_assignment) != codomain.num_blocks:
        raise ShapeIncompatible(
            f"block_assignment must have one entry per codomain block "
            f"({codomain.num_blocks}), got {len(block_assignment)}"
        )
    if unitaries is not None and len(unitaries) != codomain.num_blocks:
        raise ShapeIncompatible("unitaries must have one entry per codomain block")
    wiring: list[tuple[int | None, np.ndarray | None]] = []
    for j, src in enumerate(block_assignment):
        w = None if unitaries is None else unitaries[j]
        if src is None:
            wiring.append((None, None))
            continue
        src = int(src)
        if not 0 <= src < domain.num_blocks:
            raise ShapeIncompatible(f"domain block index {src} out of range")
        if domain.block_dims[src] != codomain.block_dims[j]:
            raise ShapeIncompatible(
                f"codomain block {j} (dim {codomain.block_dims[j]}) cannot "
                f"receive domain block {src} (dim {domain.block_dims[src]})"
            )
        if w is not None:
            w = _check_unitary_block(w, codomain.block_dims[j], tol)
        wiring.append((src, w))
    return wiring


def build_block_map(
    domain: AlgebraShape,
    codomain: AlgebraShape,
    block_assignment: Sequence[int | None],
    transpose_flags: Sequence[bool] | None = None,
    unitaries: Sequence[np.ndarray | None] | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
    provenance: Provenance = Provenance.CUSTOM,
) -> LinearMap:
    """Blockwise structural map: codomain block j receives domain block
    block_assignment[j] (None means zero), optionally transposed, then
    conjugated by unitaries[j].

    With no transposes this is a *-homomorphism, with all transposes a
    *-anti-homomorphism; a mix is still a triple homomorphism."""
    wiring = _resolve_blockwise(domain, codomain, block_assignment, unitaries, tol)
    if transpose_flags is None:
        transpose_flags = [False] * codomain.num_blocks
    if len(transpose_flags) != codomain.num_blocks:
        raise ShapeIncompatible("transpose_flags must have one entry per codomain block")
    dom_slices = domain.block_slices()
    cod_dims = codomain.block_dims

    def fn(x: np.ndarray) -> np.ndarray:
        blocks = []
        for (src, w), flip, dim in zip(wiring, transpose_flags, cod_dims):
            if src is None:
                blocks.append(np.zeros((dim, dim), dtype=np.complex128))
                continue
            piece = x[dom_slices[src], dom_slices[src]]
            if flip:
                piece = piece.T
            blocks.append(piece if w is None else w @ piece @ w.conj().T)
        return _block_diag(codomain, blocks)

    return _map_from_block_action(domain, codomain, fn, provenance)


def build_star_hom(
    domain: AlgebraShape,
    codomain: AlgebraShape,
    block_assignment: Sequence[int | None],
    unitaries: Sequence[np.ndarray | None] | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> LinearMap:
    """*-homomorphism: codomain block j receives domain block
    block_assignment[j] conjugated by unitaries[j] (None means zero / identity).

    One domain block may feed several codomain blocks (x -> x (+) x style)."""
    return build_block_map(
        domain, codomain, block_assignment, None, unitaries, tol,
        Provenance.STAR_HOM,
    )


def build_star_anti_hom(
    domain: AlgebraShape,
    codomain: AlgebraShape,
    block_assignment: Sequence[int | None],
    unitaries: Sequence[np.ndarray | None] | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> LinearMap:
    """*-anti-homomorphism: blockwise transpose composed with a *-homomorphism."""
    return build_block_map(
        domain, codomain, block_assignment,
        [True] * codomain.num_blocks, unitaries, tol,
        Provenance.STAR_ANTI_HOM,
    )


def transpose_map(shape: AlgebraShape) -> LinearMap:
    """Blockwise transpose, the canonical *-anti-automorphism."""
    return _map_from_block_action(shape, shape, lambda x: x.T, Provenance.TRANSPOSE)


def identity_map(shape: AlgebraShape) -> LinearMap:
    return build_star_hom(shape, shape, list(range(shape.num_blocks)))


def scale_map(shape: AlgebraShape, factor: complex) -> LinearMap:
    return _map_from_block_action(shape, shape, lambda x: complex(factor) * x,
                                  Provenance.CUSTOM)


def build_sandwich(
    u: AlgebraElement, v: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL
) -> LinearMap:
    """x -> u x v for unitary u, v: a triple homomorphism that is neither
    symmetric nor multiplicative in general."""
    u._check_same_shape(v)
    _check_unitary_block(u.matrix, u.shape.total_dim, tol, "u")
    _check_unitary_block(v.matrix, u.shape.total_dim, tol, "v")
    return _map_from_block_action(u.shape, u.shape, lambda x: u.matrix @ x @ v.matrix,
                                  Provenance.SANDWICH)


# ---------------------------------------------------------------------------
# map-level checks
# ---------------------------------------------------------------------------


def is_contractive_sampled(
    T: LinearMap,
    n_samples: int = 64,
    seed: int = 0,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> RelationReport:
    """Sampled unit-ball certificate: defect = max(0, max |T(x)| - 1) over
    unit-norm samples. A false verdict is conclusive (worst sample recorded);
    a true verdict only means no violation was found."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    shape = T.domain_shape
    x = _elements(np.random.default_rng(seed), shape, _contraction_draw, n_samples)
    norm = _op_norm(x)
    samples = np.concatenate([_basis_stack(shape), x[norm > 0] / norm[norm > 0, None, None]])
    excess = _op_norm(T._apply_stack(samples)) - 1.0
    worst = int(excess.argmax())  # the first sample of largest excess
    witnesses = {"worst_sample": samples[worst]} if excess[worst] > 0.0 else {}
    return RelationReport.from_defect("contractive_sampled", max(0.0, float(excess[worst])),
                                      tol.relation, witnesses)


def _basis_stack(shape: AlgebraShape) -> np.ndarray:
    """The in-block matrix units, stacked in ``basis_coords`` order."""
    n = shape.total_dim
    return np.eye(n * n, dtype=np.complex128)[shape.inblock_mask.reshape(-1)].reshape(-1, n, n)


_TILE_ENTRIES = 1 << 12  # matrix entries in one tile of _pair_pass's table


def _max_op_norm(stack: np.ndarray, floor: float) -> float:
    """max(floor, largest operator norm in a stack of m x m matrices), exactly. As
    ``‖D‖₂ ≤ ‖D‖_F`` (with a margin for rounding), an SVD is taken of the candidate
    of largest Frobenius norm, then of those whose Frobenius norm exceeds the
    maximum so far, which is at least ``‖D‖_F / √m`` of the first."""
    parts = np.ascontiguousarray(stack).view(np.float64)  # real and imaginary parts
    fro = np.sqrt(np.einsum("ijk,ijk->i", parts, parts)) * (1.0 + 1e-10)
    if fro.max(initial=floor) <= floor:
        return floor
    top = int(fro.argmax())
    best = max(floor, float(_svd(stack[top], compute_uv=False)[0]))
    keep = fro > best
    keep[top] = False
    if keep.any():
        best = max(best, float(_svd(stack[keep], compute_uv=False)[:, 0].max()))
    return best


def _tiles(shape: AlgebraShape, m: int) -> Iterator[tuple[int, int, int, int, int, int]]:
    """(block, end, a, b, c, d): tiles x in [a, b), y in [c, d) covering each pair
    x <= y of matrix units once, x in the block of units ending at ``end``, of at
    most ``_TILE_ENTRIES`` entries of m x m products (whole rows, or one row in
    chunks), so memory stays O(tile) up to ``MAX_TOTAL_DIM``, where a whole
    table can take about 1 GB."""
    per, units, end = max(1, _TILE_ENTRIES // (m * m)), np.count_nonzero(shape.inblock_mask), 0
    for bi, dim in enumerate(shape.block_dims):
        a, end = end, end + dim * dim
        while a < end:
            b = min(end, a + max(1, per // (units - a)))
            for c in range(a, units, per):
                yield bi, end, a, b, c, min(c + per, units)
            a = b


def _pair_pass(T: LinearMap, e: np.ndarray, split: bool) -> tuple[float, list[list[float]]]:
    """``is_triple_hom``'s defect, with e = T(1), and with ``split`` the largest
    |e*(T(xy) - Tx e* Ty)| and |e*(T(xy) - Ty e* Tx)| over the pairs of matrix
    units inside each domain block. Per codomain block, both come from the table
    P[x, y] = Tx e* Ty, one matrix product per ``_tiles`` tile of P[x, y] and one
    of P[y, x]. J's residual is symmetric, so it is judged for x <= y only;
    ``split`` takes both orders of those pairs from e* times the same two
    tiles, which covers the pairs y < x. No product is
    mapped: for x = e_ij and y = e_kl, T(xy) = δ_jk T(e_il) and T(yx) = δ_li
    T(e_kj) are columns of the action."""
    shape, n, m = T.domain_shape, T.domain_shape.total_dim, T.codomain_shape.total_dim
    rows, cols = shape.basis_coords()
    index = np.zeros((n, n), dtype=np.intp)
    index[rows, cols] = np.arange(rows.size)
    full = T.action.T.reshape(n, n, m, m)  # full[p, q] = T(e_pq)
    defect, residuals = 0.0, [[0.0, 0.0] for _ in shape.block_dims]
    for cs in T.codomain_shape.block_slices():
        images, eb = full[:, :, cs, cs], e[cs, cs]
        mc, eb_adj, t = len(eb), eb.conj().T, images[rows, cols]  # t[x] = T(x)
        defect = _max_op_norm(images[cols, rows] - eb @ t.conj().swapaxes(1, 2) @ eb, defect)
        e_wide = eb_adj @ t.swapaxes(0, 1).reshape(mc, -1)  # e* Ty side by side
        # -T/2 and -e* T as left factors: halving is exact, so a table of -T/2 is -P/2
        neg_half, neg_e_t = -0.5 * t, -(eb_adj @ t) if split else None

        def table(left: np.ndarray, a: int, b: int, c: int, d: int) -> np.ndarray:
            """left_u e* T_v for u in [a, b), v in [c, d), indexed [u, v]."""
            prod = left[a:b].reshape(-1, mc) @ e_wide[:, c * mc:d * mc]
            return prod.reshape(b - a, mc, d - c, mc).swapaxes(1, 2)

        for bi, end, a, b, c, d in _tiles(shape, mc):
            i, j, k, l = rows[a:b, None], cols[a:b, None], rows[c:d], cols[c:d]
            hit_xy, hit_yx = j == k, l == i  # xy = e_il, yx = e_kj
            lower = np.tril_indices(b - a, -1)  # y < x (then c = a): judged as (y, x)
            hit_xy[lower] = hit_yx[lower] = False
            u_xy, u_yx = index[i, l][hit_xy], index[k, j][hit_yx]
            diff = np.ascontiguousarray(table(neg_half, a, b, c, d))  # one product at a time
            diff += table(neg_half, c, d, a, b).swapaxes(0, 1)  # -(P[x, y] + P[y, x]) / 2
            diff[lower] = 0.0
            flat = diff.reshape(-1, mc, mc)
            flat[np.flatnonzero(hit_xy)] -= neg_half[u_xy]
            flat[np.flatnonzero(hit_yx)] -= neg_half[u_yx]
            defect = _max_op_norm(flat, defect)
            d = min(d, end)  # the pairs inside the block; every hit is one of them
            if not split or c >= d:
                continue
            del diff, flat  # before the split's tiles: memory stays at a few tiles
            hx, hy = np.flatnonzero(hit_xy[:, :d - c]), np.flatnonzero(hit_yx[:, :d - c])
            q = np.empty((2, b - a, d - c, mc, mc), dtype=np.complex128)
            q[0] = table(neg_e_t, a, b, c, d)  # -e* P[x, y]
            q[1] = table(neg_e_t, c, d, a, b).swapaxes(0, 1)  # -e* P[y, x]
            q[:, lower[0], lower[1]] = 0.0  # both orders of y < x are those of (y, x)
            q = q.reshape(2, -1, mc, mc)
            # T(xy) against P[x, y] (multiplicativity), then against P[y, x]
            for side, (s_xy, s_yx) in enumerate([(0, 1), (1, 0)]):
                kept = q[s_xy, hx], q[s_yx, hy]  # restored for the other side
                q[s_xy, hx] -= neg_e_t[u_xy]
                q[s_yx, hy] -= neg_e_t[u_yx]
                residuals[bi][side] = _max_op_norm(q.reshape(-1, mc, mc), residuals[bi][side])
                q[s_xy, hx], q[s_yx, hy] = kept
    return defect, residuals


def is_triple_hom(T: LinearMap, tol: ToleranceConfig = DEFAULT_TOL) -> RelationReport:
    """Triple-product preservation, checked over pairs of matrix units.

    With e = T(1), T is a triple homomorphism exactly when, for all matrix
    units x and y, J: T(x∘y) = (Tx e* Ty + Ty e* Tx) / 2 and A: T(x*) =
    e (Tx)* e. *Only if:* put 1 in the middle slot, then in both outer slots.
    *If:* J gives e = ee*e and puts T in ee* B e*e, a C*-algebra with product
    a e* b, involution e a* e and unit e, where T is a Jordan *-homomorphism,
    which preserves triple products. Both identities are (conjugate-)linear.

    defect = the largest residual of J over all unit pairs and of A over all
    units. It is not the unit-triple maximum d_triple, but at most n^2 d_triple
    for a domain of total dimension n: J sums the n triple residuals at
    {x, e_kk, y}, A the n^2 at {e_kk, x, e_ll}. For x -> c x both are
    |c| (1 - |c|^2), exactly. J's residual is the same at (x, y) and (y, x),
    so it is taken once per pair, from the table P[x, y] = Tx e* Ty built in
    bounded tiles (``_pair_pass``); ``_max_op_norm`` prunes SVDs without loss."""
    defect, _ = _pair_pass(T, T.apply(unit(T.domain_shape)).matrix, split=False)
    return RelationReport.from_defect("triple_homomorphism", defect, tol.relation)


# ---------------------------------------------------------------------------
# preservation audits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """A compatible input pair and the compatibility defect of its image: a
    witness against preservation when that defect exceeds the tolerance."""

    a: AlgebraElement
    b: AlgebraElement
    input_defect: float
    output_defect: float
    source: str
    index: int


@dataclass(frozen=True)
class PreservationReport:
    """Outcome of a sampled compatibility-preservation audit."""

    kind: CompatKind
    output_kind: CompatKind
    n_pairs: int
    violations: int
    max_output_defect: float
    worst: Witness | None
    verdict: bool
    tolerance_used: float


def _judge_one(T: LinearMap, pair: tuple, output_kind: CompatKind,
               tol: ToleranceConfig) -> tuple[float, str]:
    """The compatibility defect at ``output_kind`` of the images of the
    (source, a, b, defect) ``pair`` (for an image outside the unit ball, its
    norm excess) and a source suffix, from ``T.apply`` and ``compat_defect``."""
    ta, tb = T.apply(pair[1]), T.apply(pair[2])
    try:
        return compat_defect(ta, tb, output_kind, tol).defect, ""
    except NotContraction:
        return max(op_norm(ta.matrix), op_norm(tb.matrix)) - 1.0, "+noncontractive-image"


def _judge(T: LinearMap, stacks: np.ndarray, output_kind: CompatKind,
           tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """``_judge_one`` of each pair of the ``(2, M, D, D)`` ``stacks``: the
    output defects, and which pairs have an image outside the unit ball, from
    one matrix-vector product per element, as ``T.apply`` takes it, and one
    kernel call."""
    m = stacks.shape[1]
    images = T._apply_stack(stacks.reshape(2 * m, *stacks.shape[2:]))
    k = _compat_stack(images[:m], images[m:], T.codomain_shape, output_kind, tol)
    outside = _beyond_ball(k.excess, tol)
    return np.where(outside, k.excess, k.defect), outside


# a stack of judged pairs: the stream index of its first row, the sources, the
# (2, M, D, D) stacks of a and b, and per row the input defect, the output defect
# and whether an image left the unit ball
_Judged = namedtuple("_Judged", "start names stacks input_defects output_defects outside")


def _witness(shape: AlgebraShape, judged: _Judged, row: int) -> Witness:
    """Row ``row`` of a ``_Judged`` stack, wrapped as elements of ``shape``."""
    suffix = "+noncontractive-image" if judged.outside[row] else ""
    return Witness(*_wrapped(shape, judged.stacks, row), float(judged.input_defects[row]),
                   float(judged.output_defects[row]), judged.names[row] + suffix,
                   judged.start + int(row))


def _judged_pairs(
    T: LinearMap, kind: CompatKind, output_kind: CompatKind, n_pairs: int,
    seed: int, tol: ToleranceConfig, stack_fixed: bool = False,
) -> Iterator[_Judged]:
    """The first ``n_pairs`` pairs of ``compatible_pairs`` at ``kind``, with
    the compatibility defects of their images at ``output_kind``, one
    ``_Judged`` per stack. Images escaping the unit ball are themselves
    violations (the relation is only defined on the ball), with their norm
    excess as defect, labelled ``source+noncontractive-image``. The fixed
    pairs, cut at ``n_pairs``, are judged one at a time (``_judge_one``) by
    default, so a search that stops among them (fuzzing) draws nothing; with
    ``stack_fixed`` (audits, which judge every pair) they are one stack and
    one ``_judge``, a pair outside the unit ball taking its norm excess from
    ``_judge_one``. The drawn pairs stay in the stacks ``_drawn_pairs``
    accepts them in, one ``_judge`` each. Nothing is wrapped here:
    ``_witness`` wraps the row an audit returns."""
    shape, fixed = T.domain_shape, _fixed_pairs(T.domain_shape, kind, tol)[:n_pairs]
    if stack_fixed and fixed:
        stacks = np.array([[pair[i].matrix for pair in fixed] for i in (1, 2)])
        out, outside = _judge(T, stacks, output_kind, tol)
        for row in np.flatnonzero(outside):  # the norm excess as _judge_one takes it
            out[row] = _judge_one(T, fixed[row], output_kind, tol)[0]
        yield _Judged(0, [pair[0] for pair in fixed], stacks,
                      np.array([pair[3] for pair in fixed]), out, outside)
    for start, pair in enumerate([] if stack_fixed else fixed):
        out_defect, suffix = _judge_one(T, pair, output_kind, tol)
        yield _Judged(start, [pair[0]], np.stack([pair[1].matrix, pair[2].matrix])[:, None],
                      np.array([pair[3]]), np.array([out_defect]), np.array([bool(suffix)]))
    start, rng = len(fixed), np.random.default_rng(seed)
    for names, stacks, in_defects in _drawn_pairs(shape, kind, rng, tol, n_pairs - start):
        yield _Judged(start, names, stacks, in_defects, *_judge(T, stacks, output_kind, tol))
        start += len(names)


def preserves_compat_sampled(
    T: LinearMap,
    kind: CompatKind,
    n_pairs: int,
    seed: int = 0,
    tol: ToleranceConfig = DEFAULT_TOL,
    output_kind: CompatKind | None = None,
) -> PreservationReport:
    """Judge the first ``n_pairs`` pairs of ``compatible_pairs(shape, kind,
    seed)`` (fixed witness pairs included) and report every image whose
    defect at ``output_kind`` exceeds the tolerance (default: same kind;
    anti-homomorphisms are audited with the swapped kind). The worst
    violation, the first pair of largest defect, is the witness. Every pair
    is judged, so the fixed pairs are judged as one stack (``_judged_pairs``),
    with the bytes fuzzing gives them one at a time. Raises
    GeneratorExhausted when the stream ends first (``_RETRIES`` rejected
    draws in a row).

    A quick sampled contractivity check runs first and warns (never blocks)
    if the map escapes the unit ball: the compatibility notion assumes
    contractive maps.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    output_kind = output_kind or kind
    spot = is_contractive_sampled(T, 16, seed=seed ^ 0x9E3779B9, tol=tol)
    if not spot.verdict:
        warnings.warn(
            f"map appears non-contractive (sampled defect {spot.defect:.3g}); "
            "preservation of compatibility presumes a contraction",
            UserWarning,
        )
    violations, max_defect, top, judged = 0, 0.0, None, 0
    for chunk in _judged_pairs(T, kind, output_kind, n_pairs, seed, tol, stack_fixed=True):
        out = chunk.output_defects
        violations += int(np.count_nonzero(out > tol.relation))
        row = int(out.argmax())  # the first row of largest defect
        if out[row] > max_defect:  # later ties keep the earlier pair
            max_defect, top = float(out[row]), (chunk, row)
        judged = chunk.start + len(chunk.names)
    if judged < n_pairs:
        raise GeneratorExhausted(
            f"the pair stream ended after {judged} of {n_pairs} pairs "
            f"on shape {T.domain_shape.block_dims}")
    worst = _witness(T.domain_shape, *top) if violations else None
    return PreservationReport(kind, output_kind, n_pairs, violations, max_defect,
                              worst, violations == 0, tol.relation)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TripleHomClassification:
    """Block ideal split of a triple homomorphism.

    unit_image is e = T(1) (a partial isometry); e* T(.) restricted to each
    domain block is a *-homomorphism (hom blocks) or a *-anti-homomorphism
    (antihom blocks); the two index sets partition the domain blocks.
    """

    unit_image: AlgebraElement
    hom_block_indices: frozenset[int]
    antihom_block_indices: frozenset[int]
    residuals: dict[int, tuple[float, float]] = field(default_factory=dict)


def classify_triple_hom(
    T: LinearMap, tol: ToleranceConfig = DEFAULT_TOL
) -> TripleHomClassification:
    """Split the domain blocks of a triple homomorphism into homomorphic and
    anti-homomorphic parts of phi = e* T(.), by per-block multiplicativity
    defects |phi(xy) - phi(x) phi(y)| and |phi(xy) - phi(y) phi(x)| over
    matrix-unit pairs inside the block, taken in the pass that gives the
    triple-homomorphism verdict (phi(x) phi(y) = e* Tx e* Ty). One-dimensional
    blocks (both defects zero) go to the homomorphic side by convention."""
    e = T.apply(unit(T.domain_shape))
    defect, split = _pair_pass(T, e.matrix, split=True)
    if defect > tol.relation:
        raise NotTripleHom(f"triple-homomorphism defect {defect:.3g}")
    pi = is_partial_isometry(e, tol)
    if not pi.verdict:
        raise NotTripleHom(f"unit image is not a partial isometry (defect {pi.defect:.3g})")
    residuals = {bi: (mult, anti) for bi, (mult, anti) in enumerate(split)}
    hom = frozenset(bi for bi, (mult, _) in residuals.items() if mult <= tol.relation)
    for bi, (mult, anti) in residuals.items():
        if bi not in hom and anti > tol.relation:
            raise AmbiguousBlock(f"block {bi}: multiplicativity defect {mult:.3g} and "
                                 f"anti-multiplicativity defect {anti:.3g} both exceed "
                                 f"{tol.relation:g}")
    return TripleHomClassification(e, hom, frozenset(residuals) - hom, residuals)


# ---------------------------------------------------------------------------
# fuzzing and the adjoint adapter
# ---------------------------------------------------------------------------


def fuzz_counterexample(
    T: LinearMap,
    kind: CompatKind = CompatKind.FULL,
    budget: int = 1000,
    seed: int = 0,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> Witness | None:
    """The first pair among the first ``budget`` of ``compatible_pairs(shape,
    kind, seed)`` whose image violates compatibility at ``kind``, or None.

    The fixed witness pairs come first, so known-hard cases make regressions
    deterministic; identical seeds replay identical searches. The fixed pairs
    are judged one at a time, so a refutation among them draws nothing.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    for chunk in _judged_pairs(T, kind, kind, budget, seed, tol):
        over = np.flatnonzero(chunk.output_defects > tol.relation)
        if over.size:
            return _witness(T.domain_shape, chunk, over[0])
    return None


def range_version_adapter(T: LinearMap) -> LinearMap:
    """S with S(x) = T(x*)*: S preserves domain compatibility exactly when T
    preserves range compatibility (and vice versa)."""
    # conjugating vec(x) -> vec(x^T) on both sides is an index transpose
    m, n = T.codomain_shape.total_dim, T.domain_shape.total_dim
    action = T.action.reshape(m, m, n, n).transpose(1, 0, 3, 2)
    action = action.reshape(m * m, n * n).conj()
    return LinearMap(T.domain_shape, T.codomain_shape, action, Provenance.CUSTOM)
