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
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .algebra import AlgebraElement, AlgebraShape, _block_diag, adjoint, unit
from .errors import (
    AmbiguousBlock,
    GeneratorExhausted,
    NotContraction,
    NotTripleHom,
    NotUnitary,
    ShapeIncompatible,
    ShapeMismatch,
)
from .linalg import _svd, op_norm
from .relations import CompatKind, compat_defect, is_partial_isometry
from .reports import RelationReport
from .sampling import (
    PairGenerator,
    PairStrategy,
    generate_compat_pair,
    known_witness_pairs,
    rand_contraction,
)
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


def _inblock_mask(shape: AlgebraShape) -> np.ndarray:
    mask = np.zeros((shape.total_dim, shape.total_dim), dtype=bool)
    for sl in shape.block_slices():
        mask[sl, sl] = True
    return mask


class LinearMap:
    """Complex-linear map given by its action matrix on vectorized elements.

    The action has size (codomain total_dim^2) x (domain total_dim^2) and is
    masked so block-diagonal inputs produce block-diagonal outputs exactly.
    """

    __slots__ = ("domain_shape", "codomain_shape", "action", "provenance", "params")

    def __init__(
        self,
        domain_shape: AlgebraShape,
        codomain_shape: AlgebraShape,
        action: np.ndarray,
        provenance: Provenance = Provenance.CUSTOM,
        params: Mapping | None = None,
    ) -> None:
        n, m = domain_shape.total_dim, codomain_shape.total_dim
        action = np.asarray(action, dtype=np.complex128)
        if action.shape != (m * m, n * n):
            raise ShapeIncompatible(
                f"action must be {(m * m, n * n)}, got {action.shape}"
            )
        masked = action.copy()
        masked[~_inblock_mask(codomain_shape).reshape(-1), :] = 0.0
        masked[:, ~_inblock_mask(domain_shape).reshape(-1)] = 0.0
        masked.flags.writeable = False
        object.__setattr__(self, "domain_shape", domain_shape)
        object.__setattr__(self, "codomain_shape", codomain_shape)
        object.__setattr__(self, "action", masked)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "params", dict(params or {}))

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("LinearMap is immutable")

    def apply(self, x: AlgebraElement) -> AlgebraElement:
        if x.shape != self.domain_shape:
            raise ShapeMismatch(
                f"map expects shape {self.domain_shape.block_dims}, "
                f"got {x.shape.block_dims}"
            )
        m = self.codomain_shape.total_dim
        out = (self.action @ x.matrix.reshape(-1)).reshape(m, m)
        # masked action rows put exact zeros off-block
        return AlgebraElement._wrap(self.codomain_shape, out)

    __call__ = apply


def _map_from_block_action(
    domain: AlgebraShape,
    codomain: AlgebraShape,
    fn,
    provenance: Provenance,
    params: Mapping | None = None,
) -> LinearMap:
    """Assemble the action matrix column by column from a callable on full
    matrices (which must return block-diagonal output)."""
    n, m = domain.total_dim, codomain.total_dim
    action = np.zeros((m * m, n * n), dtype=np.complex128)
    for (i, j), e_ij in zip(domain.basis_coords(), _basis_stack(domain)):
        action[:, i * n + j] = fn(e_ij).reshape(-1)
    return LinearMap(domain, codomain, action, provenance, params)


def _check_unitary_block(w: np.ndarray, dim: int, tol: ToleranceConfig) -> np.ndarray:
    w = np.asarray(w, dtype=np.complex128)
    if w.shape != (dim, dim):
        raise ShapeIncompatible(f"unitary block must be {dim}x{dim}, got {w.shape}")
    if op_norm(w.conj().T @ w - np.eye(dim)) > tol.relation:
        raise NotUnitary("builder block is not unitary within tolerance")
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
    return _map_from_block_action(
        shape, shape, lambda x: complex(factor) * x, Provenance.CUSTOM,
        {"factor": complex(factor)},
    )


def build_sandwich(
    u: AlgebraElement, v: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL
) -> LinearMap:
    """x -> u x v for unitary u, v: a triple homomorphism that is neither
    symmetric nor multiplicative in general."""
    u._check_same_shape(v)
    eye = np.eye(u.shape.total_dim)
    for name, el in (("u", u), ("v", v)):
        if op_norm(el.matrix.conj().T @ el.matrix - eye) > tol.relation:
            raise NotUnitary(f"{name} is not unitary within tolerance")
    return _map_from_block_action(
        u.shape, u.shape, lambda x: u.matrix @ x @ v.matrix,
        Provenance.SANDWICH, {"u": u, "v": v},
    )


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
    rng = np.random.default_rng(seed)
    worst, worst_x = 0.0, None
    samples = [AlgebraElement(T.domain_shape, e) for e in _basis_stack(T.domain_shape)]
    for _ in range(n_samples):
        x = rand_contraction(rng, T.domain_shape)
        norm = op_norm(x.matrix)
        if norm > 0:
            samples.append(AlgebraElement(x.shape, x.matrix / norm))
    for x in samples:
        excess = op_norm(T.apply(x).matrix) - 1.0
        if excess > worst:
            worst, worst_x = excess, x
    witnesses = {} if worst_x is None else {"worst_sample": worst_x.matrix}
    return RelationReport.from_defect("contractive_sampled", worst, tol.relation,
                                      witnesses)


def _basis_stack(shape: AlgebraShape) -> np.ndarray:
    """The in-block matrix units, stacked in ``basis_coords`` order."""
    n = shape.total_dim
    coords = shape.basis_coords()
    basis = np.zeros((len(coords), n, n), dtype=np.complex128)
    for k, (i, j) in enumerate(coords):
        basis[k, i, j] = 1.0
    return basis


def _apply_stack(T: LinearMap, stack: np.ndarray) -> np.ndarray:
    """T applied to every matrix of an (N, n, n) stack in one product."""
    k, n, m = stack.shape[0], T.domain_shape.total_dim, T.codomain_shape.total_dim
    return (stack.reshape(k, n * n) @ T.action.T).reshape(k, m, m)


def _batch_op_norms(stack: np.ndarray) -> np.ndarray:
    return _svd(stack, compute_uv=False)[:, 0]


def is_triple_hom(T: LinearMap, tol: ToleranceConfig = DEFAULT_TOL) -> RelationReport:
    """Triple-product preservation over all canonical basis triples.

    defect = max over matrix-unit triples (b_i, b_j, b_k) of
    |T{x,y,z} - {Tx,Ty,Tz}|. Real basis triples suffice although the triple
    product is conjugate-linear in the middle slot: T is complex-linear, so
    scaling y by a complex c scales both sides by conj(c), and the identity
    on the basis extends to every triple.
    """
    basis = _basis_stack(T.domain_shape)
    t_basis = _apply_stack(T, basis)
    defect = 0.0
    for x, tx in zip(basis, t_basis):
        for y, ty in zip(basis, t_basis):
            yh, tyh = y.conj().T, ty.conj().T
            lhs = _apply_stack(T, 0.5 * (
                np.einsum("pq,kqr->kpr", x @ yh, basis)
                + np.einsum("kpq,qr->kpr", basis, yh @ x)
            ))
            rhs = 0.5 * (
                np.einsum("pq,kqr->kpr", tx @ tyh, t_basis)
                + np.einsum("kpq,qr->kpr", t_basis, tyh @ tx)
            )
            defect = max(defect, float(_batch_op_norms(lhs - rhs).max(initial=0.0)))
    return RelationReport.from_defect("triple_homomorphism", defect, tol.relation)


# ---------------------------------------------------------------------------
# preservation audits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """A compatible input pair whose image violates compatibility."""

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

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "output_kind": self.output_kind.value,
            "n_pairs": self.n_pairs,
            "violations": self.violations,
            "max_output_defect": self.max_output_defect,
            "verdict": self.verdict,
            "tolerance": self.tolerance_used,
            "worst_source": None if self.worst is None else self.worst.source,
            "worst_index": None if self.worst is None else self.worst.index,
        }


def _image_defect(
    T: LinearMap, a: AlgebraElement, b: AlgebraElement,
    kind: CompatKind, tol: ToleranceConfig,
) -> tuple[float, str]:
    """Compatibility defect of the image pair; images escaping the unit ball
    are themselves violations (the relation is only defined on the ball)."""
    ta, tb = T.apply(a), T.apply(b)
    try:
        return compat_defect(ta, tb, kind, tol).defect, ""
    except NotContraction:
        excess = max(op_norm(ta.matrix), op_norm(tb.matrix)) - 1.0
        return excess, "noncontractive-image"


def preserves_compat_sampled(
    T: LinearMap,
    kind: CompatKind,
    gen: PairGenerator,
    n_pairs: int,
    tol: ToleranceConfig = DEFAULT_TOL,
    output_kind: CompatKind | None = None,
    seed_pairs: Sequence[tuple[AlgebraElement, AlgebraElement]] | None = None,
) -> PreservationReport:
    """Generate pairs with compat_defect(a, b, kind) <= tol and audit the
    images at ``output_kind`` (default: same kind; anti-homomorphisms are
    audited with the swapped kind).

    A quick sampled contractivity check runs first and warns (never blocks)
    if the map escapes the unit ball: the compatibility notion assumes
    contractive maps.
    """
    output_kind = output_kind or kind
    spot = is_contractive_sampled(T, 16, seed=gen.seed ^ 0x9E3779B9, tol=tol)
    if not spot.verdict:
        warnings.warn(
            f"map appears non-contractive (sampled defect {spot.defect:.3g}); "
            "preservation of compatibility presumes a contraction",
            UserWarning,
        )

    violations = 0
    worst: Witness | None = None
    max_defect = 0.0
    index = 0

    def consider(a: AlgebraElement, b: AlgebraElement, in_defect: float, src: str) -> None:
        nonlocal violations, worst, max_defect, index
        out_defect, note = _image_defect(T, a, b, output_kind, tol)
        label = src if not note else f"{src}+{note}"
        if out_defect > max_defect:
            max_defect = out_defect
        if out_defect > tol.relation:
            violations += 1
            if worst is None or out_defect > worst.output_defect:
                worst = Witness(a, b, in_defect, out_defect, label, index)
        index += 1

    for label, a, b in _label_seeds(seed_pairs or []):
        rep = compat_defect(a, b, kind, tol)
        if not rep.verdict:
            warnings.warn(
                f"seed pair {label} is not {kind.value}-compatible "
                f"(defect {rep.defect:.3g}); skipped",
                UserWarning,
            )
            continue
        consider(a, b, rep.defect, label)

    for _ in range(n_pairs):
        a, b, in_defect = generate_compat_pair(gen, T.domain_shape, kind, tol)
        consider(a, b, in_defect, gen.strategy.value)

    return PreservationReport(
        kind, output_kind, index, violations, max_defect, worst,
        violations == 0, tol.relation,
    )


def _label_seeds(seed_pairs) -> list[tuple[str, AlgebraElement, AlgebraElement]]:
    out = []
    for i, item in enumerate(seed_pairs):
        if len(item) == 3:
            out.append(tuple(item))
        else:
            out.append((f"seed_{i}", item[0], item[1]))
    return out


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
    anti-homomorphic parts of e* T(.), by per-block multiplicativity defects
    over matrix-unit pairs. One-dimensional blocks (both defects zero) go to
    the homomorphic side by convention."""
    rep = is_triple_hom(T, tol)
    if not rep.verdict:
        raise NotTripleHom(f"triple-homomorphism defect {rep.defect:.3g}")
    e = T.apply(unit(T.domain_shape))
    pi = is_partial_isometry(e, tol)
    if not pi.verdict:
        raise NotTripleHom(
            f"unit image is not a partial isometry (defect {pi.defect:.3g})"
        )
    e_star = adjoint(e).matrix
    basis = _basis_stack(T.domain_shape)
    phis_all = e_star @ _apply_stack(T, basis)

    hom: set[int] = set()
    anti: set[int] = set()
    residuals: dict[int, tuple[float, float]] = {}
    start = 0
    for bi, dim in enumerate(T.domain_shape.block_dims):
        # the block's matrix units are the next dim^2 entries of the stack
        units = basis[start : start + dim * dim]
        phis = phis_all[start : start + dim * dim]
        start += dim * dim
        mult = anti_mult = 0.0
        for x, phi_x in zip(units, phis):
            # phi(x y) against phi(x) phi(y) and phi(y) phi(x), all y at once
            targets = e_star @ _apply_stack(T, x @ units)
            mult = max(mult, _batch_op_norms(targets - phi_x @ phis).max())
            anti_mult = max(anti_mult, _batch_op_norms(targets - phis @ phi_x).max())
        residuals[bi] = (float(mult), float(anti_mult))
        if mult <= tol.relation:
            hom.add(bi)
        elif anti_mult <= tol.relation:
            anti.add(bi)
        else:
            raise AmbiguousBlock(
                f"block {bi}: multiplicativity defect {mult:.3g} and "
                f"anti-multiplicativity defect {anti_mult:.3g} both exceed "
                f"{tol.relation:g}"
            )
    return TripleHomClassification(e, frozenset(hom), frozenset(anti), residuals)


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
    """Search compatible pairs whose images violate compatibility.

    The stream starts with the fixed witness pairs (known-hard cases make
    regressions deterministic), then round-robins every generation strategy.
    Returns the first violating pair or None within the budget; identical
    seeds replay identical searches.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    shape = T.domain_shape
    evaluated = 0

    def check(a, b, in_defect, src) -> Witness | None:
        nonlocal evaluated
        out_defect, note = _image_defect(T, a, b, kind, tol)
        label = src if not note else f"{src}+{note}"
        idx = evaluated
        evaluated += 1
        if out_defect > tol.relation:
            return Witness(a, b, in_defect, out_defect, label, idx)
        return None

    for label, a, b in known_witness_pairs(shape):
        if evaluated >= budget:
            return None
        rep = compat_defect(a, b, kind, tol)
        if not rep.verdict:
            continue  # this fixed pair is not compatible at the requested kind
        found = check(a, b, rep.defect, label)
        if found is not None:
            return found

    child_seeds = np.random.SeedSequence(seed).generate_state(len(PairStrategy))
    gens = [
        PairGenerator(strategy, int(s))
        for strategy, s in zip(PairStrategy, child_seeds)
    ]
    active = [g for g in gens if g.supports(shape)]
    while evaluated < budget and active:
        for gen in list(active):
            if evaluated >= budget:
                break
            try:
                a, b, in_defect = generate_compat_pair(gen, shape, kind, tol)
            except GeneratorExhausted:
                active.remove(gen)
                continue
            found = check(a, b, in_defect, gen.strategy.value)
            if found is not None:
                return found
    return None


def range_version_adapter(T: LinearMap) -> LinearMap:
    """S with S(x) = T(x*)*: S preserves domain compatibility exactly when T
    preserves range compatibility (and vice versa)."""
    # conjugating vec(x) -> vec(x^T) on both sides is an index transpose
    m, n = T.codomain_shape.total_dim, T.domain_shape.total_dim
    action = T.action.reshape(m, m, n, n).transpose(1, 0, 3, 2)
    action = action.reshape(m * m, n * n).conj()
    return LinearMap(
        T.domain_shape, T.codomain_shape, action, Provenance.CUSTOM,
        {"adapted_from": T.provenance.value},
    )
