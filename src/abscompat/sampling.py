"""Seeded random elements, fixed witness pairs, and compatible-pair generation.

Everything here is driven by an explicit ``numpy.random.Generator`` or a
``PairGenerator`` seed, so identical seeds reproduce identical streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .algebra import AlgebraElement, AlgebraShape, adjoint, unit
from .errors import GeneratorExhausted, ShapeMismatch
from .linalg import op_norm
from .tolerance import DEFAULT_TOL, ToleranceConfig

__all__ = [
    "PairStrategy",
    "PairGenerator",
    "generate_compat_pair",
    "known_witness_pairs",
    "compatible_positive_pair_2x2",
    "crossed_isometry_pair_2x2",
    "partial_isometry_from_projections",
    "rand_unitary_block",
    "rand_contraction",
    "rand_hermitian_contraction",
    "rand_positive_contraction",
    "rand_projection",
    "rand_partial_isometry",
    "rand_unitary",
    "sample_general_pair",
    "sample_positive_pair",
]


# ---------------------------------------------------------------------------
# block-level samplers
# ---------------------------------------------------------------------------


def _ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(
        2.0 * n
    )


def rand_unitary_block(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR."""
    q, r = np.linalg.qr(_ginibre(rng, n))
    phases = np.diagonal(r).copy()
    phases = phases / np.abs(phases)
    return q * phases


def _contraction_block(rng: np.random.Generator, n: int) -> np.ndarray:
    g = _ginibre(rng, n)
    norm = op_norm(g)
    if norm == 0.0:  # measure zero, but keep it total
        return g
    return g * (rng.uniform(0.05, 1.0) / norm)


def _hermitian_contraction_block(rng: np.random.Generator, n: int) -> np.ndarray:
    g = _ginibre(rng, n)
    h = (g + g.conj().T) / 2.0
    norm = op_norm(h)
    return h if norm == 0.0 else h * (rng.uniform(0.05, 1.0) / norm)

def _positive_contraction_block(rng: np.random.Generator, n: int) -> np.ndarray:
    w = rand_unitary_block(rng, n)
    lam = rng.uniform(0.0, 1.0, size=n)
    out = (w * lam) @ w.conj().T
    return (out + out.conj().T) / 2.0


def _projection_block(
    rng: np.random.Generator, n: int, rank: int | None = None
) -> np.ndarray:
    if rank is None:
        rank = int(rng.integers(0, n + 1))
    w = rand_unitary_block(rng, n)
    cols = w[:, :rank]
    p = cols @ cols.conj().T
    return (p + p.conj().T) / 2.0


def _partial_isometry_block(
    rng: np.random.Generator, n: int, rank: int | None = None
) -> np.ndarray:
    if rank is None:
        rank = int(rng.integers(0, n + 1))
    u = rand_unitary_block(rng, n)
    v = rand_unitary_block(rng, n)
    return u[:, :rank] @ v[:, :rank].conj().T


def _blockwise(shape: AlgebraShape, rng: np.random.Generator, block_fn) -> AlgebraElement:
    return AlgebraElement.from_blocks(shape, [block_fn(rng, d) for d in shape.block_dims])


def _blockpair(
    rng: np.random.Generator, shape: AlgebraShape, block_fn
) -> tuple[AlgebraElement, AlgebraElement]:
    blocks_a, blocks_b = [], []
    for dim in shape.block_dims:
        ba, bb = block_fn(rng, dim)
        blocks_a.append(ba)
        blocks_b.append(bb)
    return (
        AlgebraElement.from_blocks(shape, blocks_a),
        AlgebraElement.from_blocks(shape, blocks_b),
    )


def rand_contraction(rng: np.random.Generator, shape: AlgebraShape) -> AlgebraElement:
    return _blockwise(shape, rng, _contraction_block)


def rand_hermitian_contraction(
    rng: np.random.Generator, shape: AlgebraShape
) -> AlgebraElement:
    return _blockwise(shape, rng, _hermitian_contraction_block)


def rand_positive_contraction(
    rng: np.random.Generator, shape: AlgebraShape
) -> AlgebraElement:
    return _blockwise(shape, rng, _positive_contraction_block)


def rand_projection(rng: np.random.Generator, shape: AlgebraShape) -> AlgebraElement:
    return _blockwise(shape, rng, _projection_block)


def rand_partial_isometry(
    rng: np.random.Generator, shape: AlgebraShape
) -> AlgebraElement:
    return _blockwise(shape, rng, _partial_isometry_block)


def rand_unitary(rng: np.random.Generator, shape: AlgebraShape) -> AlgebraElement:
    return _blockwise(shape, rng, rand_unitary_block)


# ---------------------------------------------------------------------------
# fixed witness pairs
# ---------------------------------------------------------------------------


def compatible_positive_pair_2x2() -> tuple[np.ndarray, np.ndarray]:
    """The standard noncommuting positive compatible pair in M_2."""
    a = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=np.complex128) / 3.0
    b = np.array([[2.0, -1.0], [-1.0, 1.0]], dtype=np.complex128) / 3.0
    return a, b


def crossed_isometry_pair_2x2() -> tuple[np.ndarray, np.ndarray]:
    """Minimal partial isometries (e, v) that are domain compatible while
    their transposes fail the same identity by sqrt(2) - 1."""
    e = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.complex128)
    v = np.array([[0.0, 1.0], [0.0, 1.0]], dtype=np.complex128) / np.sqrt(2.0)
    return e, v


def partial_isometry_from_projections(
    initial: np.ndarray, final: np.ndarray
) -> np.ndarray:
    """A partial isometry u with u*u = initial and uu* = final.

    Both arguments must be projections of equal rank; u maps an orthonormal
    basis of range(initial) onto one of range(final). The result is unique up
    to per-column phases, which no absolute value can see.
    """
    wi, vi = np.linalg.eigh(np.asarray(initial, dtype=np.complex128))
    wf, vf = np.linalg.eigh(np.asarray(final, dtype=np.complex128))
    cols_i = vi[:, wi > 0.5]
    cols_f = vf[:, wf > 0.5]
    if cols_i.shape[1] != cols_f.shape[1]:
        raise ShapeMismatch("initial and final projections have different ranks")
    return cols_f @ cols_i.conj().T


def _embed_2x2(shape: AlgebraShape, pair: tuple[np.ndarray, np.ndarray],
               block_index: int) -> tuple[AlgebraElement, AlgebraElement]:
    """Place a 2x2 pair in the top-left corner of one block, zero elsewhere.

    Zero padding keeps compatibility: on the complementary support both
    absolute values vanish and |1 - 0 - 0| = 1 there.
    """
    out = []
    for mat in pair:
        blocks = [np.zeros((d, d), dtype=np.complex128) for d in shape.block_dims]
        blocks[block_index][:2, :2] = mat
        out.append(AlgebraElement.from_blocks(shape, blocks))
    return out[0], out[1]


def known_witness_pairs(
    shape: AlgebraShape,
) -> list[tuple[str, AlgebraElement, AlgebraElement]]:
    """Fixed hard pairs seeded ahead of random strategies in audits/fuzzing.

    The crossed isometries are domain compatible only and their adjoints range
    compatible only, so the transpose is refuted at either kind."""
    pairs: list[tuple[str, AlgebraElement, AlgebraElement]] = []
    wide = [i for i, d in enumerate(shape.block_dims) if d >= 2]
    if wide:
        a, b = _embed_2x2(shape, compatible_positive_pair_2x2(), wide[0])
        pairs.append(("positive_compatible_2x2", a, b))
        e, v = _embed_2x2(shape, crossed_isometry_pair_2x2(), wide[0])
        pairs.append(("crossed_isometries_2x2", e, v))
        pairs.append(("crossed_isometries_adjoint_2x2", adjoint(e), adjoint(v)))
    one = unit(shape)
    pairs.append(("saturated_unit_unit", one, one))
    pairs.append(("saturated_unit_half", one, 0.5 * one))
    return pairs


# ---------------------------------------------------------------------------
# compatible-pair strategies
# ---------------------------------------------------------------------------


class PairStrategy(Enum):
    ORTHOGONAL = "orthogonal"
    COMMUTING_DIAGONAL = "commuting_diagonal"
    CONJUGATED_POSITIVE_PAIR = "conjugated_positive_pair"
    DIRECT_SUM_MIX = "direct_sum_mix"


def _orthogonal_blocks(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    k = int(rng.integers(0, n + 1))
    left = rand_unitary_block(rng, n)
    right = rand_unitary_block(rng, n)
    d1 = rng.uniform(0.0, 1.0, size=k)
    d2 = rng.uniform(0.0, 1.0, size=n - k)
    a = left[:, :k] @ np.diag(d1) @ right[:, :k].conj().T
    b = left[:, k:] @ np.diag(d2) @ right[:, k:].conj().T
    return a, b


def _diagonal_compat_blocks(
    rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal pairs built from the pointwise characterization: at every
    coordinate either the product vanishes or one modulus saturates."""
    f = np.zeros(n, dtype=np.complex128)
    g = np.zeros(n, dtype=np.complex128)
    disk = lambda: rng.uniform(0.0, 1.0) * np.exp(2j * np.pi * rng.uniform())
    circle = lambda: np.exp(2j * np.pi * rng.uniform())
    for t in range(n):
        case = rng.integers(0, 5)
        if case == 0:
            g[t] = disk()
        elif case == 1:
            f[t] = disk()
        elif case == 2:
            f[t], g[t] = circle(), disk()
        elif case == 3:
            f[t], g[t] = disk(), circle()
        # case 4: both zero
    return np.diag(f), np.diag(g)


def _conjugated_positive_blocks(
    rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The standard 2x2 pair, zero-padded and unitarily conjugated (1x1: zeros)."""
    a = np.zeros((n, n), dtype=np.complex128)
    b = np.zeros((n, n), dtype=np.complex128)
    if n < 2:
        return a, b
    a2, b2 = compatible_positive_pair_2x2()
    a[:2, :2] = a2
    b[:2, :2] = b2
    w = rand_unitary_block(rng, n)
    return w @ a @ w.conj().T, w @ b @ w.conj().T


def _saturated_blocks(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    # (unitary, anything in the ball) always satisfies the identity.
    return rand_unitary_block(rng, n), _contraction_block(rng, n)


def _mixed_blocks(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """An independent recipe per block; 1x1 blocks skip the conjugated pair."""
    recipes = (_orthogonal_blocks, _diagonal_compat_blocks, _saturated_blocks,
               _conjugated_positive_blocks)
    return recipes[int(rng.integers(0, 4 if n >= 2 else 3))](rng, n)


_STRATEGY_BLOCKS = {
    PairStrategy.ORTHOGONAL: _orthogonal_blocks,
    PairStrategy.COMMUTING_DIAGONAL: _diagonal_compat_blocks,
    PairStrategy.CONJUGATED_POSITIVE_PAIR: _conjugated_positive_blocks,
    PairStrategy.DIRECT_SUM_MIX: _mixed_blocks,
}


@dataclass
class PairGenerator:
    """Deterministic stream of candidate pairs for one strategy and seed."""

    strategy: PairStrategy
    seed: int
    _rng: np.random.Generator | None = field(default=None, repr=False, compare=False)

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = np.random.default_rng(self.seed)
        return self._rng

    def supports(self, shape: AlgebraShape) -> bool:
        if self.strategy is PairStrategy.CONJUGATED_POSITIVE_PAIR:
            return any(d >= 2 for d in shape.block_dims)
        return True

    def draw(self, shape: AlgebraShape) -> tuple[AlgebraElement, AlgebraElement]:
        """One raw candidate pair; compatibility is *not* checked here."""
        if not self.supports(shape):
            raise GeneratorExhausted(
                f"strategy {self.strategy.value} does not support shape "
                f"{shape.block_dims}"
            )
        return _blockpair(self.rng, shape, _STRATEGY_BLOCKS[self.strategy])


def generate_compat_pair(
    gen: PairGenerator,
    shape: AlgebraShape,
    kind: "CompatKind | None" = None,
    tol: ToleranceConfig = DEFAULT_TOL,
    retries: int = 100,
) -> tuple[AlgebraElement, AlgebraElement, float]:
    """Draw until the pair passes compat_defect at ``kind`` (default Full)
    and return it with that defect.

    The strategies are heuristic constructions; the defining identity is the
    oracle, so every emitted pair is post-checked against it.
    """
    from .relations import CompatKind, compat_defect

    if kind is None:
        kind = CompatKind.FULL
    for _ in range(retries):
        a, b = gen.draw(shape)
        rep = compat_defect(a, b, kind, tol)
        if rep.verdict:
            return a, b, rep.defect
    raise GeneratorExhausted(
        f"strategy {gen.strategy.value} produced no compatible pair "
        f"in {retries} attempts on shape {shape.block_dims}"
    )


# ---------------------------------------------------------------------------
# mixed streams for the consistency suites
# ---------------------------------------------------------------------------


def sample_general_pair(
    rng: np.random.Generator, shape: AlgebraShape
) -> tuple[AlgebraElement, AlgebraElement]:
    """Contraction pairs mixing orthogonal constructions, conjugated
    compatible pairs, Hermitian/positive pairs and plain random contractions."""
    wide = any(d >= 2 for d in shape.block_dims)
    case = int(rng.integers(0, 6 if wide else 5))
    if case == 0:
        return _blockpair(rng, shape, _orthogonal_blocks)
    if case == 1:
        return _blockpair(rng, shape, _diagonal_compat_blocks)
    if case == 2:
        return rand_hermitian_contraction(rng, shape), rand_hermitian_contraction(rng, shape)
    if case == 3:
        return rand_positive_contraction(rng, shape), rand_positive_contraction(rng, shape)
    if case == 4:
        return rand_contraction(rng, shape), rand_contraction(rng, shape)
    return _blockpair(rng, shape, _conjugated_positive_blocks)


def sample_positive_pair(
    rng: np.random.Generator, shape: AlgebraShape
) -> tuple[AlgebraElement, AlgebraElement]:
    """Positive contraction pairs, a mix of compatible and incompatible ones."""
    case = int(rng.integers(0, 4))
    if case == 0:
        return _blockpair(rng, shape, _projection_commuting_blocks)
    if case == 1:
        return _blockpair(rng, shape, _orthogonal_positive_blocks)
    if case == 2 and any(d >= 2 for d in shape.block_dims):
        return _blockpair(rng, shape, _conjugated_positive_blocks)
    return rand_positive_contraction(rng, shape), rand_positive_contraction(rng, shape)


def _projection_commuting_blocks(
    rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """A projection and a positive contraction it commutes with: compatible."""
    w = rand_unitary_block(rng, n)
    bits = (rng.uniform(size=n) < 0.5).astype(float)
    lam = rng.uniform(0.0, 1.0, size=n)
    return (w * bits) @ w.conj().T, (w * lam) @ w.conj().T


def _orthogonal_positive_blocks(
    rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Positive contractions with orthogonal supports: compatible."""
    w = rand_unitary_block(rng, n)
    mask = rng.uniform(size=n) < 0.5
    lam = rng.uniform(0.0, 1.0, size=n)
    return (
        (w * np.where(mask, lam, 0.0)) @ w.conj().T,
        (w * np.where(mask, 0.0, lam)) @ w.conj().T,
    )
