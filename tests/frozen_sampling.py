"""The one-candidate-at-a-time samplers as they stood before drawing moved to
stacks, kept verbatim as the reference that ``test_sampling.py`` checks the
stacked draws against byte for byte: a per-block recipe per call, each
element built through ``AlgebraElement.from_blocks``.

The element and pair samplers and ``PairGenerator.draw`` draw pages of one
candidate, so these recipes replay them on the same generator. Larger pages
(the compatible-pair stream, ``_elements``, the suites' batteries) draw each
recipe's rows with one Generator call per array; ``page_replay.py`` draws a
page's numbers in that order and hands each row's numbers to these one-block
recipes through a replaying generator (``Replay``), so every row is still
built here.

Not a test module; ``test_sampling.py`` imports it.
"""

from __future__ import annotations

import numpy as np

from abscompat.algebra import AlgebraElement, AlgebraShape
from abscompat.errors import GeneratorExhausted
from abscompat.linalg import op_norm
from abscompat.sampling import compatible_positive_pair_2x2


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


def _projection_block(rng: np.random.Generator, n: int) -> np.ndarray:
    rank = int(rng.integers(0, n + 1))
    cols = rand_unitary_block(rng, n)[:, :rank]
    p = cols @ cols.conj().T
    return (p + p.conj().T) / 2.0


def _partial_isometry_block(rng: np.random.Generator, n: int) -> np.ndarray:
    rank = int(rng.integers(0, n + 1))
    u, v = rand_unitary_block(rng, n), rand_unitary_block(rng, n)
    return u[:, :rank] @ v[:, :rank].conj().T


def _blockwise(shape: AlgebraShape, rng: np.random.Generator, block_fn) -> AlgebraElement:
    return AlgebraElement.from_blocks(shape, [block_fn(rng, d) for d in shape.block_dims])


def _blockpair(
    rng: np.random.Generator, shape: AlgebraShape, block_fn
) -> tuple[AlgebraElement, AlgebraElement]:
    blocks_a, blocks_b = zip(*(block_fn(rng, dim) for dim in shape.block_dims))
    return (AlgebraElement.from_blocks(shape, blocks_a),
            AlgebraElement.from_blocks(shape, blocks_b))


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


_RECIPE_BLOCKS = {
    "orthogonal": _orthogonal_blocks,
    "commuting_diagonal": _diagonal_compat_blocks,
    "conjugated_positive_pair": _conjugated_positive_blocks,
    "direct_sum_mix": _mixed_blocks,
}


def draw(recipe: str, rng: np.random.Generator,
         shape: AlgebraShape) -> tuple[AlgebraElement, AlgebraElement]:
    """One raw candidate pair of the pair recipe named ``recipe`` from
    ``rng``; compatibility is *not* checked here. The conjugated positive
    pair needs a block of size 2 or more."""
    if recipe == "conjugated_positive_pair" and max(shape.block_dims) < 2:
        raise GeneratorExhausted(
            f"strategy {recipe} does not support shape "
            f"{shape.block_dims}"
        )
    return _blockpair(rng, shape, _RECIPE_BLOCKS[recipe])


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
