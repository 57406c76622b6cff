"""Finite-dimensional C*-algebras realized as direct sums of full complex
matrix blocks, and their element-level operations (adjoint, Jordan and triple
products, positivity / unit-ball membership).

Elements carry their ambient shape; mixing shapes is an error, never a
broadcast. Every algebra represented here is unital, so no unitization step
is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import ShapeMismatch
from .linalg import _herm_eigvals, _op_norm, as_square_matrix, op_norm
from .reports import RelationReport
from .tolerance import DEFAULT_TOL, ToleranceConfig

__all__ = [
    "AlgebraShape",
    "AlgebraElement",
    "unit",
    "zero",
    "adjoint",
    "jordan",
    "triple",
    "is_positive",
    "is_contraction",
]


@dataclass(frozen=True)
class AlgebraShape:
    """Block dimensions (n1, ..., nk) of the algebra  M_n1 + ... + M_nk."""

    block_dims: tuple[int, ...]

    def __init__(self, block_dims: Iterable[int]) -> None:
        dims = tuple(int(d) for d in block_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError("block_dims must be a nonempty list of positive ints")
        object.__setattr__(self, "block_dims", dims)
        offsets = [0]
        for d in dims:
            offsets.append(offsets[-1] + d)
        object.__setattr__(
            self,
            "_slices",
            tuple(slice(o, o + d) for o, d in zip(offsets, dims)),
        )

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims)

    @property
    def num_blocks(self) -> int:
        return len(self.block_dims)

    def block_slices(self) -> tuple[slice, ...]:
        return self._slices  # type: ignore[attr-defined]

    def basis_coords(self) -> list[tuple[int, int]]:
        """Row/column coordinates of the in-block matrix units, block by block."""
        coords = []
        for sl in self.block_slices():
            for i in range(sl.start, sl.stop):
                for j in range(sl.start, sl.stop):
                    coords.append((i, j))
        return coords


class AlgebraElement:
    """Block-diagonal element of an algebra; off-block entries are exactly 0."""

    __slots__ = ("shape", "matrix")

    def __init__(self, shape: AlgebraShape, matrix: np.ndarray) -> None:
        matrix = as_square_matrix(matrix)
        if matrix.shape[0] != shape.total_dim:
            raise ShapeMismatch(
                f"matrix of size {matrix.shape[0]} does not fit shape {shape.block_dims}"
            )
        if shape.num_blocks > 1:
            offblock = matrix.copy()
            for sl in shape.block_slices():
                offblock[sl, sl] = 0.0
            if np.any(offblock != 0):
                raise ShapeMismatch("off-block entries must be exactly zero")
        matrix = matrix.copy()
        matrix.flags.writeable = False
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("AlgebraElement is immutable")

    @classmethod
    def _wrap(cls, shape: AlgebraShape, matrix: np.ndarray) -> "AlgebraElement":
        """Internal constructor for arithmetic on already-validated elements:
        sums/products/adjoints of block-diagonal matrices keep exact zeros
        off-block, so the structural check is skipped."""
        el = object.__new__(cls)
        matrix.flags.writeable = False
        object.__setattr__(el, "shape", shape)
        object.__setattr__(el, "matrix", matrix)
        return el

    @classmethod
    def from_blocks(
        cls, shape: AlgebraShape, blocks: Sequence[np.ndarray]
    ) -> "AlgebraElement":
        if len(blocks) != shape.num_blocks:
            raise ShapeMismatch(
                f"expected {shape.num_blocks} blocks, got {len(blocks)}"
            )
        for blk, dim in zip(blocks, shape.block_dims):
            size = as_square_matrix(blk).shape[0]
            if size != dim:
                raise ShapeMismatch(f"block of size {size} does not match dim {dim}")
        return cls._wrap(shape, _block_diag(shape, blocks))

    @classmethod
    def single(cls, matrix: np.ndarray) -> "AlgebraElement":
        """Wrap a bare square matrix as a one-block element."""
        matrix = as_square_matrix(matrix)
        return cls(AlgebraShape((matrix.shape[0],)), matrix)

    def blocks(self) -> list[np.ndarray]:
        return [self.matrix[sl, sl].copy() for sl in self.shape.block_slices()]

    def map_blocks(self, func) -> "AlgebraElement":
        """Apply ``func`` to each diagonal block and reassemble.

        Keeps the block structure exact, which full-matrix decompositions do
        not (degenerate eigenspaces may mix across blocks numerically).
        """
        if self.shape.num_blocks == 1:
            out = np.array(func(self.matrix.copy()), dtype=np.complex128)
            return AlgebraElement._wrap(self.shape, out)
        blocks = [func(self.matrix[sl, sl].copy()) for sl in self.shape.block_slices()]
        return AlgebraElement._wrap(self.shape, _block_diag(self.shape, blocks))

    # -- convenience arithmetic (block structure is preserved exactly) ------

    def _check_same_shape(self, other: "AlgebraElement") -> None:
        if self.shape != other.shape:
            raise ShapeMismatch(
                f"elements live in different algebras: "
                f"{self.shape.block_dims} vs {other.shape.block_dims}"
            )

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same_shape(other)
        return AlgebraElement._wrap(self.shape, self.matrix + other.matrix)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same_shape(other)
        return AlgebraElement._wrap(self.shape, self.matrix - other.matrix)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._wrap(self.shape, -self.matrix)

    def __mul__(self, scalar: complex) -> "AlgebraElement":
        scalar = complex(scalar)
        if not (np.isfinite(scalar.real) and np.isfinite(scalar.imag)):
            raise ValueError("scalar must be finite")
        return AlgebraElement._wrap(self.shape, self.matrix * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same_shape(other)
        return AlgebraElement._wrap(self.shape, self.matrix @ other.matrix)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AlgebraElement(shape={self.shape.block_dims}, matrix=\n{self.matrix})"


def _block_diag(shape: AlgebraShape, blocks: Sequence[np.ndarray]) -> np.ndarray:
    """The block-diagonal matrix of ``shape`` with the given diagonal blocks."""
    full = np.zeros((shape.total_dim, shape.total_dim), dtype=np.complex128)
    for sl, blk in zip(shape.block_slices(), blocks):
        full[sl, sl] = blk
    return full


@lru_cache(maxsize=128)
def unit(shape: AlgebraShape) -> AlgebraElement:
    """The unit: identity on every block (cached; elements are immutable)."""
    return AlgebraElement(shape, np.eye(shape.total_dim, dtype=np.complex128))


def zero(shape: AlgebraShape) -> AlgebraElement:
    return AlgebraElement(
        shape, np.zeros((shape.total_dim, shape.total_dim), dtype=np.complex128)
    )


def adjoint(a: AlgebraElement) -> AlgebraElement:
    """Blockwise conjugate transpose (equals the full conjugate transpose)."""
    return AlgebraElement._wrap(a.shape, a.matrix.conj().T.copy())


def _jordan(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(x y + y x) / 2 of two matrices or of two (N, n, n) stacks, pair by pair."""
    return (x @ y + y @ x) / 2.0


def jordan(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Jordan product (a b + b a) / 2."""
    a._check_same_shape(b)
    return AlgebraElement(a.shape, _jordan(a.matrix, b.matrix))


def triple(a: AlgebraElement, b: AlgebraElement, c: AlgebraElement) -> AlgebraElement:
    """Triple product (a b* c + c b* a) / 2; conjugate-linear in the middle slot."""
    a._check_same_shape(b)
    a._check_same_shape(c)
    bh = b.matrix.conj().T
    return AlgebraElement(
        a.shape, (a.matrix @ bh @ c.matrix + c.matrix @ bh @ a.matrix) / 2.0
    )


def _positive_defects(x: np.ndarray) -> list[float]:
    """The ``is_positive`` defect of each matrix of an (N, n, n) stack."""
    gaps = _op_norm(x - x.conj().swapaxes(-1, -2)).tolist()
    lam_min = _herm_eigvals(x)[..., 0].tolist()
    return [max(gap, max(0.0, -lam)) for gap, lam in zip(gaps, lam_min)]


def is_positive(
    a: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL
) -> RelationReport:
    """Positive-cone membership: Hermitian and nonnegative spectrum.

    defect = max(|a - a*|, max(0, -lambda_min)).
    """
    return RelationReport.from_defect(
        "positive", _positive_defects(a.matrix[None])[0], tol.relation)


def is_contraction(
    a: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL
) -> RelationReport:
    """Closed-unit-ball membership: defect = max(0, |a| - 1)."""
    defect = max(0.0, op_norm(a.matrix) - 1.0)
    return RelationReport.from_defect("contraction", defect, tol.relation)
