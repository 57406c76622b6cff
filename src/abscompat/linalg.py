"""Dense complex matrix substrate on one exact spectral kernel: one SVD
x = U S V* gives |x| = V S V*, |x*| = U S U*, the operator norm S[0] and polar
decompositions; one eigh h = W diag(l) W* gives the functional calculus, and
|h| = W diag(|l|) W* for Hermitian h. Nothing is squared and no singular value
is floored, so absolute values stay accurate on spectra spanning many decades.

Public functions take and return plain 2-D ``numpy`` arrays (square,
complex128) and validate them. The private kernel under them (``_abs_parts``,
``_op_norm``, ``_calculus``, ``_polar``, ``_range_projection``, ``_rank_cut_svd``)
also takes ``(N, n, n)`` stacks, skips validation and makes one call of
``np.linalg.svd``, ``eigh`` or ``eigvalsh`` per stack, looked up at call time;
each matrix gets the bytes of a call on it alone, and a LAPACK failure raises
NumericalFailure. ``_calculus`` reads the lower triangle of its Hermitian
input. Eigenvector phases are never canonicalized; every guarantee is phrased
through reconstructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotHermitian, NumericalFailure
from .tolerance import DEFAULT_TOL, ToleranceConfig

__all__ = [
    "HermitianEig",
    "PolarDecomposition",
    "as_square_matrix",
    "herm_eig",
    "apply_function",
    "abs_value",
    "polar",
    "op_norm",
    "range_projection",
]


@dataclass(frozen=True)
class HermitianEig:
    """Eigenvalues (real, ascending) and unitary eigenvector matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class PolarDecomposition:
    """a = partial_isometry @ absolute_value, with the rank used for the cut."""

    partial_isometry: np.ndarray
    absolute_value: np.ndarray
    rank: int


def as_square_matrix(a: np.ndarray) -> np.ndarray:
    """Validate and coerce to a finite square complex128 array."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("matrix entries must be finite")
    return a


def _pairs(x: np.ndarray) -> list:
    """``x`` as nested lists of [re, im] pairs (files and report witnesses)."""
    return np.stack([x.real, x.imag], -1).tolist()


def _svd(a: np.ndarray, compute_uv: bool = True):
    try:
        return np.linalg.svd(a, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("SVD did not converge") from exc


def _eigh(h: np.ndarray, vectors: bool = True):
    """eigh (or eigvalsh) of a Hermitian matrix; reads its lower triangle."""
    try:
        return np.linalg.eigh(h) if vectors else np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("eigensolver did not converge") from exc


def _adj(x: np.ndarray) -> np.ndarray:
    """The adjoint x* of a matrix or of each matrix of a stack."""
    return x.conj().swapaxes(-1, -2)


def _hermitize(x: np.ndarray) -> np.ndarray:
    return (x + _adj(x)) / 2.0


def _weighted_gram(w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """w diag(s) w*, made exactly Hermitian."""
    return _hermitize((w * s[..., None, :]) @ _adj(w))


def _abs_parts(x: np.ndarray, domain: bool = True,
               range_: bool = True) -> tuple[np.ndarray, np.ndarray | float]:
    """|x| (if domain) and |x*| (if range_), stacked in that order along a new
    first axis, and the operator norm of x (of each x in a stack), from one SVD."""
    left, sigma, right_h = _svd(x)
    w = np.array([_adj(right_h)] * domain + [left] * range_)
    return _weighted_gram(w, sigma), sigma[..., 0] if sigma.size else 0.0


def _herm_eigvals(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part (a + a*) / 2."""
    return _eigh(_hermitize(a), vectors=False)


def _diag(d: np.ndarray) -> np.ndarray:
    """The diagonal matrix of each row of an (M, m) stack, like ``np.diag``."""
    out = np.zeros(d.shape + d.shape[-1:], dtype=d.dtype)
    i = np.arange(d.shape[-1])
    out[..., i, i] = d
    return out


def _rank_cut_svd(a: np.ndarray, rank_tol: float):
    """SVD a = L S R* cut at rank_tol * sigma_max, of a matrix or of each
    matrix of a stack: the partial isometry u (sum of the surviving (left
    vec)(right vec)* terms), S, R* and the rank. u is one sliced product per
    rank (a product masked to the kept terms rounds rank one differently)."""
    left, sigma, right_h = _svd(a)
    rank = (sigma > rank_tol * sigma[..., :1]).sum(-1)
    u = np.zeros_like(left)
    for r in set(np.ravel(rank).tolist()):
        rows = rank == r
        u[rows] = left[rows][..., :r] @ right_h[rows][..., :r, :]
    return u, sigma, right_h, rank


def _polar(a: np.ndarray, rank_tol: float):
    """``polar``'s u, |a| and rank (of each a in a stack); no validation."""
    u, sigma, right_h, rank = _rank_cut_svd(a, rank_tol)
    return u, _weighted_gram(_adj(right_h), sigma), rank


def _range_projection(a: np.ndarray, rank_tol: float) -> np.ndarray:
    """u u* for the partial isometry u of ``_polar`` (of each a in a stack)."""
    u = _rank_cut_svd(a, rank_tol)[0]
    return _hermitize(u @ _adj(u))


def _op_norm(x: np.ndarray) -> np.ndarray:
    """Largest singular value of x (of each x in a stack); no validation."""
    return _svd(x, compute_uv=False).max(-1, initial=0.0)


def op_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    return float(_op_norm(as_square_matrix(a)))


def _as_hermitian(a: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """``as_square_matrix``, refusing non-Hermitian a as ``herm_eig`` does."""
    a = as_square_matrix(a)
    scale = max(1.0, op_norm(a))
    if op_norm(a - a.conj().T) > tol.relation * scale:
        raise NotHermitian(f"matrix is not Hermitian within {tol.relation:g}")
    return a


def herm_eig(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Raises NotHermitian when |a - a*| exceeds tol.relation * max(1, |a|).
    """
    return HermitianEig(*_eigh(_hermitize(_as_hermitian(a, tol))))


def _calculus(h: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """f(h) = V diag(f(lambda)) V* from one eigh of Hermitian h (of each h in a
    stack), reading its lower triangle; no validation."""
    lam, w = _eigh(h)
    return _weighted_gram(w, np.asarray(f(lam), dtype=np.float64))


def apply_function(
    a: np.ndarray,
    f: Callable[[np.ndarray], np.ndarray],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> np.ndarray:
    """Functional calculus f(a) = V diag(f(lambda)) V* for Hermitian a.

    ``f`` is applied to the real eigenvalue vector (vectorized callables are
    fine); the result is re-Hermitized to kill roundoff asymmetry.
    """
    return _calculus(_hermitize(_as_hermitian(a, tol)), f)


def abs_value(a: np.ndarray) -> np.ndarray:
    """|a| = (a* a)^(1/2) = V S V*, positive semidefinite, from the SVD
    a = U S V*. No Gram product is formed and no singular value is floored,
    so the error is roundoff relative to the largest singular value."""
    return _abs_parts(as_square_matrix(a), range_=False)[0][0]


def polar(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> PolarDecomposition:
    """Polar decomposition a = u |a| with an SVD-based rank cut.

    Singular values below tol.rank * sigma_max are treated as zero; u is the
    sum of the surviving rank-one terms (left vec)(right vec)*, so u u* u = u
    and u* u is the range projection of |a|.
    """
    u, absolute, rank = _polar(as_square_matrix(a), tol.rank)
    return PolarDecomposition(u, absolute, int(rank))


def range_projection(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Smallest projection r with r a = a: the projection u u* onto the column
    space of a, with u the partial isometry of ``polar`` at the same rank cut."""
    return _range_projection(as_square_matrix(a), tol.rank)
