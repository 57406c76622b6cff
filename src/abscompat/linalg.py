"""Dense complex matrix substrate on one exact spectral kernel: one SVD
x = U S V* gives |x| = V S V*, |x*| = U S U* and the operator norm S[0]; one
eigh h = W diag(l) W* gives |h| = W diag(|l|) W* for Hermitian h. Nothing is
squared and no singular value is floored, so absolute values stay accurate on
spectra spanning many decades. Polar decompositions and the functional
calculus are built on the same kernel.

Public functions take and return plain 2-D ``numpy`` arrays (square,
complex128). The private kernel (``_abs_parts``, ``_abs_herm``, ``_op_norm``
and the helpers under them) also takes stacks ``(N, n, n)``, skips input
validation and works matrix by matrix through numpy's broadcasting
``svd``/``eigh``/``eigvalsh``. Eigenvector phases are never canonicalized;
every guarantee is phrased through reconstructions.
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


def _svd(a: np.ndarray, compute_uv: bool = True):
    try:
        return np.linalg.svd(a, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalFailure("SVD did not converge") from exc


def _eigh(h: np.ndarray, vectors: bool = True):
    """eigh (or eigvalsh) of a Hermitian matrix; reads its lower triangle."""
    try:
        return np.linalg.eigh(h) if vectors else np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalFailure("eigensolver did not converge") from exc


def _hermitize(x: np.ndarray) -> np.ndarray:
    return (x + x.conj().swapaxes(-1, -2)) / 2.0


def _weighted_gram(w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """w diag(s) w*, made exactly Hermitian."""
    return _hermitize((w * s[..., None, :]) @ w.conj().swapaxes(-1, -2))


def _abs_parts(
    x: np.ndarray, domain: bool = True, range_: bool = True
) -> tuple[np.ndarray, np.ndarray | float]:
    """|x| (if domain) and |x*| (if range_), stacked in that order along a new
    first axis, and the operator norm of x (of each x in a stack), from one
    SVD."""
    left, sigma, right_h = _svd(x)
    w = np.array([right_h.conj().swapaxes(-1, -2)] * domain + [left] * range_)
    return _weighted_gram(w, sigma), sigma[..., 0] if sigma.size else 0.0


def _abs_herm(h: np.ndarray) -> np.ndarray:
    """|h| for Hermitian h (each h in a stack), from one eigh."""
    lam, w = _eigh(h)
    return _weighted_gram(w, np.abs(lam))


def _herm_eigvals(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part (a + a*) / 2."""
    return _eigh(_hermitize(a), vectors=False)


def _rank_cut_svd(a: np.ndarray, rank_tol: float):
    """SVD a = L S R* cut at rank_tol * sigma_max: the partial isometry u (sum
    of the surviving (left vec)(right vec)* terms), S, R* and the rank."""
    left, sigma, right_h = _svd(a)
    keep = sigma > rank_tol * (sigma[0] if sigma.size else 0.0)
    return left[:, keep] @ right_h[keep, :], sigma, right_h, int(np.count_nonzero(keep))


def _op_norm(x: np.ndarray) -> np.ndarray:
    """Largest singular value of x (of each x in a stack); no validation."""
    return _svd(x, compute_uv=False).max(-1, initial=0.0)


def op_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    return float(_op_norm(as_square_matrix(a)))


def herm_eig(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Raises NotHermitian when |a - a*| exceeds tol.relation * max(1, |a|).
    """
    a = as_square_matrix(a)
    scale = max(1.0, op_norm(a))
    if op_norm(a - a.conj().T) > tol.relation * scale:
        raise NotHermitian(f"matrix is not Hermitian within {tol.relation:g}")
    w, v = _eigh(_hermitize(a))
    return HermitianEig(w, v)


def apply_function(
    a: np.ndarray,
    f: Callable[[np.ndarray], np.ndarray],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> np.ndarray:
    """Functional calculus f(a) = V diag(f(lambda)) V* for Hermitian a.

    ``f`` is applied to the real eigenvalue vector (vectorized callables are
    fine); the result is re-Hermitized to kill roundoff asymmetry.
    """
    eig = herm_eig(a, tol)
    fw = np.asarray(f(eig.eigenvalues), dtype=np.float64)
    return _weighted_gram(eig.eigenvectors, fw)


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
    u, sigma, right_h, rank = _rank_cut_svd(as_square_matrix(a), tol.rank)
    return PolarDecomposition(u, _weighted_gram(right_h.conj().T, sigma), rank)


def range_projection(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Smallest projection r with r a = a: the projection u u* onto the column
    space of a, with u the partial isometry of ``polar`` at the same rank cut."""
    u = _rank_cut_svd(as_square_matrix(a), tol.rank)[0]
    return _hermitize(u @ u.conj().T)
