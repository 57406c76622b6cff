"""Reference computations that the benchmark checks the program against.

Nothing here imports abscompat. Absolute values come from one SVD:
x = U diag(s) V* gives |x| = V diag(s) V* and |x*| = U diag(s) U*, with no
squaring and no noise floor. The numpy.linalg routines are bound at import,
so a traced run, which counts the program's numpy.linalg calls, never counts
these.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import qr as _qr
from numpy.linalg import svd as _svd

TOL = 1e-8
"""The program's default relation tolerance, which every workload uses."""


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed n x n unitary (QR of a Ginibre matrix, phases fixed)."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = _qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def unit_phases(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.exp(2j * np.pi * rng.uniform(size=n))


def pointwise_defect(f: np.ndarray, g: np.ndarray) -> float:
    """Exact compatibility defect of diag(f), diag(g) for |f|, |g| <= 1:
    max over t of 2 min(|f_t|, |g_t|, 1 - |f_t|, 1 - |g_t|)."""
    fa, ga = np.abs(f), np.abs(g)
    return float((2.0 * np.minimum.reduce([fa, ga, 1.0 - fa, 1.0 - ga])).max(initial=0.0))


def op_norm(x: np.ndarray) -> float:
    return float(_svd(x, compute_uv=False)[0])


def abs_pair(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|x|, |x*|) from one SVD."""
    u, s, vh = _svd(x)
    return (vh.conj().T * s) @ vh, (u * s) @ u.conj().T


def _identity_residual(p: np.ndarray, q: np.ndarray) -> float:
    """Operator-norm residual of | p-q | + | 1-p-q | = 1."""
    one = np.eye(p.shape[0])
    return op_norm(abs_pair(p - q)[0] + abs_pair(one - p - q)[0] - one)


def compat_defect(a: np.ndarray, b: np.ndarray, kind: str) -> float:
    """Domain ("domain"), range ("range") or two-sided ("full") compatibility
    defect of two contractions given as full matrices."""
    (abs_a, abs_a_adj), (abs_b, abs_b_adj) = abs_pair(a), abs_pair(b)
    defects = []
    if kind in ("domain", "full"):
        defects.append(_identity_residual(abs_a, abs_b))
    if kind in ("range", "full"):
        defects.append(_identity_residual(abs_a_adj, abs_b_adj))
    return max(defects)


def partial_isometry_defect(e: np.ndarray) -> float:
    """|e e* e - e|, zero exactly for partial isometries."""
    return op_norm(e @ e.conj().T @ e - e)


def scale_triple_defect(c: complex) -> float:
    """Triple-homomorphism defect of x -> c x: T{x,y,z} - {Tx,Ty,Tz} is
    c (1 - |c|^2) {x,y,z}, and the largest basis triple product has norm 1."""
    return abs(c) * (1.0 - abs(c) ** 2)
