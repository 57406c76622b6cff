from __future__ import annotations

import numpy as np
import pytest

from abscompat.errors import NotHermitian
from abscompat.linalg import (
    abs_value,
    apply_function,
    as_square_matrix,
    herm_eig,
    op_norm,
    polar,
    range_projection,
)
from abscompat.tolerance import ToleranceConfig

E_LOWER = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
V_CROSS = np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex) / np.sqrt(2.0)


def herm2x2_eigs(m: np.ndarray) -> tuple[float, float]:
    """Independent closed-form eigenvalues of a 2x2 Hermitian matrix."""
    tr = float(np.trace(m).real)
    det = float(np.linalg.det(m).real)
    disc = np.sqrt(max(tr * tr - 4.0 * det, 0.0))
    return (tr - disc) / 2.0, (tr + disc) / 2.0


def test_as_square_matrix_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        as_square_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_square_matrix(np.array([[np.inf, 0], [0, 0]]))


class TestHermEig:
    def test_diagonal(self):
        eig = herm_eig(np.diag([3.0, 1.0]).astype(complex))
        np.testing.assert_allclose(eig.eigenvalues, [1.0, 3.0], atol=1e-12)

    def test_symmetry_flip(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        eig = herm_eig(a)
        np.testing.assert_allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-12)
        recon = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
        np.testing.assert_allclose(recon, a, atol=1e-12)

    def test_scaled_flip_from_pair_difference(self):
        # difference of the standard compatible positive pair: (2/3) * flip
        a = np.array([[0.0, 2.0 / 3.0], [2.0 / 3.0, 0.0]], dtype=complex)
        eig = herm_eig(a)
        np.testing.assert_allclose(eig.eigenvalues, [-2.0 / 3.0, 2.0 / 3.0],
                                   atol=1e-12)

    def test_eigenvalues_ascending_and_unitary(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 7))
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = g + g.conj().T
            eig = herm_eig(a)
            assert np.all(np.diff(eig.eigenvalues) >= 0)
            v = eig.eigenvectors
            np.testing.assert_allclose(v.conj().T @ v, np.eye(n), atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


class TestApplyFunction:
    def test_identity_function(self, rng):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = (g + g.conj().T) / 2
        np.testing.assert_allclose(apply_function(a, lambda t: t), a, atol=1e-12)

    def test_square(self):
        out = apply_function(np.diag([2.0, -1.0]).astype(complex), lambda t: t**2)
        np.testing.assert_allclose(out, np.diag([4.0, 1.0]), atol=1e-12)

    def test_clamped_sqrt_of_half_identity(self):
        f = lambda t: np.sqrt(np.clip(t, 0.0, None))
        out = apply_function(0.5 * np.eye(2, dtype=complex), f)
        np.testing.assert_allclose(out, np.eye(2) / np.sqrt(2.0), atol=1e-12)

    def test_result_hermitian(self, rng):
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        a = (g + g.conj().T) / 2
        out = apply_function(a, np.abs)
        np.testing.assert_allclose(out, out.conj().T, atol=0)


class TestAbsValue:
    def test_shift_isometry(self):
        # e* e = diag(1, 0) is a projection, so it equals its own square root
        np.testing.assert_allclose(abs_value(E_LOWER), np.diag([1.0, 0.0]),
                                   atol=1e-12)

    def test_projection_fixed(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4))
                            + 1j * rng.standard_normal((4, 4)))
        p = q[:, :2] @ q[:, :2].conj().T
        np.testing.assert_allclose(abs_value(p), p, atol=1e-10)

    def test_crossed_isometry(self):
        # v* v = diag(0, 1) by direct arithmetic
        np.testing.assert_allclose(abs_value(V_CROSS), np.diag([0.0, 1.0]),
                                   atol=1e-12)

    def test_square_reconstructs_gram(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 7))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            av = abs_value(a)
            assert np.linalg.eigvalsh(av).min() >= -1e-12
            np.testing.assert_allclose(av @ av, a.conj().T @ a,
                                       atol=1e-8 * max(1.0, op_norm(a) ** 2))

    def test_tiny_singular_values_survive(self, rng):
        # no Gram product and no noise floor: |a| = v diag(s) v* to roundoff
        # even where s spans twelve decades
        q = [np.linalg.qr(rng.standard_normal((3, 3))
                          + 1j * rng.standard_normal((3, 3)))[0] for _ in range(2)]
        s = np.array([1.0, 1e-7, 1e-12])
        a = q[0] @ np.diag(s) @ q[1].conj().T
        np.testing.assert_allclose(abs_value(a), q[1] @ np.diag(s) @ q[1].conj().T,
                                   rtol=0, atol=1e-14)

    def test_idempotent_on_positives(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        p = abs_value(a)
        np.testing.assert_allclose(abs_value(p), p, atol=1e-10)


class TestPolar:
    def test_projection(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        p = (q[:, :2] @ q[:, :2].T).astype(complex)
        dec = polar(p)
        np.testing.assert_allclose(dec.partial_isometry, p, atol=1e-10)
        np.testing.assert_allclose(dec.absolute_value, p, atol=1e-10)
        assert dec.rank == 2

    def test_positive_diagonal(self):
        dec = polar(np.diag([0.9, 0.5, 0.0]).astype(complex))
        np.testing.assert_allclose(dec.partial_isometry, np.diag([1.0, 1.0, 0.0]),
                                   atol=1e-12)
        np.testing.assert_allclose(dec.absolute_value, np.diag([0.9, 0.5, 0.0]),
                                   atol=1e-12)
        assert dec.rank == 2

    def test_scaled_shift(self):
        # SVD of 2e by hand: singular values (2, 0), u = e, |a| = diag(2, 0)
        dec = polar(2.0 * E_LOWER)
        np.testing.assert_allclose(dec.partial_isometry, E_LOWER, atol=1e-12)
        np.testing.assert_allclose(dec.absolute_value, np.diag([2.0, 0.0]),
                                   atol=1e-12)
        assert dec.rank == 1

    def test_invariants_random(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 7))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            dec = polar(a)
            u, av = dec.partial_isometry, dec.absolute_value
            np.testing.assert_allclose(u @ av, a, atol=1e-8 * max(1, op_norm(a)))
            np.testing.assert_allclose(u @ u.conj().T @ u, u, atol=1e-8)
            np.testing.assert_allclose(u.conj().T @ u, range_projection(av),
                                       atol=1e-8)

    def test_rank_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            polar(np.eye(2, dtype=complex), tol=ToleranceConfig(rank=0.0))

    def test_zero_matrix(self):
        dec = polar(np.zeros((3, 3), dtype=complex))
        assert dec.rank == 0
        np.testing.assert_allclose(dec.partial_isometry, 0.0, atol=0)


class TestOpNorm:
    def test_identity_and_zero(self):
        assert op_norm(np.eye(3, dtype=complex)) == pytest.approx(1.0)
        assert op_norm(np.zeros((3, 3), dtype=complex)) == 0.0

    def test_standard_positive_matrix(self):
        a = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex) / 3.0
        # trace 1, det 1/9: largest eigenvalue (1 + sqrt(5)/3) / 2
        _, lam_max = herm2x2_eigs(a)
        assert lam_max == pytest.approx((1.0 + np.sqrt(5.0) / 3.0) / 2.0)
        assert op_norm(a) == pytest.approx(lam_max, abs=1e-12)

    def test_submultiplicative(self, rng):
        for _ in range(25):
            x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            assert op_norm(x @ y) <= op_norm(x) * op_norm(y) + 1e-9


class TestRangeProjection:
    def test_diagonal(self):
        np.testing.assert_allclose(range_projection(np.diag([0.3, 0.0])),
                                   np.diag([1.0, 0.0]), atol=1e-12)

    def test_invertible(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a += 5 * np.eye(4)
        np.testing.assert_allclose(range_projection(a), np.eye(4), atol=1e-10)

    def test_crossed_isometry_range(self):
        np.testing.assert_allclose(range_projection(V_CROSS),
                                   V_CROSS @ V_CROSS.conj().T, atol=1e-12)
        np.testing.assert_allclose(range_projection(V_CROSS),
                                   np.full((2, 2), 0.5), atol=1e-12)

    def test_fixes_input(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            r = range_projection(a)
            np.testing.assert_allclose(r @ a, a, atol=1e-8 * max(1, op_norm(a)))
            np.testing.assert_allclose(r @ r, r, atol=1e-10)
            np.testing.assert_allclose(r, r.conj().T, atol=1e-10)
