from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abscompat import (
    AlgebraElement,
    AlgebraShape,
    adjoint,
    is_contraction,
    is_positive,
    jordan,
    triple,
    unit,
    zero,
)
from abscompat.algebra import _jordan, _triple
from abscompat.errors import ShapeMismatch
from abscompat.linalg import _op_norm, op_norm
from abscompat.sampling import (
    _contraction_draw, _elements, _hermitian_contraction_draw, rand_contraction,
)


def test_shape_validation():
    with pytest.raises(ValueError):
        AlgebraShape(())
    with pytest.raises(ValueError):
        AlgebraShape((2, 0))
    shape = AlgebraShape((2, 3))
    assert shape.total_dim == 5
    assert shape.num_blocks == 2
    assert [s.start for s in shape.block_slices()] == [0, 2]


def test_element_rejects_offblock_entries():
    shape = AlgebraShape((1, 1))
    bad = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ShapeMismatch):
        AlgebraElement(shape, bad)


def test_element_is_immutable():
    el = unit(AlgebraShape((2,)))
    with pytest.raises(ValueError):
        el.matrix[0, 0] = 5.0


def test_from_blocks_and_blocks_roundtrip(rng):
    shape = AlgebraShape((2, 3))
    blocks = [rng.standard_normal((2, 2)) + 0j, rng.standard_normal((3, 3)) + 0j]
    el = AlgebraElement.from_blocks(shape, blocks)
    for got, want in zip(el.blocks(), blocks):
        np.testing.assert_allclose(got, want)


class TestUnit:
    def test_single_block(self):
        np.testing.assert_allclose(unit(AlgebraShape((2,))).matrix, np.eye(2))

    def test_two_scalars(self):
        np.testing.assert_allclose(unit(AlgebraShape((1, 1))).matrix, np.eye(2))

    def test_mixed(self):
        np.testing.assert_allclose(unit(AlgebraShape((2, 3))).matrix, np.eye(5))


class TestAdjoint:
    def test_hermitian_fixed(self, positive_pair):
        a, _ = positive_pair
        np.testing.assert_allclose(adjoint(a).matrix, a.matrix)

    def test_shift(self):
        e = AlgebraElement.single(np.array([[0.0, 0.0], [1.0, 0.0]]))
        np.testing.assert_allclose(adjoint(e).matrix,
                                   np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_imaginary_unit(self):
        el = 1j * unit(AlgebraShape((2,)))
        np.testing.assert_allclose(adjoint(el).matrix, -1j * np.eye(2))


class TestJordan:
    def test_unit_neutral(self, rng):
        shape = AlgebraShape((3,))
        a = rand_contraction(rng, shape)
        np.testing.assert_allclose(jordan(a, unit(shape)).matrix, a.matrix,
                                   atol=1e-15)

    def test_standard_pair(self, positive_pair):
        # direct arithmetic with the 1/3 fractions: ab + ba = diag(2/3, 0)
        a, b = positive_pair
        np.testing.assert_allclose((2 * jordan(a, b)).matrix,
                                   np.diag([2.0 / 3.0, 0.0]), atol=1e-15)

    def test_commuting_diagonals(self):
        d1 = AlgebraElement.single(np.diag([0.2, 0.7]))
        d2 = AlgebraElement.single(np.diag([0.5, 0.1]))
        np.testing.assert_allclose(jordan(d1, d2).matrix,
                                   (d1 @ d2).matrix, atol=0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            jordan(unit(AlgebraShape((2,))), unit(AlgebraShape((3,))))


class TestTriple:
    def test_unit_slots(self, positive_pair):
        a, _ = positive_pair
        one = unit(a.shape)
        np.testing.assert_allclose(triple(a, one, one).matrix, a.matrix, atol=0)

    def test_partial_isometry_fixed_point(self):
        e = AlgebraElement.single(np.array([[0.0, 0.0], [1.0, 0.0]]))
        np.testing.assert_allclose(triple(e, e, e).matrix, e.matrix, atol=0)

    def test_middle_unit_gives_adjoint(self, rng):
        shape = AlgebraShape((2, 2))
        b = rand_contraction(rng, shape)
        one = unit(shape)
        np.testing.assert_allclose(triple(one, b, one).matrix,
                                   adjoint(b).matrix, atol=0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_triple_symmetry_and_conjugate_linearity(seed):
    rng = np.random.default_rng(seed)
    shape = AlgebraShape((int(rng.integers(1, 5)),))
    a, b, c = (rand_contraction(rng, shape) for _ in range(3))
    sym = triple(a, b, c) - triple(c, b, a)
    assert op_norm(sym.matrix) <= 1e-12
    conj = triple(a, 1j * b, c) + 1j * triple(a, b, c)
    assert op_norm(conj.matrix) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_hermitian_triple_cube(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = AlgebraElement.single((g + g.conj().T) / 2)
    assert op_norm((triple(h, h, h) - h @ h @ h).matrix) <= 1e-10


@pytest.mark.parametrize("dims", [(1,), (2,), (3,), (4,), (5,), (6,), (2, 3)])
def test_product_symmetries_hold_bytewise_on_stacks(dims):
    # the formulas add x y and y x (x y* z and z y* x) in either order, and
    # y* of an exactly Hermitian h is h: no draw can break these identities
    rng = np.random.default_rng(sum(dims))
    shape = AlgebraShape(dims)
    a, b, c = (_elements(rng, shape, _contraction_draw, 50) for _ in range(3))
    h = _elements(rng, shape, _hermitian_contraction_draw, 50)
    assert np.array_equal(h, h.conj().swapaxes(-1, -2))
    assert _jordan(a, b).tobytes() == _jordan(b, a).tobytes()
    assert _triple(a, b, c).tobytes() == _triple(c, b, a).tobytes()
    assert _op_norm(_triple(h, h, h) - h @ h @ h).max() <= 1e-12


class TestPositivity:
    def test_standard_pair_positive(self, positive_pair):
        a, b = positive_pair
        assert is_positive(a).verdict
        assert is_positive(b).verdict

    def test_negative_identity(self):
        rep = is_positive(-1 * unit(AlgebraShape((2,))))
        assert not rep.verdict
        assert rep.defect == pytest.approx(1.0)

    def test_non_hermitian(self):
        rep = is_positive(AlgebraElement.single(np.array([[0.0, 1.0], [0.0, 0.0]])))
        assert not rep.verdict


class TestContraction:
    def test_projection(self):
        p = AlgebraElement.single(np.diag([1.0, 0.0]))
        assert is_contraction(p).verdict

    def test_double_identity(self):
        rep = is_contraction(2 * unit(AlgebraShape((2,))))
        assert not rep.verdict
        assert rep.defect == pytest.approx(1.0)

    def test_standard_pair(self, positive_pair):
        a, _ = positive_pair
        rep = is_contraction(a)
        assert rep.verdict
        assert op_norm(a.matrix) == pytest.approx((1 + np.sqrt(5) / 3) / 2)


def test_zero_element():
    shape = AlgebraShape((2, 1))
    assert op_norm(zero(shape).matrix) == 0.0
