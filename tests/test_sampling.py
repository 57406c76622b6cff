from __future__ import annotations

import numpy as np
import pytest

from abscompat import (
    AlgebraShape,
    CompatKind,
    PairGenerator,
    PairStrategy,
    compat_defect,
    generate_compat_pair,
    is_orthogonal,
    is_partial_isometry,
    known_witness_pairs,
    partial_isometry_from_projections,
)
from abscompat.errors import GeneratorExhausted, ShapeMismatch
from abscompat.linalg import op_norm
from abscompat.sampling import (
    crossed_isometry_pair_2x2,
    rand_partial_isometry,
    rand_positive_contraction,
    rand_projection,
    rand_unitary,
    sample_general_pair,
    sample_positive_pair,
)
from abscompat.tolerance import ToleranceConfig


def test_same_seed_same_stream():
    shape = AlgebraShape((2, 3))
    first = [PairGenerator(PairStrategy.DIRECT_SUM_MIX, 42).draw(shape)
             for _ in range(5)]
    second = [PairGenerator(PairStrategy.DIRECT_SUM_MIX, 42).draw(shape)
              for _ in range(5)]
    for (a1, b1), (a2, b2) in zip(first, second):
        np.testing.assert_array_equal(a1.matrix, a2.matrix)
        np.testing.assert_array_equal(b1.matrix, b2.matrix)


def test_different_seed_different_stream():
    shape = AlgebraShape((2,))
    a1, _ = PairGenerator(PairStrategy.DIRECT_SUM_MIX, 1).draw(shape)
    a2, _ = PairGenerator(PairStrategy.DIRECT_SUM_MIX, 2).draw(shape)
    assert not np.allclose(a1.matrix, a2.matrix)


@pytest.mark.parametrize("strategy", [
    PairStrategy.ORTHOGONAL,
    PairStrategy.COMMUTING_DIAGONAL,
    PairStrategy.CONJUGATED_POSITIVE_PAIR,
    PairStrategy.DIRECT_SUM_MIX,
])
def test_strategies_emit_compatible_pairs(strategy):
    shape = AlgebraShape((2, 3))
    gen = PairGenerator(strategy, 7)
    for _ in range(10):
        a, b, defect = generate_compat_pair(gen, shape, CompatKind.FULL)
        rep = compat_defect(a, b, CompatKind.FULL)
        assert rep.verdict and rep.defect == defect
        assert op_norm(a.matrix) <= 1.0 + 1e-12
        assert op_norm(b.matrix) <= 1.0 + 1e-12


def test_orthogonal_strategy_is_orthogonal():
    gen = PairGenerator(PairStrategy.ORTHOGONAL, 13)
    shape = AlgebraShape((4,))
    for _ in range(10):
        a, b = gen.draw(shape)
        assert is_orthogonal(a, b).verdict


def test_conjugated_pair_is_noncommuting():
    gen = PairGenerator(PairStrategy.CONJUGATED_POSITIVE_PAIR, 3)
    shape = AlgebraShape((3,))
    a, b, _ = generate_compat_pair(gen, shape, CompatKind.FULL)
    assert op_norm((a @ b - b @ a).matrix) > 0.1


def test_commuting_diagonal_matches_pointwise_criterion():
    from abscompat import commutative_compat_check

    gen = PairGenerator(PairStrategy.COMMUTING_DIAGONAL, 29)
    shape = AlgebraShape((5,))
    for _ in range(10):
        a, b, _ = generate_compat_pair(gen, shape, CompatKind.FULL)
        f, g = np.diagonal(a.matrix), np.diagonal(b.matrix)
        assert commutative_compat_check(f, g).verdict


def test_conjugated_pair_needs_wide_block():
    gen = PairGenerator(PairStrategy.CONJUGATED_POSITIVE_PAIR, 3)
    with pytest.raises(GeneratorExhausted):
        generate_compat_pair(gen, AlgebraShape((1, 1)), CompatKind.FULL)


def test_generator_exhausts_when_no_draw_passes():
    # rounding alone leaves the conjugated pairs' defects far above 1e-300
    gen = PairGenerator(PairStrategy.CONJUGATED_POSITIVE_PAIR, 5)
    with pytest.raises(GeneratorExhausted):
        generate_compat_pair(gen, AlgebraShape((2,)), CompatKind.FULL,
                             ToleranceConfig(relation=1e-300), retries=20)


def test_known_witness_pairs_cover_shape():
    pairs = known_witness_pairs(AlgebraShape((3, 1)))
    labels = [label for label, _, _ in pairs]
    assert labels == [
        "positive_compatible_2x2",
        "crossed_isometries_2x2",
        "crossed_isometries_adjoint_2x2",
        "saturated_unit_unit",
        "saturated_unit_half",
    ]
    kinds = {"crossed_isometries_2x2": CompatKind.DOMAIN,
             "crossed_isometries_adjoint_2x2": CompatKind.RANGE}
    for label, a, b in pairs:
        kind = kinds.get(label, CompatKind.FULL)
        assert compat_defect(a, b, kind).verdict, label


def test_known_witness_pairs_scalar_shape():
    labels = [label for label, _, _ in known_witness_pairs(AlgebraShape((1,)))]
    assert labels == ["saturated_unit_unit", "saturated_unit_half"]


def test_partial_isometry_from_projections_recovers_crossed_pair():
    e, v = crossed_isometry_pair_2x2()
    e2 = partial_isometry_from_projections(np.diag([1.0, 0.0]),
                                           np.diag([0.0, 1.0]))
    np.testing.assert_allclose(e2.conj().T @ e2, e.conj().T @ e, atol=1e-12)
    np.testing.assert_allclose(e2 @ e2.conj().T, e @ e.conj().T, atol=1e-12)
    v2 = partial_isometry_from_projections(np.diag([0.0, 1.0]),
                                           np.full((2, 2), 0.5))
    np.testing.assert_allclose(v2.conj().T @ v2, v.conj().T @ v, atol=1e-12)
    np.testing.assert_allclose(v2 @ v2.conj().T, v @ v.conj().T, atol=1e-12)


def test_partial_isometry_from_projections_rank_mismatch():
    with pytest.raises(ShapeMismatch):
        partial_isometry_from_projections(np.diag([1.0, 0.0]), np.eye(2))


def test_element_samplers(rng):
    shape = AlgebraShape((2, 3))
    u = rand_unitary(rng, shape)
    np.testing.assert_allclose(u.matrix @ u.matrix.conj().T, np.eye(5),
                               atol=1e-10)
    p = rand_projection(rng, shape)
    np.testing.assert_allclose((p @ p).matrix, p.matrix, atol=1e-10)
    w = rand_partial_isometry(rng, shape)
    assert is_partial_isometry(w).verdict
    pos = rand_positive_contraction(rng, shape)
    lam = np.linalg.eigvalsh(pos.matrix)
    assert lam.min() >= -1e-12 and lam.max() <= 1.0 + 1e-12


@pytest.mark.parametrize("sampler", [sample_general_pair, sample_positive_pair])
def test_pair_samplers_accept_one_dimensional_blocks(sampler):
    # the conjugated 2x2 pair leaves 1x1 blocks zero instead of failing
    rng = np.random.default_rng(0)
    shape = AlgebraShape((1, 2))
    for _ in range(40):
        a, b = sampler(rng, shape)
        assert a.shape == b.shape == shape
