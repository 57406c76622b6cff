from __future__ import annotations

import numpy as np
import pytest

from abscompat import (
    AlgebraElement,
    AlgebraShape,
    CompatKind,
    PairGenerator,
    PairStrategy,
    Provenance,
    adjoint,
    build_block_map,
    build_sandwich,
    build_star_anti_hom,
    build_star_hom,
    classify_triple_hom,
    compat_defect,
    fuzz_counterexample,
    identity_map,
    is_contractive_sampled,
    is_triple_hom,
    preserves_compat_sampled,
    range_version_adapter,
    scale_map,
    transpose_map,
    triple,
    unit,
)
from abscompat.errors import (
    AmbiguousBlock,
    NotTripleHom,
    NotUnitary,
    ShapeIncompatible,
    ShapeMismatch,
)
from abscompat.linalg import op_norm
from abscompat.sampling import known_witness_pairs, rand_contraction, rand_unitary
from abscompat.tolerance import ToleranceConfig

SH2 = AlgebraShape((2,))
SH22 = AlgebraShape((2, 2))


def matrix_units(shape: AlgebraShape) -> list[AlgebraElement]:
    n = shape.total_dim
    out = []
    for i, j in shape.basis_coords():
        m = np.zeros((n, n), dtype=complex)
        m[i, j] = 1.0
        out.append(AlgebraElement(shape, m))
    return out


class TestLinearMap:
    def test_action_shape_validated(self):
        with pytest.raises(ShapeIncompatible):
            from abscompat.preservers import LinearMap

            LinearMap(SH2, SH2, np.zeros((3, 4)))

    def test_apply_checks_domain(self):
        T = identity_map(SH2)
        with pytest.raises(ShapeMismatch):
            T.apply(unit(AlgebraShape((3,))))

    def test_masking_keeps_blocks_exact(self, rng):
        T = transpose_map(SH22)
        x = rand_contraction(rng, SH22)
        y = T.apply(x)
        assert np.all(y.matrix[:2, 2:] == 0)
        assert np.all(y.matrix[2:, :2] == 0)


class TestStarHom:
    def test_identity_assignment(self, rng):
        T = build_star_hom(SH2, SH2, [0])
        x = rand_contraction(rng, SH2)
        np.testing.assert_array_equal(T.apply(x).matrix, x.matrix)
        assert T.provenance is Provenance.STAR_HOM

    def test_unitary_conjugation_is_multiplicative(self, rng):
        w = rand_unitary(rng, SH2).blocks()[0]
        T = build_star_hom(SH2, SH2, [0], [w])
        units = matrix_units(SH2)
        for x in units:
            for y in units:
                lhs = T.apply(x @ y).matrix
                rhs = T.apply(x).matrix @ T.apply(y).matrix
                assert op_norm(lhs - rhs) <= 1e-10
            assert op_norm(T.apply(adjoint(x)).matrix
                           - T.apply(x).matrix.conj().T) <= 1e-10

    def test_doubling_embeds_with_proper_projection_unit(self):
        T = build_star_hom(SH2, SH22, [0, 0])
        units = matrix_units(SH2)
        for x in units:
            for y in units:
                lhs = T.apply(x @ y).matrix
                rhs = T.apply(x).matrix @ T.apply(y).matrix
                assert op_norm(lhs - rhs) <= 1e-10
        e = T.apply(unit(SH2))
        np.testing.assert_allclose(e.matrix, np.eye(4), atol=0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeIncompatible):
            build_star_hom(SH2, AlgebraShape((3,)), [0])
        with pytest.raises(ShapeIncompatible):
            build_star_hom(SH2, SH2, [0, 0])
        with pytest.raises(ShapeIncompatible):
            build_star_hom(SH2, SH2, [5])

    def test_nonunitary_rejected(self):
        with pytest.raises(NotUnitary):
            build_star_hom(SH2, SH2, [0], [np.diag([1.0, 2.0])])


class TestStarAntiHom:
    def test_transpose_is_anti_automorphism(self):
        T = transpose_map(SH2)
        units = matrix_units(SH2)
        for x in units:
            for y in units:
                lhs = T.apply(x @ y).matrix
                rhs = T.apply(y).matrix @ T.apply(x).matrix
                assert op_norm(lhs - rhs) <= 1e-12

    def test_transpose_on_commutative_shape_is_hom_too(self, rng):
        shape = AlgebraShape((1, 1, 1))
        T = transpose_map(shape)
        x, y = rand_contraction(rng, shape), rand_contraction(rng, shape)
        lhs = T.apply(x @ y).matrix
        assert op_norm(lhs - T.apply(x).matrix @ T.apply(y).matrix) <= 1e-14
        assert op_norm(lhs - T.apply(y).matrix @ T.apply(x).matrix) <= 1e-14

    def test_unitary_twisted_anti_hom(self, rng):
        w = rand_unitary(rng, SH2).blocks()[0]
        T = build_star_anti_hom(SH2, SH2, [0], [w])
        units = matrix_units(SH2)
        for x in units:
            for y in units:
                lhs = T.apply(x @ y).matrix
                rhs = T.apply(y).matrix @ T.apply(x).matrix
                assert op_norm(lhs - rhs) <= 1e-10


class TestSandwich:
    def test_identity_sandwich(self, rng):
        one = unit(SH2)
        T = build_sandwich(one, one)
        x = rand_contraction(rng, SH2)
        np.testing.assert_allclose(T.apply(x).matrix, x.matrix, atol=0)

    def test_right_multiplication(self, rng):
        v = AlgebraElement.single(np.diag([1.0, -1.0]))
        T = build_sandwich(unit(SH2), v)
        x = rand_contraction(rng, SH2)
        np.testing.assert_allclose(T.apply(x).matrix, x.matrix @ v.matrix,
                                   atol=1e-15)

    def test_generic_sandwich_triple_hom_but_not_multiplicative(self, rng):
        u, v = rand_unitary(rng, SH2), rand_unitary(rng, SH2)
        T = build_sandwich(u, v)
        assert is_triple_hom(T).verdict
        units = matrix_units(SH2)
        mult_defect = max(
            op_norm(T.apply(x @ y).matrix - T.apply(x).matrix @ T.apply(y).matrix)
            for x in units for y in units
        )
        assert mult_defect > 0.1
        sym_defect = max(
            op_norm(T.apply(adjoint(x)).matrix - T.apply(x).matrix.conj().T)
            for x in units
        )
        assert sym_defect > 0.1

    def test_rejects_nonunitary(self):
        with pytest.raises(NotUnitary):
            build_sandwich(0.5 * unit(SH2), unit(SH2))


class TestContractivity:
    def test_identity_contractive(self):
        assert is_contractive_sampled(identity_map(SH2), 8, seed=1).verdict

    def test_doubled_identity_caught_immediately(self):
        rep = is_contractive_sampled(scale_map(SH2, 2.0), 1, seed=1)
        assert not rep.verdict
        assert rep.defect >= 1.0 - 1e-9
        assert "worst_sample" in rep.witnesses

    def test_transpose_isometric(self):
        assert is_contractive_sampled(transpose_map(SH2), 32, seed=1).verdict

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            is_contractive_sampled(identity_map(SH2), 0)


class TestIsTripleHom:
    def test_star_hom_passes(self, rng):
        w = rand_unitary(rng, AlgebraShape((3,))).blocks()[0]
        T = build_star_hom(AlgebraShape((3,)), AlgebraShape((3,)), [0], [w])
        rep = is_triple_hom(T)
        assert rep.verdict
        assert rep.defect <= 1e-10

    def test_transpose_passes(self):
        assert is_triple_hom(transpose_map(SH2)).verdict

    def test_half_map_defect_frozen(self):
        # cubic vs linear scaling on unit-norm basis triples: 1/2 - 1/8 = 3/8
        rep = is_triple_hom(scale_map(SH2, 0.5))
        assert not rep.verdict
        assert rep.defect == pytest.approx(0.375, abs=1e-12)

    def test_imaginary_scalings(self):
        # x -> c x has defect |c| (1 - |c|^2): the phase of c does not matter
        rep = is_triple_hom(scale_map(SH2, 0.5j))
        assert not rep.verdict
        assert rep.defect == pytest.approx(0.375, abs=1e-12)
        assert is_triple_hom(scale_map(SH2, 1j)).verdict

    def test_defect_covers_imaginary_middle_slot(self, rng):
        # a complex-linear T scales both sides by conj(c) when y -> c y, so the
        # matrix-unit triples already give the worst i-scaled triple as well
        action = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        from abscompat.preservers import LinearMap

        T = LinearMap(SH2, SH2, action / 4.0)
        units = matrix_units(SH2)
        reference = 0.0
        for x in units:
            for y in units:
                for z in units:
                    for yy in (y, 1j * y):
                        lhs = T.apply(triple(x, yy, z))
                        rhs = triple(T.apply(x), T.apply(yy), T.apply(z))
                        reference = max(reference, op_norm((lhs - rhs).matrix))
        assert reference > 0.1
        assert is_triple_hom(T).defect == pytest.approx(reference, rel=1e-12)

    def test_matches_direct_triple_evaluation(self, rng):
        T = build_sandwich(rand_unitary(rng, SH2), rand_unitary(rng, SH2))
        for _ in range(10):
            x, y, z = (rand_contraction(rng, SH2) for _ in range(3))
            lhs = T.apply(triple(x, y, z))
            rhs = triple(T.apply(x), T.apply(y), T.apply(z))
            assert op_norm((lhs - rhs).matrix) <= 1e-10


class TestPreservesCompat:
    def test_star_hom_zero_violations(self):
        T = build_star_hom(SH2, SH22, [0, 0])
        gen = PairGenerator(PairStrategy.DIRECT_SUM_MIX, 23)
        rep = preserves_compat_sampled(T, CompatKind.FULL, gen, 40)
        assert rep.verdict and rep.violations == 0

    def test_transpose_refuted_by_seeded_witness(self, isometry_pair):
        e, v = isometry_pair
        gen = PairGenerator(PairStrategy.ORTHOGONAL, 23)
        rep = preserves_compat_sampled(
            transpose_map(SH2), CompatKind.DOMAIN, gen, 10,
            seed_pairs=[("crossed", e, v)],
        )
        assert not rep.verdict
        assert rep.worst is not None
        assert rep.worst.source == "crossed"
        assert rep.worst.output_defect == pytest.approx(np.sqrt(2) - 1, abs=1e-12)

    def test_anti_hom_swaps_kinds(self, rng):
        w = rand_unitary(rng, SH2).blocks()[0]
        anti = build_star_anti_hom(SH2, SH2, [0], [w])
        gen = PairGenerator(PairStrategy.DIRECT_SUM_MIX, 5)
        rep = preserves_compat_sampled(
            anti, CompatKind.DOMAIN, gen, 40, output_kind=CompatKind.RANGE)
        assert rep.verdict
        assert rep.output_kind is CompatKind.RANGE

    def test_noncontractive_map_warns(self):
        gen = PairGenerator(PairStrategy.ORTHOGONAL, 2)
        with pytest.warns(UserWarning, match="non-contractive"):
            rep = preserves_compat_sampled(
                scale_map(SH2, 2.0), CompatKind.FULL, gen, 3)
        assert not rep.verdict  # doubled images escape the ball

    def test_incompatible_seed_pair_warns_and_skips(self, isometry_pair):
        e, v = isometry_pair  # not range compatible
        gen = PairGenerator(PairStrategy.ORTHOGONAL, 2)
        with pytest.warns(UserWarning, match="skipped"):
            rep = preserves_compat_sampled(
                identity_map(SH2), CompatKind.RANGE, gen, 3,
                seed_pairs=[("crossed", e, v)],
            )
        assert rep.verdict


class TestClassify:
    def test_star_hom_all_blocks_homomorphic(self, rng):
        w = rand_unitary(rng, SH2).blocks()[0]
        cls = classify_triple_hom(build_star_hom(SH2, SH2, [0], [w]))
        assert cls.hom_block_indices == {0}
        assert not cls.antihom_block_indices

    def test_transpose_antihomomorphic(self):
        cls = classify_triple_hom(transpose_map(SH2))
        assert cls.antihom_block_indices == {0}
        assert not cls.hom_block_indices
        assert cls.residuals[0][1] <= 1e-12 < cls.residuals[0][0]

    def test_mixed_blocks_split(self):
        T = build_block_map(SH22, SH22, [0, 1], [False, True])
        cls = classify_triple_hom(T)
        assert cls.hom_block_indices == {0}
        assert cls.antihom_block_indices == {1}

    def test_unit_image_recorded(self):
        T = build_star_hom(SH2, SH22, [0, None])
        cls = classify_triple_hom(T)
        np.testing.assert_allclose(
            cls.unit_image.matrix,
            np.diag([1.0, 1.0, 0.0, 0.0]),
            atol=0,
        )

    def test_residuals_match_pairwise_loop(self, rng):
        shape = AlgebraShape((2, 3))
        ws = [rand_unitary(rng, AlgebraShape((d,))).blocks()[0] for d in (2, 3)]
        T = build_block_map(shape, shape, [0, 1], [False, True], ws)
        cls = classify_triple_hom(T)
        e_star = adjoint(cls.unit_image).matrix

        def phi(x):
            return e_star @ T.apply(x).matrix

        units = matrix_units(shape)
        start = 0
        for bi, d in enumerate(shape.block_dims):
            block = units[start:start + d * d]
            start += d * d
            pairs = [(x, y) for x in block for y in block]
            mult = max(op_norm(phi(x @ y) - phi(x) @ phi(y)) for x, y in pairs)
            anti = max(op_norm(phi(x @ y) - phi(y) @ phi(x)) for x, y in pairs)
            assert cls.residuals[bi] == pytest.approx((mult, anti), abs=1e-12)
        assert cls.residuals[0][1] > 0.1 and cls.residuals[1][0] > 0.1

    def test_scalar_blocks_default_homomorphic(self):
        shape = AlgebraShape((1, 1))
        cls = classify_triple_hom(transpose_map(shape))
        assert cls.hom_block_indices == {0, 1}

    def test_not_triple_hom_rejected(self):
        with pytest.raises(NotTripleHom):
            classify_triple_hom(scale_map(SH2, 0.5))

    def test_hom_antihom_mixture_on_one_block_is_ambiguous(self):
        # x -> x (+) x^t is a genuine triple homomorphism, but e* T(.) on the
        # single domain block is neither multiplicative nor anti-multiplicative
        T = build_block_map(SH2, SH22, [0, 0], [False, True])
        assert is_triple_hom(T).verdict
        with pytest.raises(AmbiguousBlock):
            classify_triple_hom(T)


class TestFuzz:
    def test_transpose_witness_frozen(self):
        w = fuzz_counterexample(transpose_map(SH2), CompatKind.DOMAIN,
                                budget=100, seed=9)
        assert w is not None
        assert w.source == "crossed_isometries_2x2"
        assert w.index == 1
        assert w.output_defect == pytest.approx(np.sqrt(2) - 1, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_transpose_refuted_at_range_kind(self, seed):
        # the crossed isometries are skipped at range kind; their adjoints
        # are range compatible and their transposes are not
        w = fuzz_counterexample(transpose_map(SH2), CompatKind.RANGE,
                                budget=1000, seed=seed)
        assert w is not None
        assert w.index == 1
        assert w.source == "crossed_isometries_adjoint_2x2"
        assert w.output_defect == pytest.approx(np.sqrt(2) - 1, abs=1e-12)

    def test_half_map_witness_in_seeded_prefix(self):
        w = fuzz_counterexample(scale_map(SH2, 0.5), CompatKind.DOMAIN,
                                budget=100, seed=9)
        assert w is not None
        assert w.index < len(known_witness_pairs(SH2))
        assert w.source == "positive_compatible_2x2"
        assert w.output_defect == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_star_hom_survives(self):
        T = build_star_hom(SH2, SH22, [0, 0])
        assert fuzz_counterexample(T, CompatKind.FULL, budget=200, seed=9) is None

    def test_deterministic_replay(self):
        runs = [
            fuzz_counterexample(transpose_map(SH2), CompatKind.DOMAIN, 50, 17)
            for _ in range(2)
        ]
        assert runs[0].index == runs[1].index
        assert runs[0].output_defect == runs[1].output_defect
        np.testing.assert_array_equal(runs[0].a.matrix, runs[1].a.matrix)

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            fuzz_counterexample(identity_map(SH2), budget=0)

    def test_budget_limits_stream(self):
        # budget 1 only evaluates the first seeded pair, which the transpose
        # does not violate
        w = fuzz_counterexample(transpose_map(SH2), CompatKind.DOMAIN,
                                budget=1, seed=9)
        assert w is None


class TestRangeVersionAdapter:
    def test_identity(self, rng):
        S = range_version_adapter(identity_map(SH2))
        x = rand_contraction(rng, SH2)
        np.testing.assert_allclose(S.apply(x).matrix, x.matrix, atol=1e-14)

    def test_transpose_is_symmetric_so_adapter_fixes_it(self, rng):
        # T(x*)* = ((x*)^t)* = x^t: the transpose is its own adapted map
        T = transpose_map(SH2)
        S = range_version_adapter(T)
        x = rand_contraction(rng, SH2)
        np.testing.assert_allclose(S.apply(x).matrix, T.apply(x).matrix,
                                   atol=1e-14)

    def test_symmetric_hom_fixed(self, rng):
        w = rand_unitary(rng, SH2).blocks()[0]
        T = build_star_hom(SH2, SH2, [0], [w])
        S = range_version_adapter(T)
        np.testing.assert_allclose(S.action, T.action, atol=1e-14)

    def test_adapter_definition_pointwise(self, rng):
        u, v = rand_unitary(rng, SH2), rand_unitary(rng, SH2)
        doubling = build_star_hom(SH2, AlgebraShape((2, 2)), [0, 0], None)
        for T in (build_sandwich(u, v), doubling):
            S = range_version_adapter(T)
            for _ in range(10):
                x = rand_contraction(rng, SH2)
                expected = adjoint(T.apply(adjoint(x)))
                np.testing.assert_allclose(S.apply(x).matrix, expected.matrix,
                                           atol=1e-13)

    def test_sandwich_adapter_swaps_and_stars(self, rng):
        u, v = rand_unitary(rng, SH2), rand_unitary(rng, SH2)
        S = range_version_adapter(build_sandwich(u, v))
        expected = build_sandwich(adjoint(v), adjoint(u))
        np.testing.assert_allclose(S.action, expected.action, atol=1e-13)

    def test_swap_property_on_verdicts(self, rng):
        # S preserves domain verdicts exactly when T preserves range verdicts:
        # exercise with the transpose, refuted on both matched sides
        T = transpose_map(SH2)
        S = range_version_adapter(T)
        gen = PairGenerator(PairStrategy.DIRECT_SUM_MIX, 31)
        for _ in range(25):
            a, b = gen.draw(SH2)
            try:
                in_dom = compat_defect(a, b, CompatKind.DOMAIN).verdict
                in_rng = compat_defect(a, b, CompatKind.RANGE).verdict
            except Exception:
                continue
            if in_dom:
                s_keeps = compat_defect(S.apply(a), S.apply(b),
                                        CompatKind.DOMAIN).verdict
                t_on_adj = compat_defect(T.apply(adjoint(a)),
                                         T.apply(adjoint(b)),
                                         CompatKind.RANGE).verdict
                assert s_keeps == t_on_adj


def test_scale_map_params():
    T = scale_map(SH2, 0.5)
    assert T.params["factor"] == 0.5
    assert T.provenance is Provenance.CUSTOM
