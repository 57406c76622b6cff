from __future__ import annotations

import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abscompat import (
    AlgebraElement,
    AlgebraShape,
    CompatKind,
    PairGenerator,
    PairStrategy,
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
    jordan,
    preserves_compat_sampled,
    range_version_adapter,
    scale_map,
    transpose_map,
    triple,
    unit,
)
from abscompat import preservers, suites
from abscompat.errors import (
    AmbiguousBlock,
    GeneratorExhausted,
    NotTripleHom,
    NotUnitary,
    ShapeIncompatible,
    ShapeMismatch,
)
from abscompat.linalg import _svd, op_norm
from abscompat.preservers import MAX_TOTAL_DIM, LinearMap
from abscompat.sampling import (
    compatible_pairs, known_witness_pairs, rand_contraction, rand_unitary,
)
from abscompat.tolerance import ToleranceConfig

import frozen_sampling as frozen
import page_replay as replay

SH2 = AlgebraShape((2,))
SH22 = AlgebraShape((2, 2))


def matrix_units(shape: AlgebraShape) -> list[AlgebraElement]:
    n = shape.total_dim
    out = []
    for i, j in zip(*shape.basis_coords()):
        m = np.zeros((n, n), dtype=complex)
        m[i, j] = 1.0
        out.append(AlgebraElement(shape, m))
    return out


def brute_force_triple_defect(T) -> float:
    """max |T{x,y,z} - {Tx,Ty,Tz}| by applying T to every matrix-unit triple."""
    units = matrix_units(T.domain_shape)
    images = [T.apply(u) for u in units]
    worst = 0.0
    for x, tx in zip(units, images):
        for y, ty in zip(units, images):
            for z, tz in zip(units, images):
                diff = T.apply(triple(x, y, z)) - triple(tx, ty, tz)
                worst = max(worst, op_norm(diff.matrix))
    return worst


def brute_force_pair_defect(T, scalars=(1.0,)) -> float:
    """max of |T(x∘y) - {Tx, e, Ty}| and |T(x*) - {e, Tx, e}| with e = T(1), by
    applying T to every matrix-unit pair (x, c y) and unit c x, c in scalars."""
    units = matrix_units(T.domain_shape)
    e = T.apply(unit(T.domain_shape))
    worst = 0.0
    for x in units:
        for c in scalars:
            diff = T.apply(adjoint(c * x)) - triple(e, T.apply(c * x), e)
            worst = max(worst, op_norm(diff.matrix))
            for y in units:
                diff = T.apply(jordan(x, c * y)) - triple(T.apply(x), e, T.apply(c * y))
                worst = max(worst, op_norm(diff.matrix))
    return worst


def judged_witnesses(T, kind, output_kind, n_pairs, seed, tol, stack_fixed=False) -> list:
    """Every pair ``preservers._judged_pairs`` judges, wrapped as the Witness
    an audit returning it would give; by default the fixed pairs one at a time."""
    return [preservers._witness(T.domain_shape, chunk, row)
            for chunk in preservers._judged_pairs(T, kind, output_kind, n_pairs, seed, tol,
                                                  stack_fixed)
            for row in range(len(chunk.names))]


def witness_bytes(w) -> tuple:
    return (w.index, w.source, w.a.matrix.tobytes(), w.b.matrix.tobytes(),
            np.float64(w.input_defect).tobytes(), np.float64(w.output_defect).tobytes())


def random_action(rng, domain: AlgebraShape, codomain: AlgebraShape) -> np.ndarray:
    n, m = domain.total_dim, codomain.total_dim
    action = rng.standard_normal((m * m, n * n)) + 1j * rng.standard_normal((m * m, n * n))
    return action / (n * n)


class TestLinearMap:
    def test_action_shape_validated(self):
        with pytest.raises(ShapeIncompatible):
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_action_refused(self, bad):
        # one NaN in the identity action made is_triple_hom fail inside an SVD
        action = identity_map(SH2).action.copy()
        action[0, 0] = bad
        with pytest.raises(ValueError, match="must be finite"):
            LinearMap(SH2, SH2, action)

    def test_apply_is_one_matrix_vector_product(self, rng):
        # apply takes the stacked product on a stack of one; the reference is
        # the matrix-vector product of the action with the vectorized element
        sh23, sh124 = AlgebraShape((2, 3)), AlgebraShape((1, 2, 4))
        for shape in (SH2, AlgebraShape((3,)), sh23, sh124):
            n = shape.total_dim
            maps = [transpose_map(shape), scale_map(shape, 0.5 - 0.25j),
                    build_sandwich(rand_unitary(rng, shape), rand_unitary(rng, shape)),
                    LinearMap(shape, shape, rng.standard_normal((n * n, n * n))
                              + 1j * rng.standard_normal((n * n, n * n)))]
            for T in maps:
                for _ in range(5):
                    x = rand_contraction(rng, shape)
                    ref = (T.action @ x.matrix.reshape(-1)).reshape(n, n)
                    assert T.apply(x).matrix.tobytes() == ref.tobytes()


class TestSizeLimit:
    def test_limit_arithmetic(self):
        # an action at the limit: (32^2)^2 complex entries of 16 bytes
        assert (MAX_TOTAL_DIM**2) ** 2 * np.dtype(np.complex128).itemsize == 16 * 2**20

    @pytest.mark.parametrize("dims", [
        (MAX_TOTAL_DIM + 1,), (10_000,), (1, MAX_TOTAL_DIM // 2, MAX_TOTAL_DIM // 2),
    ])
    def test_oversized_shapes_refused_before_allocating(self, dims):
        shape = AlgebraShape(dims)
        builders = [
            lambda: transpose_map(shape),
            lambda: identity_map(shape),
            lambda: scale_map(shape, 0.5),
            lambda: LinearMap(SH2, shape, np.zeros((1, 4))),
        ]
        for build in builders:
            tracemalloc.start()
            try:
                with pytest.raises(ShapeIncompatible, match="exceeds the limit"):
                    build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # a built map would hold (n^2)^2 entries: 19 MB at n = 33
            assert peak < 2**20

    def test_limit_itself_passes_the_check(self):
        # the check alone, so nothing of the limit's size is allocated
        preservers._check_map_shapes(AlgebraShape((MAX_TOTAL_DIM,)),
                                     AlgebraShape((MAX_TOTAL_DIM - 1, 1)))


class TestStarHom:
    def test_identity_assignment(self, rng):
        T = build_star_hom(SH2, SH2, [0])
        x = rand_contraction(rng, SH2)
        np.testing.assert_array_equal(T.apply(x).matrix, x.matrix)

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

    @staticmethod
    def _one_sample_loop(T, n_samples, seed):
        """The certificate one sample at a time: matrix units, then unit-norm
        contractions, each mapped by ``T.apply``; the first strict maximum.
        The contractions are one page, replayed row by row."""
        rows = replay.page(np.random.default_rng(seed), T.domain_shape,
                           replay.each(replay.page_contraction), n_samples)
        worst, worst_x = 0.0, None
        samples = [AlgebraElement(T.domain_shape, e)
                   for e in preservers._basis_stack(T.domain_shape)]
        for row in rows:
            x = frozen.rand_contraction(row, T.domain_shape)
            assert row.exhausted()
            norm = op_norm(x.matrix)
            if norm > 0:
                samples.append(AlgebraElement(x.shape, x.matrix / norm))
        for x in samples:
            excess = op_norm(T.apply(x).matrix) - 1.0
            if excess > worst:
                worst, worst_x = excess, x
        return worst, None if worst_x is None else worst_x.matrix

    @pytest.mark.parametrize("dims", [[2, 3], [1], [4]])
    def test_verdicts_on_triple_homs_and_doubling(self, dims):
        # the paged samples keep every verdict: the built triple homs are
        # contractive, and x -> 2x is caught with defect 1 at every seed
        tol = ToleranceConfig()
        maps = suites._built_triple_homs(np.random.default_rng(0), dims, tol)
        for seed in range(3):
            for n_samples in (1, 16, 64):
                for name, T in maps:
                    assert is_contractive_sampled(T, n_samples, seed, tol).verdict, name
                    doubled = is_contractive_sampled(scale_map(T.domain_shape, 2.0),
                                                     n_samples, seed, tol)
                    assert not doubled.verdict and doubled.defect == pytest.approx(1.0)

    def test_replays_the_one_sample_loop(self):
        rng = np.random.default_rng(4)
        sh12 = AlgebraShape((1, 2))
        maps = [scale_map(SH2, 1.5), transpose_map(AlgebraShape((2, 3))),
                build_sandwich(rand_unitary(rng, SH2), rand_unitary(rng, SH2)),
                LinearMap(sh12, sh12, 0.6 * rng.standard_normal((9, 9)))]
        for T in maps:
            for seed in range(3):
                for n_samples in (1, 16, 64):
                    rep = is_contractive_sampled(T, n_samples, seed)
                    worst, worst_x = self._one_sample_loop(T, n_samples, seed)
                    assert rep.defect == worst
                    assert rep.verdict == (worst <= 1e-8)
                    sample = rep.witnesses.get("worst_sample")
                    assert (sample is None) == (worst_x is None)
                    if sample is not None:
                        assert sample.tobytes() == worst_x.tobytes()


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

    @pytest.mark.parametrize("c", [0.5, 0.5j, 0.3 + 0.4j, 0.9])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_scale_map_defect_is_exact(self, d, c):
        # both sides of J and A are c x against c |c|^2 x for unit-norm x
        rep = is_triple_hom(scale_map(AlgebraShape((d,)), c))
        assert not rep.verdict
        assert abs(rep.defect - abs(c) * (1 - abs(c) ** 2)) <= 1e-15

    def test_defect_covers_imaginary_middle_slot(self, rng):
        # both identities are (conjugate-)linear in each unit, so scaling x or
        # y by i moves no residual and the matrix units give the maximum
        action = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        T = LinearMap(SH2, SH2, action / 4.0)
        reference = brute_force_pair_defect(T, scalars=(1.0, 1j))
        assert reference > 0.1
        assert is_triple_hom(T).defect == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("case", [
        "random M1+M2", "random M2 -> M2+M2", "perturbed identity M3", "doubling M2",
    ])
    def test_matches_brute_force_over_unit_triples(self, rng, case):
        if case == "random M1+M2":  # complex action with a 1x1 block
            shape = AlgebraShape((1, 2))
            T = LinearMap(shape, shape, random_action(rng, shape, shape))
        elif case == "random M2 -> M2+M2":  # codomain size differs from domain
            T = LinearMap(SH2, SH22, random_action(rng, SH2, SH22))
        elif case == "perturbed identity M3":  # defect only where e_01 enters
            shape = AlgebraShape((3,))
            action = identity_map(shape).action.copy()
            action[:, 1] += 1e-3 * random_action(rng, shape, shape)[:, 1]
            T = LinearMap(shape, shape, action)
        else:
            T = build_star_hom(SH2, SH22, [0, 0])
        reference = brute_force_pair_defect(T)
        triples = brute_force_triple_defect(T)
        defect = is_triple_hom(T).defect
        if case == "doubling M2":
            assert reference == triples == defect == 0.0
        else:
            assert reference > 1e-4
            assert defect == pytest.approx(reference, rel=1e-12)
            # J sums n triple residuals {x, e_kk, y}, A sums n^2 {e_kk, x, e_ll}
            assert defect <= T.domain_shape.total_dim ** 2 * triples

    def test_verdicts_match_the_triple_check(self, rng):
        sh12 = AlgebraShape((1, 2))
        noisy = []
        for size in (1e-3, 1e-6):
            action = identity_map(SH2).action + size * random_action(rng, SH2, SH2)
            noisy.append(LinearMap(SH2, SH2, action))
        zoo = [transpose_map(SH2),
               build_sandwich(rand_unitary(rng, SH2), rand_unitary(rng, SH2)),
               build_star_hom(SH2, SH22, [0, 0]),
               build_block_map(sh12, sh12, [0, 1], [False, True]),
               scale_map(SH2, 0.5), scale_map(SH2, 0.9),
               LinearMap(sh12, sh12, random_action(rng, sh12, sh12)), *noisy]
        verdicts = [is_triple_hom(T).verdict for T in zoo]
        assert verdicts == [brute_force_triple_defect(T) <= 1e-8 for T in zoo]
        assert verdicts == [True] * 4 + [False] * 5

    def test_matches_direct_triple_evaluation(self, rng):
        T = build_sandwich(rand_unitary(rng, SH2), rand_unitary(rng, SH2))
        for _ in range(10):
            x, y, z = (rand_contraction(rng, SH2) for _ in range(3))
            lhs = T.apply(triple(x, y, z))
            rhs = triple(T.apply(x), T.apply(y), T.apply(z))
            assert op_norm((lhs - rhs).matrix) <= 1e-10

    @pytest.mark.parametrize("case", [
        "sandwich M5", "doubling M3", "block map M1+M2+M4", "perturbed identity M4",
        "random M2+M3",
    ])
    def test_pass_does_not_depend_on_the_tiles(self, rng, monkeypatch, case):
        # one pair a tile (every row in chunks), the default, and the whole
        # table as one tile per domain block
        if case == "sandwich M5":
            shape = AlgebraShape((5,))
            T = build_sandwich(rand_unitary(rng, shape), rand_unitary(rng, shape))
        elif case == "doubling M3":
            T = build_star_hom(AlgebraShape((3,)), AlgebraShape((3, 3)), [0, 0])
        elif case == "block map M1+M2+M4":
            shape = AlgebraShape((1, 2, 4))
            ws = [rand_unitary(rng, AlgebraShape((d,))).blocks()[0] for d in (1, 2, 4)]
            T = build_block_map(shape, shape, [0, 1, 2], [False, True, True], ws)
        elif case == "perturbed identity M4":
            shape = AlgebraShape((4,))
            action = identity_map(shape).action + 1e-3 * random_action(rng, shape, shape)
            T = LinearMap(shape, shape, action)
        else:
            shape = AlgebraShape((2, 3))
            T = LinearMap(shape, shape, random_action(rng, shape, shape))
        e = T.apply(unit(T.domain_shape)).matrix
        runs = []
        for entries in (1, preservers._TILE_ENTRIES, 1 << 40):
            monkeypatch.setattr(preservers, "_TILE_ENTRIES", entries)
            try:
                cls = classify_triple_hom(T)
                split = (cls.hom_block_indices, cls.antihom_block_indices)
            except (NotTripleHom, AmbiguousBlock) as exc:
                split = type(exc)
            runs.append((is_triple_hom(T).verdict, split, *preservers._pair_pass(T, e, True)))
        reference = brute_force_pair_defect(T)
        for verdict, split, defect, residuals in runs:
            assert (verdict, split) == runs[0][:2]
            assert abs(defect - runs[0][2]) <= 1e-15
            np.testing.assert_allclose(residuals, runs[0][3], rtol=0, atol=1e-15)
            assert abs(defect - reference) <= 1e-12 * reference + 1e-14
        assert runs[0][0] == (case not in ("perturbed identity M4", "random M2+M3"))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6), count=st.integers(0, 12),
       rank_one=st.booleans(), norms=st.sampled_from(["free", "tied", "clustered", "zero"]),
       floor=st.sampled_from(["zero", "inside", "above"]))
def test_max_op_norm_is_the_exact_maximum(seed, m, count, rank_one, norms, floor):
    # rank-one candidates have operator norm = Frobenius norm, where rounding
    # alone decides which of two tied candidates is larger
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((count, m, m)) + 1j * rng.standard_normal((count, m, m))
    if rank_one:
        stack = stack[:, :, :1] @ stack[:, :1, :]
    fro = np.linalg.norm(stack, axis=(1, 2))[:, None, None]
    if norms == "tied":
        stack /= fro
    elif norms == "clustered":
        stack *= (1.0 + 1e-15 * rng.integers(-8, 9, (count, 1, 1))) / fro
    elif norms == "zero":
        stack[:] = 0.0
    sigma = _svd(stack, compute_uv=False)[:, 0] if count else np.zeros(0)
    floor = {"zero": 0.0, "inside": float(np.median(sigma)) if count else 0.5,
             "above": 1.5 * float(np.linalg.norm(stack, axis=(1, 2)).max(initial=1.0))}[floor]
    assert preservers._max_op_norm(stack, floor) == max(floor, sigma.max(initial=floor))


class TestPreservesCompat:
    @pytest.mark.parametrize("n_pairs", [0, -1])
    def test_pair_count_validated(self, n_pairs):
        # -1 would drop a fixed pair and ask the rotation for -1 draws, a loop that never ends
        with pytest.raises(ValueError, match="n_pairs"):
            preserves_compat_sampled(identity_map(SH2), CompatKind.FULL, n_pairs)

    def test_star_hom_zero_violations(self):
        T = build_star_hom(SH2, SH22, [0, 0])
        rep = preserves_compat_sampled(T, CompatKind.FULL, 40, seed=23)
        assert rep.verdict and rep.violations == 0
        assert rep.n_pairs == 40

    def test_transpose_refuted_by_seeded_witness(self):
        # at domain kind the fixed prefix is the positive pair, the crossed
        # isometries and the two saturated pairs; only the crossed pair fails
        rep = preserves_compat_sampled(transpose_map(SH2), CompatKind.DOMAIN, 4, seed=23)
        assert not rep.verdict
        assert rep.violations == 1
        assert rep.worst is not None
        assert (rep.worst.source, rep.worst.index) == ("crossed_isometries_2x2", 1)
        assert rep.worst.output_defect == pytest.approx(np.sqrt(2) - 1, abs=1e-12)

    def test_anti_hom_swaps_kinds(self, rng):
        w = rand_unitary(rng, SH2).blocks()[0]
        anti = build_star_anti_hom(SH2, SH2, [0], [w])
        rep = preserves_compat_sampled(
            anti, CompatKind.DOMAIN, 40, seed=5, output_kind=CompatKind.RANGE)
        assert rep.verdict
        assert rep.output_kind is CompatKind.RANGE

    def test_noncontractive_map_warns(self):
        with pytest.warns(UserWarning, match="non-contractive"):
            rep = preserves_compat_sampled(scale_map(SH2, 2.0), CompatKind.FULL, 3, seed=2)
        assert not rep.verdict  # doubled images escape the ball
        assert rep.worst.source.endswith("+noncontractive-image")

    @pytest.mark.parametrize("name", ["transpose", "doubling", "mixed", "scale 1.5", "sandwich"])
    def test_stacked_judge_matches_one_pair_judge(self, name):
        # drawn pairs are judged in stacks; the reference maps each pair
        # with T.apply and judges it with compat_defect
        sh23 = AlgebraShape((2, 3))
        rng = np.random.default_rng(9)
        T = {"transpose": lambda: transpose_map(SH2),
             "doubling": lambda: build_star_hom(SH2, SH22, [0, 0]),
             "mixed": lambda: build_block_map(sh23, sh23, [0, 1], [False, True]),
             "scale 1.5": lambda: scale_map(SH2, 1.5),
             "sandwich": lambda: build_sandwich(rand_unitary(rng, SH2),
                                                rand_unitary(rng, SH2))}[name]()
        tol = ToleranceConfig()
        for kind in CompatKind:
            judged = judged_witnesses(T, kind, kind, 150, 4, tol)
            stream = compatible_pairs(T.domain_shape, kind, 4, tol)
            assert [w.index for w in judged] == list(range(150))
            for w, (source, a, b, in_defect) in zip(judged, stream):
                ta, tb = T.apply(a), T.apply(b)
                assert w.a.matrix.tobytes() == a.matrix.tobytes()
                assert w.b.matrix.tobytes() == b.matrix.tobytes()
                assert w.input_defect == in_defect
                if max(op_norm(ta.matrix), op_norm(tb.matrix)) > 1.0 + tol.relation:
                    # the norm excess comes from another SVD call than op_norm's
                    assert w.source == source + "+noncontractive-image"
                    expected = max(op_norm(ta.matrix), op_norm(tb.matrix)) - 1.0
                    assert abs(w.output_defect - expected) <= 1e-15
                else:
                    # the stack's images are T.apply's bytes
                    assert w.source == source
                    assert w.output_defect == compat_defect(ta, tb, kind, tol).defect

    @pytest.mark.parametrize("kind", list(CompatKind))
    @pytest.mark.parametrize("dims", [(2,), (1, 2)])
    def test_judged_inputs_are_the_streams_first_pairs(self, dims, kind):
        # the judge asks the stream for no more pairs than it wants, so its
        # stacks differ from the stream's; the pairs, drawn a page at a time
        # from one generator, must not, also around the page boundaries
        shape, tol = AlgebraShape(dims), ToleranceConfig()
        stream = list(islice(compatible_pairs(shape, kind, 6, tol), 257))
        for n in (1, 2, 3, 63, 64, 65, 127, 128, 129, 255, 256, 257):
            judged = judged_witnesses(identity_map(shape), kind, kind, n, 6, tol)
            assert [(w.source, w.a.matrix.tobytes(), w.b.matrix.tobytes(),
                     np.float64(w.input_defect).tobytes()) for w in judged] == [
                (source, a.matrix.tobytes(), b.matrix.tobytes(), np.float64(d).tobytes())
                for source, a, b, d in stream[:n]]

    @pytest.mark.parametrize("kind", list(CompatKind))
    @pytest.mark.parametrize("dims", [(2,), (2, 3)])
    def test_regrouped_pairs_give_each_pair_its_bytes(self, dims, kind):
        # under x -> 1.5 x the fixed pairs' images leave the ball; four more
        # pairs are scaled so their images have norms in (1, 1 + tol]
        shape, tol = AlgebraShape(dims), ToleranceConfig()
        T, t = scale_map(shape, 1.5), tol.relation
        pairs = list(islice(compatible_pairs(shape, kind, 3, tol), 16))
        nonzero = [p for p in pairs if op_norm(p[1].matrix) and op_norm(p[2].matrix)]
        pairs += [(source, a * ((1.0 + t / k) / 1.5 / op_norm(a.matrix)),
                   b * ((1.0 + t / (k + 1)) / 1.5 / op_norm(b.matrix)), d)
                  for k, (source, a, b, d) in enumerate(nonzero[:4], 2)]

        def judged(rows):
            stacks = np.array([[pairs[i][j].matrix for i in rows] for j in (1, 2)])
            defects, outside = preservers._judge(T, stacks, kind, tol)
            return [(np.float64(d).tobytes(), "+noncontractive-image" if out else "")
                    for d, out in zip(defects, outside)]

        expected = judged(range(len(pairs)))
        norms = [max(op_norm(T.apply(a).matrix), op_norm(T.apply(b).matrix))
                 for _, a, b, _ in pairs]
        outside = [suffix == "+noncontractive-image" for _, suffix in expected]
        assert outside == [n > 1.0 + t for n in norms] and any(outside)
        assert all(1.0 < n <= 1.0 + t and not out
                   for n, out in zip(norms[-4:], outside[-4:]))
        order = np.random.default_rng(5).permutation(len(pairs))
        for lo, hi in ((0, len(pairs)), (0, 1), (1, 4), (4, 11), (11, len(pairs))):
            assert judged(order[lo:hi]) == [expected[i] for i in order[lo:hi]]

    @pytest.mark.parametrize("kind", list(CompatKind))
    def test_stacked_reduction_keeps_the_per_pair_order(self, monkeypatch, kind):
        # a stream that repeats its largest violation, within a stack and
        # across stacks: the audit's witness is the earliest of the tied pairs
        # and the fuzz witness the first row over tol, as a pair-by-pair scan
        T, tol = scale_map(SH2, 0.5), ToleranceConfig()
        zero = AlgebraElement.single(np.zeros((2, 2)))
        pairs = list(islice(compatible_pairs(SH2, kind, 0, tol), 40))
        over = sorted((p for p in pairs if preservers._judge_one(T, p, kind, tol)[0] > tol.relation),
                      key=lambda p: preservers._judge_one(T, p, kind, tol)[0])
        low, top, clean = over[0], over[-1], ("zero", zero, zero, 0.0)
        assert preservers._judge_one(T, low, kind, tol)[0] < preservers._judge_one(T, top, kind, tol)[0]

        def stacked(*rows):
            return ([r[0] for r in rows], np.array([[r[i].matrix for r in rows] for i in (1, 2)]),
                    np.array([r[3] for r in rows]))

        def replay(*stacks):
            monkeypatch.setattr(preservers, "_drawn_pairs", lambda *args: iter(stacks))
            return [r for rows in stacks for r in zip(rows[0], *rows[1], rows[2])]

        monkeypatch.setattr(preservers, "_fixed_pairs", lambda *args: [])
        rows = [clean, low, top, clean, top, top, low, top]
        flat = replay(stacked(*rows[:2]), stacked(*rows[2:3]), stacked(*rows[3:6]), stacked(*rows[6:]))
        defects = [preservers._judge_one(T, r, kind, tol)[0] for r in rows]
        rep = preserves_compat_sampled(T, kind, len(rows))
        assert rep.worst.index == defects.index(max(defects)) == 2
        assert rep.worst.a.matrix.tobytes() == flat[2][1].tobytes()
        assert rep.max_output_defect == rep.worst.output_defect == max(defects)
        assert rep.violations == sum(d > tol.relation for d in defects) == 6
        replay(stacked(clean, clean), stacked(clean), stacked(clean, top, low))
        w = fuzz_counterexample(T, kind, 6)
        assert (w.index, w.source) == (4, top[0])
        assert w.b.matrix.tobytes() == top[2].matrix.tobytes()
        replay(stacked(clean, clean), stacked(clean))
        assert fuzz_counterexample(T, kind, 3) is None

    def test_stream_ending_early_raises(self, monkeypatch):
        monkeypatch.setattr(preservers, "_fixed_pairs", lambda *args: [])
        monkeypatch.setattr(preservers, "_drawn_pairs", lambda *args: iter([]))
        with pytest.raises(GeneratorExhausted, match="after 0 of 3 pairs"):
            preserves_compat_sampled(identity_map(SH2), CompatKind.FULL, 3)

    @pytest.mark.parametrize("kind", list(CompatKind))
    @pytest.mark.parametrize("dims", [(1,), (2,), (2, 3)])
    def test_only_the_fixed_pairs_are_judged_one_at_a_time(self, monkeypatch, dims, kind):
        # one compat_defect call per fixed pair compatible at kind; every drawn
        # pair, even one alone in its chunk, goes to the stacked judge
        shape, tol = AlgebraShape(dims), ToleranceConfig()
        calls = []

        def counted(*args):
            calls.append(args)
            return compat_defect(*args)

        monkeypatch.setattr(preservers, "compat_defect", counted)
        judged = judged_witnesses(transpose_map(shape), kind, kind, 40, 0, tol)
        passing = [label for label, a, b in known_witness_pairs(shape)
                   if compat_defect(a, b, kind, tol).verdict]
        assert len(judged) == 40
        assert len(calls) == len(passing) >= 2
        assert [w.source.split("+")[0] for w in judged[:len(passing)]] == passing

    @pytest.mark.filterwarnings("ignore:map appears non-contractive")
    @pytest.mark.parametrize("kind", list(CompatKind))
    @pytest.mark.parametrize("name", ["transpose", "scale 0.5", "symmetrization", "sandwich",
                                      "scale 1.5", "scale 2"])
    def test_stacked_fixed_pairs_judge_as_one_at_a_time(self, name, kind):
        # the audit judges the fixed pairs (cut at n_pairs) as one stack, the
        # fuzzer one at a time; the drawn ones come in windows of at most
        # _STACK_MAX, split where n_pairs cuts them: every pair and every report
        # must be the same, at the cut of the fixed prefix and around the pages.
        # Under x -> 1.5x and x -> 2x the fixed pairs' images leave the ball; at
        # 2x the kernel's norm excess of the first differs from op_norm's
        shape, tol, seed = AlgebraShape((1, 2)), ToleranceConfig(), 3
        pair_rng = np.random.default_rng(12)
        T = {"transpose": lambda: transpose_map(shape),
             "scale 0.5": lambda: scale_map(shape, 0.5),
             "symmetrization": lambda: LinearMap(shape, shape, (
                 identity_map(shape).action + transpose_map(shape).action) / 2),
             "sandwich": lambda: build_sandwich(rand_unitary(pair_rng, shape),
                                                rand_unitary(pair_rng, shape)),
             "scale 1.5": lambda: scale_map(shape, 1.5),
             "scale 2": lambda: scale_map(shape, 2.0)}[name]()
        fixed = len(preservers._fixed_pairs(shape, kind, tol))
        stream = judged_witnesses(T, kind, kind, 257, seed, tol)  # the n-th pair is its n-th
        for n in sorted({1, fixed - 1, fixed, fixed + 1, 127, 128, 129, 257}):
            reference = stream[:n]
            stacked = judged_witnesses(T, kind, kind, n, seed, tol, stack_fixed=True)
            assert list(map(witness_bytes, stacked)) == list(map(witness_bytes, reference))
            rep = preserves_compat_sampled(T, kind, n, seed, tol)
            top = max(reference, key=lambda w: w.output_defect)  # the first of largest defect
            assert rep.violations == sum(w.output_defect > tol.relation for w in reference)
            assert (np.float64(rep.max_output_defect).tobytes()
                    == np.float64(max(0.0, top.output_defect)).tobytes())
            if rep.violations:
                assert witness_bytes(rep.worst) == witness_bytes(top)
            else:
                assert rep.worst is None

    @pytest.mark.parametrize("kind", list(CompatKind))
    @pytest.mark.parametrize("name", ["transpose", "scale 0.5", "sandwich"])
    def test_first_violation_is_the_fuzz_witness(self, rng, name, kind):
        # both read one stream: the audit finds no violation before the fuzz
        # witness and finds exactly it when the witness is the last pair judged
        T = {"transpose": lambda: transpose_map(SH2),
             "scale 0.5": lambda: scale_map(SH2, 0.5),
             "sandwich": lambda: build_sandwich(rand_unitary(rng, SH2),
                                                rand_unitary(rng, SH2))}[name]()
        budget = 60
        for seed in range(3):
            w = fuzz_counterexample(T, kind, budget, seed)
            clean = budget if w is None else w.index
            if clean:
                assert preserves_compat_sampled(T, kind, clean, seed).violations == 0
            if w is None:
                continue
            rep = preserves_compat_sampled(T, kind, w.index + 1, seed)
            assert rep.violations == 1
            found = rep.worst
            assert (found.index, found.source) == (w.index, w.source)
            assert (found.input_defect, found.output_defect) == (w.input_defect,
                                                                  w.output_defect)
            np.testing.assert_array_equal(found.a.matrix, w.a.matrix)
            np.testing.assert_array_equal(found.b.matrix, w.b.matrix)


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
        cases = [  # domain, codomain, block assignment, transpose flags, anti-hom blocks
            ((2, 3), (2, 3), [0, 1], [False, True], {1}),
            # the M2 block feeds two codomain blocks, both transposed
            ((1, 2), (2, 1, 2), [1, 0, 1], [True, False, True], {1}),
        ]
        for domain, codomain, assignment, flags, antihom in cases:
            shape, cod = AlgebraShape(domain), AlgebraShape(codomain)
            ws = [rand_unitary(rng, AlgebraShape((d,))).blocks()[0] for d in codomain]
            T = build_block_map(shape, cod, assignment, flags, ws)
            cls = classify_triple_hom(T)
            assert cls.antihom_block_indices == antihom
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
                if d > 1:  # the side a block is not on is far from it
                    assert cls.residuals[bi][int(bi not in antihom)] > 0.1

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

    @pytest.mark.parametrize("tmap", [identity_map(SH2), transpose_map(SH2)])
    def test_negative_seed_refused_whatever_the_map(self, tmap):
        # the transpose is refuted among the fixed pairs, before any draw
        with pytest.raises(ValueError):
            fuzz_counterexample(tmap, CompatKind.DOMAIN, seed=-1)

    def test_budget_limits_stream(self):
        # budget 1 only evaluates the first seeded pair, which the transpose
        # does not violate
        w = fuzz_counterexample(transpose_map(SH2), CompatKind.DOMAIN,
                                budget=1, seed=9)
        assert w is None


_NEGATIVE_SEED_CALLS = {
    "is_contractive_sampled": lambda: is_contractive_sampled(identity_map(SH2), seed=-1),
    # checked before the contractivity spot check draws from seed ^ 0x9E3779B9
    "preserves_compat_sampled": lambda: preserves_compat_sampled(
        identity_map(SH2), CompatKind.FULL, 10, seed=-1),
    "fuzz_counterexample": lambda: fuzz_counterexample(identity_map(SH2), seed=-1),
}


@pytest.mark.parametrize("name", _NEGATIVE_SEED_CALLS)
def test_negative_seed_named_in_the_message(name):
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        _NEGATIVE_SEED_CALLS[name]()


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
