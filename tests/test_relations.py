from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abscompat import (
    AlgebraElement,
    AlgebraShape,
    CompatKind,
    IntervalBoundary,
    ToleranceConfig,
    adjoint,
    check_orth_characterization,
    check_p00_equivalences,
    check_tripotent_characterization,
    commutative_compat_check,
    compat_defect,
    is_orthogonal,
    is_partial_isometry,
    is_projection,
    jordan,
    spectral_tripotent,
    unit,
)
from abscompat.errors import (
    CrossCheckMismatch,
    EndpointAmbiguity,
    LengthMismatch,
    NotContraction,
    NotInUnitInterval,
)
from abscompat.algebra import is_positive, zero
from abscompat.linalg import abs_value, op_norm
from abscompat.relations import _compat_stack, _orth_reports, _p00_reports, _tripotent_reports
from abscompat.reports import SideCheck, make_clause
from abscompat.sampling import (
    rand_contraction,
    rand_hermitian_contraction,
    rand_partial_isometry,
    rand_positive_contraction,
    rand_unitary_block,
    sample_general_pair,
    sample_positive_pair,
)

SQRT2 = np.sqrt(2.0)


class TestCompatDefect:
    def test_standard_positive_pair_full(self, positive_pair):
        a, b = positive_pair
        rep = compat_defect(a, b, CompatKind.FULL)
        assert rep.verdict
        assert rep.defect <= 1e-12
        assert set(rep.witnesses) >= {"abs_a", "abs_b", "abs_diff", "unit_gap"}

    def test_half_unit_incompatible_with_itself(self):
        h = 0.5 * unit(AlgebraShape((2,)))
        rep = compat_defect(h, h, CompatKind.DOMAIN)
        assert not rep.verdict
        assert rep.defect == pytest.approx(1.0)

    def test_crossed_isometries_domain(self, isometry_pair):
        e, v = isometry_pair
        assert compat_defect(e, v, CompatKind.DOMAIN).verdict

    def test_transposed_isometries_fail_domain(self, isometry_pair):
        e, v = isometry_pair
        et = AlgebraElement.single(e.matrix.T)
        vt = AlgebraElement.single(v.matrix.T)
        rep = compat_defect(et, vt, CompatKind.DOMAIN)
        assert not rep.verdict
        assert rep.defect == pytest.approx(SQRT2 - 1.0, abs=1e-12)

    def test_crossed_isometries_not_range_compatible(self, isometry_pair):
        e, v = isometry_pair
        rep = compat_defect(e, v, CompatKind.RANGE)
        assert not rep.verdict
        assert rep.defect == pytest.approx(SQRT2 - 1.0, abs=1e-12)

    def test_full_is_max_of_both(self, isometry_pair):
        e, v = isometry_pair
        d = compat_defect(e, v, CompatKind.DOMAIN).defect
        r = compat_defect(e, v, CompatKind.RANGE).defect
        f = compat_defect(e, v, CompatKind.FULL).defect
        assert f == pytest.approx(max(d, r), abs=1e-15)

    def test_rejects_noncontraction(self):
        big = 2.0 * unit(AlgebraShape((2,)))
        with pytest.raises(NotContraction):
            compat_defect(big, 0.5 * unit(AlgebraShape((2,))))

    def test_renormalizes_roundoff_overshoot(self):
        slightly = (1.0 + 5e-9) * unit(AlgebraShape((2,)))
        rep = compat_defect(slightly, slightly, CompatKind.DOMAIN)
        assert rep.verdict  # (unitary, unitary) pairs saturate the identity

    def test_unitary_against_anything(self, rng):
        shape = AlgebraShape((3,))
        from abscompat.sampling import rand_contraction, rand_unitary

        u = rand_unitary(rng, shape)
        b = rand_contraction(rng, shape)
        assert compat_defect(u, b, CompatKind.FULL).defect <= 1e-10


class TestExactKernel:
    """Defects against the pointwise oracle on spectra spanning many decades."""

    def test_tiny_singular_value_is_not_floored(self):
        a = AlgebraElement.single(np.diag([1.0, 1e-7]))
        b = AlgebraElement.single(np.diag([0.0, 0.5]))
        rep = compat_defect(a, b, CompatKind.DOMAIN)
        assert abs(rep.defect - 2e-7) <= 1e-15
        assert not rep.verdict

    def test_pointwise_check_agrees_with_identity(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", CrossCheckMismatch)
            rep = commutative_compat_check(np.array([1.0, 1e-7]), np.array([0.0, 0.5]))
        assert not rep.verdict
        assert rep.defect == pytest.approx(2e-7, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        dims=st.one_of(
            st.integers(1, 8).map(lambda d: (d,)),
            st.lists(st.integers(1, 4), min_size=2, max_size=3).map(tuple),
        ),
        kind=st.sampled_from([CompatKind.DOMAIN, CompatKind.RANGE]),
    )
    def test_matches_pointwise_oracle(self, seed, dims, kind):
        # a = w1 diag(f) v*, b = w2 diag(g) v* share |a| = v |f| v* and
        # |b| = v |g| v*, so their domain defect is the pointwise defect of f
        # and g; the adjoints (shared left unitary) have it as range defect.
        rng = np.random.default_rng(seed)
        a_blocks, b_blocks, f_all, g_all = [], [], [], []
        for d in dims:
            f, g = (_log_uniform_moduli(rng, d) for _ in range(2))
            v, w1, w2 = (rand_unitary_block(rng, d) for _ in range(3))
            a, b = w1 @ np.diag(f) @ v.conj().T, w2 @ np.diag(g) @ v.conj().T
            if kind is CompatKind.RANGE:
                a, b = a.conj().T, b.conj().T
            a_blocks.append(a)
            b_blocks.append(b)
            f_all.append(f)
            g_all.append(g)
        f, g = np.concatenate(f_all), np.concatenate(g_all)
        oracle = float((2.0 * np.minimum.reduce([f, g, 1.0 - f, 1.0 - g])).max())
        shape = AlgebraShape(dims)
        rep = compat_defect(AlgebraElement.from_blocks(shape, a_blocks),
                            AlgebraElement.from_blocks(shape, b_blocks), kind)
        assert abs(rep.defect - oracle) <= 1e-12
        if not 1e-9 <= oracle <= 1e-7:
            assert rep.verdict == (oracle <= 1e-8)


def _log_uniform_moduli(rng: np.random.Generator, n: int) -> np.ndarray:
    """Moduli log-uniform over [1e-12, 1], some set to exactly 0 or exactly 1."""
    x = 10.0 ** rng.uniform(-12.0, 0.0, n)
    x[rng.random(n) < 0.15] = 0.0
    x[rng.random(n) < 0.15] = 1.0
    return x


class TestStackedKernel:
    """The stacked kernel against a per-pair compat_defect loop, the reference."""

    @staticmethod
    def _assert_matches_loop(pairs, shape, kind, tol=ToleranceConfig()):
        a, b = (np.stack([p[i].matrix for p in pairs]) for i in (0, 1))
        k = _compat_stack(a, b, shape, kind, tol)
        ball = 1.0 + tol.relation
        for i, (x, y) in enumerate(pairs):
            for norm, ref in ((k.norm_a[i], op_norm(x.matrix)), (k.norm_b[i], op_norm(y.matrix))):
                # near the ball to roundoff; outside it on the same side
                assert abs(norm - ref) <= 1e-15 if ref <= ball else norm > ball
            if max(k.norm_a[i], k.norm_b[i]) > ball:
                with pytest.raises(NotContraction, match="exceeds 1 \\+ tol"):
                    compat_defect(x, y, kind, tol)
            else:
                assert abs(k.defect[i] - compat_defect(x, y, kind, tol).defect) <= 1e-15

    @pytest.mark.parametrize("kind", list(CompatKind))
    @pytest.mark.parametrize("dims", [(d,) for d in range(1, 9)] + [(1, 2), (2, 2), (2, 3, 4)])
    def test_matches_one_pair_loop(self, rng, dims, kind):
        shape = AlgebraShape(dims)
        pairs = [sample_general_pair(rng, shape) for _ in range(12)]
        t = ToleranceConfig().relation

        def scaled(x, norm):
            size = op_norm(x.matrix)
            return x if size == 0.0 else x * (norm / size)

        # norms in the renormalized band (1, 1+tol] and beyond it
        pairs += [(scaled(x, 1.0 + t / 2), scaled(y, 1.0 + t / 4)) for x, y in pairs[:3]]
        pairs += [(scaled(x, 1.0 + 3 * t), y) for x, y in pairs[3:5]]
        pairs += [(x, scaled(y, 1.5)) for x, y in pairs[5:7]]
        self._assert_matches_loop(pairs, shape, kind)

    def test_near_threshold_pair_flips_at_tol(self, rng):
        # f = (1, d), g = (0, 0.5) with shared unitaries on both sides have
        # |a|, |b| and |a*|, |b*| commuting with the defect exactly 2 d
        shape, t = AlgebraShape((2,)), ToleranceConfig().relation
        for ratio in (0.99, 1.01):
            delta = ratio * t / 2.0
            pairs = []
            for _ in range(8):
                w, v = rand_unitary_block(rng, 2), rand_unitary_block(rng, 2)
                pairs.append(tuple(AlgebraElement.single(w @ np.diag(d) @ v.conj().T)
                                   for d in ([1.0, delta], [0.0, 0.5])))
            for kind in CompatKind:
                a, b = (np.stack([p[i].matrix for p in pairs]) for i in (0, 1))
                stacked = _compat_stack(a, b, shape, kind, ToleranceConfig()).defect
                for d, (x, y) in zip(stacked, pairs):
                    rep = compat_defect(x, y, kind)
                    assert abs(d - 2.0 * delta) <= 1e-15
                    assert abs(rep.defect - 2.0 * delta) <= 1e-15
                    assert (d <= t) == rep.verdict == (ratio < 1.0)


def _scaled(x: AlgebraElement, norm: float) -> AlgebraElement:
    size = op_norm(x.matrix)
    return x if size == 0.0 else x * (norm / size)


def _into_ball(x: AlgebraElement) -> AlgebraElement:
    size = op_norm(x.matrix)
    return x * (1.0 / size) if size > 1.0 else x


def _ref_orth(a, b, tol):
    """Side defects of each orthogonality clause, from the definitions."""
    a, b = _into_ball(a), _into_ball(b)
    dom, rng_ = (compat_defect(a, b, kind, tol).defect
                 for kind in (CompatKind.DOMAIN, CompatKind.RANGE))

    def gap(x, y):
        return max(0.0, np.linalg.eigvalsh(abs_value(x) + abs_value(y))[-1] - 1.0)

    g, g_adj = gap(a.matrix, b.matrix), gap(a.matrix.conj().T, b.matrix.conj().T)
    ab, ba = op_norm(a.matrix @ b.matrix.conj().T), op_norm(b.matrix.conj().T @ a.matrix)
    clauses = [[ab, max(g, dom), max(g, dom)], [ba, max(g_adj, rng_), max(g_adj, rng_)],
               [max(ab, ba), max(g, g_adj, dom, rng_)]]
    hermitian = max(op_norm((x - adjoint(x)).matrix) for x in (a, b)) <= tol.relation
    return clauses + [[max(ab, ba), max(g, dom, rng_)]] * hermitian


def _ref_p00(a, b, tol):
    one = unit(a.shape)
    lhs = 2.0 * jordan(a, b).matrix
    rhs = a.matrix + b.matrix - abs_value((a - b).matrix)

    def positive_orthogonal(x, y):
        return max(is_positive(x, tol).defect, is_positive(y, tol).defect,
                   op_norm((x @ y).matrix))

    return [[compat_defect(a, b, CompatKind.FULL, tol).defect, op_norm(lhs - rhs),
             positive_orthogonal(jordan(a, b), jordan(one - a, one - b)),
             positive_orthogonal(jordan(a, one - b), jordan(one - a, b))]]


def _ref_tripotent(a, tol):
    a = _into_ball(a)
    return [[compat_defect(a, a, CompatKind.FULL, tol).defect,
             is_partial_isometry(a, tol).defect]]


@pytest.mark.filterwarnings("error")
class TestStackedCharacterizations:
    """Each stacked characterization against the public one-pair functions
    in a loop, the sides rebuilt from their definitions as the reference."""

    SHAPES = [(1,), (2,), (3,), (2, 3), (1, 4)]
    TOL = ToleranceConfig()

    @classmethod
    def _assert_matches(cls, reports, reference):
        t = cls.TOL.relation
        assert len(reports) == len(reference)
        for report, clauses in zip(reports, reference):
            assert len(report.clauses) == len(clauses)
            for clause, defects in zip(report.clauses, clauses):
                expected = make_clause(clause.name, [
                    SideCheck(s.label, d <= t, d) for s, d in zip(clause.sides, defects)], t)
                assert [s.verdict for s in clause.sides] == [s.verdict for s in expected.sides]
                assert (clause.agree, clause.indeterminate) == \
                    (expected.agree, expected.indeterminate)
                np.testing.assert_allclose([s.defect for s in clause.sides], defects,
                                           rtol=0.0, atol=1e-14)

    @staticmethod
    def _stacks(pairs):
        return (np.stack([p[i].matrix for p in pairs]) for i in range(len(pairs[0])))

    def _general_pairs(self, rng, shape):
        t, z = self.TOL.relation, zero(shape)
        pairs = [sample_general_pair(rng, shape) for _ in range(10)]
        pairs += [(rand_hermitian_contraction(rng, shape), rand_hermitian_contraction(rng, shape))
                  for _ in range(3)]
        pairs += [(z, pairs[0][1]), (pairs[1][0], z), (z, z)]
        pairs += [(_scaled(x, 1.0 + t / 2), _scaled(y, 1.0 + t / 4)) for x, y in pairs[2:5]]
        return pairs

    @pytest.mark.parametrize("dims", SHAPES)
    def test_orthogonality(self, rng, dims):
        shape = AlgebraShape(dims)
        pairs = self._general_pairs(rng, shape)
        reports = _orth_reports(*self._stacks(pairs), shape, self.TOL)
        self._assert_matches(reports, [_ref_orth(a, b, self.TOL) for a, b in pairs])
        assert any(len(r.clauses) == 4 for r in reports)  # the self-adjoint clause
        assert reports == [check_orth_characterization(a, b, self.TOL) for a, b in pairs]

    @pytest.mark.parametrize("dims", SHAPES)
    def test_jordan_products(self, rng, dims):
        shape = AlgebraShape(dims)
        t, z = self.TOL.relation, zero(shape)
        pairs = [sample_positive_pair(rng, shape) for _ in range(12)]
        pairs += [(z, pairs[0][1]), (pairs[1][0], z), (z, z), (pairs[2][0], pairs[2][0])]
        pairs += [(_scaled(rand_positive_contraction(rng, shape), 1.0 + t / 2), y)
                  for _, y in pairs[3:5]]
        reports = _p00_reports(*self._stacks(pairs), shape, self.TOL)
        self._assert_matches(reports, [_ref_p00(a, b, self.TOL) for a, b in pairs])
        assert reports == [check_p00_equivalences(a, b, self.TOL) for a, b in pairs]

    @pytest.mark.parametrize("dims", SHAPES)
    def test_tripotents(self, rng, dims):
        shape = AlgebraShape(dims)
        t = self.TOL.relation
        elements = [rand_contraction(rng, shape) for _ in range(6)]
        elements += [rand_partial_isometry(rng, shape) for _ in range(6)]
        elements += [zero(shape), 0.9 * elements[6], _scaled(elements[7], 1.0 + t / 2)]
        reports = _tripotent_reports(*self._stacks([(a,) for a in elements]), shape, self.TOL)
        self._assert_matches(reports, [_ref_tripotent(a, self.TOL) for a in elements])
        assert reports == [check_tripotent_characterization(a, self.TOL) for a in elements]

    @pytest.mark.parametrize("which", [0, 1])
    def test_gates_name_the_operand(self, rng, which):
        shape, tol = AlgebraShape((2, 3)), self.TOL
        label = ("first operand", "second operand")[which]

        def raises_as_one_pair(pairs, stacked, one_pair, error):
            with pytest.raises(error) as single:
                one_pair(*pairs[3])
            assert label in str(single.value)
            with pytest.raises(type(single.value), match=f"{label} of pair 3"):
                stacked(*self._stacks(pairs), shape, tol)

        def spoil(pairs, fn):
            bad = list(pairs[3])
            bad[which] = fn(bad[which])
            pairs[3] = tuple(bad)
            return pairs

        beyond = lambda x: _scaled(x, 1.0 + 3 * tol.relation)
        pairs = [sample_general_pair(rng, shape) for _ in range(5)]
        raises_as_one_pair(spoil(pairs, beyond), _orth_reports, check_orth_characterization,
                           NotContraction)
        if which == 0:
            elements = [(rand_contraction(rng, shape),) for _ in range(5)]
            raises_as_one_pair(spoil(elements, beyond), _tripotent_reports,
                               check_tripotent_characterization, NotContraction)
        for outside in (lambda x: -1 * x, lambda x: _scaled(x, 1.5),
                        lambda x: x + 1j * unit(shape)):
            pairs = [sample_positive_pair(rng, shape) for _ in range(5)]
            pairs[3] = tuple(_scaled(rand_positive_contraction(rng, shape), 0.9) for _ in "ab")
            raises_as_one_pair(spoil(pairs, outside), _p00_reports, check_p00_equivalences,
                               NotInUnitInterval)


class TestOrthogonality:
    def test_complementary_projections(self):
        p = AlgebraElement.single(np.diag([1.0, 0.0]))
        q = AlgebraElement.single(np.diag([0.0, 1.0]))
        assert is_orthogonal(p, q).verdict

    def test_standard_pair_not_orthogonal(self, positive_pair):
        a, b = positive_pair
        rep = is_orthogonal(a, b)
        assert not rep.verdict
        assert rep.defect > 0.1

    def test_zero_is_orthogonal_to_anything(self, positive_pair):
        a, _ = positive_pair
        from abscompat import zero

        assert is_orthogonal(a, zero(a.shape)).verdict


class TestProjectionAndPartialIsometry:
    def test_rank_one_projection(self):
        r = AlgebraElement.single(np.full((2, 2), 0.5))
        assert is_projection(r).verdict

    def test_shift_isometry(self):
        e = AlgebraElement.single(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert is_partial_isometry(e).verdict
        assert not is_projection(e).verdict

    def test_half_unit_neither(self):
        h = 0.5 * unit(AlgebraShape((2,)))
        assert not is_projection(h).verdict
        assert not is_partial_isometry(h).verdict


class TestOrthCharacterization:
    def test_complementary_projections_all_true(self):
        p = AlgebraElement.single(np.diag([1.0, 0.0]))
        q = AlgebraElement.single(np.diag([0.0, 1.0]))
        report = check_orth_characterization(p, q)
        assert report.consistent
        for clause in report.clauses:
            for side in clause.sides:
                assert side.verdict

    def test_standard_pair_clause_a_both_false(self, positive_pair):
        # |a| + |b| = a + b = diag(4/3, 2/3) has norm 4/3 > 1
        a, b = positive_pair
        lam_max = np.linalg.eigvalsh((a + b).matrix)[-1]
        assert lam_max == pytest.approx(4.0 / 3.0, abs=1e-12)
        report = check_orth_characterization(a, b)
        assert report.consistent
        clause_a = report.clauses[0]
        assert not any(s.verdict for s in clause_a.sides)

    def test_crossed_isometries_clause_a_both_true(self, isometry_pair):
        # e v* = 0 and |e| + |v| = 1 with e domain-compatible to v
        e, v = isometry_pair
        assert op_norm(e.matrix @ v.matrix.conj().T) <= 1e-15
        report = check_orth_characterization(e, v)
        assert report.consistent
        clause_a = report.clauses[0]
        assert all(s.verdict for s in clause_a.sides)
        # but b* a != 0, so clause (b) has both sides false
        clause_b = report.clauses[1]
        assert not any(s.verdict for s in clause_b.sides)

    def test_self_adjoint_clause_present_for_hermitian(self, positive_pair):
        a, b = positive_pair
        report = check_orth_characterization(a, b)
        assert any(c.name.startswith("self-adjoint") for c in report.clauses)

    def test_self_adjoint_clause_absent_for_nonhermitian(self, isometry_pair):
        e, v = isometry_pair
        report = check_orth_characterization(e, v)
        assert not any(c.name.startswith("self-adjoint") for c in report.clauses)

    def test_adjoint_sides_match_compat_on_the_adjoints(self):
        # the adjoint-routed sides reuse |a|, |b| and |a*|, |b*| of a, b
        # (|(a*)*| = |a|); compat_defect on a*, b* is the reference
        rng = np.random.default_rng(17)
        for shape in (AlgebraShape((2,)), AlgebraShape((3,)), AlgebraShape((2, 3))):
            for _ in range(20):
                a, b = sample_general_pair(rng, shape)
                sides = {s.label: s.defect for c in
                         check_orth_characterization(a, b).clauses for s in c.sides}
                for label, x, y, kind in (
                    ("|a|+|b| <= 1 and adjoints range compat",
                     abs_value(a.matrix), abs_value(b.matrix), CompatKind.RANGE),
                    ("|a*|+|b*| <= 1 and adjoints domain compat",
                     abs_value(a.matrix.conj().T), abs_value(b.matrix.conj().T),
                     CompatKind.DOMAIN),
                ):
                    gap = max(0.0, np.linalg.eigvalsh(x + y)[-1] - 1.0)
                    ref = compat_defect(adjoint(a), adjoint(b), kind).defect
                    assert abs(sides[label] - max(gap, ref)) <= 1e-12


class TestP00Equivalences:
    def test_standard_pair_all_four_true(self, positive_pair):
        a, b = positive_pair
        # regression anchors: |a-b| = (2/3) 1 since (a-b)^2 = (4/9) 1,
        # and 2 a.b = diag(2/3, 0) = a + b - |a - b|
        np.testing.assert_allclose(abs_value((a - b).matrix),
                                   (2.0 / 3.0) * np.eye(2), atol=1e-12)
        np.testing.assert_allclose((2 * jordan(a, b)).matrix,
                                   np.diag([2.0 / 3.0, 0.0]), atol=1e-12)
        report = check_p00_equivalences(a, b)
        assert report.consistent
        assert all(s.verdict for s in report.clauses[0].sides)

    def test_half_unit_all_four_false(self):
        h = 0.5 * unit(AlgebraShape((2,)))
        report = check_p00_equivalences(h, h)
        assert report.consistent
        assert not any(s.verdict for s in report.clauses[0].sides)

    def test_projection_with_commuting_positive(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3))
                            + 1j * rng.standard_normal((3, 3)))
        p = AlgebraElement.single(q[:, :2] @ q[:, :2].conj().T)
        c = AlgebraElement.single((q * rng.uniform(0, 1, 3)) @ q.conj().T)
        assert op_norm((p @ c - c @ p).matrix) <= 1e-12
        report = check_p00_equivalences(p, c)
        assert report.consistent
        assert all(s.verdict for s in report.clauses[0].sides)

    def test_rejects_outside_unit_interval(self, positive_pair):
        a, b = positive_pair
        with pytest.raises(NotInUnitInterval):
            check_p00_equivalences(-1 * a, b)
        with pytest.raises(NotInUnitInterval):
            check_p00_equivalences(AlgebraElement.single(np.diag([1.5, 0.0])), b)


class TestTripotentCharacterization:
    def test_projection_both_true(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4))
                            + 1j * rng.standard_normal((4, 4)))
        p = AlgebraElement.single(q[:, :2] @ q[:, :2].conj().T)
        report = check_tripotent_characterization(p)
        assert report.clauses[0].agree
        assert all(s.verdict for s in report.clauses[0].sides)

    def test_scaled_isometry_both_false(self):
        e = AlgebraElement.single(0.9 * np.array([[0.0, 0.0], [1.0, 0.0]]))
        report = check_tripotent_characterization(e)
        clause = report.clauses[0]
        assert clause.agree
        assert not any(s.verdict for s in clause.sides)
        # frozen defects: | |1 - 2|a|| - 1 | = 0.2 and |a a* a - a| = 0.171
        by_label = {s.label: s.defect for s in clause.sides}
        assert by_label["self compat"] == pytest.approx(0.2, abs=1e-12)
        assert by_label["a a* a = a"] == pytest.approx(0.171, abs=1e-12)

    def test_zero_both_true(self):
        z = AlgebraElement.single(np.zeros((2, 2)))
        report = check_tripotent_characterization(z)
        assert all(s.verdict for s in report.clauses[0].sides)

    def test_random_partial_isometries_agree(self, rng):
        shape = AlgebraShape((3,))
        for _ in range(20):
            u = rand_partial_isometry(rng, shape)
            report = check_tripotent_characterization(u)
            assert report.clauses[0].agree
            assert all(s.verdict for s in report.clauses[0].sides)


class TestCommutativeCheck:
    def test_saturated_and_disjoint(self):
        f = np.array([1.0, 0.3, 0.0])
        g = np.array([0.7, 0.0, 0.5])
        assert commutative_compat_check(f, g).verdict

    def test_equal_halves_fail(self):
        rep = commutative_compat_check(np.array([0.5]), np.array([0.5]))
        assert not rep.verdict
        assert rep.defect == pytest.approx(1.0)

    def test_disjoint_supports(self):
        assert commutative_compat_check(np.array([0.5, 0.0]),
                                        np.array([0.0, 0.5])).verdict

    def test_complex_phases_allowed(self):
        f = np.array([np.exp(1j * 0.3), 0.0])
        g = np.array([0.4 * np.exp(-1j * 1.1), 0.6j])
        assert commutative_compat_check(f, g).verdict

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            commutative_compat_check(np.array([0.1]), np.array([0.1, 0.2]))

    def test_rejects_outside_disk(self):
        with pytest.raises(NotContraction):
            commutative_compat_check(np.array([1.5]), np.array([0.1]))

    def test_matches_diagonal_identity_route(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 9))
            f = rng.uniform(0, 1, n) * np.exp(2j * np.pi * rng.uniform(size=n))
            g = rng.uniform(0, 1, n) * np.exp(2j * np.pi * rng.uniform(size=n))
            mask = rng.uniform(size=n) < 0.5
            g[mask] = 0.0
            pointwise = commutative_compat_check(f, g)
            oracle = compat_defect(
                AlgebraElement.single(np.diag(f)),
                AlgebraElement.single(np.diag(g)),
                CompatKind.DOMAIN,
            )
            assert pointwise.verdict == oracle.verdict
            assert pointwise.defect == pytest.approx(oracle.defect, abs=1e-10)


class TestSpectralTripotent:
    def test_positive_diagonal(self):
        a = AlgebraElement.single(np.diag([0.9, 0.5, 0.2]))
        out = spectral_tripotent(a, 0.4, 1.0, IntervalBoundary.CLOSED_CLOSED)
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 1.0, 0.0]),
                                   atol=1e-12)

    def test_scaled_shift(self):
        e = np.array([[0.0, 0.0], [1.0, 0.0]])
        a = AlgebraElement.single(2.0 * e)
        out = spectral_tripotent(a, 1.5, 2.5, IntervalBoundary.CLOSED_CLOSED)
        np.testing.assert_allclose(out.matrix, e, atol=1e-12)

    def test_open_at_zero_gives_polar_isometry(self, rng):
        from abscompat.linalg import polar

        shape = AlgebraShape((4,))
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = AlgebraElement.single(g)
        hi = op_norm(g) + 1.0
        out = spectral_tripotent(a, 0.0, hi, IntervalBoundary.OPEN_CLOSED)
        np.testing.assert_allclose(out.matrix, polar(g).partial_isometry,
                                   atol=1e-10)

    def test_endpoint_snapping_follows_boundary(self):
        a = AlgebraElement.single(np.diag([0.5, 0.2]))
        closed = spectral_tripotent(a, 0.5, 1.0, IntervalBoundary.CLOSED_CLOSED)
        np.testing.assert_allclose(closed.matrix, np.diag([1.0, 0.0]), atol=1e-12)
        open_ = spectral_tripotent(a, 0.5, 1.0, IntervalBoundary.OPEN_OPEN)
        np.testing.assert_allclose(open_.matrix, np.zeros((2, 2)), atol=1e-12)

    def test_snap_disabled_raises(self):
        a = AlgebraElement.single(np.diag([0.5 + 1e-10, 0.2]))
        with pytest.raises(EndpointAmbiguity):
            spectral_tripotent(a, 0.5, 1.0, IntervalBoundary.CLOSED_CLOSED,
                               snap=False)

    def test_invalid_interval(self):
        a = AlgebraElement.single(np.eye(2))
        with pytest.raises(ValueError):
            spectral_tripotent(a, -0.1, 1.0)
        with pytest.raises(ValueError):
            spectral_tripotent(a, 0.7, 0.7)

    def test_result_is_partial_isometry(self, rng):
        shape = AlgebraShape((3, 2))
        for _ in range(20):
            g = np.zeros((5, 5), dtype=complex)
            a_blocks = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
                        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))]
            a = AlgebraElement.from_blocks(shape, a_blocks)
            lo, width = rng.uniform(0, 1.0), rng.uniform(0.2, 1.0)
            out = spectral_tripotent(a, lo, lo + width,
                                     IntervalBoundary.CLOSED_OPEN)
            assert is_partial_isometry(out).verdict


class TestAdjointDuality:
    def test_duality_on_fixed_pairs(self, isometry_pair, positive_pair):
        for a, b in (isometry_pair, positive_pair):
            lhs = compat_defect(a, b, CompatKind.DOMAIN).verdict
            rhs = compat_defect(adjoint(a), adjoint(b), CompatKind.RANGE).verdict
            assert lhs == rhs


def test_tolerance_config_validation():
    # a NaN threshold makes every verdict false, an infinite one every verdict true
    for field in ("relation", "rank"):
        for value in (0.0, -1e-8, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=field):
                ToleranceConfig(**{field: value})
    assert ToleranceConfig(relation=1e-6) == ToleranceConfig(1e-6, 1e-10)
