from __future__ import annotations

import dataclasses
import functools
import warnings

import numpy as np
import pytest

from abscompat import (
    AlgebraShape,
    CompatKind,
    Provenance,
    ToleranceConfig,
    adjoint,
    check_orth_characterization,
    check_p00_equivalences,
    check_tripotent_characterization,
    commutative_compat_check,
    compat_defect,
    is_orthogonal,
    scale_map,
    triple,
    unit,
)
from abscompat import relations, sampling, suites
from abscompat.errors import CrossCheckMismatch, ShapeIncompatible
from abscompat.linalg import abs_value, apply_function, op_norm, polar, range_projection
from abscompat.suites import (
    _consistency_battery,
    _tally,
    run_all_suites,
    shapes_for_dims,
    suite_classification,
    suite_commutative_crosscheck,
    suite_determinism,
    suite_fuzz_regressions,
    suite_algebra_products,
    suite_linalg_invariants,
    suite_orth_characterization,
    suite_p00_equivalences,
    suite_preservers,
    suite_relation_invariants,
    suite_tripotent_characterization,
)

import frozen_sampling as frozen
import page_replay as replay


def test_shapes_for_dims():
    shapes = shapes_for_dims([2, 3])
    assert [s.block_dims for s in shapes] == [(2,), (3,), (2, 3)]
    assert [s.block_dims for s in shapes_for_dims([4])] == [(4,)]


def test_run_all_suites_small():
    results = run_all_suites([2], trials=20, seed=11)
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]
    names = {r.name for r in results}
    assert "tripotent characterization" in names
    assert "counterexample fuzzing regressions" in names


def test_run_all_suites_scalar_algebra():
    results = run_all_suites([1], trials=15, seed=11)
    assert all(r.passed for r in results)


def test_run_all_suites_validates_inputs():
    with pytest.raises(ValueError):
        run_all_suites([], trials=10, seed=0)
    with pytest.raises(ValueError):
        run_all_suites([2], trials=0, seed=0)
    with pytest.raises(ValueError):
        run_all_suites([0], trials=10, seed=0)


def test_run_all_suites_names_a_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        run_all_suites([2], trials=10, seed=-1)


@pytest.mark.parametrize("dims", [[17], [10, 12, 11]], ids=["doubling-34", "direct-sum-33"])
def test_run_all_suites_checks_dims_before_any_battery(monkeypatch, dims):
    # M17 doubles to total dimension 34 and M10+M12+M11 sums to 33, both past
    # the 32 a linear map may have; refused before the first battery runs
    def first_battery(*args):
        raise AssertionError("a battery ran before the dims were checked")

    monkeypatch.setattr(suites, "suite_linalg_invariants", first_battery)
    with pytest.raises(ShapeIncompatible, match="exceeds the limit"):
        run_all_suites(dims, trials=10, seed=0)


def test_individual_suites_pass():
    assert all(r.passed for r in suite_linalg_invariants(3, 40))
    assert suite_fuzz_regressions(3, budget=60).passed
    assert suite_classification(3).passed
    assert suite_determinism(3).passed


def test_determinism_survives_an_unrefuted_transpose():
    # at tolerance 0.5 the transpose's sqrt(2) - 1 defect is no violation
    rows = {r.name: r for r in run_all_suites([2], 10, 0, tol=ToleranceConfig(relation=0.5))}
    assert not rows["counterexample fuzzing regressions"].passed
    assert rows["deterministic replay"].passed


def test_suite_result_to_dict():
    result = suite_classification(5)
    payload = result.to_dict()
    assert payload["suite"] == result.name
    assert payload["passed"] is True


def test_run_all_suites_row_names():
    assert [r.name for r in run_all_suites([2, 3], 10, 3)] == [
        "functional-calculus identity", "abs-value idempotence", "polar reconstruction",
        "operator-norm submultiplicativity", "c-star norm identity",
        "triple middle conjugate-linearity",
        "compat symmetry", "adjoint duality of verdicts", "orthogonality implies compatibility",
        "orthogonality characterization", "jordan-product equivalences",
        "tripotent characterization", "commutative cross-validation",
        "builders are triple homomorphisms", "unit image is a partial isometry",
        "triple homs preserve compatibility", "anti-homs swap domain/range compatibility",
        "factorization through e* T",
        "counterexample fuzzing regressions", "triple-hom classification",
        "deterministic replay",
    ]


def test_conjugate_linearity_row_fails_without_the_conjugate(monkeypatch):
    # a triple product linear in its middle slot: {a, i b, c} = +i {a, b, c}
    def linear_middle(x, y, z):
        yt = y.swapaxes(-1, -2)
        return (x @ yt @ z + z @ yt @ x) / 2.0

    monkeypatch.setattr(suites, "_triple", linear_middle)
    row = suite_algebra_products(0, 20, shapes_for_dims([2, 3]))
    assert row.name == "triple middle conjugate-linearity"
    assert row.failures == row.trials == 20 and not row.passed


def test_factorization_row_fails_on_a_half_map_in_the_zoo(monkeypatch):
    # x -> x/2 has e = 1/2 and e* T(x^2) - (e* T x)^2 = 3 x^2 / 16
    built = suites._built_triple_homs

    def with_half_map(rng, dims, tol):
        return built(rng, dims, tol) + [("half map", scale_map(AlgebraShape((2,)), 0.5))]

    monkeypatch.setattr(suites, "_built_triple_homs", with_half_map)
    row = suite_preservers(0, 10, [2, 3])[-1]
    assert row.name == "factorization through e* T"
    assert row.trials == 130 and row.failures == 10 and not row.passed


def test_half_map_witness_among_the_drawn_pairs_fails_the_row(monkeypatch):
    # on M2, 4 of the 5 known witness pairs are compatible at domain kind, so
    # index 4 is the first drawn pair: outside the prefix of fixed pairs
    shape = AlgebraShape((2,))
    assert len(sampling._fixed_pairs(shape, CompatKind.DOMAIN, ToleranceConfig())) == 4
    fuzz = suites.fuzz_counterexample

    def drawn_half_map_witness(T, kind, budget, seed, tol):
        w = fuzz(T, kind, budget, seed, tol)
        return dataclasses.replace(w, index=4) if T.provenance is Provenance.CUSTOM else w

    monkeypatch.setattr(suites, "fuzz_counterexample", drawn_half_map_witness)
    row = suite_fuzz_regressions(0)
    assert row.failures == 1 and not row.passed
    assert row.note == "half-map witness not in seeded prefix"


def test_replay_that_differs_fails_the_row_with_a_note(monkeypatch):
    assert suite_determinism(0).note == ""
    audit = suites.preserves_compat_sampled
    runs = iter(range(2))

    def drifting_audit(*args):
        return dataclasses.replace(audit(*args), violations=next(runs))

    monkeypatch.setattr(suites, "preserves_compat_sampled", drifting_audit)
    row = suite_determinism(0)
    assert (row.trials, row.failures, row.passed) == (2, 1, False)
    assert row.note == "audit report differs on replay"


# The paged batteries replayed one trial at a time: each trial's numbers are
# drawn in the battery's page order (page_replay.pages), then its operands are
# built from them by the frozen one-candidate recipes (or the one-trial code
# here) and judged by the public one-pair functions, in trial order.


def _cycled(shapes, count):
    return [i % len(shapes) for i in range(count)]


def _replayed(rows, build):
    """``build(i, row)`` of each trial's replayed row, which it must use up."""
    for i, row in enumerate(rows):
        yield build(i, row)
        assert row.exhausted()


def _one_pair_products(seed, trials, shapes, tol):
    rows = replay.pages(np.random.default_rng(seed), shapes, _cycled(shapes, trials), [
        replay.each(*[replay.page_contraction] * 3)])

    def defect(i, row):
        a, b, c = (frozen.rand_contraction(row, shapes[i % len(shapes)]) for _ in range(3))
        return op_norm((triple(a, 1j * b, c) + 1j * triple(a, b, c)).matrix)

    return _tally("triple middle conjugate-linearity",
                  ((d, d > 1e-12) for d in _replayed(rows, defect)))


def _one_pair_relation_invariants(seed, trials, shapes, tol):
    rng, on = np.random.default_rng(seed), _cycled(shapes, trials)
    t = tol.relation

    def general_pairs():
        rows = replay.pages(rng, shapes, on, [replay.general_pair])
        return _replayed(rows, lambda i, row: frozen.sample_general_pair(row, shapes[on[i]]))

    def symmetry():
        for a, b in general_pairs():
            diffs = [abs(compat_defect(a, b, kind, tol).defect
                         - compat_defect(b, a, kind, tol).defect)
                     for kind in (CompatKind.DOMAIN, CompatKind.RANGE)]
            yield max(diffs), sum(d > 1e-12 for d in diffs)

    def adjoint_duality():
        for a, b in general_pairs():
            lhs = compat_defect(a, b, CompatKind.DOMAIN, tol).verdict
            rhs = compat_defect(adjoint(a), adjoint(b), CompatKind.RANGE, tol).verdict
            yield 0.0, lhs != rhs

    def orthogonal_pairs():
        orth_rng = np.random.default_rng(seed ^ 0x0F0F0F0F)
        rows = replay.pages(orth_rng, shapes, on, [replay.each(replay.page_orthogonal)])
        for a, b in _replayed(rows, lambda i, row: frozen.draw("orthogonal", row, shapes[on[i]])):
            if not is_orthogonal(a, b, tol).verdict:
                yield 0.0, True
                continue
            d = compat_defect(a, b, CompatKind.FULL, tol).defect
            yield d, d > t

    return [_tally("compat symmetry", symmetry()),
            _tally("adjoint duality of verdicts", adjoint_duality()),
            _tally("orthogonality implies compatibility", orthogonal_pairs())]


def _one_pair_consistency(name, check, sample, page_recipe):
    def battery(seed, trials, shapes, tol):
        on = _cycled(shapes, trials)
        rows = replay.pages(np.random.default_rng(seed), shapes, on, [page_recipe])
        reports = _replayed(rows, lambda i, row: check(*sample(row, shapes[on[i]]), tol))
        return _consistency_battery(name, trials, reports)
    return battery


def _one_pair_tripotents(seed, trials, shapes, tol):
    n_iso = max(1, trials // 10)
    counts = (trials, n_iso, n_iso)
    on = [s for count in counts for s in _cycled(shapes, count)]
    by = [r for r, count in enumerate(counts) for _ in range(count)]
    rows = replay.pages(np.random.default_rng(seed), shapes, on, [
        replay.each(replay.page_contraction), replay.each(replay.page_partial_isometry),
        replay.each(replay.page_partial_isometry)], by)
    samplers = (frozen.rand_contraction, frozen.rand_partial_isometry,
                lambda row, shape: 0.9 * frozen.rand_partial_isometry(row, shape))
    stream = _replayed(rows, lambda i, row: samplers[by[i]](row, shapes[on[i]]))
    clauses = [check_tripotent_characterization(a, tol).clauses[0] for a in stream]
    return _tally("tripotent characterization",
                  ((min(s.defect for s in c.sides), not c.agree) for c in clauses),
                  note=f"{trials} random + 2x{n_iso} isometries")


_SIZES = [AlgebraShape((n,)) for n in range(1, 9)]  # the self-sizing batteries' sizes


def _rand_square(row, n):
    return row.standard_normal((n, n)) + 1j * row.standard_normal((n, n))


def _deficient_square(row, n):
    m = _rand_square(row, n)
    m[:, 0] = m[:, -1]
    return m


def _qr_projection(row, n):
    q, _ = np.linalg.qr(_rand_square(row, n))
    k = int(row.integers(0, n + 1))
    return q[:, :k] @ q[:, :k].conj().T


def _uniform_diagonal(row, n):
    return np.diag(row.uniform(0, 2, n)).astype(np.complex128)


def _page_qr_projection(rng, rows, n, block):
    replay.page_normals(rng, rows, n, 2)
    replay.page_ints(rng, rows, n + 1)


def _page_uniform_diagonal(rng, rows, n, block):
    replay.page_uniforms(rng, rows, n, 2.0)



def _one_trial_linalg_invariants(seed, trials, tol, cap=128):
    rng = np.random.default_rng(seed)
    thirds = [i % 3 for i in range(trials)]

    def squares(*page_draws, by=None):
        """Each trial's size, all drawn in one call, and its replayed row."""
        sizes = rng.integers(6, size=trials).tolist()
        rows = replay.pages(rng, _SIZES, sizes, [replay.each(*d) for d in page_draws], by, cap)
        return _replayed(rows, lambda i, row: (sizes[i] + 1, row))

    square = (replay.page_unitary,)  # the normals of one complex matrix

    def functional_calculus():
        for n, row in squares(square):
            g = _rand_square(row, n)
            a = (g + g.conj().T) / 2.0
            d = op_norm(apply_function(a, lambda t: t, tol) - a)
            yield d, d > 1e-9 * max(1.0, op_norm(a))

    def abs_idempotence():
        trials_ = squares(square, (_page_qr_projection,), (_page_uniform_diagonal,), by=thirds)
        for i, (n, row) in enumerate(trials_):
            m = (_rand_square, _qr_projection, _uniform_diagonal)[thirds[i]](row, n)
            p = abs_value(m)
            d = op_norm(abs_value(p) - p)
            yield d, d > tol.relation * max(1.0, op_norm(p))

    def polar_reconstruction():
        for i, (n, row) in enumerate(squares(square, square, by=[int(k > 0) for k in thirds])):
            # include rank-deficient inputs
            m = (_deficient_square if thirds[i] == 0 else _rand_square)(row, n)
            dec = polar(m, tol=tol)
            u, av = dec.partial_isometry, dec.absolute_value
            d = max(
                op_norm(u @ av - m),
                op_norm(u @ u.conj().T @ u - u),
                op_norm(u.conj().T @ u - range_projection(av, tol=tol)),
            )
            yield d, d > 1e-8 * max(1.0, op_norm(m))

    def submultiplicativity():
        for n, row in squares(square * 2):
            x, y = _rand_square(row, n), _rand_square(row, n)
            excess = op_norm(x @ y) - op_norm(x) * op_norm(y)
            yield excess, excess > 1e-9

    def cstar_identity():
        for n, row in squares(square):
            x = _rand_square(row, n)
            lhs, rhs = op_norm(x.conj().T @ x), op_norm(x) ** 2
            d = abs(lhs - rhs) / max(1.0, rhs)
            yield d, d > 1e-8

    # each battery drains the shared stream before the next one starts
    return [
        _tally("functional-calculus identity", functional_calculus()),
        _tally("abs-value idempotence", abs_idempotence()),
        _tally("polar reconstruction", polar_reconstruction()),
        _tally("operator-norm submultiplicativity", submultiplicativity()),
        _tally("c-star norm identity", cstar_identity()),
    ]


# the cases of the cross-check's coordinates: d0, 0d, cd, dc, dd, 00
_page_function_pair = replay.page_diagonal((2, 2, 3, 3, 4, 0))


def _function_pair(row, n):
    """One (f, g) sample of the cross-check's length n."""
    f = np.zeros(n, dtype=np.complex128)
    g = np.zeros(n, dtype=np.complex128)
    for t in range(n):
        case = int(row.integers(0, 6))
        phase = lambda: np.exp(2j * np.pi * row.uniform())
        if case == 0:
            f[t] = row.uniform() * phase()
        elif case == 1:
            g[t] = row.uniform() * phase()
        elif case == 2:
            f[t], g[t] = phase(), row.uniform() * phase()
        elif case == 3:
            f[t], g[t] = row.uniform() * phase(), phase()
        elif case == 4:
            f[t], g[t] = row.uniform() * phase(), row.uniform() * phase()
        # case 5: both zero
    return f, g


def _one_trial_function_pairs(seed, trials, cap=128):
    """The (f, g) samples of ``suite_commutative_crosscheck``, in trial order:
    each trial's numbers replayed from pages of at most ``cap`` rows."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(8, size=trials).tolist()
    rows = replay.pages(rng, _SIZES, sizes, [replay.each(_page_function_pair)], cap=cap)
    return _replayed(rows, lambda i, row: _function_pair(row, sizes[i] + 1))


def _one_trial_commutative_crosscheck(seed, trials, tol, cap=128):
    def checks():
        for f, g in _one_trial_function_pairs(seed, trials, cap):
            pointwise = commutative_compat_check(f, g, tol)
            identity = pointwise.witnesses["identity_defect"] <= tol.relation
            yield 0.0, pointwise.verdict != identity

    return _tally("commutative cross-validation", checks())


def _any_shapes(battery):
    """A ``battery(seed, trials, tol)`` that draws its own sizes, called as
    ``(seed, trials, shapes, tol)``."""
    @functools.wraps(battery)
    def called(seed, trials, shapes, tol):
        return battery(seed, trials, tol)
    return called


_REPLAYED = [
    (suite_algebra_products, _one_pair_products),
    (suite_relation_invariants, _one_pair_relation_invariants),
    (suite_orth_characterization, _one_pair_consistency(
        "orthogonality characterization", check_orth_characterization,
        frozen.sample_general_pair, replay.general_pair)),
    (suite_p00_equivalences, _one_pair_consistency(
        "jordan-product equivalences", check_p00_equivalences,
        frozen.sample_positive_pair, replay.positive_pair)),
    (suite_tripotent_characterization, _one_pair_tripotents),
    (_any_shapes(suite_linalg_invariants), _any_shapes(_one_trial_linalg_invariants)),
    (_any_shapes(suite_commutative_crosscheck), _any_shapes(_one_trial_commutative_crosscheck)),
]


@pytest.mark.parametrize("seed, trials, dims", [
    (0, 40, [2, 3]), (1, 40, [2, 3]), (2, 40, [2, 3]), (3, 130, [2]),
])
@pytest.mark.parametrize("stacked, one_pair", _REPLAYED)
def test_stacked_batteries_replay_the_one_pair_rows(stacked, one_pair, seed, trials, dims):
    # 130 trials on one shape make a full page of _STACK_MAX and a partial one
    # (the batteries that draw their own sizes spread them thinner)
    shapes, tol = shapes_for_dims(dims), ToleranceConfig()
    assert stacked(seed, trials, shapes, tol) == one_pair(seed, trials, shapes, tol)


@pytest.mark.parametrize("cap", [2, 3, 7])
def test_self_sizing_batteries_replay_pages_at_any_stack_cap(monkeypatch, cap):
    # these batteries spread their trials over sizes 1 to 6 or 8, so at the
    # default cap no size fills a page; a cap of a few rows makes every size
    # cross full pages, and the rows must match their one-trial replay
    tol = ToleranceConfig()
    expected = [repr(dataclasses.asdict(r)) for seed in (0, 1) for r in [
        *_one_trial_linalg_invariants(seed, 60, tol, cap),
        _one_trial_commutative_crosscheck(seed, 60, tol, cap)]]
    sizes, picked = [], suites._picked

    def counted(rng, shape, recipes, count, keys=None):
        sizes.append(count)
        return picked(rng, shape, recipes, count, keys)

    monkeypatch.setattr(suites, "_picked", counted)
    monkeypatch.setattr(suites, "_STACK_MAX", cap)
    rows = [repr(dataclasses.asdict(r)) for seed in (0, 1) for r in
            [*suite_linalg_invariants(seed, 60), suite_commutative_crosscheck(seed, 60)]]
    assert rows == expected
    assert max(sizes) == cap and sizes.count(cap) > 10


@pytest.mark.parametrize("seed, trials", [(0, 40), (3, 130)])
def test_commutative_crosscheck_judges_the_one_trial_samples(monkeypatch, seed, trials):
    # stacks of one size judge, in call order, the replayed samples of that
    # size in trial order, byte for byte: a change in draw order shows here
    judged = {}

    def recording(a, b, tol):
        judged.setdefault(a.shape[-1], []).extend(zip(a, b))
        return commutative_defects(a, b, tol)

    commutative_defects = suites._commutative_defects
    monkeypatch.setattr(suites, "_commutative_defects", recording)
    suite_commutative_crosscheck(seed, trials)
    expected = {}
    for f, g in _one_trial_function_pairs(seed, trials):
        expected.setdefault(len(f), []).append((np.diag(f), np.diag(g)))
    assert sorted(judged) == sorted(expected)
    for n, pairs in expected.items():
        assert [(a.tobytes(), b.tobytes()) for a, b in judged[n]] == [
            (a.tobytes(), b.tobytes()) for a, b in pairs]


def _by_blocks(block):
    """The one-row build of one element, block by block from ``block(row, n)``."""
    return lambda row, shape: [frozen._blockwise(shape, row, block)]


def _sampled(*samplers):
    """The one-row build of one element per frozen ``sampler(row, shape)``."""
    return lambda row, shape: [sample(row, shape) for sample in samplers]


def _diagonal_pair(row, n):
    return tuple(map(np.diag, _function_pair(row, n)))


_BATTERY_PAGES = {  # per battery: its page recipes, their page order and their one-row builds
    "general pairs": ([sampling._general_pair], [replay.general_pair],
                      [frozen.sample_general_pair]),
    "positive pairs": ([sampling._positive_pair], [replay.positive_pair],
                       [frozen.sample_positive_pair]),
    "orthogonal pairs": ([sampling._pair(sampling._orthogonal_draw)],
                         [replay.each(replay.page_orthogonal)],
                         [functools.partial(frozen.draw, "orthogonal")]),
    "contraction triples": (
        [sampling._drawing(*((sampling._contraction_draw, (i,)) for i in range(3)))],
        [replay.each(*[replay.page_contraction] * 3)],
        [_sampled(*[frozen.rand_contraction] * 3)]),
    "squares, QR projections, diagonals": (
        [sampling._drawing((draw, (0,))) for draw in (
            suites._square_draw, suites._qr_projection_draw, suites._uniform_diagonal_draw)],
        [replay.each(draw) for draw in (
            replay.page_unitary, _page_qr_projection, _page_uniform_diagonal)],
        [_by_blocks(_rand_square), _by_blocks(_qr_projection), _by_blocks(_uniform_diagonal)]),
    "squares, deficient squares": (
        [sampling._drawing((draw, (0,))) for draw in (
            functools.partial(suites._square_draw, deficient=True), suites._square_draw)],
        [replay.each(replay.page_unitary)] * 2,
        [_by_blocks(_deficient_square), _by_blocks(_rand_square)]),
    "tripotent elements": (
        [sampling._drawing((draw, (0,))) for draw in (
            sampling._contraction_draw, sampling._partial_isometry_draw,
            functools.partial(sampling._partial_isometry_draw, scale=0.9))],
        [replay.each(replay.page_contraction)] + [replay.each(replay.page_partial_isometry)] * 2,
        [_sampled(frozen.rand_contraction), _sampled(frozen.rand_partial_isometry),
         _sampled(lambda row, shape: 0.9 * frozen.rand_partial_isometry(row, shape))]),
    "coordinate pairs": ([sampling._pair(suites._coordinate_pair_draw)],
                         [replay.each(_page_function_pair)],
                         [lambda row, shape: frozen._blockpair(row, shape, _diagonal_pair)]),
}


@pytest.mark.parametrize("name", list(_BATTERY_PAGES))
@pytest.mark.parametrize("dims", [(1,), (3,), (2, 3)])
def test_a_battery_page_is_its_rows_built_one_at_a_time(name, dims):
    # a page of 40 rows, its recipes keyed as _in_pages keys them: each row
    # holds the bytes of its own numbers, replayed in page order and built
    # alone; the page draws exactly those numbers
    shape, (recipes, page_recipes, builds) = AlgebraShape(dims), _BATTERY_PAGES[name]
    keys = np.random.default_rng(5).integers(len(recipes), size=40).tolist()
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    page = sampling._picked(rng, shape, recipes, 40, keys)[1]
    rows = replay.pages(ref, [shape], [0] * 40, page_recipes, keys)
    assert rng.bit_generator.state == ref.bit_generator.state
    for i, built in enumerate(_replayed(rows, lambda i, row: builds[keys[i]](row, shape))):
        assert page[:len(built), i].tobytes() == np.array([x.matrix for x in built]).tobytes()


def test_commutative_disagreement_warns_and_fails_the_row(monkeypatch):
    # the defining identity made to read 1 everywhere: every compatible pair
    # now disagrees with its pointwise verdict, far outside the near band
    gated = relations._gated

    def off_by_one(*args):
        k, a, b = gated(*args)
        return k._replace(defect=k.defect + 1.0), a, b

    monkeypatch.setattr(relations, "_gated", off_by_one)
    with pytest.warns(CrossCheckMismatch, match=r"vs 1\)"):
        suite_commutative_crosscheck(0, 20)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CrossCheckMismatch)
        row = suite_commutative_crosscheck(0, 20)
    assert row.trials == 20 and 0 < row.failures <= 20 and not row.passed


def _one_sample_factorizations(seed, dims, tol):
    """The factorization row of ``suite_preservers`` one sample at a time,
    on the preserver zoo, whose build is the only draw before it: each map's
    ten samples are one page, replayed row by row."""
    rng = np.random.default_rng(seed)
    maps = [tmap for _, tmap in suites._built_triple_homs(rng, dims, tol)]

    def factorizations():
        for tmap in maps:
            e = tmap.apply(unit(tmap.domain_shape))
            e_star = adjoint(e)
            rows = replay.page(rng, tmap.domain_shape,
                               replay.each(replay.page_hermitian_contraction), 10)
            for row in rows:
                x = frozen.rand_hermitian_contraction(row, tmap.domain_shape)
                assert row.exhausted()
                phi_x = e_star @ tmap.apply(x)
                phi_x2 = e_star @ tmap.apply(x @ x)
                d_sq = op_norm((phi_x2 - phi_x @ phi_x).matrix)
                d_fac = op_norm((tmap.apply(x) - e @ phi_x).matrix)
                yield max(d_sq, d_fac), (d_sq > 1e-8) or (d_fac > 1e-10)

    return _tally("factorization through e* T", factorizations())


@pytest.mark.parametrize("seed, dims", [(0, [2, 3]), (1, [2, 3]), (2, [1]), (3, [4])],
                         ids=["0-M2,M3", "1-M2,M3", "2-M1", "3-M4"])
def test_factorization_row_replays_the_one_sample_loop(seed, dims):
    # five maps per dim, and two more on the direct sum of several dims
    tol = ToleranceConfig()
    row = suite_preservers(seed, 10, dims, tol)[-1]
    assert row == _one_sample_factorizations(seed, dims, tol)
    assert row.trials == 10 * (5 * len(dims) + 2 * (len(dims) > 1))
