from __future__ import annotations

from itertools import islice

import numpy as np
import pytest

from abscompat import (
    AlgebraShape,
    CompatKind,
    LinearMap,
    PairGenerator,
    PairStrategy,
    Provenance,
    compat_defect,
    fuzz_counterexample,
    generate_compat_pair,
    identity_map,
    is_orthogonal,
    is_partial_isometry,
    known_witness_pairs,
    partial_isometry_from_projections,
    transpose_map,
)
from abscompat import preservers, sampling
from abscompat.errors import GeneratorExhausted, NotContraction, ShapeMismatch
from abscompat.linalg import _rank_cut_svd, op_norm
from abscompat.sampling import (
    compatible_pairs,
    crossed_isometry_pair_2x2,
    rand_partial_isometry,
    rand_positive_contraction,
    rand_projection,
    rand_unitary,
    sample_general_pair,
    sample_positive_pair,
)
from abscompat.tolerance import ToleranceConfig

import frozen_sampling as frozen


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


@pytest.mark.parametrize("strategy", list(PairStrategy))
def test_strategies_emit_compatible_pairs(strategy):
    shape = AlgebraShape((2, 3))
    gen = PairGenerator(strategy, 7)
    for _ in range(10):
        a, b, defect = generate_compat_pair(gen, shape, CompatKind.FULL)
        rep = compat_defect(a, b, CompatKind.FULL)
        assert rep.verdict and rep.defect == defect
        assert op_norm(a.matrix) <= 1.0 + 1e-12
        assert op_norm(b.matrix) <= 1.0 + 1e-12


def _recipe_pairs(draw, shape, seed, count):
    """``count`` raw candidates of the block recipe ``draw`` from one
    generator seeded ``seed``, as element pairs."""
    rng = np.random.default_rng(seed)
    stacks = sampling._assemble(shape, [sampling._blocks(rng, shape, draw)
                                        for _ in range(count)])
    return [sampling._wrapped(shape, stacks, row) for row in range(count)]


def test_orthogonal_recipe_is_orthogonal():
    for a, b in _recipe_pairs(sampling._orthogonal_draw, AlgebraShape((4,)), 13, 10):
        assert is_orthogonal(a, b).verdict


def test_conjugated_pair_is_noncommuting():
    gen = PairGenerator(PairStrategy.CONJUGATED_POSITIVE_PAIR, 3)
    shape = AlgebraShape((3,))
    a, b, _ = generate_compat_pair(gen, shape, CompatKind.FULL)
    assert op_norm((a @ b - b @ a).matrix) > 0.1


def test_commuting_diagonal_recipe_matches_pointwise_criterion():
    from abscompat import commutative_compat_check

    shape = AlgebraShape((5,))
    for a, b in _recipe_pairs(sampling._diagonal_compat_draw, shape, 29, 10):
        f, g = np.diagonal(a.matrix), np.diagonal(b.matrix)
        assert commutative_compat_check(f, g).verdict
        assert compat_defect(a, b, CompatKind.FULL).verdict


def test_conjugated_pair_needs_wide_block():
    gen = PairGenerator(PairStrategy.CONJUGATED_POSITIVE_PAIR, 3)
    with pytest.raises(GeneratorExhausted):
        generate_compat_pair(gen, AlgebraShape((1, 1)), CompatKind.FULL)


def test_generator_exhausts_when_no_draw_passes():
    # rounding alone leaves the conjugated pairs' defects far above 1e-300
    gen = PairGenerator(PairStrategy.CONJUGATED_POSITIVE_PAIR, 5)
    with pytest.raises(GeneratorExhausted):
        generate_compat_pair(gen, AlgebraShape((2,)), CompatKind.FULL,
                             ToleranceConfig(relation=1e-300))


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


# ---------------------------------------------------------------------------
# stacked draws against the frozen one-candidate recipes (frozen_sampling.py)
# ---------------------------------------------------------------------------

FROZEN_DIMS = [(1,), (2,), (3,), (4,), (1, 2), (2, 3)]
# stacks of 1, 2, 4 and 64 candidates, then a partial one
STACK_COUNTS = (1, 2, 4, 64, 37)


def _same_bytes(stacked, reference):
    assert len(stacked) == len(reference)
    for x, ref in zip(stacked, reference):
        assert x.tobytes() == ref.matrix.tobytes()


def test_stacked_linalg_gives_per_matrix_bytes():
    """The environment assumption behind drawing and judging in stacks:
    numpy's stacked qr, svd (with and without vectors), eigh, eigvalsh and
    matmul give each matrix the bytes a call on that matrix alone gives, also
    on column slices, conjugate-transposed views, real diagonal factors and a
    broadcast constant."""
    rng = np.random.default_rng(0)
    adj = lambda m: m.conj().swapaxes(-1, -2)
    for n in (1, 2, 3, 4, 6):
        x, y = (rng.standard_normal((9, n, n)) + 1j * rng.standard_normal((9, n, n))
                for _ in range(2))
        d = np.zeros((9, n, n))
        d[:, range(n), range(n)] = rng.uniform(size=(9, n))
        const = rng.standard_normal((n, n)).astype(np.complex128)
        h = (x + adj(x)) / 2.0
        k = n // 2
        q, r = np.linalg.qr(x)
        sigma = np.linalg.svd(x, compute_uv=False)
        svd, eigh, eigvalsh = np.linalg.svd(x), np.linalg.eigh(h), np.linalg.eigvalsh(h)
        products = (x @ y, x @ adj(y), x[..., :k] @ adj(y[..., :k]), x @ d @ adj(y),
                    x @ const @ adj(x), adj(x) @ x)
        for i in range(len(x)):
            qi, ri = np.linalg.qr(x[i])
            assert (q[i].tobytes(), r[i].tobytes()) == (qi.tobytes(), ri.tobytes())
            assert sigma[i].tobytes() == np.linalg.svd(x[i], compute_uv=False).tobytes()
            for stacked, alone in ((svd, np.linalg.svd(x[i])), (eigh, np.linalg.eigh(h[i]))):
                assert [f[i].tobytes() for f in stacked] == [f.tobytes() for f in alone]
            assert eigvalsh[i].tobytes() == np.linalg.eigvalsh(h[i]).tobytes()
            xi, yi = x[i], y[i]
            expected = (xi @ yi, xi @ yi.conj().T, xi[:, :k] @ yi[:, :k].conj().T,
                        xi @ d[i] @ yi.conj().T, xi @ const @ xi.conj().T, xi.conj().T @ xi)
            for got, want in zip(products, expected):
                assert got[i].tobytes() == want.tobytes()


def test_stacked_rank_cut_gives_the_boolean_slice_bytes():
    """``linalg._rank_cut_svd`` on a stack of matrices of every rank 0..n:
    each partial isometry has the bytes of ``left[:, keep] @ right_h[keep, :]``
    on that matrix alone. (A product masked to the kept terms does not: on
    this build it rounds rank-one partial isometries differently.)"""
    rng = np.random.default_rng(1)
    for n in (1, 2, 3, 4, 6):
        stack = []
        for rank in [*range(n + 1)] * 3:
            left, right = (rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
                           for _ in range(2))
            stack.append(left @ right.conj().T)
        stack.append(np.diag(rng.uniform(-1.0, 1.0, n)).astype(np.complex128))
        stack = np.array(stack)
        u, sigma, right_h, ranks = _rank_cut_svd(stack, 1e-12)
        for i, m in enumerate(stack):
            left_i, sigma_i, right_h_i = np.linalg.svd(m)
            keep = sigma_i > 1e-12 * sigma_i[0]
            assert ranks[i] == np.count_nonzero(keep)
            assert u[i].tobytes() == (left_i[:, keep] @ right_h_i[keep, :]).tobytes()
            assert (sigma[i].tobytes(), right_h[i].tobytes()) == (
                sigma_i.tobytes(), right_h_i.tobytes())


# the pair recipes by the name frozen_sampling.draw knows them by: the
# stream's strategies, and the orthogonal and diagonal recipes its mixed
# strategy draws per block
_PAIR_RECIPES = [
    ("orthogonal", sampling._orthogonal_draw),
    ("commuting_diagonal", sampling._diagonal_compat_draw),
    ("conjugated_positive_pair", sampling._conjugated_positive_draw),
    ("direct_sum_mix", sampling._mixed_draw),
]


def _narrow(dims, name):
    return name == "conjugated_positive_pair" and max(dims) < 2


@pytest.mark.parametrize("dims", FROZEN_DIMS)
def test_pair_recipes_match_the_frozen_recipes(dims):
    shape = AlgebraShape(dims)
    for seed in range(3):
        for name, draw in _PAIR_RECIPES:
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            if _narrow(dims, name):  # the stream leaves it out on this shape
                with pytest.raises(GeneratorExhausted):
                    frozen.draw(name, ref, shape)
                continue
            for count in STACK_COUNTS:
                a, b = sampling._assemble(shape, [sampling._blocks(rng, shape, draw)
                                                  for _ in range(count)])
                reference = [frozen.draw(name, ref, shape) for _ in range(count)]
                _same_bytes(a, [p[0] for p in reference])
                _same_bytes(b, [p[1] for p in reference])
            assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("dims", FROZEN_DIMS)
def test_generator_draw_is_the_frozen_recipe(dims):
    # PairGenerator.draw, the case N = 1; the conjugated pair needs a 2x2 block
    shape = AlgebraShape(dims)
    for strategy in PairStrategy:
        gen, rng = PairGenerator(strategy, 4), np.random.default_rng(4)
        for _ in range(5):
            if _narrow(dims, strategy.value):
                with pytest.raises(GeneratorExhausted):
                    gen.draw(shape)
                break
            a, b = gen.draw(shape)
            _same_bytes([a.matrix, b.matrix], frozen.draw(strategy.value, rng, shape))


@pytest.mark.parametrize("dims", FROZEN_DIMS)
def test_interleaved_recipes_assemble_to_each_recipes_bytes(dims):
    # a stack of the stream mixes recipes in one _assemble
    shape, rng = AlgebraShape(dims), np.random.default_rng(5)
    recipes = [(name, draw) for name, draw in _PAIR_RECIPES if not _narrow(dims, name)]
    order = rng.permutation(np.repeat(range(len(recipes)), 9)).tolist()
    rngs = [np.random.default_rng(3) for _ in recipes]
    together = sampling._assemble(shape, [sampling._blocks(rngs[i], shape, recipes[i][1])
                                          for i in order])
    for i, (_, draw) in enumerate(recipes):
        rows = [row for row, j in enumerate(order) if j == i]
        rng = np.random.default_rng(3)
        alone = sampling._assemble(shape, [sampling._blocks(rng, shape, draw) for _ in rows])
        assert together[:, rows].tobytes() == alone.tobytes()


_ELEMENT_SAMPLERS = [
    ("rand_contraction", sampling._contraction_draw),
    ("rand_hermitian_contraction", sampling._hermitian_contraction_draw),
    ("rand_positive_contraction", sampling._positive_contraction_draw),
    ("rand_projection", sampling._projection_draw),
    ("rand_partial_isometry", sampling._partial_isometry_draw),
    ("rand_unitary", sampling._unitary_draw),
]


@pytest.mark.parametrize("dims", FROZEN_DIMS)
def test_samplers_match_the_frozen_recipes(dims):
    shape = AlgebraShape(dims)
    for seed in range(3):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for name, draw in _ELEMENT_SAMPLERS:
            frozen_sampler = getattr(frozen, name)
            for _ in range(5):
                x = getattr(sampling, name)(rng, shape)
                _same_bytes([x.matrix], [frozen_sampler(ref, shape)])
            for count in STACK_COUNTS:
                _same_bytes(sampling._elements(rng, shape, draw, count),
                            [frozen_sampler(ref, shape) for _ in range(count)])
        for name, candidate in (("sample_general_pair", sampling._general_pair),
                                ("sample_positive_pair", sampling._positive_pair)):
            frozen_sampler = getattr(frozen, name)
            for _ in range(20):
                a, b = getattr(sampling, name)(rng, shape)
                _same_bytes([a.matrix, b.matrix], frozen_sampler(ref, shape))
            for count in STACK_COUNTS:
                a, b = sampling._assemble(shape, [candidate(rng, shape) for _ in range(count)])
                reference = [frozen_sampler(ref, shape) for _ in range(count)]
                _same_bytes(a, [p[0] for p in reference])
                _same_bytes(b, [p[1] for p in reference])
        x = rng.standard_normal(4)
        assert x.tobytes() == ref.standard_normal(4).tobytes()  # nothing drawn extra


# ---------------------------------------------------------------------------
# the compatible-pair stream against a one-draw-at-a-time reference
# ---------------------------------------------------------------------------


def _reference_stream(shape, kind, seed, tol=ToleranceConfig()):
    """The stream one pair at a time through compat_defect and the frozen
    recipes: the fixed pairs compatible at kind, then the accepted draws of
    one generator seeded ``seed`` (``_reference_drawn``)."""
    for label, a, b in known_witness_pairs(shape):
        if (defect := _defect_if_compatible(a, b, kind, tol)) is not None:
            yield label, a, b, defect
    yield from _reference_drawn(np.random.default_rng(seed), shape, kind, tol,
                                list(PairStrategy))


class _Replay:
    """One row's random numbers, drawn in page order, served to the frozen
    one-block recipes in the order they ask for them: integers, standard
    normals and uniforms each from their own queue, block after block."""

    def __init__(self):
        self.ints, self.normals, self.uniforms = [], [], []
        self.groups = set()  # the (block, recipe group) of each block

    def integers(self, *args):
        return self.ints.pop(0)

    def standard_normal(self, shape):
        size = int(np.prod(shape))
        taken, self.normals = self.normals[:size], self.normals[size:]
        return np.array(taken).reshape(shape)

    def uniform(self, low=0.0, high=1.0, size=None):
        if size is None:
            return self.uniforms.pop(0)
        taken, self.uniforms = self.uniforms[:size], self.uniforms[size:]
        return np.array(taken)

    def exhausted(self):
        return not (self.ints or self.normals or self.uniforms)


def _page_normals(rng, rows, n, k):
    # k n x n real matrices per row, in one call
    for row, z in zip(rows, rng.standard_normal((len(rows), k * n * n)).tolist()):
        row.normals += z


def _page_orthogonal(rng, rows, n, block):
    ranks = rng.integers(0, n + 1, size=len(rows)).tolist()
    _page_normals(rng, rows, n, 4)
    for row, k, d in zip(rows, ranks, rng.uniform(0.0, 1.0, size=(len(rows), n)).tolist()):
        row.ints.append(k)
        row.uniforms += d
        row.groups.add((block, f"orthogonal rank {k}"))


def _page_diagonal(rng, rows, n, block):
    # per coordinate: the cases of all rows, then their uniforms row by row
    for _ in range(n):
        cases = rng.integers(0, 5, size=len(rows)).tolist()
        counts = [(2, 2, 3, 3, 0)[c] for c in cases]
        u = rng.uniform(size=sum(counts)).tolist()
        for row, c, m in zip(rows, cases, counts):
            row.ints.append(c)
            row.uniforms += u[:m]
            u = u[m:]
    for row in rows:
        row.groups.add((block, "diagonal"))


def _page_saturated(rng, rows, n, block):
    _page_normals(rng, rows, n, 2)
    _page_normals(rng, rows, n, 2)  # the contraction, then its scale if nonzero
    nonzero = [any(row.normals[-2 * n * n:]) for row in rows]
    scales = rng.uniform(0.05, 1.0, size=sum(nonzero)).tolist()
    for row, nz in zip(rows, nonzero):
        row.uniforms += [scales.pop(0)] if nz else []
        row.groups.add((block, "saturated"))


def _page_conjugated(rng, rows, n, block):
    if n >= 2:
        _page_normals(rng, rows, n, 2)
    for row in rows:
        row.groups.add((block, "conjugated"))


def _page_mixed(rng, rows, n, block):
    picks = rng.integers(0, 4 if n >= 2 else 3, size=len(rows)).tolist()
    for row, pick in zip(rows, picks):
        row.ints.append(pick)
    for r, draw in enumerate((_page_orthogonal, _page_diagonal, _page_saturated,
                              _page_conjugated)):
        if picked := [row for row, pick in zip(rows, picks) if pick == r]:
            draw(rng, picked, n, block)


# the documented page order of each of the stream's recipes, on one block
_PAGE_DRAWS = {"conjugated_positive_pair": _page_conjugated, "direct_sum_mix": _page_mixed}


def _reference_page(rng, shape, names, size):
    """A page of ``size`` candidates: one call picks each row's recipe from
    ``names`` (one name draws nothing to pick), then each recipe's rows, in
    recipe order, take their draws block by block (``_PAGE_DRAWS``); each
    row is then built by its ``frozen.draw`` from its own numbers. Yields
    ``(name, a, b, replay)`` per row."""
    picks = rng.integers(len(names), size=size).tolist() if len(names) > 1 else [0] * size
    rows = [_Replay() for _ in range(size)]
    for r, name in enumerate(names):
        if picked := [row for row, pick in zip(rows, picks) if pick == r]:
            for block, n in enumerate(shape.block_dims):
                _PAGE_DRAWS[name](rng, picked, n, block)
    for pick, row in zip(picks, rows):
        a, b = frozen.draw(names[pick], row, shape)
        assert row.exhausted()
        yield names[pick], a, b, row


def _reference_drawn(rng, shape, kind, tol, strategies, size=128):
    """The candidates of ``_reference_page``s of ``size`` rows of the
    ``strategies`` that support ``shape``, one after another; yields
    ``(source, a, b, defect)`` for each candidate compatible at ``kind`` (a
    draw outside the unit ball is rejected) and ends after 100 rejections in
    a row."""
    names = [s.value for s in strategies if not _narrow(shape.block_dims, s.value)]
    rejected = 0
    while names and rejected < 100:
        for name, a, b, _ in _reference_page(rng, shape, names, size):
            defect = _defect_if_compatible(a, b, kind, tol)
            rejected = 0 if defect is not None else rejected + 1
            if defect is not None:
                yield name, a, b, defect
            if rejected == 100:
                return


@pytest.mark.parametrize("dims", [(2,), (3,), (1, 2)])
def test_a_page_of_every_recipe_group_is_built_row_by_row(dims):
    # on every block the first page at seed 0 has each orthogonal rank and
    # the diagonal, saturated and conjugated groups; an assembler that
    # dropped a group would leave its blocks zero, which the judge accepts
    # as compatible, so only the bytes show it
    shape = AlgebraShape(dims)
    recipes = sampling._recipes(shape, list(PairStrategy))
    names, stacks = sampling._page(np.random.default_rng(0), shape, recipes, sampling._STACK_MAX)
    reference = list(_reference_page(np.random.default_rng(0), shape,
                                     [name for name, _ in recipes], sampling._STACK_MAX))
    assert set().union(*(row.groups for *_, row in reference)) == {
        (i, group) for i, n in enumerate(dims)
        for group in [f"orthogonal rank {k}" for k in range(n + 1)]
        + ["diagonal", "saturated", "conjugated"]}
    assert names == [name for name, *_ in reference]
    for x, (_, a, b, _) in zip(zip(*stacks), reference):
        assert (x[0].tobytes(), x[1].tobytes()) == (a.matrix.tobytes(), b.matrix.tobytes())


def _defect_if_compatible(a, b, kind, tol):
    try:
        rep = compat_defect(a, b, kind, tol)
    except NotContraction:
        return None
    return rep.defect if rep.verdict else None


def _reference_draw(strategy, rng, shape, kind, tol):
    """The next accepted draw of ``strategy`` alone from ``rng``, in pages of
    one, as ``(source, a, b, defect)``, or None when its stream ends first."""
    return next(_reference_drawn(rng, shape, kind, tol, [strategy], 1), None)


def _assert_same_pairs(stream, reference):
    assert len(stream) == len(reference)
    for (src, a, b, d), (ref_src, ref_a, ref_b, ref_d) in zip(stream, reference):
        assert src == ref_src
        assert a.matrix.tobytes() == ref_a.matrix.tobytes()
        assert b.matrix.tobytes() == ref_b.matrix.tobytes()
        assert d == pytest.approx(ref_d, abs=1e-15)


@pytest.mark.parametrize("kind", list(CompatKind))
@pytest.mark.parametrize("dims", [(1,), (2,), (3,), (2, 1), (2, 3), (4,), (1, 2), (1, 1)])
def test_stream_replays_the_one_pair_reference(dims, kind):
    shape = AlgebraShape(dims)
    for seed in range(3):
        stream = list(islice(compatible_pairs(shape, kind, seed), 300))
        _assert_same_pairs(stream, list(islice(_reference_stream(shape, kind, seed), 300)))


@pytest.mark.parametrize("dims, kind, drawn", [
    ((3,), CompatKind.DOMAIN, 75), ((3,), CompatKind.RANGE, 50), ((3,), CompatKind.FULL, 40),
    ((2, 3), CompatKind.DOMAIN, 7), ((2, 3), CompatKind.RANGE, 0), ((2, 3), CompatKind.FULL, 0),
])
def test_stream_ends_where_the_reference_ends(dims, kind, drawn):
    # rounding alone rejects every conjugated draw and most mixed ones at
    # relation 1e-300: the stream ends after 100 rejections in a row. How
    # long it runs first varies widely with the seed (thousands of pairs on
    # M3 at most seeds); seed 21 ends all three M3 streams within 100 pairs
    shape, tol = AlgebraShape(dims), ToleranceConfig(relation=1e-300)
    stream = list(compatible_pairs(shape, kind, 21, tol))
    _assert_same_pairs(stream, list(_reference_stream(shape, kind, 21, tol)))
    assert len(stream) == len(sampling._fixed_pairs(shape, kind, tol)) + drawn


def test_draw_outside_the_ball_is_a_rejection():
    # unitaries drawn by the strategies overshoot norm 1 by roundoff > 1e-16
    tol = ToleranceConfig(relation=1e-16)
    shape = AlgebraShape((2,))
    stream = list(islice(compatible_pairs(shape, CompatKind.FULL, 0, tol), 300))
    assert len(stream) == 300
    assert all(op_norm(a.matrix) <= 1.0 + 1e-16 and op_norm(b.matrix) <= 1.0 + 1e-16
               for _, a, b, _ in stream)
    reference = _reference_stream(shape, CompatKind.FULL, 0, tol)
    _assert_same_pairs(stream, list(islice(reference, 300)))


@pytest.mark.parametrize("dims, kind, relation", [
    *((dims, kind, 1e-8) for dims in [(2,), (3,), (2, 3)] for kind in CompatKind),
    # rounding alone rejects every conjugated draw: that generator exhausts
    ((2,), CompatKind.FULL, 1e-300),
])
def test_generate_compat_pair_is_the_one_draw_reference(dims, kind, relation):
    # k calls on one generator: the reference's accepted draws, one candidate
    # judged at a time, and the generator's rng left where the reference's is
    shape, tol = AlgebraShape(dims), ToleranceConfig(relation=relation)
    for strategy in PairStrategy:
        gen, rng = PairGenerator(strategy, 17), np.random.default_rng(17)
        for _ in range(6):
            ref = _reference_draw(strategy, rng, shape, kind, tol)
            if ref is None:
                with pytest.raises(GeneratorExhausted):
                    generate_compat_pair(gen, shape, kind, tol)
                break
            _assert_same_pairs([(strategy.value, *generate_compat_pair(gen, shape, kind, tol))],
                               [ref])
        assert gen.rng.bit_generator.state == rng.bit_generator.state


def _recording_draws(monkeypatch) -> tuple[list, list]:
    """The recipes of every page the stream draws and the rows of every stack
    of drawn pairs an audit judges, in order: every candidate is drawn
    through sampling._page and judged through preservers._judge."""
    pages, judged = [], []

    def recorded_page(*args):
        names, stacks = page(*args)
        pages.append(names)
        return names, stacks

    def recorded_judge(T, stacks, *args):
        judged.append(stacks.shape[1])
        return judge(T, stacks, *args)

    page, judge = sampling._page, preservers._judge
    monkeypatch.setattr(sampling, "_page", recorded_page)
    monkeypatch.setattr(preservers, "_judge", recorded_judge)
    return pages, judged


def test_refutation_in_the_fixed_pairs_draws_nothing(monkeypatch):
    pages, judged = _recording_draws(monkeypatch)
    w = fuzz_counterexample(transpose_map(AlgebraShape((2,))), CompatKind.DOMAIN)
    assert (w.index, w.source) == (1, "crossed_isometries_2x2")
    assert pages == judged == []


def test_refutation_by_the_first_drawn_pair_draws_one_page(monkeypatch):
    # x -> (x + x^T) / 2 keeps the three fixed pairs compatible at full kind;
    # at seed 1 the first drawn pair refutes it. The stream draws a whole
    # page, and the search judges it as one stack
    shape = AlgebraShape((2,))
    action = (identity_map(shape).action + transpose_map(shape).action) / 2.0
    symmetrize = LinearMap(shape, shape, action, Provenance.CUSTOM)
    pages, judged = _recording_draws(monkeypatch)
    w = fuzz_counterexample(symmetrize, CompatKind.FULL, seed=1)
    assert (w.index, w.source) == (3, "conjugated_positive_pair")
    assert [len(names) for names in pages] == [sampling._STACK_MAX]
    assert pages[0][0] == w.source and judged == [sampling._STACK_MAX]
