"""Seeded random elements, fixed witness pairs, and compatible-pair generation.

Everything here is driven by an explicit ``numpy.random.Generator`` or a
``PairGenerator`` seed, so identical seeds reproduce identical streams.
``compatible_pairs`` is the one stream that preservation audits and
counterexample fuzzing judge, drawn a page of ``_STACK_MAX`` candidates at a
time (``_page``: one call picks every row's recipe); its accept loop
``_drawn_pairs``, restricted to one strategy in pages of one, also gives
``generate_compat_pair``. The loop yields its accepted pairs as ``(2, M, D,
D)`` stacks of at most ``_STACK_MAX`` rows, which the audits and fuzzing
judge as they are; rows become ``AlgebraElement`` pairs only where the
public API hands them out.

Every draw is a page. Each block recipe draws the random numbers of a page's
rows of one recipe, with one Generator call per array, and builds their
blocks from them at once (Haar QR and phase fixing, norms, products), which
draws nothing; a page recipe writes each block's stack into block-diagonal
``(N, D, D)`` stacks (``_drawing``). Rows that take different ranks or
recipes are built key by key and put back in row order by ``_by_key``.
Numpy's stacked ``qr``, ``matmul`` and ``svd`` give each matrix the bytes a
call on it alone gives, so no row depends on its stack. ``rand_*``,
``sample_*`` and ``PairGenerator.draw`` are pages of one; ``_elements`` and
the suites' batteries draw larger pages.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Iterator

import numpy as np

from .algebra import AlgebraElement, AlgebraShape, _block_diag, adjoint, unit
from .errors import GeneratorExhausted, ShapeMismatch
from .linalg import _adj, _diag, _hermitize, _op_norm, _weighted_gram
from .relations import CompatKind, _beyond_ball, _compat_stack
from .tolerance import DEFAULT_TOL, ToleranceConfig

__all__ = [
    "PairStrategy",
    "PairGenerator",
    "compatible_pairs",
    "generate_compat_pair",
    "known_witness_pairs",
    "compatible_positive_pair_2x2",
    "crossed_isometry_pair_2x2",
    "partial_isometry_from_projections",
    "rand_contraction",
    "rand_hermitian_contraction",
    "rand_positive_contraction",
    "rand_projection",
    "rand_partial_isometry",
    "rand_unitary",
    "sample_general_pair",
    "sample_positive_pair",
]


# ---------------------------------------------------------------------------
# block recipes: the blocks of a page's rows, drawn and built in one step
# ---------------------------------------------------------------------------
# A block recipe ``_*_draw(rng, n, count)`` takes the random numbers of
# ``count`` n x n blocks, one Generator call per array for all, builds them
# (Haar QR and phase fixing, norms, products), which draws nothing, and returns
# the (count, n, n) stacks of their outputs. Rows that differ in a key (a rank,
# or a recipe picked per row) are built by ``_by_key``.


def _by_key(build, keys: list, *data: np.ndarray):
    """The outputs ``build(key, *rows of data)`` of each key's rows, built in
    key order and put back in row order, as one ``(outputs, rows, ...)``
    array (one key: as built)."""
    if len(set(keys)) == 1:
        return build(keys[0], *data)
    groups: dict = {}
    for row, key in enumerate(keys):
        groups.setdefault(key, []).append(row)
    out = None
    for key in sorted(groups):
        rows = np.array(groups[key])
        built = build(key, *(x[rows] for x in data))
        if out is None:
            out = np.empty((len(built), len(keys), *built[0].shape[1:]), dtype=np.complex128)
        for o, x in zip(out, built):
            o[rows] = x
    return out


def _ints(rng: np.random.Generator, high: int, count: int) -> list[int]:
    """``count`` uniform integers in [0, high), in one call; a page of one takes
    the scalar call, which draws the same bytes in a third of the time."""
    return [int(rng.integers(high))] if count == 1 else rng.integers(high, size=count).tolist()


def _ginibre(z: np.ndarray) -> np.ndarray:
    """Ginibre matrices from their standard normal draws ``z[..., 0, :, :]``
    (real parts) and ``z[..., 1, :, :]`` (imaginary parts)."""
    return (z[..., 0, :, :] + 1j * z[..., 1, :, :]) / np.sqrt(2.0 * z.shape[-1])


def _haar(z: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from the normal draws of Ginibre matrices
    (see ``_ginibre``), by phase-fixed QR."""
    q, r = np.linalg.qr(_ginibre(z))
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[..., None, :]


def _unitary_draw(rng: np.random.Generator, n: int, count: int):
    return (_haar(rng.standard_normal((count, 2, n, n))),)


def _scaled(rng: np.random.Generator, g: np.ndarray) -> np.ndarray:
    """Each g rescaled to an operator norm drawn uniform in [0.05, 1), one
    value per nonzero g; zero g draw none and stay zero."""
    nonzero = g.reshape(len(g), -1).any(axis=1)  # all, but for a measure-zero draw
    scale = np.zeros(len(g))
    scale[nonzero] = rng.uniform(0.05, 1.0, size=int(nonzero.sum()))
    return g * (scale / np.where(nonzero, _op_norm(g), 1.0))[:, None, None]


def _contraction_draw(rng: np.random.Generator, n: int, count: int):
    return (_scaled(rng, _ginibre(rng.standard_normal((count, 2, n, n)))),)


def _hermitian_contraction_draw(rng: np.random.Generator, n: int, count: int):
    return (_scaled(rng, _hermitize(_ginibre(rng.standard_normal((count, 2, n, n))))),)


def _positive_contraction_draw(rng: np.random.Generator, n: int, count: int):
    w = _haar(rng.standard_normal((count, 2, n, n)))
    return (_weighted_gram(w, rng.random((count, n))),)


def _projection_draw(rng: np.random.Generator, n: int, count: int):
    ranks = _ints(rng, n + 1, count)
    return _by_key(_projection_build, ranks, _haar(rng.standard_normal((count, 2, n, n))))


def _projection_build(rank, w):
    cols = w[..., :rank]
    return (_hermitize(cols @ _adj(cols)),)


def _partial_isometry_draw(rng: np.random.Generator, n: int, count: int, scale: float = 1.0):
    """Partial isometries of random rank, times ``scale`` (as multiplying
    their elements by ``scale`` would)."""
    ranks = _ints(rng, n + 1, count)
    w = _haar(rng.standard_normal((count, 2, 2, n, n)))
    (x,) = _by_key(_partial_isometry_build, ranks, w)
    return (x if scale == 1.0 else x * complex(scale),)


def _partial_isometry_build(rank, w):
    w = w[..., :rank]
    return (w[:, 0] @ _adj(w[:, 1]),)


def _orthogonal_draw(rng: np.random.Generator, n: int, count: int):
    ranks = _ints(rng, n + 1, count)
    w = _haar(rng.standard_normal((count, 2, 2, n, n)))
    return _by_key(_orthogonal_build, ranks, w, rng.random((count, n)))


def _orthogonal_build(k, w, d):
    left, right = w[:, 0], w[:, 1]
    return (left[..., :k] @ _diag(d[:, :k]) @ _adj(right[..., :k]),
            left[..., k:] @ _diag(d[:, k:]) @ _adj(right[..., k:]))


def _diagonal_draw(*cases: str):
    """Diagonal pairs diag(f), diag(g), coordinate by coordinate in one of the
    equally likely ``cases``: a letter for f and one for g, ``0`` (zero), ``d``
    (in the disk: modulus, then phase) or ``c`` (on the circle). Each coordinate
    picks all rows' cases in one call, then takes their uniforms in one call,
    row by row; then each entry is its modulus times exp(2 pi i phase)."""
    # per case: moduli (1 unless zero) and phases of f and g, and the slots its uniforms fill
    base = np.array([[c != "0", 0.0] for case in cases for c in case]).reshape(-1, 4)
    slots = np.array([[c == "d", c != "0"] for case in cases for c in case]).reshape(-1, 4)
    sizes = slots.sum(axis=1).tolist()

    def draw(rng: np.random.Generator, n: int, count: int):
        picks, uniforms = [], []
        for _ in range(n):
            picks.append(_ints(rng, len(cases), count))
            uniforms.append(rng.random(sum(sizes[c] for c in picks[-1])))
        v = base[picks := np.array(picks)]  # (n, count, 4), filled coordinate by coordinate
        v[slots[picks]] = np.concatenate(uniforms)
        v = v.swapaxes(0, 1)
        return tuple(_diag(v[..., s] * np.exp(2j * np.pi * v[..., s + 1])) for s in (0, 2))
    return draw


# pointwise compatible: at every coordinate the product vanishes or a modulus is 1
_diagonal_compat_draw = _diagonal_draw("0d", "d0", "cd", "dc", "00")


def _conjugated_positive_draw(rng: np.random.Generator, n: int, count: int):
    """The standard 2x2 pair, zero-padded and unitarily conjugated (1x1:
    zeros, drawing nothing)."""
    if n < 2:
        return ()  # the blocks stay zero
    w = _haar(rng.standard_normal((count, 2, n, n)))[:, None]
    pair = w @ _padded_positive_pair(n) @ _adj(w)
    return pair[:, 0], pair[:, 1]


@lru_cache
def _padded_positive_pair(n: int) -> np.ndarray:
    """``compatible_positive_pair_2x2`` zero-padded to n x n, read-only."""
    pair = np.pad(compatible_positive_pair_2x2(), ((0, 0), (0, n - 2), (0, n - 2)))
    pair.flags.writeable = False
    return pair


def _saturated_draw(rng: np.random.Generator, n: int, count: int):
    # (unitary, anything in the ball) always satisfies the identity.
    z, c = rng.standard_normal((count, 2, n, n)), rng.standard_normal((count, 2, n, n))
    return _haar(z), _scaled(rng, _ginibre(c))


def _mixed_draw(rng: np.random.Generator, n: int, count: int):
    """An independent recipe per block, picked for all rows in one call, then
    each recipe's rows in recipe order; 1x1 blocks skip the conjugated pair."""
    recipes = (_orthogonal_draw, _diagonal_compat_draw, _saturated_draw,
               _conjugated_positive_draw)
    return _by_key(lambda r, rows: recipes[r](rng, n, len(rows)),
                   _ints(rng, 4 if n >= 2 else 3, count), np.arange(count))


def _spectral_pair_draw(weights):
    """A pair ``w diag(s) w*`` with one Haar w and the weights ``s`` that
    ``weights(mask, lam)`` makes from a fair coin per eigenvector and
    uniform [0, 1) values."""
    def draw(rng: np.random.Generator, n: int, count: int):
        w = _haar(rng.standard_normal((count, 2, n, n)))
        u = rng.random((count, 2, n))
        return tuple((w * s[..., None, :]) @ _adj(w) for s in weights(u[:, 0] < 0.5, u[:, 1]))
    return draw


# A projection and a positive contraction it commutes with: compatible.
_projection_commuting_draw = _spectral_pair_draw(
    lambda mask, lam: (mask.astype(float), lam))
# Positive contractions with orthogonal supports: compatible.
_orthogonal_positive_draw = _spectral_pair_draw(
    lambda mask, lam: (np.where(mask, lam, 0.0), np.where(mask, 0.0, lam)))


# ---------------------------------------------------------------------------
# pages: block-diagonal stacks of a page's rows
# ---------------------------------------------------------------------------
# A page recipe ``recipe(rng, shape, count)`` returns the ``(outputs, count, D,
# D)`` block-diagonal stacks of a page of ``count`` rows.


def _drawing(*parts: tuple):
    """The page recipe of ``parts``, ``(block recipe, outputs)`` pairs drawn in
    turn, each on every block of the shape in turn; its outputs fill the
    outputs listed, and the blocks it leaves out stay zero."""
    n_out = 1 + max(max(outs) for _, outs in parts)

    def recipe(rng: np.random.Generator, shape: AlgebraShape, count: int) -> np.ndarray:
        d = shape.total_dim
        out = np.zeros((n_out, count, d, d), dtype=np.complex128)
        for draw, outs in parts:
            for n, sl in zip(shape.block_dims, shape.block_slices()):
                for o, x in zip(outs, draw(rng, n, count)):
                    out[o, :, sl, sl] = x
        return out
    return recipe


def _pair(draw):  # the page recipe of a pair block recipe
    return _drawing((draw, (0, 1)))


def _two(draw):  # the page recipe of two independent elements of a block recipe
    return _drawing((draw, (0,)), (draw, (1,)))


def _picked(rng: np.random.Generator, shape: AlgebraShape, recipes, count: int,
            keys: list | None = None) -> tuple[list[int], np.ndarray]:
    """The keys and stacks of a page of ``count`` rows: row i takes the page
    recipe ``recipes[keys[i]]``, and each recipe's rows, in recipe order, take
    their draws (``_by_key``). Keys None: one call picks them (one recipe
    draws nothing to pick)."""
    if keys is None:
        keys = _ints(rng, len(recipes), count) if len(recipes) > 1 else [0] * count
    return keys, _by_key(lambda r, rows: recipes[r](rng, shape, len(rows)), keys,
                         np.arange(count))


def _elements(rng: np.random.Generator, shape: AlgebraShape, draw, count: int) -> np.ndarray:
    """A page of ``count`` elements of ``shape`` from ``draw``: a (count, D, D) stack."""
    return _drawing((draw, (0,)))(rng, shape, count)[0]


def _wrapped(shape: AlgebraShape, stacks: np.ndarray, row: int = 0) -> tuple:
    return tuple(AlgebraElement._wrap(shape, x[row]) for x in stacks)


def _element_sampler(draw):
    """The sampler of one element of a shape from the block recipe ``draw``."""
    def sample(rng: np.random.Generator, shape: AlgebraShape) -> AlgebraElement:
        return AlgebraElement._wrap(shape, _elements(rng, shape, draw, 1)[0])
    return sample


rand_contraction = _element_sampler(_contraction_draw)
rand_hermitian_contraction = _element_sampler(_hermitian_contraction_draw)
rand_positive_contraction = _element_sampler(_positive_contraction_draw)
rand_projection = _element_sampler(_projection_draw)
rand_partial_isometry = _element_sampler(_partial_isometry_draw)
rand_unitary = _element_sampler(_unitary_draw)


# ---------------------------------------------------------------------------
# fixed witness pairs
# ---------------------------------------------------------------------------


def compatible_positive_pair_2x2() -> tuple[np.ndarray, np.ndarray]:
    """The standard noncommuting positive compatible pair in M_2."""
    a = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=np.complex128) / 3.0
    b = np.array([[2.0, -1.0], [-1.0, 1.0]], dtype=np.complex128) / 3.0
    return a, b


def crossed_isometry_pair_2x2() -> tuple[np.ndarray, np.ndarray]:
    """Minimal partial isometries (e, v) that are domain compatible while
    their transposes fail the same identity by sqrt(2) - 1."""
    e = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.complex128)
    v = np.array([[0.0, 1.0], [0.0, 1.0]], dtype=np.complex128) / np.sqrt(2.0)
    return e, v


def partial_isometry_from_projections(
    initial: np.ndarray, final: np.ndarray
) -> np.ndarray:
    """A partial isometry u with u*u = initial and uu* = final.

    Both arguments must be projections of equal rank; u maps an orthonormal
    basis of range(initial) onto one of range(final). The result is unique up
    to per-column phases, which no absolute value can see.
    """
    wi, vi = np.linalg.eigh(np.asarray(initial, dtype=np.complex128))
    wf, vf = np.linalg.eigh(np.asarray(final, dtype=np.complex128))
    cols_i = vi[:, wi > 0.5]
    cols_f = vf[:, wf > 0.5]
    if cols_i.shape[1] != cols_f.shape[1]:
        raise ShapeMismatch("initial and final projections have different ranks")
    return cols_f @ cols_i.conj().T


def _embed_2x2(shape: AlgebraShape, pair: tuple[np.ndarray, np.ndarray],
               block_index: int) -> tuple[AlgebraElement, AlgebraElement]:
    """Place a 2x2 pair in the top-left corner of one block, zero elsewhere.

    Zero padding keeps compatibility: on the complementary support both
    absolute values vanish and |1 - 0 - 0| = 1 there.
    """
    out = []
    for mat in pair:
        blocks = [np.zeros((d, d), dtype=np.complex128) for d in shape.block_dims]
        blocks[block_index][:2, :2] = mat
        out.append(AlgebraElement._wrap(shape, _block_diag(shape, blocks)))
    return out[0], out[1]


def known_witness_pairs(
    shape: AlgebraShape,
) -> list[tuple[str, AlgebraElement, AlgebraElement]]:
    """Fixed hard pairs seeded ahead of random strategies in audits/fuzzing.

    The crossed isometries are domain compatible only and their adjoints range
    compatible only, so the transpose is refuted at either kind."""
    pairs: list[tuple[str, AlgebraElement, AlgebraElement]] = []
    wide = [i for i, d in enumerate(shape.block_dims) if d >= 2]
    if wide:
        a, b = _embed_2x2(shape, compatible_positive_pair_2x2(), wide[0])
        pairs.append(("positive_compatible_2x2", a, b))
        e, v = _embed_2x2(shape, crossed_isometry_pair_2x2(), wide[0])
        pairs.append(("crossed_isometries_2x2", e, v))
        pairs.append(("crossed_isometries_adjoint_2x2", adjoint(e), adjoint(v)))
    one = unit(shape)
    pairs.append(("saturated_unit_unit", one, one))
    pairs.append(("saturated_unit_half", one, 0.5 * one))
    return pairs


# ---------------------------------------------------------------------------
# compatible-pair strategies and the one stream
# ---------------------------------------------------------------------------


class PairStrategy(Enum):
    """The stream's recipes: the conjugated standard 2x2 pair, or a recipe per
    block (orthogonal, diagonal, saturated or conjugated; ``_mixed_draw``)."""
    CONJUGATED_POSITIVE_PAIR = "conjugated_positive_pair"
    DIRECT_SUM_MIX = "direct_sum_mix"


_STRATEGY_RECIPES = {PairStrategy.CONJUGATED_POSITIVE_PAIR: _pair(_conjugated_positive_draw),
                     PairStrategy.DIRECT_SUM_MIX: _pair(_mixed_draw)}


def _recipes(shape: AlgebraShape, strategies) -> list[tuple[str, object]]:
    """The ``(name, page recipe)`` of each of ``strategies`` that supports
    ``shape``: the conjugated positive pair needs a block of size 2 or more."""
    return [(s.value, _STRATEGY_RECIPES[s]) for s in strategies
            if s is not PairStrategy.CONJUGATED_POSITIVE_PAIR or max(shape.block_dims) >= 2]


def _page(rng: np.random.Generator, shape: AlgebraShape, recipes,
          size: int) -> tuple[list[str], np.ndarray]:
    """The next ``size`` candidates, as recipe names and ``(2, size, D, D)`` stacks
    (``_picked`` over the page recipes of ``recipes``)."""
    picks, stacks = _picked(rng, shape, [recipe for _, recipe in recipes], size)
    return [recipes[r][0] for r in picks], stacks


@dataclass
class PairGenerator:
    """Deterministic stream of candidate pairs for one strategy and seed."""

    strategy: PairStrategy
    seed: int
    rng: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.rng = np.random.default_rng(self.seed)

    def draw(self, shape: AlgebraShape) -> tuple[AlgebraElement, AlgebraElement]:
        """One raw candidate pair; compatibility is *not* checked here."""
        if not (recipes := _recipes(shape, [self.strategy])):
            raise GeneratorExhausted(f"strategy {self.strategy.value} does not support "
                                     f"shape {shape.block_dims}")
        return _wrapped(shape, _page(self.rng, shape, recipes, 1)[1])


_RETRIES = 100  # rejected candidates in a row that end a stream
# rows of a page of drawn candidates, and most rows in one kernel call or built
# stack (judged pairs or one shape's battery trials)
_STACK_MAX = 128


def _passing(a: np.ndarray, b: np.ndarray, shape: AlgebraShape, kind: CompatKind,
             tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """The defects at ``kind`` of the pairs of (N, D, D) stacks, from one
    kernel call, and which pass: within tol, both operands in the unit ball."""
    k = _compat_stack(a, b, shape, kind, tol)
    return k.defect, ~_beyond_ball(k.excess, tol) & (k.defect <= tol.relation)


def _drawn_pairs(shape: AlgebraShape, kind: CompatKind, rng: np.random.Generator,
                 tol: ToleranceConfig, _wanted: int = sys.maxsize,
                 strategies=tuple(PairStrategy), _size: int = _STACK_MAX) -> Iterator[tuple]:
    """The first ``_wanted`` candidates from ``rng`` that pass at ``kind``
    (within tol, both operands in the unit ball), one ``(names, stacks,
    defects)`` per stack: the recipe names, the ``(2, M, D, D)`` stacks of a
    and b and the defects of the M accepted rows, unwrapped. Candidates are
    drawn a page of ``_size`` at a time (``_page``, each row picking one of
    ``strategies`` that supports ``shape``), so each depends only on the seed
    and its page; the next ``_STACK_MAX`` of them, at most the pairs still
    wanted, are judged in one kernel call. No pair depends on its stack. The
    accepted rows are indexed out only when some row was rejected;
    ``_RETRIES`` rejections in a row end the stream."""
    recipes, rejected, names = _recipes(shape, strategies), 0, []
    stacks = np.empty((2, 0, shape.total_dim, shape.total_dim), dtype=np.complex128)
    while recipes and _wanted and rejected < _RETRIES:
        while len(names) < (take := min(_STACK_MAX, _wanted)):  # the drawn rows not yet judged
            drawn, page = _page(rng, shape, recipes, _size)
            names, stacks = names + drawn, np.concatenate([stacks, page], axis=1)
        window, names, judged, stacks = names[:take], names[take:], *np.split(stacks, [take], 1)
        defects, passed = _passing(*judged, shape, kind, tol)
        accepted = []
        for row, ok in enumerate(passed.tolist()):
            rejected = 0 if ok else rejected + 1
            if rejected == _RETRIES:  # the rest of the stack is dropped
                break
            if ok:
                accepted.append(row)
        if len(accepted) == take:
            yield window, judged, defects
        elif accepted:
            yield [window[r] for r in accepted], judged[:, accepted], defects[accepted]
        _wanted -= len(accepted)


def generate_compat_pair(
    gen: PairGenerator,
    shape: AlgebraShape,
    kind: CompatKind = CompatKind.FULL,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> tuple[AlgebraElement, AlgebraElement, float]:
    """The next pair of ``gen`` that passes compatibility at ``kind``, with
    its defect: ``_drawn_pairs`` on ``gen.rng`` restricted to ``gen.strategy``,
    in pages of one, so nothing is drawn past the pair; GeneratorExhausted when
    that stream ends. The strategies are heuristic; the identity is the oracle."""
    for _, stacks, defects in _drawn_pairs(shape, kind, gen.rng, tol, 1, [gen.strategy], 1):
        return (*_wrapped(shape, stacks), float(defects[0]))
    raise GeneratorExhausted(f"strategy {gen.strategy.value} produced no compatible pair "
                             f"on shape {shape.block_dims}")


def _fixed_pairs(shape: AlgebraShape, kind: CompatKind, tol: ToleranceConfig) -> list[tuple]:
    """The ``known_witness_pairs`` compatible at ``kind``, with their defects."""
    fixed = known_witness_pairs(shape)
    stacks = (np.stack([p[i].matrix for p in fixed]) for i in (1, 2))
    defects, passed = _passing(*stacks, shape, kind, tol)
    return [(*pair, float(d)) for pair, d, ok in zip(fixed, defects, passed) if ok]


def compatible_pairs(
    shape: AlgebraShape,
    kind: CompatKind,
    seed: int = 0,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> Iterator[tuple[str, AlgebraElement, AlgebraElement, float]]:
    """The pairs compatible at ``kind``, as ``(source, a, b, defect)``.

    First the ``known_witness_pairs`` compatible at ``kind`` (known-hard
    cases make regressions deterministic), then ``_drawn_pairs`` of every
    ``PairStrategy`` from one ``np.random.default_rng(seed)``, drawn in pages
    of ``_STACK_MAX`` candidates, which ends after ``_RETRIES`` rejections in
    a row. Identical arguments replay identical streams. The drawn rows are
    wrapped as elements here, where they are handed out; the audits judge
    ``_drawn_pairs``' stacks as they come.
    """
    yield from _fixed_pairs(shape, kind, tol)
    for names, stacks, defects in _drawn_pairs(shape, kind, np.random.default_rng(seed), tol):
        for row, (name, defect) in enumerate(zip(names, defects.tolist())):
            yield (name, *_wrapped(shape, stacks, row), defect)


# ---------------------------------------------------------------------------
# mixed pairs for the consistency suites
# ---------------------------------------------------------------------------


def _cases(wide: tuple, narrow: tuple):
    """The page recipe that picks each row's case in one call, from ``wide`` on a
    shape with a block of size 2 or more and from ``narrow`` on any other."""
    def recipe(rng: np.random.Generator, shape: AlgebraShape, count: int) -> np.ndarray:
        return _picked(rng, shape, wide if max(shape.block_dims) >= 2 else narrow, count)[1]
    return recipe


# the cases of sample_general_pair; the conjugated pair needs a wide block
_GENERAL = (_pair(_orthogonal_draw), _pair(_diagonal_compat_draw),
            _two(_hermitian_contraction_draw), _two(_positive_contraction_draw),
            _two(_contraction_draw), _pair(_conjugated_positive_draw))
_general_pair = _cases(_GENERAL, _GENERAL[:5])
# the cases of sample_positive_pair; without a wide block the conjugated
# pair's case draws two positive contractions
_POSITIVE = (_pair(_projection_commuting_draw), _pair(_orthogonal_positive_draw),
             _pair(_conjugated_positive_draw), _two(_positive_contraction_draw))
_positive_pair = _cases(_POSITIVE, _POSITIVE[:2] + _POSITIVE[3:] * 2)


def sample_general_pair(
    rng: np.random.Generator, shape: AlgebraShape
) -> tuple[AlgebraElement, AlgebraElement]:
    """Contraction pairs mixing orthogonal constructions, conjugated
    compatible pairs, Hermitian/positive pairs and plain random contractions."""
    return _wrapped(shape, _general_pair(rng, shape, 1))


def sample_positive_pair(
    rng: np.random.Generator, shape: AlgebraShape
) -> tuple[AlgebraElement, AlgebraElement]:
    """Positive contraction pairs, a mix of compatible and incompatible ones."""
    return _wrapped(shape, _positive_pair(rng, shape, 1))
