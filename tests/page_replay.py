"""Pages of draws replayed row by row: the reference for every paged draw.

The library draws a page of rows one recipe group at a time, with one
Generator call per array for all the group's rows. The functions here draw a
page's numbers in that documented order, queue each row's share in its own
``Replay``, and let a one-candidate recipe (``frozen_sampling.py``, or a
test's one-trial code) build each row alone from its queue. A row whose
bytes match its replay depends on nothing but its own numbers.

Block draws ``page_*(rng, rows, n, block)`` take one n x n block of every
row in ``rows``; shape recipes ``recipe(rng, rows, shape)`` take every block
of a shape (``each``, ``picked``). ``pages`` replays a suite battery's page
order (``suites._in_pages``).

Not a test module; the test modules import it.
"""

from __future__ import annotations

import numpy as np


class Replay:
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


def page_ints(rng, rows, high):
    # one integer in [0, high) per row, in one call
    for row, k in zip(rows, rng.integers(high, size=len(rows)).tolist()):
        row.ints.append(k)


def page_normals(rng, rows, n, k):
    # k n x n real matrices per row, in one call
    for row, z in zip(rows, rng.standard_normal((len(rows), k * n * n)).tolist()):
        row.normals += z


def page_uniforms(rng, rows, m, scale=1.0):
    # m uniforms in [0, scale) per row, in one call
    for row, u in zip(rows, (scale * rng.random((len(rows), m))).tolist()):
        row.uniforms += u


def page_scales(rng, rows, n):
    # the scale in [0.05, 1) of each row whose last Ginibre draw is nonzero
    nonzero = [any(row.normals[-2 * n * n:]) for row in rows]
    scales = rng.uniform(0.05, 1.0, size=sum(nonzero)).tolist()
    for row, nz in zip(rows, nonzero):
        row.uniforms += [scales.pop(0)] if nz else []


def page_orthogonal(rng, rows, n, block):
    ranks = rng.integers(0, n + 1, size=len(rows)).tolist()
    page_normals(rng, rows, n, 4)
    for row, k, d in zip(rows, ranks, rng.uniform(0.0, 1.0, size=(len(rows), n)).tolist()):
        row.ints.append(k)
        row.uniforms += d
        row.groups.add((block, f"orthogonal rank {k}"))


def page_diagonal(counts):
    """The diagonal pairs of cases with ``counts`` uniforms each: per
    coordinate the cases of all rows, then their uniforms row by row."""
    def draw(rng, rows, n, block):
        for _ in range(n):
            cases = rng.integers(0, len(counts), size=len(rows)).tolist()
            u = rng.uniform(size=sum(counts[c] for c in cases)).tolist()
            for row, c in zip(rows, cases):
                row.ints.append(c)
                row.uniforms += u[:counts[c]]
                u = u[counts[c]:]
        for row in rows:
            row.groups.add((block, "diagonal"))
    return draw


# the compatible coordinates "0d", "d0", "cd", "dc" and "00" of the pair stream
page_diagonal_compat = page_diagonal((2, 2, 3, 3, 0))


def page_contraction(rng, rows, n, block):
    page_normals(rng, rows, n, 2)
    page_scales(rng, rows, n)


page_hermitian_contraction = page_contraction


def page_saturated(rng, rows, n, block):
    page_normals(rng, rows, n, 2)
    page_contraction(rng, rows, n, block)
    for row in rows:
        row.groups.add((block, "saturated"))


def page_conjugated(rng, rows, n, block):
    if n >= 2:
        page_normals(rng, rows, n, 2)
    for row in rows:
        row.groups.add((block, "conjugated"))


def page_mixed(rng, rows, n, block):
    picks = rng.integers(0, 4 if n >= 2 else 3, size=len(rows)).tolist()
    for row, pick in zip(rows, picks):
        row.ints.append(pick)
    for r, draw in enumerate((page_orthogonal, page_diagonal_compat, page_saturated,
                              page_conjugated)):
        if chosen := [row for row, pick in zip(rows, picks) if pick == r]:
            draw(rng, chosen, n, block)


def page_unitary(rng, rows, n, block):
    page_normals(rng, rows, n, 2)


def page_positive_contraction(rng, rows, n, block):
    page_normals(rng, rows, n, 2)
    page_uniforms(rng, rows, n)


def page_projection(rng, rows, n, block):
    page_ints(rng, rows, n + 1)
    page_normals(rng, rows, n, 2)


def page_partial_isometry(rng, rows, n, block):
    page_ints(rng, rows, n + 1)
    page_normals(rng, rows, n, 4)


def page_spectral_pair(rng, rows, n, block):
    # one Haar unitary, then a coin and a weight per eigenvector
    page_normals(rng, rows, n, 2)
    page_uniforms(rng, rows, 2 * n)


def each(*draws):
    """The shape recipe of block draws taken in turn, each over every block
    (one draw: a pair recipe; a draw per element: independent elements)."""
    def recipe(rng, rows, shape):
        for draw in draws:
            for block, n in enumerate(shape.block_dims):
                draw(rng, rows, n, block)
    return recipe


def picked(rng, rows, shape, cases):
    """Each row's case among the shape recipes ``cases``, picked in one call,
    then each case's rows in case order."""
    picks = rng.integers(len(cases), size=len(rows)).tolist()
    for row, pick in zip(rows, picks):
        row.ints.append(pick)
    for r, case in enumerate(cases):
        if chosen := [row for row, pick in zip(rows, picks) if pick == r]:
            case(rng, chosen, shape)


def general_pair(rng, rows, shape):
    """The page order of ``sample_general_pair``'s cases."""
    cases = [each(page_orthogonal), each(page_diagonal_compat),
             each(page_hermitian_contraction, page_hermitian_contraction),
             each(page_positive_contraction, page_positive_contraction),
             each(page_contraction, page_contraction), each(page_conjugated)]
    picked(rng, rows, shape, cases if max(shape.block_dims) >= 2 else cases[:5])


def positive_pair(rng, rows, shape):
    """The page order of ``sample_positive_pair``'s cases; without a block of
    size 2 or more the conjugated pair's case draws two positive contractions."""
    two = each(page_positive_contraction, page_positive_contraction)
    conjugated = each(page_conjugated) if max(shape.block_dims) >= 2 else two
    picked(rng, rows, shape, [each(page_spectral_pair), each(page_spectral_pair),
                              conjugated, two])


def page(rng, shape, recipe, count):
    """The ``Replay`` of each of a page of ``count`` rows of the shape recipe
    ``recipe``."""
    rows = [Replay() for _ in range(count)]
    recipe(rng, rows, shape)
    return rows


def pages(rng, shapes, on, recipes, by=None, cap=128):
    """The ``Replay`` of each trial of a battery, in trial order: trial i is
    on ``shapes[on[i]]`` and draws the shape recipe ``recipes[by[i]]`` (by
    None: ``recipes[0]``). Shape by shape in index order, the shape's trials
    in order make pages of at most ``cap`` rows; each recipe's rows of a page,
    in recipe order, take their draws."""
    by = [0] * len(on) if by is None else by
    rows = [Replay() for _ in on]
    for s in sorted(set(on)):
        trials = [i for i, t in enumerate(on) if t == s]
        for start in range(0, len(trials), cap):
            chunk = trials[start:start + cap]
            for r in sorted({by[i] for i in chunk}):
                recipes[r](rng, [rows[i] for i in chunk if by[i] == r], shapes[s])
    return rows
