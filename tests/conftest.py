from __future__ import annotations

import numpy as np
import pytest

from abscompat import AlgebraElement, AlgebraShape
from abscompat.preservers import _map_from_block_action
from abscompat.sampling import compatible_positive_pair_2x2, crossed_isometry_pair_2x2


@pytest.fixture
def shape2() -> AlgebraShape:
    return AlgebraShape((2,))


@pytest.fixture
def positive_pair() -> tuple[AlgebraElement, AlgebraElement]:
    a, b = compatible_positive_pair_2x2()
    return AlgebraElement.single(a), AlgebraElement.single(b)


@pytest.fixture
def isometry_pair() -> tuple[AlgebraElement, AlgebraElement]:
    e, v = crossed_isometry_pair_2x2()
    return AlgebraElement.single(e), AlgebraElement.single(v)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)



def _one_block_non_homs(n: int) -> dict:
    """Contractions of M_n that are not triple homomorphisms, by name."""
    p = np.diag([1.0] * (n - 1) + [0.0])  # x -> pxp compresses to a corner
    off_diagonal = ~np.eye(n, dtype=bool)
    return {
        "diagonal expectation": lambda x: np.diag(np.diag(x)),
        "(id + transpose)/2": lambda x: (x + x.T) / 2.0,
        "compression pxp": lambda x: p @ x @ p,
        **{f"schur rho={rho}": (lambda x, rho=rho: np.where(off_diagonal, rho, 1.0) * x)
           for rho in (0.9, 0.999)},
        **{f"scale 1-{delta}": (lambda x, delta=delta: (1.0 - delta) * x)
           for delta in (1e-3, 1e-6)},
    }


def _half_first_block(shape: AlgebraShape):
    """x_0 (+) x_1 -> 0.5 x_0 (+) x_1."""
    first = shape.block_slices()[0]

    def fn(x: np.ndarray) -> np.ndarray:
        y = x.copy()
        y[first, first] *= 0.5
        return y
    return fn


def build_nonhom_zoo() -> dict:
    """Contractions that are not triple homomorphisms, by name: the
    diagonal expectation, (id + transpose)/2, a compression, Schur
    multipliers and x -> (1 - delta) x on M2-M4, and 0.5 x_0 (+) x_1 on
    M1+M1, M1+M2 and M2+M3."""
    zoo = {}
    for n in (2, 3, 4):
        shape = AlgebraShape((n,))
        zoo.update({f"{name} on M{n}": _map_from_block_action(shape, shape, fn)
                    for name, fn in _one_block_non_homs(n).items()})
    for dims in ((1, 1), (1, 2), (2, 3)):
        shape = AlgebraShape(dims)
        zoo[f"0.5 x (+) x on M{dims[0]}+M{dims[1]}"] = _map_from_block_action(
            shape, shape, _half_first_block(shape))
    return zoo


@pytest.fixture(scope="session")
def nonhom_zoo() -> dict:
    return build_nonhom_zoo()
