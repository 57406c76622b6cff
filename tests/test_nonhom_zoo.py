"""The converse direction on a zoo of contractions that are not triple
homomorphisms (the ``nonhom_zoo`` fixture of conftest.py), and a non-unital
triple homomorphism that must survive every check."""

from __future__ import annotations

import numpy as np
import pytest

from abscompat import (
    AlgebraShape,
    CompatKind,
    build_star_hom,
    classify_triple_hom,
    compat_defect,
    fuzz_counterexample,
    is_partial_isometry,
    is_triple_hom,
    preserves_compat_sampled,
    unit,
)
from abscompat import preservers


def test_is_triple_hom_refutes_every_zoo_map(nonhom_zoo):
    assert len(nonhom_zoo) == 24
    for name, T in nonhom_zoo.items():
        assert not is_triple_hom(T).verdict, name


@pytest.mark.parametrize("prefix", [True, False], ids=["stream", "drawn-only"])
@pytest.mark.parametrize("kind", list(CompatKind))
def test_fuzz_refutes_every_zoo_map(monkeypatch, nonhom_zoo, kind, prefix):
    # with the fixed pairs and without them: the drawn pairs alone refute
    # every map too
    if not prefix:
        monkeypatch.setattr(preservers, "_fixed_pairs", lambda *args: [])
    for name, T in nonhom_zoo.items():
        for seed in (1, 2, 3):
            w = fuzz_counterexample(T, kind, budget=50, seed=seed)
            assert w is not None, (name, seed)
            assert compat_defect(w.a, w.b, kind).verdict
            assert not compat_defect(T.apply(w.a), T.apply(w.b), kind).verdict


def test_non_unital_triple_hom_survives():
    # x -> x (+) 0 on M3 -> M3 + M2: T(1) = 1 (+) 0 is a partial isometry,
    # not a unitary
    m3 = AlgebraShape((3,))
    T = build_star_hom(m3, AlgebraShape((3, 2)), [0, None])
    assert is_triple_hom(T).defect == 0.0
    cls = classify_triple_hom(T)
    assert (cls.hom_block_indices, cls.antihom_block_indices) == ({0}, frozenset())
    np.testing.assert_array_equal(cls.unit_image.matrix, T.apply(unit(m3)).matrix)
    np.testing.assert_array_equal(np.diag(cls.unit_image.matrix), [1, 1, 1, 0, 0])
    assert is_partial_isometry(cls.unit_image).verdict
    rep = preserves_compat_sampled(T, CompatKind.FULL, 200, seed=3)
    assert rep.verdict and rep.violations == 0 and rep.worst is None
    for kind in CompatKind:
        assert fuzz_counterexample(T, kind, budget=500, seed=3) is None
