from __future__ import annotations

import numpy as np
import pytest

from abscompat import (
    CompatKind,
    ToleranceConfig,
    adjoint,
    check_orth_characterization,
    check_p00_equivalences,
    check_tripotent_characterization,
    compat_defect,
    is_orthogonal,
    jordan,
    triple,
)
from abscompat import suites
from abscompat.errors import ShapeIncompatible
from abscompat.linalg import op_norm
from abscompat.sampling import (
    PairGenerator,
    PairStrategy,
    rand_contraction,
    rand_hermitian_contraction,
    rand_partial_isometry,
    sample_general_pair,
    sample_positive_pair,
)
from abscompat.suites import (
    _consistency_battery,
    _tally,
    run_all_suites,
    shapes_for_dims,
    suite_classification,
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


def test_preservers_report_the_calibration_row():
    results = suite_preservers(5, 10, [2, 3])
    names = [r.name for r in results]
    by_name = {r.name: r for r in results}
    cal = by_name["preservation vs triple-hom calibration"]
    assert names.index(cal.name) == names.index("triple homs preserve compatibility") + 1
    hom = by_name["builders are triple homomorphisms"]
    assert by_name["triple homs preserve compatibility"].passed  # every audit passed
    assert cal.trials == hom.trials == 12
    assert cal.worst_defect == hom.worst_defect
    assert cal.passed and cal.failures == 0

    names = [r.name for r in run_all_suites([2, 3], trials=10, seed=3)]
    assert len(names) == len(set(names))
    assert names.count(cal.name) == 1


# The five stacked batteries replayed one trial at a time: the same draws in
# the same order, each judged by the public one-pair functions.


def _one_pair_products(seed, trials, shapes, tol):
    rng = np.random.default_rng(seed)
    defects = []
    for i in range(trials):
        shape = shapes[i % len(shapes)]
        a, b, c = (rand_contraction(rng, shape) for _ in range(3))
        h = rand_hermitian_contraction(rng, shape)
        defects.append([op_norm(x.matrix) for x in (
            jordan(a, b) - jordan(b, a),
            triple(a, b, c) - triple(c, b, a),
            triple(a, 1j * b, c) + 1j * triple(a, b, c),
            triple(h, h, h) - h @ h @ h,
        )])
    bounds = (("jordan commutativity (exact)", 0.0), ("triple outer symmetry", 1e-12),
              ("triple middle conjugate-linearity", 1e-12), ("hermitian triple cube", 1e-10))
    return [_tally(name, ((row[k], row[k] > bound) for row in defects))
            for k, (name, bound) in enumerate(bounds)]


def _one_pair_relation_invariants(seed, trials, shapes, tol):
    rng = np.random.default_rng(seed)
    t = tol.relation

    def symmetry():
        for i in range(trials):
            a, b = sample_general_pair(rng, shapes[i % len(shapes)])
            diffs = [abs(compat_defect(a, b, kind, tol).defect
                         - compat_defect(b, a, kind, tol).defect)
                     for kind in (CompatKind.DOMAIN, CompatKind.RANGE)]
            yield max(diffs), sum(d > 1e-12 for d in diffs)

    def adjoint_duality():
        for i in range(trials):
            a, b = sample_general_pair(rng, shapes[i % len(shapes)])
            lhs = compat_defect(a, b, CompatKind.DOMAIN, tol).verdict
            rhs = compat_defect(adjoint(a), adjoint(b), CompatKind.RANGE, tol).verdict
            yield 0.0, lhs != rhs

    def orthogonal_pairs():
        gen = PairGenerator(PairStrategy.ORTHOGONAL, seed ^ 0x0F0F0F0F)
        for i in range(trials):
            a, b = gen.draw(shapes[i % len(shapes)])
            if not is_orthogonal(a, b, tol).verdict:
                yield 0.0, True
                continue
            d = compat_defect(a, b, CompatKind.FULL, tol).defect
            yield d, d > t

    return [_tally("compat symmetry", symmetry()),
            _tally("adjoint duality of verdicts", adjoint_duality()),
            _tally("orthogonality implies compatibility", orthogonal_pairs())]


def _one_pair_consistency(name, check, sample):
    def battery(seed, trials, shapes, tol):
        rng = np.random.default_rng(seed)
        reports = (check(*sample(rng, shapes[i % len(shapes)]), tol) for i in range(trials))
        return _consistency_battery(name, trials, reports)
    return battery


def _one_pair_tripotents(seed, trials, shapes, tol):
    rng = np.random.default_rng(seed)
    n_iso = max(1, trials // 10)
    stream = [rand_contraction(rng, shapes[i % len(shapes)]) for i in range(trials)]
    stream += [rand_partial_isometry(rng, shapes[i % len(shapes)]) for i in range(n_iso)]
    stream += [0.9 * rand_partial_isometry(rng, shapes[i % len(shapes)]) for i in range(n_iso)]
    clauses = [check_tripotent_characterization(a, tol).clauses[0] for a in stream]
    return _tally("tripotent characterization",
                  ((min(s.defect for s in c.sides), not c.agree) for c in clauses),
                  note=f"{trials} random + 2x{n_iso} isometries")


_REPLAYED = [
    (suite_algebra_products, _one_pair_products),
    (suite_relation_invariants, _one_pair_relation_invariants),
    (suite_orth_characterization, _one_pair_consistency(
        "orthogonality characterization", check_orth_characterization, sample_general_pair)),
    (suite_p00_equivalences, _one_pair_consistency(
        "jordan-product equivalences", check_p00_equivalences, sample_positive_pair)),
    (suite_tripotent_characterization, _one_pair_tripotents),
]


@pytest.mark.parametrize("seed, trials", [(0, 40), (1, 40), (2, 40), (3, 130)])
@pytest.mark.parametrize("stacked, one_pair", _REPLAYED)
def test_stacked_batteries_replay_the_one_pair_rows(stacked, one_pair, seed, trials):
    # 130 trials leave a partial chunk after two full stacks of 64
    shapes, tol = shapes_for_dims([2, 3]), ToleranceConfig()
    assert stacked(seed, trials, shapes, tol) == one_pair(seed, trials, shapes, tol)
