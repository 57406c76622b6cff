from __future__ import annotations

import pytest

from abscompat import AlgebraShape
from abscompat.suites import (
    run_all_suites,
    shapes_for_dims,
    suite_classification,
    suite_determinism,
    suite_fuzz_regressions,
    suite_linalg_invariants,
    suite_preservers,
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


def test_individual_suites_pass():
    assert all(r.passed for r in suite_linalg_invariants(3, 40))
    assert suite_fuzz_regressions(3, budget=60).passed
    assert suite_classification(3).passed
    assert suite_determinism(3).passed


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
