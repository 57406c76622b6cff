"""Module invariants at their stated sample sizes (heavier than the
per-operation unit tests, lighter than the acceptance gate)."""

from __future__ import annotations

from pathlib import Path
from types import ModuleType

import pytest

import abscompat
from abscompat import (
    AlgebraShape, CompatKind, ToleranceConfig, identity_map,
    known_witness_pairs, preserves_compat_sampled,
)
from abscompat import preservers, relations, sampling, suites
from abscompat.reports import RelationReport
from abscompat.sampling import _STACK_MAX
from abscompat.suites import suite_linalg_invariants, suite_relation_invariants


def test_linalg_invariants_at_500():
    results = suite_linalg_invariants(seed=101, trials=500)
    for r in results:
        assert r.passed, f"{r.name}: {r.failures} failures, worst {r.worst_defect}"


def test_relation_invariants_at_1000():
    shapes = [AlgebraShape((2,)), AlgebraShape((3,))]
    results = suite_relation_invariants(seed=101, trials=1000, shapes=shapes)
    for r in results:
        assert r.passed, f"{r.name}: {r.failures} failures, worst {r.worst_defect}"


def _counted(monkeypatch) -> dict:
    """Live counts of the rows of every kernel call and every stack built,
    of the candidates drawn (at the page builder) and of the rows judged and
    rejected."""
    counts = {"kernel": [], "stacks": [], "drawn": 0, "judged": 0, "rejected": 0}
    kernel, assemble, passing, page = (relations._compat_stack, sampling._assemble,
                                       sampling._passing, sampling._page)

    def counted_kernel(a, *args):
        counts["kernel"].append(len(a))
        return kernel(a, *args)

    def counted_assemble(shape, candidates, count=None):
        counts["stacks"].append(count or len(candidates))
        return assemble(shape, candidates, count)

    def counted_passing(a, *args):
        defects, passed = passing(a, *args)
        counts["judged"] += len(a)
        counts["rejected"] += int((~passed).sum())
        return defects, passed

    def counted_page(rng, shape, recipes, size):
        counts["drawn"] += size
        return page(rng, shape, recipes, size)

    for module in (relations, sampling, preservers):
        monkeypatch.setattr(module, "_compat_stack", counted_kernel)
    for module in (sampling, suites):
        monkeypatch.setattr(module, "_assemble", counted_assemble)
    monkeypatch.setattr(sampling, "_passing", counted_passing)
    monkeypatch.setattr(sampling, "_page", counted_page)
    return counts


@pytest.mark.parametrize("dims, relation, kernel_calls, drawn", [
    ((2,), 1e-8, 6, 256),
    ((2, 3), 1e-8, 6, 256),
    ((2, 3), 1e-15, 35, 768),  # roundoff rejects 529 of the 727 draws judged
])
def test_audit_call_counts(monkeypatch, dims, relation, kernel_calls, drawn):
    # one generator draws whole pages of _STACK_MAX candidates, no more pages
    # than the audit still wants. One call filters the fixed pairs and one
    # judges their images; then each window of min(_STACK_MAX, pairs still
    # wanted) draws takes one call to filter it and, unless every row was
    # rejected, one to judge its images: at 1e-8, 2 + 2 windows x 2 calls
    shape, tol, n_pairs = AlgebraShape(dims), ToleranceConfig(relation=relation), 200
    fixed = len(known_witness_pairs(shape))
    fixed_rejected = fixed - len(sampling._fixed_pairs(shape, CompatKind.FULL, tol))
    counts = _counted(monkeypatch)
    assert preserves_compat_sampled(identity_map(shape), CompatKind.FULL, n_pairs, 1, tol).verdict
    assert (len(counts["kernel"]), counts["drawn"]) == (kernel_calls, drawn)
    wanted = n_pairs + counts["rejected"] - fixed_rejected  # drawn rows judged, at most
    assert counts["judged"] - fixed <= wanted
    assert counts["drawn"] <= -(-wanted // _STACK_MAX) * _STACK_MAX
    assert max(counts["kernel"] + counts["stacks"]) <= _STACK_MAX


def test_linalg_battery_stack_counts(monkeypatch):
    # five batteries, each one stack per matrix size 1 to 6 at 200 trials
    counts = _counted(monkeypatch)
    assert all(r.passed for r in suite_linalg_invariants(seed=1, trials=200))
    assert (len(counts["kernel"]), len(counts["stacks"])) == (0, 30)
    assert max(counts["stacks"]) <= _STACK_MAX


def test_relation_report_enforces_verdict_invariant():
    with pytest.raises(ValueError):
        RelationReport("x", True, 1.0, 1e-8)
    with pytest.raises(ValueError):
        RelationReport("x", False, -0.5, 1e-8)
    rep = RelationReport.from_defect("x", 0.0, 1e-8)
    assert rep.verdict and rep.defect == 0.0


def test_clause_indeterminate_band():
    from abscompat.reports import SideCheck, make_clause

    tol = 1e-8
    near = make_clause("near", [SideCheck("l", True, 0.95e-8),
                                SideCheck("r", False, 1.05e-8)], tol)
    assert not near.agree and near.indeterminate

    far = make_clause("far", [SideCheck("l", True, 0.95e-8),
                              SideCheck("r", False, 0.5)], tol)
    assert not far.agree and not far.indeterminate

    agreeing = make_clause("ok", [SideCheck("l", True, 0.0),
                                  SideCheck("r", True, 1e-9)], tol)
    assert agreeing.agree and not agreeing.indeterminate


# the package's public surface, pinned so that a change to it is deliberate
_EXPORTS = """
    AlgebraElement AlgebraShape CompatKind ConsistencyReport DEFAULT_TOL
    HermitianEig IntervalBoundary LinearMap PairGenerator PairStrategy
    PolarDecomposition PreservationReport Provenance RelationReport
    ToleranceConfig TripleHomClassification Witness abs_value adjoint
    apply_function build_block_map build_sandwich build_star_anti_hom
    build_star_hom check_orth_characterization check_p00_equivalences
    check_tripotent_characterization classify_triple_hom
    commutative_compat_check compat_defect compatible_positive_pair_2x2
    crossed_isometry_pair_2x2 fuzz_counterexample generate_compat_pair herm_eig
    identity_map is_contraction is_contractive_sampled is_orthogonal
    is_partial_isometry is_positive is_projection is_triple_hom jordan
    known_witness_pairs op_norm partial_isometry_from_projections polar
    preserves_compat_sampled range_projection range_version_adapter scale_map
    spectral_tripotent transpose_map triple unit zero
""".split()


def test_package_exports_are_its_public_names():
    names = abscompat.__all__
    assert names == _EXPORTS
    assert names == sorted(set(names))
    assert not [name for name in names if name.startswith("_")]
    assert not [name for name in names if isinstance(getattr(abscompat, name), ModuleType)]
    namespace: dict = {}
    exec("from abscompat import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == names


# `wc -l src/abscompat/*.py`, a tracked metric: growth is a deliberate edit of
# this pin, recorded with its reason in CHANGES.md
_SOURCE_LINES = 3550


def test_source_line_count_is_pinned():
    sources = Path(abscompat.__file__).parent.glob("*.py")
    lines = sum(path.read_bytes().count(b"\n") for path in sources)
    assert lines <= _SOURCE_LINES, f"{lines} source lines, pinned at {_SOURCE_LINES}"
