"""Property suites: randomized batteries exercising every invariant and
characterization, used by the ``verify-suite`` command and the acceptance
tests. Each suite returns a SuiteResult with trial counts, failures,
indeterminate (near-threshold) counts and the worst defect observed.

The relation-invariant and characterization batteries draw their operands as
a one-pair loop would and judge them in (N, n, n) stacks, at most
``_STACK_MAX`` trials per shape; the commutative cross-check is per pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .algebra import (
    AlgebraShape,
    adjoint,
    jordan,
    triple,
    unit,
)
from .linalg import abs_value, apply_function, op_norm, polar, range_projection
from .preservers import (
    LinearMap,
    build_block_map,
    build_sandwich,
    build_star_anti_hom,
    build_star_hom,
    classify_triple_hom,
    fuzz_counterexample,
    identity_map,
    is_partial_isometry,
    is_triple_hom,
    preserves_compat_sampled,
    scale_map,
    transpose_map,
)
from .relations import (
    CompatKind,
    _gated,
    _orth_reports,
    _p00_reports,
    _star_norms,
    _tripotent_reports,
    commutative_compat_check,
)
from .sampling import (
    _STACK_MAX,
    PairGenerator,
    PairStrategy,
    known_witness_pairs,
    rand_contraction,
    rand_hermitian_contraction,
    rand_partial_isometry,
    rand_unitary,
    sample_general_pair,
    sample_positive_pair,
)
from .tolerance import DEFAULT_TOL, ToleranceConfig

__all__ = ["SuiteResult", "run_all_suites", "shapes_for_dims"]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    trials: int
    failures: int
    indeterminate: int
    worst_defect: float
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "suite": self.name,
            "trials": self.trials,
            "failures": self.failures,
            "indeterminate": self.indeterminate,
            "worst_defect": self.worst_defect,
            "passed": self.passed,
            "note": self.note,
        }


def shapes_for_dims(dims: list[int]) -> list[AlgebraShape]:
    """One single-block algebra per dim, plus their direct sum when several
    dims are given (exercises genuinely block-diagonal elements)."""
    shapes = [AlgebraShape((d,)) for d in dims]
    if len(dims) > 1:
        shapes.append(AlgebraShape(tuple(dims)))
    return shapes


def _cycle(shapes: list[AlgebraShape], i: int) -> AlgebraShape:
    return shapes[i % len(shapes)]


def _tally(name: str, checks, note: str = "") -> SuiteResult:
    """One row from per-trial ``(defect, failures)`` pairs: the trial count,
    the summed failures and the worst defect, never below 0."""
    checks = list(checks)
    fails = sum(int(failed) for _, failed in checks)
    worst = max([0.0] + [defect for defect, _ in checks])
    return SuiteResult(name, len(checks), fails, 0, worst, fails == 0, note)


# ---------------------------------------------------------------------------
# core linear algebra invariants
# ---------------------------------------------------------------------------


def suite_linalg_invariants(
    seed: int, trials: int, tol: ToleranceConfig = DEFAULT_TOL
) -> list[SuiteResult]:
    rng = np.random.default_rng(seed)

    def rand_square(n):
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    def functional_calculus():
        for _ in range(trials):
            g = rand_square(int(rng.integers(1, 7)))
            a = (g + g.conj().T) / 2.0
            d = op_norm(apply_function(a, lambda t: t, tol) - a)
            yield d, d > 1e-9 * max(1.0, op_norm(a))

    def abs_idempotence():
        for i in range(trials):
            n = int(rng.integers(1, 7))
            kind = i % 3
            if kind == 0:
                m = rand_square(n)
            elif kind == 1:
                q, _ = np.linalg.qr(rand_square(n))
                k = int(rng.integers(0, n + 1))
                m = q[:, :k] @ q[:, :k].conj().T  # projection
            else:
                m = np.diag(rng.uniform(0, 2, n)).astype(np.complex128)
            p = abs_value(m)
            d = op_norm(abs_value(p) - p)
            yield d, d > tol.relation * max(1.0, op_norm(p))

    def polar_reconstruction():
        for i in range(trials):
            n = int(rng.integers(1, 7))
            m = rand_square(n)
            if i % 3 == 0 and n > 1:  # include rank-deficient inputs
                m[:, 0] = m[:, -1]
            dec = polar(m, tol=tol)
            u, av = dec.partial_isometry, dec.absolute_value
            d = max(
                op_norm(u @ av - m),
                op_norm(u @ u.conj().T @ u - u),
                op_norm(u.conj().T @ u - range_projection(av, tol=tol)),
            )
            yield d, d > 1e-8 * max(1.0, op_norm(m))

    def submultiplicativity():
        for _ in range(trials):
            n = int(rng.integers(1, 7))
            x, y = rand_square(n), rand_square(n)
            excess = op_norm(x @ y) - op_norm(x) * op_norm(y)
            yield excess, excess > 1e-9

    def cstar_identity():
        for _ in range(trials):
            x = rand_square(int(rng.integers(1, 7)))
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


# ---------------------------------------------------------------------------
# algebra product identities
# ---------------------------------------------------------------------------

# name and failure bound of each identity, in the order of the defects below
_PRODUCT_IDENTITIES = (
    ("jordan commutativity (exact)", 0.0),
    ("triple outer symmetry", 1e-12),
    ("triple middle conjugate-linearity", 1e-12),
    ("hermitian triple cube", 1e-10),
)


def suite_algebra_products(
    seed: int, trials: int, shapes: list[AlgebraShape],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> list[SuiteResult]:
    rng = np.random.default_rng(seed)
    defects = []
    for i in range(trials):
        shape = _cycle(shapes, i)
        a, b, c = (rand_contraction(rng, shape) for _ in range(3))
        h = rand_hermitian_contraction(rng, shape)
        defects.append([op_norm(x.matrix) for x in (
            jordan(a, b) - jordan(b, a),
            triple(a, b, c) - triple(c, b, a),
            triple(a, 1j * b, c) + 1j * triple(a, b, c),
            triple(h, h, h) - h @ h @ h,
        )])
    return [
        _tally(name, ((row[k], row[k] > bound) for row in defects))
        for k, (name, bound) in enumerate(_PRODUCT_IDENTITIES)
    ]


# ---------------------------------------------------------------------------
# relation invariants and characterizations
# ---------------------------------------------------------------------------


def _in_stacks(trials, judge):
    """``judge(shape, *stacks)`` of each trial (a tuple of operands of one shape)
    in draw order, ``_STACK_MAX`` trials at a time; judging draws nothing."""
    trials = iter(trials)
    while chunk := list(islice(trials, _STACK_MAX)):
        results = [None] * len(chunk)
        for shape in dict.fromkeys(trial[0].shape for trial in chunk):
            index = [i for i, trial in enumerate(chunk) if trial[0].shape == shape]
            stacks = (np.stack([chunk[i][j].matrix for i in index])
                      for j in range(len(chunk[0])))
            for i, result in zip(index, judge(shape, *stacks)):
                results[i] = result
        yield from results


def suite_relation_invariants(
    seed: int, trials: int, shapes: list[AlgebraShape],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> list[SuiteResult]:
    rng = np.random.default_rng(seed)
    t = tol.relation

    def pairs(draw):
        return (draw(_cycle(shapes, i)) for i in range(trials))

    def symmetry(shape, a, b):
        # one trial per pair, one failure per kind whose defects differ; the
        # FULL defect is the max of the DOMAIN and RANGE ones, so its
        # difference is at most theirs and is not compared again
        ab, ba = (_gated(x, y, shape, CompatKind.FULL, tol)[0].sides
                  for x, y in ((a, b), (b, a)))
        diffs = zip(*(np.abs(ab[kind] - ba[kind]).tolist()
                      for kind in (CompatKind.DOMAIN, CompatKind.RANGE)))
        return [(max(d), sum(x > 1e-12 for x in d)) for d in diffs]

    def adjoint_duality(shape, a, b):
        lhs = _gated(a, b, shape, CompatKind.DOMAIN, tol)[0].defect <= t
        a, b = (x.conj().swapaxes(-1, -2) for x in (a, b))
        rhs = _gated(a, b, shape, CompatKind.RANGE, tol)[0].defect <= t
        return [(0.0, failed) for failed in (lhs != rhs).tolist()]

    def orthogonal_pairs(shape, a, b):
        # a draw that is not orthogonal breaks the construction: it fails unjudged
        orth = np.maximum(*_star_norms(a, b)) <= t
        defects = np.zeros(len(a))
        if orth.any():
            defects[orth] = _gated(a[orth], b[orth], shape, CompatKind.FULL, tol)[0].defect
        return [(d, d > t) if ok else (0.0, True)
                for ok, d in zip(orth.tolist(), defects.tolist())]

    gen = PairGenerator(PairStrategy.ORTHOGONAL, seed ^ 0x0F0F0F0F)
    return [
        _tally("compat symmetry", _in_stacks(
            pairs(lambda shape: sample_general_pair(rng, shape)), symmetry)),
        _tally("adjoint duality of verdicts", _in_stacks(
            pairs(lambda shape: sample_general_pair(rng, shape)), adjoint_duality)),
        _tally("orthogonality implies compatibility", _in_stacks(
            pairs(gen.draw), orthogonal_pairs)),
    ]


def _consistency_battery(name: str, trials: int, reports) -> SuiteResult:
    """Failures are reports with a disagreeing clause; reports with an
    indeterminate clause may make up at most 1% of the trials."""
    fails = indet = 0
    worst = 0.0
    for report in reports:
        fails += not report.consistent
        indet += report.consistent and any(c.indeterminate for c in report.clauses)
        worst = max([worst] + [s.defect for c in report.clauses for s in c.sides
                               if not s.verdict])
    passed = fails == 0 and indet <= 0.01 * trials
    return SuiteResult(name, trials, fails, indet, worst, passed)


def suite_orth_characterization(
    seed: int, trials: int, shapes: list[AlgebraShape],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> SuiteResult:
    rng = np.random.default_rng(seed)
    pairs = (sample_general_pair(rng, _cycle(shapes, i)) for i in range(trials))
    reports = _in_stacks(pairs, lambda shape, a, b: _orth_reports(a, b, shape, tol))
    return _consistency_battery("orthogonality characterization", trials, reports)


def suite_p00_equivalences(
    seed: int, trials: int, shapes: list[AlgebraShape],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> SuiteResult:
    rng = np.random.default_rng(seed)
    pairs = (sample_positive_pair(rng, _cycle(shapes, i)) for i in range(trials))
    reports = _in_stacks(pairs, lambda shape, a, b: _p00_reports(a, b, shape, tol))
    return _consistency_battery("jordan-product equivalences", trials, reports)


def suite_tripotent_characterization(
    seed: int, trials: int, shapes: list[AlgebraShape],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> SuiteResult:
    """``trials`` random contractions, then max(1, trials // 10) exact and as
    many 0.9-scaled partial isometries; any verdict disagreement
    (indeterminate included) counts as a failure."""
    rng = np.random.default_rng(seed)
    n_isometries = max(1, trials // 10)
    stream = chain(
        (rand_contraction(rng, _cycle(shapes, i)) for i in range(trials)),
        (rand_partial_isometry(rng, _cycle(shapes, i)) for i in range(n_isometries)),
        (0.9 * rand_partial_isometry(rng, _cycle(shapes, i)) for i in range(n_isometries)),
    )
    reports = _in_stacks(((a,) for a in stream),
                         lambda shape, a: _tripotent_reports(a, shape, tol))
    return _tally("tripotent characterization",
                  ((min(s.defect for s in r.clauses[0].sides), not r.clauses[0].agree)
                   for r in reports),
                  note=f"{trials} random + 2x{n_isometries} isometries")


def suite_commutative_crosscheck(
    seed: int, trials: int, tol: ToleranceConfig = DEFAULT_TOL
) -> SuiteResult:
    """Pointwise characterization vs the defining identity on diagonals of
    length 1 to 8: verdicts must agree exactly."""
    rng = np.random.default_rng(seed)

    def checks():
        for _ in range(trials):
            n = int(rng.integers(1, 9))
            f = np.zeros(n, dtype=np.complex128)
            g = np.zeros(n, dtype=np.complex128)
            for t in range(n):
                case = int(rng.integers(0, 6))
                phase = lambda: np.exp(2j * np.pi * rng.uniform())
                if case == 0:
                    f[t] = rng.uniform() * phase()
                elif case == 1:
                    g[t] = rng.uniform() * phase()
                elif case == 2:
                    f[t], g[t] = phase(), rng.uniform() * phase()
                elif case == 3:
                    f[t], g[t] = rng.uniform() * phase(), phase()
                elif case == 4:
                    f[t], g[t] = rng.uniform() * phase(), rng.uniform() * phase()
                # case 5: both zero
            pointwise = commutative_compat_check(f, g, tol)
            identity = pointwise.witnesses["identity_defect"] <= tol.relation
            yield 0.0, pointwise.verdict != identity

    return _tally("commutative cross-validation", checks())


# ---------------------------------------------------------------------------
# preserver suites
# ---------------------------------------------------------------------------


def _built_triple_homs(
    rng: np.random.Generator, dims: list[int], tol: ToleranceConfig
) -> list[tuple[str, LinearMap]]:
    """The structural preserver zoo on the dims-derived shapes."""
    maps: list[tuple[str, LinearMap]] = []
    for d in dims:
        shape = AlgebraShape((d,))
        w = rand_unitary(rng, shape).blocks()[0]
        maps.append((f"star-hom conjugation M{d}", build_star_hom(
            shape, shape, [0], [w], tol)))
        maps.append((f"star-anti-hom M{d}", build_star_anti_hom(
            shape, shape, [0], [w], tol)))
        maps.append((f"transpose M{d}", transpose_map(shape)))
        u, v = rand_unitary(rng, shape), rand_unitary(rng, shape)
        maps.append((f"sandwich M{d}", build_sandwich(u, v, tol)))
        doubled = AlgebraShape((d, d))
        maps.append((f"doubling hom M{d}", build_star_hom(
            shape, doubled, [0, 0], None, tol)))
    if len(dims) > 1:
        shape = AlgebraShape(tuple(dims))
        flags = [bool(i % 2) for i in range(shape.num_blocks)]
        maps.append(("mixed hom/anti-hom blocks", build_block_map(
            shape, shape, list(range(shape.num_blocks)), flags, None, tol)))
        maps.append(("direct-sum identity", identity_map(shape)))
    return maps


def suite_preservers(
    seed: int, n_pairs: int, dims: list[int],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> list[SuiteResult]:
    rng = np.random.default_rng(seed)
    maps = _built_triple_homs(rng, dims, tol)

    # every built triple hom is one (small defects), its unit image is a
    # partial isometry, and it preserves full compatibility
    hom_checks, unit_checks = [], []
    passing_hom_defects = []
    violations, worst_out = 0, 0.0
    for i, (_, tmap) in enumerate(maps):
        hom_defect = is_triple_hom(tmap, tol).defect
        hom_checks.append((hom_defect, hom_defect > 1e-9))

        e = tmap.apply(unit(tmap.domain_shape))
        pi_defect = is_partial_isometry(e, tol).defect
        unit_checks.append((pi_defect, pi_defect > 1e-9))

        audit = preserves_compat_sampled(tmap, CompatKind.FULL, n_pairs, seed + 101 * i, tol)
        violations += audit.violations
        worst_out = max(worst_out, audit.max_output_defect)
        if audit.verdict:
            passing_hom_defects.append(hom_defect)
    # report only: how far from a triple hom a map passing the audit can be
    worst_cal = max(passing_hom_defects, default=0.0)
    results = [
        _tally("builders are triple homomorphisms", hom_checks),
        _tally("unit image is a partial isometry", unit_checks),
        SuiteResult("triple homs preserve compatibility", n_pairs * len(maps), violations, 0,
                    worst_out, violations == 0, note=f"{len(maps)} maps"),
        SuiteResult("preservation vs triple-hom calibration",
                    len(passing_hom_defects), 0, 0, worst_cal, True,
                    note="max triple-hom defect among maps passing preservation "
                         "(report only)"),
    ]

    # anti-homomorphisms swap domain and range compatibility
    swap_violations, worst_swap = 0, 0.0
    for i, d in enumerate(dims):
        shape = AlgebraShape((d,))
        w = rand_unitary(rng, shape).blocks()[0]
        anti = build_star_anti_hom(shape, shape, [0], [w], tol)
        for in_kind, out_kind in (
            (CompatKind.DOMAIN, CompatKind.RANGE),
            (CompatKind.RANGE, CompatKind.DOMAIN),
        ):
            audit = preserves_compat_sampled(
                anti, in_kind, n_pairs, seed + 977 * i, tol, output_kind=out_kind)
            swap_violations += audit.violations
            worst_swap = max(worst_swap, audit.max_output_defect)
    results.append(SuiteResult("anti-homs swap domain/range compatibility",
                               2 * n_pairs * len(dims), swap_violations, 0, worst_swap,
                               swap_violations == 0))

    # symmetric triple homs factor through a Jordan *-homomorphism
    sym_maps = []
    for d in dims:
        shape = AlgebraShape((d,))
        w = rand_unitary(rng, shape).blocks()[0]
        sym_maps.append(build_star_hom(shape, shape, [0], [w], tol))
        sym_maps.append(build_star_anti_hom(shape, shape, [0], [w], tol))
        u = rand_unitary(rng, shape)
        sym_maps.append(build_sandwich(u, adjoint(u), tol))

    def factorizations():
        for tmap in sym_maps:
            e = tmap.apply(unit(tmap.domain_shape))
            e_star = adjoint(e)
            for _ in range(10):
                x = rand_hermitian_contraction(rng, tmap.domain_shape)
                phi_x = e_star @ tmap.apply(x)
                phi_x2 = e_star @ tmap.apply(x @ x)
                d_sq = op_norm((phi_x2 - phi_x @ phi_x).matrix)
                d_fac = op_norm((tmap.apply(x) - e @ phi_x).matrix)
                yield max(d_sq, d_fac), (d_sq > 1e-8) or (d_fac > 1e-10)

    results.append(_tally("symmetric factorization through e* T", factorizations()))
    return results


def suite_fuzz_regressions(
    seed: int, budget: int = 1000, tol: ToleranceConfig = DEFAULT_TOL
) -> SuiteResult:
    """Pinned 2x2 regressions: the transpose and the half-scaling map must be
    refuted inside the seeded-witness prefix; a *-homomorphism must survive
    the whole budget."""
    shape = AlgebraShape((2,))
    fails = 0
    notes = []

    w = fuzz_counterexample(transpose_map(shape), CompatKind.DOMAIN, budget, seed, tol)
    if w is None or w.source != "crossed_isometries_2x2" or w.index != 1 \
            or abs(w.output_defect - (np.sqrt(2.0) - 1.0)) > 1e-8:
        fails += 1
        notes.append("transpose witness missing/wrong")

    w = fuzz_counterexample(scale_map(shape, 0.5), CompatKind.DOMAIN, budget, seed, tol)
    if w is None or w.index >= len(known_witness_pairs(shape)):
        fails += 1
        notes.append("half-map witness not in seeded prefix")

    hom = build_star_hom(shape, AlgebraShape((2, 2)), [0, 0], None, tol)
    w = fuzz_counterexample(hom, CompatKind.FULL, budget, seed, tol)
    if w is not None:
        fails += 1
        notes.append(f"false positive on a star-hom at index {w.index}")

    return SuiteResult("counterexample fuzzing regressions", 3, fails, 0, 0.0,
                       fails == 0, note="; ".join(notes))


def suite_classification(
    seed: int, tol: ToleranceConfig = DEFAULT_TOL
) -> SuiteResult:
    rng = np.random.default_rng(seed)
    shape2, shape22 = AlgebraShape((2,)), AlgebraShape((2, 2))
    w = rand_unitary(rng, shape2).blocks()[0]
    cases = [  # (map, hom blocks, anti-hom blocks, note on failure)
        (transpose_map(shape2), set(), {0}, "transpose should classify anti-homomorphic"),
        (build_star_hom(shape2, shape2, [0], [w], tol), {0}, set(),
         "star-hom should classify homomorphic"),
        (build_block_map(shape22, shape22, [0, 1], [False, True], None, tol), {0}, {1},
         "mixed map should split blocks 0/1"),
        (transpose_map(AlgebraShape((1, 1))), {0, 1}, set(),
         "one-dimensional blocks should default homomorphic"),
    ]
    notes = []
    for tmap, hom, anti, note in cases:
        cls = classify_triple_hom(tmap, tol)
        if (cls.hom_block_indices, cls.antihom_block_indices) != (hom, anti):
            notes.append(note)
    return SuiteResult("triple-hom classification", 4, len(notes), 0, 0.0,
                       not notes, note="; ".join(notes))


def suite_determinism(
    seed: int, tol: ToleranceConfig = DEFAULT_TOL
) -> SuiteResult:
    """Identical seeds reproduce identical verdicts and witnesses."""
    shape = AlgebraShape((2,))
    fails = 0

    runs = []
    for _ in range(2):
        w = fuzz_counterexample(transpose_map(shape), CompatKind.DOMAIN, 50, seed, tol)
        # a missing witness fails the fuzzing regressions; here only replay counts
        runs.append(None if w is None else
                    (w.index, w.source, w.output_defect, w.a.matrix.tobytes()))
    fails += runs[0] != runs[1]

    reports = []
    for _ in range(2):
        rep = preserves_compat_sampled(identity_map(shape), CompatKind.FULL, 25, seed, tol)
        reports.append((rep.verdict, rep.violations, rep.max_output_defect))
    fails += reports[0] != reports[1]

    return SuiteResult("deterministic replay", 2, fails, 0, 0.0, fails == 0)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def run_all_suites(
    dims: list[int],
    trials: int,
    seed: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> list[SuiteResult]:
    if not dims or any(d < 1 for d in dims):
        raise ValueError("dims must be a nonempty list of positive integers")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    shapes = shapes_for_dims(dims)
    ss = np.random.SeedSequence(seed).generate_state(16)
    s = [int(x) for x in ss]
    preserver_pairs = max(10, trials // 4)

    results: list[SuiteResult] = []
    results += suite_linalg_invariants(s[0], trials, tol)
    results += suite_algebra_products(s[1], trials, shapes, tol)
    results += suite_relation_invariants(s[2], trials, shapes, tol)
    results.append(suite_orth_characterization(s[3], trials, shapes, tol))
    results.append(suite_p00_equivalences(s[4], trials, shapes, tol))
    results.append(suite_tripotent_characterization(s[5], trials, shapes, tol))
    results.append(suite_commutative_crosscheck(s[6], trials, tol))
    results += suite_preservers(s[7], preserver_pairs, dims, tol)
    results.append(suite_fuzz_regressions(s[8], max(trials, 50), tol))
    results.append(suite_classification(s[9], tol))
    results.append(suite_determinism(s[10], tol))
    return results
