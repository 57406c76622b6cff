"""Property suites: randomized batteries exercising every invariant and
characterization, used by the ``verify-suite`` command and the acceptance
tests. Each suite returns a SuiteResult with trial counts, failures,
indeterminate (near-threshold) counts and the worst defect observed.
``_tally`` builds each row but the consistency batteries' and the audit
rows; a fixed-case row (``_fixed_cases``) counts each case as one check
with defect 0, and its note joins the failed cases' notes.

Every randomized battery (linear-algebra invariants, the triple product's
conjugate-linearity, relation invariants, the characterizations and the
commutative cross-check) draws its trials as pages of at most ``_STACK_MAX``
trials of one shape (``_in_pages``), as the pair stream does; a battery that
draws a size per trial draws every size in one call first. The preserver
rows audit one zoo of triple homs, built once; the factorization row draws
each map's samples as one page and maps them with one matrix-vector product
per sample, as ``LinearMap.apply`` does.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .algebra import AlgebraShape, _triple, adjoint, unit
from .linalg import (_abs_parts, _adj, _calculus, _diag, _hermitize, _op_norm, _polar,
                     _range_projection)
from .preservers import (
    LinearMap,
    Provenance,
    _check_map_shapes,
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
    _commutative_defects,
    _gated,
    _orth_reports,
    _p00_reports,
    _star_norms,
    _tripotent_reports,
)
from .sampling import (
    _STACK_MAX,
    _by_key,
    _contraction_draw,
    _diagonal_draw,
    _drawing,
    _elements,
    _fixed_pairs,
    _general_pair,
    _hermitian_contraction_draw,
    _ints,
    _orthogonal_draw,
    _pair,
    _partial_isometry_draw,
    _picked,
    _positive_pair,
    rand_unitary,
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
        payload = asdict(self)
        payload["suite"] = payload.pop("name")
        return payload


def shapes_for_dims(dims: list[int]) -> list[AlgebraShape]:
    """One single-block algebra per dim, plus their direct sum when several
    dims are given (exercises genuinely block-diagonal elements)."""
    shapes = [AlgebraShape((d,)) for d in dims]
    if len(dims) > 1:
        shapes.append(AlgebraShape(tuple(dims)))
    return shapes


def _in_pages(rng: np.random.Generator, shapes: list[AlgebraShape], on, recipes, judge,
              by: list[int] | None = None) -> list:
    """``judge(shape, *stacks)`` of every trial, in page order: trial i is on
    ``shapes[on[i]]`` (the shapes in turn: ``arange(trials) % len(shapes)``) and
    draws the page recipe ``recipes[by[i]]`` (by None: ``recipes[0]``). Shape by
    shape in index order, the shape's trials make pages of at most
    ``_STACK_MAX`` rows; each recipe's rows of a page, in recipe order, take
    their draws and build their stacks (``_picked``), then the page is judged."""
    results, on = [], np.asarray(on)
    for s in sorted(set(on.tolist())):
        trials = np.flatnonzero(on == s)
        for page in np.split(trials, range(_STACK_MAX, len(trials), _STACK_MAX)):
            keys = [0] * len(page) if by is None else [by[i] for i in page.tolist()]
            results += judge(shapes[s], *_picked(rng, shapes[s], recipes, len(page), keys)[1])
    return results


def _tally(name: str, checks, note: str = "") -> SuiteResult:
    """One row from per-trial ``(defect, failures)`` pairs: the trial count,
    the summed failures and the worst defect, never below 0."""
    checks = list(checks)
    fails = sum(int(failed) for _, failed in checks)
    worst = max([0.0] + [defect for defect, _ in checks])
    return SuiteResult(name, len(checks), fails, 0, worst, fails == 0, note)


def _fixed_cases(name: str, cases: list[tuple[bool, str]]) -> SuiteResult:
    """The ``_tally`` row of fixed ``(failed, note)`` cases."""
    return _tally(name, [(0.0, failed) for failed, _ in cases],
                  "; ".join(note for failed, note in cases if failed))


# ---------------------------------------------------------------------------
# core linear algebra invariants
# ---------------------------------------------------------------------------


def _square_draw(rng: np.random.Generator, n: int, count: int, deficient: bool = False):
    """n x n matrices with standard normal real and imaginary parts; a
    ``deficient`` one has its last column copied onto its first."""
    z = rng.standard_normal((count, 2, n, n))
    m = z[:, 0] + 1j * z[:, 1]
    if deficient:
        m[..., 0] = m[..., -1]
    return (m,)


def _qr_projection_draw(rng: np.random.Generator, n: int, count: int):
    """The projection onto the first k columns (k drawn after the matrix) of
    the QR factor of a ``_square_draw`` matrix."""
    q = np.linalg.qr(_square_draw(rng, n, count)[0])[0]
    return _by_key(_qr_projection_build, _ints(rng, n + 1, count), q)


def _qr_projection_build(k, q):
    cols = q[..., :k]
    return (cols @ _adj(cols),)


def _uniform_diagonal_draw(rng: np.random.Generator, n: int, count: int):
    """Diagonal matrices of n uniform values in [0, 2)."""
    return (_diag(2.0 * rng.random((count, n))),)


def suite_linalg_invariants(
    seed: int, trials: int, tol: ToleranceConfig = DEFAULT_TOL
) -> list[SuiteResult]:
    rng, shapes = np.random.default_rng(seed), [AlgebraShape((n,)) for n in range(1, 7)]

    def squares(judge, *draws, by=None, outs=((0,),)):  # every size drawn in one call first
        recipes = [_drawing(*((draw, o) for o in outs)) for draw in draws]
        return _in_pages(rng, shapes, _ints(rng, 6, trials), recipes, judge, by)

    def functional_calculus(shape, g):
        a = _hermitize(g)
        d = _op_norm(_calculus(a, lambda t: t) - a).tolist()
        return [(x, x > 1e-9 * max(1.0, y)) for x, y in zip(d, _op_norm(a).tolist())]

    def abs_idempotence(shape, m):
        p = _abs_parts(m, range_=False)[0][0]
        d = _op_norm(_abs_parts(p, range_=False)[0][0] - p).tolist()
        return [(x, x > tol.relation * max(1.0, y)) for x, y in zip(d, _op_norm(p).tolist())]

    def polar_reconstruction(shape, m):
        u, av, _ = _polar(m, tol.rank)
        uh = _adj(u)
        rows = zip(*(_op_norm(x).tolist() for x in (
            u @ av - m, u @ uh @ u - u, uh @ u - _range_projection(av, tol.rank), m)))
        return [(max(d), max(d) > 1e-8 * max(1.0, norm)) for *d, norm in rows]

    def submultiplicativity(shape, x, y):
        excess = (_op_norm(x @ y) - _op_norm(x) * _op_norm(y)).tolist()
        return [(e, e > 1e-9) for e in excess]

    def cstar_identity(shape, x):
        rows = zip(_op_norm(_adj(x) @ x).tolist(), _op_norm(x).tolist())
        return [(d, d > 1e-8) for d in (abs(lhs - n ** 2) / max(1.0, n ** 2) for lhs, n in rows)]

    thirds = [i % 3 for i in range(trials)]
    # each battery drains the shared stream before the next one starts
    return [
        _tally("functional-calculus identity", squares(functional_calculus, _square_draw)),
        _tally("abs-value idempotence", squares(abs_idempotence, _square_draw,
                                                _qr_projection_draw, _uniform_diagonal_draw,
                                                by=thirds)),
        _tally("polar reconstruction", squares(  # every third input is rank deficient
            polar_reconstruction, partial(_square_draw, deficient=True), _square_draw,
            by=[min(i, 1) for i in thirds])),
        _tally("operator-norm submultiplicativity",
               squares(submultiplicativity, _square_draw, outs=((0,), (1,)))),
        _tally("c-star norm identity", squares(cstar_identity, _square_draw)),
    ]


# ---------------------------------------------------------------------------
# algebra product identities
# ---------------------------------------------------------------------------


def suite_algebra_products(
    seed: int, trials: int, shapes: list[AlgebraShape],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> SuiteResult:
    """{a, i b, c} = -i {a, b, c} on random contractions. The outer symmetry
    of the triple product, the commutativity of the Jordan product and
    {h, h, h} = h^3 for Hermitian h hold by the formulas' float arithmetic,
    so no draw could fail them; tests pin them instead."""
    rng = np.random.default_rng(seed)

    def conjugate_linearity(shape, a, b, c):
        defects = _op_norm(_triple(a, 1j * b, c) + 1j * _triple(a, b, c)).tolist()
        return [(d, d > 1e-12) for d in defects]

    operands = _drawing(*((_contraction_draw, (i,)) for i in range(3)))
    return _tally("triple middle conjugate-linearity", _in_pages(
        rng, shapes, np.arange(trials) % len(shapes), [operands], conjugate_linearity))


# ---------------------------------------------------------------------------
# relation invariants and characterizations
# ---------------------------------------------------------------------------


def suite_relation_invariants(
    seed: int, trials: int, shapes: list[AlgebraShape],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> list[SuiteResult]:
    rng = np.random.default_rng(seed)
    t = tol.relation
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
        a, b = _adj(a), _adj(b)
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

    orth_rng, on = np.random.default_rng(seed ^ 0x0F0F0F0F), np.arange(trials) % len(shapes)
    return [
        _tally("compat symmetry", _in_pages(rng, shapes, on, [_general_pair], symmetry)),
        _tally("adjoint duality of verdicts",
               _in_pages(rng, shapes, on, [_general_pair], adjoint_duality)),
        _tally("orthogonality implies compatibility", _in_pages(
            orth_rng, shapes, on, [_pair(_orthogonal_draw)], orthogonal_pairs)),
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
    reports = _in_pages(np.random.default_rng(seed), shapes, np.arange(trials) % len(shapes),
                        [_general_pair], lambda shape, a, b: _orth_reports(a, b, shape, tol))
    return _consistency_battery("orthogonality characterization", trials, reports)


def suite_p00_equivalences(
    seed: int, trials: int, shapes: list[AlgebraShape],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> SuiteResult:
    reports = _in_pages(np.random.default_rng(seed), shapes, np.arange(trials) % len(shapes),
                        [_positive_pair], lambda shape, a, b: _p00_reports(a, b, shape, tol))
    return _consistency_battery("jordan-product equivalences", trials, reports)


def suite_tripotent_characterization(
    seed: int, trials: int, shapes: list[AlgebraShape],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> SuiteResult:
    """``trials`` random contractions, then max(1, trials // 10) exact and as
    many 0.9-scaled partial isometries; any verdict disagreement
    (indeterminate included) counts as a failure."""
    n_isometries = max(1, trials // 10)
    counts = (trials, n_isometries, n_isometries)
    recipes = [_drawing((draw, (0,))) for draw in (
        _contraction_draw, _partial_isometry_draw, partial(_partial_isometry_draw, scale=0.9))]
    reports = _in_pages(np.random.default_rng(seed), shapes,
                        np.concatenate([np.arange(c) % len(shapes) for c in counts]), recipes,
                        lambda shape, a: _tripotent_reports(a, shape, tol),
                        by=[r for r, count in enumerate(counts) for _ in range(count)])
    return _tally("tripotent characterization",
                  ((min(s.defect for s in r.clauses[0].sides), not r.clauses[0].agree)
                   for r in reports),
                  note=f"{trials} random + 2x{n_isometries} isometries")


# the compatible coordinates of the pair strategy, and both in the disk ("dd")
_coordinate_pair_draw = _diagonal_draw("d0", "0d", "cd", "dc", "dd", "00")


def suite_commutative_crosscheck(
    seed: int, trials: int, tol: ToleranceConfig = DEFAULT_TOL
) -> SuiteResult:
    """Pointwise characterization vs the defining identity on diagonals of
    length 1 to 8: verdicts must agree exactly. A disagreement outside the
    near-threshold band also raises a CrossCheckMismatch warning."""
    rng = np.random.default_rng(seed)

    def agreement(shape, a, b):
        return [(0.0, split) for split in _commutative_defects(a, b, tol)[2].tolist()]

    lengths = [AlgebraShape((n,)) for n in range(1, 9)]
    return _tally("commutative cross-validation", _in_pages(  # every length drawn first
        rng, lengths, _ints(rng, 8, trials), [_pair(_coordinate_pair_draw)], agreement))


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
    """Rows over the zoo of ``_built_triple_homs``: every map is a triple
    hom, its unit image is a partial isometry, it preserves full
    compatibility and it factors through e* T; its *-anti-homomorphisms swap
    domain and range compatibility."""
    rng = np.random.default_rng(seed)
    maps = [tmap for _, tmap in _built_triple_homs(rng, dims, tol)]

    hom_checks, unit_checks, factorizations = [], [], []
    violations, worst_out = 0, 0.0
    for i, tmap in enumerate(maps):
        hom_defect = is_triple_hom(tmap, tol).defect
        hom_checks.append((hom_defect, hom_defect > 1e-9))

        e = tmap.apply(unit(tmap.domain_shape))
        pi_defect = is_partial_isometry(e, tol).defect
        unit_checks.append((pi_defect, pi_defect > 1e-9))

        audit = preserves_compat_sampled(tmap, CompatKind.FULL, n_pairs, seed + 101 * i, tol)
        violations += audit.violations
        worst_out = max(worst_out, audit.max_output_defect)

        # any triple hom gives, for Hermitian x, e* T(x^2) = (e* T x)^2 and
        # T x = e e* T x: ten Hermitian contractions x per map
        x = _elements(rng, tmap.domain_shape, _hermitian_contraction_draw, 10)
        tx, e_star = tmap._apply_stack(x), adjoint(e).matrix
        phi, phi2 = e_star @ tx, e_star @ tmap._apply_stack(x @ x)
        rows = zip(_op_norm(phi2 - phi @ phi).tolist(), _op_norm(tx - e.matrix @ phi).tolist())
        factorizations += [(max(d_sq, d_fac), d_sq > 1e-8 or d_fac > 1e-10) for d_sq, d_fac in rows]

    anti_homs = [tmap for tmap in maps if tmap.provenance is Provenance.STAR_ANTI_HOM]
    swaps = [preserves_compat_sampled(anti, in_kind, n_pairs, seed + 977 * i, tol,
                                      output_kind=out_kind)
             for i, anti in enumerate(anti_homs)
             for in_kind, out_kind in ((CompatKind.DOMAIN, CompatKind.RANGE),
                                       (CompatKind.RANGE, CompatKind.DOMAIN))]
    swap_violations = sum(audit.violations for audit in swaps)

    return [
        _tally("builders are triple homomorphisms", hom_checks),
        _tally("unit image is a partial isometry", unit_checks),
        SuiteResult("triple homs preserve compatibility", n_pairs * len(maps), violations, 0,
                    worst_out, violations == 0, note=f"{len(maps)} maps"),
        SuiteResult("anti-homs swap domain/range compatibility", n_pairs * len(swaps),
                    swap_violations, 0, max((a.max_output_defect for a in swaps), default=0.0),
                    swap_violations == 0),
        _tally("factorization through e* T", factorizations),
    ]


def suite_fuzz_regressions(
    seed: int, budget: int = 1000, tol: ToleranceConfig = DEFAULT_TOL
) -> SuiteResult:
    """Pinned 2x2 regressions: the transpose and the half-scaling map must be
    refuted inside the prefix of fixed pairs compatible at domain kind; a
    *-homomorphism must survive the whole budget."""
    shape = AlgebraShape((2,))
    t = fuzz_counterexample(transpose_map(shape), CompatKind.DOMAIN, budget, seed, tol)
    half = fuzz_counterexample(scale_map(shape, 0.5), CompatKind.DOMAIN, budget, seed, tol)
    hom = build_star_hom(shape, AlgebraShape((2, 2)), [0, 0], None, tol)
    star = fuzz_counterexample(hom, CompatKind.FULL, budget, seed, tol)
    cases = [  # (failed, note)
        (t is None or t.source != "crossed_isometries_2x2" or t.index != 1
         or abs(t.output_defect - (np.sqrt(2.0) - 1.0)) > 1e-8,
         "transpose witness missing/wrong"),
        (half is None or half.index >= len(_fixed_pairs(shape, CompatKind.DOMAIN, tol)),
         "half-map witness not in seeded prefix"),
        (star is not None, f"false positive on a star-hom at index {getattr(star, 'index', None)}"),
    ]
    return _fixed_cases("counterexample fuzzing regressions", cases)


def suite_classification(
    seed: int, tol: ToleranceConfig = DEFAULT_TOL
) -> SuiteResult:
    rng = np.random.default_rng(seed)
    shape2, shape22 = AlgebraShape((2,)), AlgebraShape((2, 2))
    w = rand_unitary(rng, shape2).blocks()[0]
    expected = [  # (map, hom blocks, anti-hom blocks, note on failure)
        (transpose_map(shape2), set(), {0}, "transpose should classify anti-homomorphic"),
        (build_star_hom(shape2, shape2, [0], [w], tol), {0}, set(),
         "star-hom should classify homomorphic"),
        (build_block_map(shape22, shape22, [0, 1], [False, True], None, tol), {0}, {1},
         "mixed map should split blocks 0/1"),
        (transpose_map(AlgebraShape((1, 1))), {0, 1}, set(),
         "one-dimensional blocks should default homomorphic"),
    ]
    cases = []  # (failed, note)
    for tmap, hom, anti, note in expected:
        cls = classify_triple_hom(tmap, tol)
        cases.append(((cls.hom_block_indices, cls.antihom_block_indices) != (hom, anti), note))
    return _fixed_cases("triple-hom classification", cases)


def suite_determinism(
    seed: int, tol: ToleranceConfig = DEFAULT_TOL
) -> SuiteResult:
    """Identical seeds reproduce identical verdicts and witnesses."""
    shape = AlgebraShape((2,))
    witnesses, reports = [], []
    for _ in range(2):
        w = fuzz_counterexample(transpose_map(shape), CompatKind.DOMAIN, 50, seed, tol)
        # a missing witness fails the fuzzing regressions; here only replay counts
        witnesses.append(None if w is None else
                         (w.index, w.source, w.output_defect, w.a.matrix.tobytes()))
        rep = preserves_compat_sampled(identity_map(shape), CompatKind.FULL, 25, seed, tol)
        reports.append((rep.verdict, rep.violations, rep.max_output_defect))
    cases = [(witnesses[0] != witnesses[1], "fuzz witness differs on replay"),
             (reports[0] != reports[1], "audit report differs on replay")]
    return _fixed_cases("deterministic replay", cases)


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
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    # the preserver zoo's largest maps, before any battery runs
    _check_map_shapes(AlgebraShape((max(dims),) * 2), AlgebraShape(tuple(dims)))
    shapes = shapes_for_dims(dims)
    ss = np.random.SeedSequence(seed).generate_state(16)
    s = [int(x) for x in ss]
    preserver_pairs = max(10, trials // 4)

    results: list[SuiteResult] = []
    results += suite_linalg_invariants(s[0], trials, tol)
    results.append(suite_algebra_products(s[1], trials, shapes, tol))
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
