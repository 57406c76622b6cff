"""Property suites: randomized batteries exercising every invariant and
characterization, used by the ``verify-suite`` command and the acceptance
tests. Each suite returns a SuiteResult with trial counts, failures,
indeterminate (near-threshold) counts and the worst defect observed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraElement,
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
    check_orth_characterization,
    check_p00_equivalences,
    check_tripotent_characterization,
    commutative_compat_check,
    compat_defect,
    is_orthogonal,
)
from .sampling import (
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


# ---------------------------------------------------------------------------
# core linear algebra invariants
# ---------------------------------------------------------------------------


def suite_linalg_invariants(
    seed: int, trials: int, tol: ToleranceConfig = DEFAULT_TOL
) -> list[SuiteResult]:
    rng = np.random.default_rng(seed)
    results = []

    worst, fails = 0.0, 0
    for _ in range(trials):
        n = int(rng.integers(1, 7))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = (g + g.conj().T) / 2.0
        d = op_norm(apply_function(a, lambda t: t, tol) - a)
        bound = 1e-9 * max(1.0, op_norm(a))
        worst = max(worst, d)
        fails += d > bound
    results.append(SuiteResult("functional-calculus identity", trials, fails, 0,
                               worst, fails == 0))

    worst, fails = 0.0, 0
    for i in range(trials):
        n = int(rng.integers(1, 7))
        kind = i % 3
        if kind == 0:
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        elif kind == 1:
            q, _ = np.linalg.qr(rng.standard_normal((n, n))
                                + 1j * rng.standard_normal((n, n)))
            k = int(rng.integers(0, n + 1))
            m = q[:, :k] @ q[:, :k].conj().T  # projection
        else:
            m = np.diag(rng.uniform(0, 2, n)).astype(np.complex128)
        p = abs_value(m)
        d = op_norm(abs_value(p) - p)
        worst = max(worst, d)
        fails += d > tol.recon * max(1.0, op_norm(p))
    results.append(SuiteResult("abs-value idempotence", trials, fails, 0,
                               worst, fails == 0))

    worst, fails = 0.0, 0
    for i in range(trials):
        n = int(rng.integers(1, 7))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if i % 3 == 0 and n > 1:  # include rank-deficient inputs
            m[:, 0] = m[:, -1]
        dec = polar(m, tol=tol)
        u, av = dec.partial_isometry, dec.absolute_value
        d = max(
            op_norm(u @ av - m),
            op_norm(u @ u.conj().T @ u - u),
            op_norm(u.conj().T @ u - range_projection(av, tol=tol)),
        )
        worst = max(worst, d)
        fails += d > 1e-8 * max(1.0, op_norm(m))
    results.append(SuiteResult("polar reconstruction", trials, fails, 0,
                               worst, fails == 0))

    worst, fails = 0.0, 0
    for _ in range(trials):
        n = int(rng.integers(1, 7))
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        excess = op_norm(x @ y) - op_norm(x) * op_norm(y)
        worst = max(worst, excess)
        fails += excess > 1e-9
    results.append(SuiteResult("operator-norm submultiplicativity", trials, fails,
                               0, max(worst, 0.0), fails == 0))

    worst, fails = 0.0, 0
    for _ in range(trials):
        n = int(rng.integers(1, 7))
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lhs, rhs = op_norm(x.conj().T @ x), op_norm(x) ** 2
        d = abs(lhs - rhs) / max(1.0, rhs)
        worst = max(worst, d)
        fails += d > 1e-8
    results.append(SuiteResult("c-star norm identity", trials, fails, 0,
                               worst, fails == 0))
    return results


# ---------------------------------------------------------------------------
# algebra product identities
# ---------------------------------------------------------------------------


def suite_algebra_products(
    seed: int, trials: int, shapes: list[AlgebraShape],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> list[SuiteResult]:
    rng = np.random.default_rng(seed)
    w_comm = w_sym = w_conj = w_cube = 0.0
    f_comm = f_sym = f_conj = f_cube = 0
    for i in range(trials):
        shape = _cycle(shapes, i)
        a = rand_contraction(rng, shape)
        b = rand_contraction(rng, shape)
        c = rand_contraction(rng, shape)

        d = op_norm((jordan(a, b) - jordan(b, a)).matrix)
        w_comm = max(w_comm, d)
        f_comm += d > 0.0

        d = op_norm((triple(a, b, c) - triple(c, b, a)).matrix)
        w_sym = max(w_sym, d)
        f_sym += d > 1e-12

        d = op_norm((triple(a, 1j * b, c) + 1j * triple(a, b, c)).matrix)
        w_conj = max(w_conj, d)
        f_conj += d > 1e-12

        h = rand_hermitian_contraction(rng, shape)
        d = op_norm((triple(h, h, h) - h @ h @ h).matrix)
        w_cube = max(w_cube, d)
        f_cube += d > 1e-10
    return [
        SuiteResult("jordan commutativity (exact)", trials, f_comm, 0, w_comm,
                    f_comm == 0),
        SuiteResult("triple outer symmetry", trials, f_sym, 0, w_sym, f_sym == 0),
        SuiteResult("triple middle conjugate-linearity", trials, f_conj, 0,
                    w_conj, f_conj == 0),
        SuiteResult("hermitian triple cube", trials, f_cube, 0, w_cube,
                    f_cube == 0),
    ]


# ---------------------------------------------------------------------------
# relation invariants and characterizations
# ---------------------------------------------------------------------------


def suite_relation_invariants(
    seed: int, trials: int, shapes: list[AlgebraShape],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> list[SuiteResult]:
    rng = np.random.default_rng(seed)
    results = []

    worst, fails = 0.0, 0
    for i in range(trials):
        shape = _cycle(shapes, i)
        a, b = sample_general_pair(rng, shape)
        for kind in CompatKind:
            d = abs(
                compat_defect(a, b, kind, tol).defect
                - compat_defect(b, a, kind, tol).defect
            )
            worst = max(worst, d)
            fails += d > 1e-12
    results.append(SuiteResult("compat symmetry", trials, fails, 0, worst,
                               fails == 0))

    fails = 0
    for i in range(trials):
        shape = _cycle(shapes, i)
        a, b = sample_general_pair(rng, shape)
        lhs = compat_defect(a, b, CompatKind.DOMAIN, tol).verdict
        rhs = compat_defect(adjoint(a), adjoint(b), CompatKind.RANGE, tol).verdict
        fails += lhs != rhs
    results.append(SuiteResult("adjoint duality of verdicts", trials, fails, 0,
                               0.0, fails == 0))

    worst, fails = 0.0, 0
    gen = PairGenerator(PairStrategy.ORTHOGONAL, seed ^ 0x0F0F0F0F)
    for i in range(trials):
        shape = _cycle(shapes, i)
        a, b = gen.draw(shape)
        if not is_orthogonal(a, b, tol).verdict:  # construction guarantee
            fails += 1
            continue
        d = compat_defect(a, b, CompatKind.FULL, tol).defect
        worst = max(worst, d)
        fails += d > tol.relation
    results.append(SuiteResult("orthogonality implies compatibility", trials,
                               fails, 0, worst, fails == 0))
    return results


def _consistency_battery(
    name: str, trials: int, reports, max_indeterminate_frac: float = 0.01
) -> SuiteResult:
    fails = indet = 0
    worst = 0.0
    for report in reports:
        any_indet = any(c.indeterminate for c in report.clauses)
        ok = all(c.agree or c.indeterminate for c in report.clauses)
        for c in report.clauses:
            for s in c.sides:
                worst = max(worst, s.defect if not s.verdict else 0.0)
        if not ok:
            fails += 1
        elif any_indet:
            indet += 1
    passed = fails == 0 and indet <= max_indeterminate_frac * trials
    return SuiteResult(name, trials, fails, indet, worst, passed)


def suite_orth_characterization(
    seed: int, trials: int, shapes: list[AlgebraShape],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> SuiteResult:
    rng = np.random.default_rng(seed)

    def reports():
        for i in range(trials):
            a, b = sample_general_pair(rng, _cycle(shapes, i))
            yield check_orth_characterization(a, b, tol)

    return _consistency_battery("orthogonality characterization", trials, reports())


def suite_p00_equivalences(
    seed: int, trials: int, shapes: list[AlgebraShape],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> SuiteResult:
    rng = np.random.default_rng(seed)

    def reports():
        for i in range(trials):
            a, b = sample_positive_pair(rng, _cycle(shapes, i))
            yield check_p00_equivalences(a, b, tol)

    return _consistency_battery("jordan-product equivalences", trials, reports())


def suite_tripotent_characterization(
    seed: int, trials: int, shapes: list[AlgebraShape],
    tol: ToleranceConfig = DEFAULT_TOL,
    n_isometries: int | None = None,
) -> SuiteResult:
    """Random contractions plus exact and 0.9-scaled partial isometries; any
    verdict disagreement (indeterminate included) counts as a failure."""
    rng = np.random.default_rng(seed)
    if n_isometries is None:
        n_isometries = max(1, trials // 10)
    stream: list[AlgebraElement] = []
    for i in range(trials):
        stream.append(rand_contraction(rng, _cycle(shapes, i)))
    for i in range(n_isometries):
        stream.append(rand_partial_isometry(rng, _cycle(shapes, i)))
    for i in range(n_isometries):
        stream.append(0.9 * rand_partial_isometry(rng, _cycle(shapes, i)))

    fails, worst = 0, 0.0
    for a in stream:
        report = check_tripotent_characterization(a, tol)
        clause = report.clauses[0]
        if not clause.agree:
            fails += 1
        worst = max(worst, min(s.defect for s in clause.sides))
    total = len(stream)
    return SuiteResult("tripotent characterization", total, fails, 0, worst,
                       fails == 0,
                       note=f"{trials} random + 2x{n_isometries} isometries")


def suite_commutative_crosscheck(
    seed: int, trials: int, max_omega: int = 8,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> SuiteResult:
    """Pointwise characterization vs the defining identity on diagonals:
    verdicts must agree exactly."""
    rng = np.random.default_rng(seed)
    fails = 0
    for _ in range(trials):
        n = int(rng.integers(1, max_omega + 1))
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
        oracle = compat_defect(
            AlgebraElement.single(np.diag(f)),
            AlgebraElement.single(np.diag(g)),
            CompatKind.DOMAIN,
            tol,
        )
        fails += pointwise.verdict != oracle.verdict
    return SuiteResult("commutative cross-validation", trials, fails, 0, 0.0,
                       fails == 0)


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
    results = []

    # every built triple hom is one (small defects), its unit image is a
    # partial isometry, and it preserves full compatibility
    worst_hom, fails_hom = 0.0, 0
    worst_unit, fails_unit = 0.0, 0
    violations, worst_out = 0, 0.0
    audited = 0
    # the fixed witness pairs and their input defects depend on the shape only
    seeds: dict[AlgebraShape, list] = {}
    for i, (label, tmap) in enumerate(maps):
        rep = is_triple_hom(tmap, tol)
        worst_hom = max(worst_hom, rep.defect)
        fails_hom += rep.defect > 1e-9

        e = tmap.apply(unit(tmap.domain_shape))
        pi = is_partial_isometry(e, tol)
        worst_unit = max(worst_unit, pi.defect)
        fails_unit += pi.defect > 1e-9

        gen = PairGenerator(PairStrategy.DIRECT_SUM_MIX, seed + 101 * i)
        shape = tmap.domain_shape
        if shape not in seeds:
            seeds[shape] = [
                (label_, a_, b_) for label_, a_, b_ in known_witness_pairs(shape)
                if compat_defect(a_, b_, CompatKind.FULL, tol).verdict
            ]
        audit = preserves_compat_sampled(
            tmap, CompatKind.FULL, gen, n_pairs, tol, seed_pairs=seeds[shape],
        )
        violations += audit.violations
        worst_out = max(worst_out, audit.max_output_defect)
        audited += audit.n_pairs
    results.append(SuiteResult("builders are triple homomorphisms", len(maps),
                               fails_hom, 0, worst_hom, fails_hom == 0))
    results.append(SuiteResult("unit image is a partial isometry", len(maps),
                               fails_unit, 0, worst_unit, fails_unit == 0))
    results.append(SuiteResult("triple homs preserve compatibility", audited,
                               violations, 0, worst_out, violations == 0,
                               note=f"{len(maps)} maps"))

    # anti-homomorphisms swap domain and range compatibility
    swap_violations, swap_audited, worst_swap = 0, 0, 0.0
    for i, d in enumerate(dims):
        shape = AlgebraShape((d,))
        w = rand_unitary(rng, shape).blocks()[0]
        anti = build_star_anti_hom(shape, shape, [0], [w], tol)
        for in_kind, out_kind in (
            (CompatKind.DOMAIN, CompatKind.RANGE),
            (CompatKind.RANGE, CompatKind.DOMAIN),
        ):
            gen = PairGenerator(PairStrategy.DIRECT_SUM_MIX, seed + 977 * i)
            audit = preserves_compat_sampled(
                anti, in_kind, gen, n_pairs, tol, output_kind=out_kind)
            swap_violations += audit.violations
            swap_audited += audit.n_pairs
            worst_swap = max(worst_swap, audit.max_output_defect)
    results.append(SuiteResult("anti-homs swap domain/range compatibility",
                               swap_audited, swap_violations, 0, worst_swap,
                               swap_violations == 0))

    # symmetric triple homs factor through a Jordan *-homomorphism
    worst_sq, worst_fac, fails_fac = 0.0, 0.0, 0
    sym_maps = []
    for d in dims:
        shape = AlgebraShape((d,))
        w = rand_unitary(rng, shape).blocks()[0]
        sym_maps.append(build_star_hom(shape, shape, [0], [w], tol))
        sym_maps.append(build_star_anti_hom(shape, shape, [0], [w], tol))
        u = rand_unitary(rng, shape)
        sym_maps.append(build_sandwich(u, adjoint(u), tol))
    n_checks = 0
    for tmap in sym_maps:
        e = tmap.apply(unit(tmap.domain_shape))
        e_star = adjoint(e)
        for _ in range(10):
            x = rand_hermitian_contraction(rng, tmap.domain_shape)
            phi_x = e_star @ tmap.apply(x)
            phi_x2 = e_star @ tmap.apply(x @ x)
            d_sq = op_norm((phi_x2 - phi_x @ phi_x).matrix)
            d_fac = op_norm((tmap.apply(x) - e @ phi_x).matrix)
            worst_sq = max(worst_sq, d_sq)
            worst_fac = max(worst_fac, d_fac)
            fails_fac += (d_sq > 1e-8) or (d_fac > 1e-10)
            n_checks += 1
    results.append(SuiteResult("symmetric factorization through e* T", n_checks,
                               fails_fac, 0, max(worst_sq, worst_fac),
                               fails_fac == 0))
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
    fails = 0
    notes = []

    shape2 = AlgebraShape((2,))
    cls = classify_triple_hom(transpose_map(shape2), tol)
    if cls.hom_block_indices != frozenset() or cls.antihom_block_indices != {0}:
        fails += 1
        notes.append("transpose should classify anti-homomorphic")

    w = rand_unitary(rng, shape2).blocks()[0]
    cls = classify_triple_hom(build_star_hom(shape2, shape2, [0], [w], tol), tol)
    if cls.hom_block_indices != {0} or cls.antihom_block_indices:
        fails += 1
        notes.append("star-hom should classify homomorphic")

    shape22 = AlgebraShape((2, 2))
    mixed = build_block_map(shape22, shape22, [0, 1], [False, True], None, tol)
    cls = classify_triple_hom(mixed, tol)
    if cls.hom_block_indices != {0} or cls.antihom_block_indices != {1}:
        fails += 1
        notes.append("mixed map should split blocks 0/1")

    one_dim = AlgebraShape((1, 1))
    cls = classify_triple_hom(transpose_map(one_dim), tol)
    if cls.hom_block_indices != {0, 1}:
        fails += 1
        notes.append("one-dimensional blocks should default homomorphic")

    return SuiteResult("triple-hom classification", 4, fails, 0, 0.0,
                       fails == 0, note="; ".join(notes))


def suite_determinism(
    seed: int, tol: ToleranceConfig = DEFAULT_TOL
) -> SuiteResult:
    """Identical seeds reproduce identical verdicts and witnesses."""
    shape = AlgebraShape((2,))
    fails = 0

    runs = []
    for _ in range(2):
        w = fuzz_counterexample(transpose_map(shape), CompatKind.DOMAIN, 50, seed, tol)
        runs.append((w.index, w.source, w.output_defect, w.a.matrix.tobytes()))
    fails += runs[0] != runs[1]

    reports = []
    for _ in range(2):
        gen = PairGenerator(PairStrategy.DIRECT_SUM_MIX, seed)
        rep = preserves_compat_sampled(
            identity_map(shape), CompatKind.FULL, gen, 25, tol)
        reports.append((rep.verdict, rep.violations, rep.max_output_defect))
    fails += reports[0] != reports[1]

    return SuiteResult("deterministic replay", 2, fails, 0, 0.0, fails == 0)


def suite_triplehom_calibration(
    seed: int, n_pairs: int, dims: list[int],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> SuiteResult:
    """Report-only experiment: for maps passing the sampled preservation
    audit, record the triple-homomorphism defect. Never asserted."""
    rng = np.random.default_rng(seed)
    rows = []
    for label, tmap in _built_triple_homs(rng, dims, tol):
        gen = PairGenerator(PairStrategy.DIRECT_SUM_MIX, seed)
        audit = preserves_compat_sampled(tmap, CompatKind.FULL, gen, n_pairs, tol)
        if audit.verdict:
            rows.append((label, is_triple_hom(tmap, tol).defect))
    worst = max((d for _, d in rows), default=0.0)
    note = "max triple-hom defect among maps passing preservation: " \
           f"{worst:.3g} over {len(rows)} maps (report only)"
    return SuiteResult("preservation vs triple-hom calibration", len(rows), 0, 0,
                       worst, True, note=note)


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
    results.append(suite_commutative_crosscheck(s[6], trials, 8, tol))
    results += suite_preservers(s[7], preserver_pairs, dims, tol)
    results.append(suite_fuzz_regressions(s[8], max(trials, 50), tol))
    results.append(suite_classification(s[9], tol))
    results.append(suite_determinism(s[10], tol))
    results.append(suite_triplehom_calibration(s[11], preserver_pairs, dims, tol))
    return results
