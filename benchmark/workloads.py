"""The benchmark's four workloads.

Each workload has three steps:

* ``prepare(seed, workdir)`` makes the raw inputs with the benchmark's own
  numpy RNG (arrays, map files). It calls no abscompat code and is not timed.
* ``build(lib, raw)`` turns them into program objects through the library's
  public functions (element construction, builders, ``load_map``). This is
  the timed set-up.
* ``ops(lib, built)`` lists one round: every operation is one public call and
  carries the check its output must pass. Calls look the library function up
  on its module when they run, so the wrappers of a traced run see them.

``lib`` is the namespace of abscompat modules that ``run.import_library``
returns.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracle
from oracle import TOL


@dataclass(frozen=True)
class Op:
    """One public call and the check of its output (None when right, else
    the reason it is wrong). A call that raises counts as a failed op."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    repeats: int = 1
    """Calls per round. A short op called several times a round has several
    chances a round to meet the host at its quietest (see ``run.schedule``)."""


# ---------------------------------------------------------------------------
# verify-suite: the ROADMAP's reference end-to-end command, in process
# ---------------------------------------------------------------------------

VERIFY_DIMS = [2, 3]
VERIFY_TRIALS = 200


def verify_argv(seed: int) -> list[str]:
    return ["verify-suite", "--dims", ",".join(map(str, VERIFY_DIMS)),
            "--trials", str(VERIFY_TRIALS), "--seed", str(seed), "--json"]


def _prepare_verify(seed: int, workdir: Path) -> int:
    return seed


def _build_verify(lib, seed: int) -> int:
    return seed


def check_verify_suite(output: tuple[int, str], seed: int) -> str | None:
    code, text = output
    if code != 0:
        return f"verify-suite exited with {code}"
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"verify-suite printed no JSON: {exc}"
    echoed = (payload.get("dims"), payload.get("trials"), payload.get("seed"))
    if echoed != (VERIFY_DIMS, VERIFY_TRIALS, seed):
        return f"verify-suite ran {echoed}, not {(VERIFY_DIMS, VERIFY_TRIALS, seed)}"
    suites = payload.get("suites") or []
    if not suites or payload.get("passed") is not True:
        return "verify-suite reports no suites or an overall failure"
    for suite in suites:
        if not suite["passed"] or suite["failures"] != 0 or suite["trials"] < 1:
            return f"suite {suite['suite']!r} did not pass: {suite}"
    return None


def _ops_verify(lib, seed: int) -> list[Op]:
    argv = verify_argv(seed)

    def call() -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lib.cli.main(argv)
        if code not in (0, 1):
            raise RuntimeError(f"verify-suite exited with {code}")
        return code, out.getvalue()

    return [Op("verify-suite", call, lambda out: check_verify_suite(out, seed))]


# ---------------------------------------------------------------------------
# compat-oracle: compat_defect one pair at a time against the pointwise oracle
# ---------------------------------------------------------------------------

ORACLE_SHAPES = ((2,), (3,), (4,), (5,), (6,), (7,), (8,), (2, 3, 4))
PAIRS_PER_SHAPE = 16  # even indices compatible, odd ones generic
COMPAT_KINDS = ("domain", "range", "full")
DEFECT_BOUND = 1e-9
"""Largest accepted |defect - oracle|; rounding alone stays near 1e-12."""
VERDICT_BAND = (TOL / 10.0, TOL * 10.0)
"""Oracle defects inside this band around the tolerance get no verdict check."""


@dataclass(frozen=True)
class OracleCase:
    dims: tuple[int, ...]
    blocks_a: list[np.ndarray]
    blocks_b: list[np.ndarray]
    oracle: float


def _compatible_values(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per coordinate one factor is 0 or has modulus 1: pointwise compatible."""
    f = rng.uniform(0.0, 1.0, n) * oracle.unit_phases(rng, n)
    g = rng.uniform(0.0, 1.0, n) * oracle.unit_phases(rng, n)
    case = rng.integers(0, 4, n)
    f[case == 0] = 0.0
    g[case == 1] = 0.0
    f[case == 2] /= np.abs(f[case == 2])
    g[case == 3] /= np.abs(g[case == 3])
    return f, g


def _generic_values(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    f = rng.uniform(0.0, 1.0, n) * oracle.unit_phases(rng, n)
    g = rng.uniform(0.0, 1.0, n) * oracle.unit_phases(rng, n)
    return f, g


def oracle_case(rng: np.random.Generator, dims: tuple[int, ...], compatible: bool) -> OracleCase:
    """a = w diag(f) v*, b = w diag(g) v* per block, w and v Haar and shared."""
    values = _compatible_values if compatible else _generic_values
    blocks_a, blocks_b, worst = [], [], 0.0
    for d in dims:
        f, g = values(rng, d)
        w, v = oracle.haar_unitary(rng, d), oracle.haar_unitary(rng, d)
        blocks_a.append((w * f) @ v.conj().T)
        blocks_b.append((w * g) @ v.conj().T)
        worst = max(worst, oracle.pointwise_defect(f, g))
    return OracleCase(dims, blocks_a, blocks_b, worst)


def _prepare_oracle(seed: int, workdir: Path) -> list[OracleCase]:
    rng = np.random.default_rng(seed)
    return [oracle_case(rng, dims, k % 2 == 0)
            for dims in ORACLE_SHAPES for k in range(PAIRS_PER_SHAPE)]


def _build_oracle(lib, cases: list[OracleCase]) -> list[tuple[OracleCase, Any, Any]]:
    algebra = lib.algebra
    built = []
    for case in cases:
        shape = algebra.AlgebraShape(case.dims)
        built.append((case,
                      algebra.AlgebraElement.from_blocks(shape, case.blocks_a),
                      algebra.AlgebraElement.from_blocks(shape, case.blocks_b)))
    return built


def check_compat_report(report, oracle_defect: float) -> str | None:
    if not abs(report.defect - oracle_defect) <= DEFECT_BOUND:
        return f"defect {report.defect!r} is not within {DEFECT_BOUND:g} of oracle {oracle_defect!r}"
    lo, hi = VERDICT_BAND
    if not lo <= oracle_defect <= hi and report.verdict != (oracle_defect <= TOL):
        return f"verdict {report.verdict} disagrees with oracle defect {oracle_defect!r}"
    return None


def _ops_oracle(lib, built) -> list[Op]:
    relations = lib.relations
    ops = []
    for index, (case, a, b) in enumerate(built):
        for kind in COMPAT_KINDS:
            compat_kind = relations.CompatKind(kind)
            ops.append(Op(
                f"compat_defect {kind} {case.dims} pair {index}",
                lambda a=a, b=b, k=compat_kind: relations.compat_defect(a, b, k),
                lambda out, d=case.oracle: check_compat_report(out, d),
            ))
    return ops


# ---------------------------------------------------------------------------
# fuzz: fuzz_counterexample on maps loaded from map files
# ---------------------------------------------------------------------------

FUZZ_BUDGET = 1000


def _matrix_payload(m: np.ndarray) -> dict:
    return {"shape": [m.shape[0]],
            "blocks": [[[[z.real, z.imag] for z in row] for row in m]]}


def _symmetrize_action() -> list:
    """Raw action of x -> (x + x^T)/2 on row-major vectorized 2x2 matrices."""
    action = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            action[i * 2 + j, i * 2 + j] += 0.5
            action[j * 2 + i, i * 2 + j] += 0.5
    return [[[float(x), 0.0] for x in row] for row in action]


@dataclass(frozen=True)
class FuzzCase:
    map_name: str
    kind: str
    image: Callable[[np.ndarray], np.ndarray] | None
    """The map as the benchmark computes it; None marks a triple homomorphism,
    which by the paper's theorem must yield no witness."""
    output_defect: float | None = None
    """Known output defect of the witness, where the refutation is pinned."""
    repeats: int = 1


FUZZ_CASES = (
    FuzzCase("transpose", "full", None),
    FuzzCase("doubling", "full", None),
    FuzzCase("mixed", "full", None),
    FuzzCase("sandwich", "domain", None, repeats=2),
    FuzzCase("sandwich", "range", None, repeats=2),
    FuzzCase("sandwich", "full", None),
    FuzzCase("transpose", "domain", lambda x: x.T, math.sqrt(2.0) - 1.0),
    FuzzCase("scale", "domain", lambda x: 0.5 * x),
    FuzzCase("scale", "range", lambda x: 0.5 * x),
    FuzzCase("scale", "full", lambda x: 0.5 * x),
    FuzzCase("symmetrize", "domain", lambda x: (x + x.T) / 2.0),
)
"""A round makes 13 calls: five fast refutations, the two cheapest
full-budget audits (sandwich at domain and range kind) twice each, and four
dearer audits. The median call is the second of those four cheapest audits
in the round, so it is taken from their cluster."""


def _prepare_fuzz(seed: int, workdir: Path) -> tuple[int, dict[str, Path]]:
    rng = np.random.default_rng(seed)
    u, v = oracle.haar_unitary(rng, 2), oracle.haar_unitary(rng, 2)
    m2 = {"domain_shape": [2], "codomain_shape": [2]}
    payloads = {
        "transpose": {**m2, "builder": {"kind": "transpose"}},
        "doubling": {"domain_shape": [2], "codomain_shape": [2, 2],
                     "builder": {"kind": "star_hom", "block_assignment": [0, 0]}},
        "mixed": {"domain_shape": [2, 3], "codomain_shape": [2, 3],
                  "builder": {"kind": "block_map", "block_assignment": [0, 1],
                              "transpose_flags": [False, True]}},
        "sandwich": {**m2, "builder": {"kind": "sandwich", "u": _matrix_payload(u),
                                       "v": _matrix_payload(v)}},
        "scale": {**m2, "builder": {"kind": "scale", "factor": [0.5, 0.0]}},
        "symmetrize": {**m2, "action": _symmetrize_action()},
    }
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, payload in payloads.items():
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(json.dumps(payload), encoding="utf-8")
    return seed, paths


def _build_fuzz(lib, raw: tuple[int, dict[str, Path]]) -> tuple[int, dict[str, Any]]:
    seed, paths = raw
    return seed, {name: lib.serialize.load_map(path) for name, path in paths.items()}


def check_fuzz_witness(witness, case: FuzzCase) -> str | None:
    if case.image is None:
        if witness is not None:
            return (f"triple homomorphism refuted at stream index {witness.index} "
                    f"(output defect {witness.output_defect!r})")
        return None
    if witness is None:
        return f"no witness within budget {FUZZ_BUDGET}"
    a, b = witness.a.matrix, witness.b.matrix
    in_defect = oracle.compat_defect(a, b, case.kind)
    out_defect = oracle.compat_defect(case.image(a), case.image(b), case.kind)
    if not in_defect <= TOL:
        return f"witness input defect {in_defect!r} exceeds the tolerance"
    if not out_defect > TOL:
        return f"witness output defect {out_defect!r} is within the tolerance"
    if not abs(out_defect - witness.output_defect) <= DEFECT_BOUND:
        return f"reported output defect {witness.output_defect!r}, recomputed {out_defect!r}"
    if case.output_defect is not None and not abs(out_defect - case.output_defect) <= DEFECT_BOUND:
        return f"output defect {out_defect!r}, expected {case.output_defect!r}"
    return None


def _ops_fuzz(lib, built) -> list[Op]:
    seed, maps = built
    preservers, kinds = lib.preservers, lib.relations.CompatKind
    return [
        Op(f"fuzz {case.map_name} {case.kind}",
           lambda t=maps[case.map_name], k=kinds(case.kind):
               preservers.fuzz_counterexample(t, k, FUZZ_BUDGET, seed),
           lambda out, c=case: check_fuzz_witness(out, c), case.repeats)
        for case in FUZZ_CASES
    ]


# ---------------------------------------------------------------------------
# triplehom: is_triple_hom and classify_triple_hom on a zoo of maps
# ---------------------------------------------------------------------------

ZOO_DIMS = (2, 3, 4, 5)
LARGE_DIM = 6
"""M6 carries the sandwich alone: each M6 map costs about 2 s a round, and
four of them would leave room for only two rounds in a 30 s run."""
MIXED_DIMS = (1, 2, 4)
MIXED_FLAGS = (True, False, True)
SCALE_DIMS = (2, 4)
SHORT_DIM = 4
SHORT_REPEATS = 3
"""Maps on at most 4x4 matrices take at most about 0.1 s a call and 0.9 s a
round together; they run three times a round. Of a round's 96 calls, 30 are
on M2 maps (the M2 control among them), 24 on M3 maps and 42 dearer, so the
median call (the 48th and 49th) lies among the M3 maps' calls."""


@dataclass(frozen=True)
class ZooEntry:
    label: str
    builder: str
    dims: tuple[int, ...]
    params: tuple = ()
    hom: frozenset[int] = frozenset()
    antihom: frozenset[int] = frozenset()
    scale: complex | None = None
    """Set for the negative controls x -> c x, which are no triple homs."""


def _prepare_zoo(seed: int, workdir: Path) -> list[ZooEntry]:
    rng = np.random.default_rng(seed)
    hom, anti = frozenset({0}), frozenset({0})
    zoo = []
    for d in ZOO_DIMS:
        zoo += [
            ZooEntry(f"star_hom M{d}", "star_hom", (d,), (oracle.haar_unitary(rng, d),), hom=hom),
            ZooEntry(f"star_anti_hom M{d}", "star_anti_hom", (d,), (oracle.haar_unitary(rng, d),),
                     antihom=anti),
            ZooEntry(f"transpose M{d}", "transpose", (d,), antihom=anti),
            # x -> u x v: e = uv and e* T(x) = v* x v, a *-homomorphism
            ZooEntry(f"sandwich M{d}", "sandwich", (d,),
                     (oracle.haar_unitary(rng, d), oracle.haar_unitary(rng, d)), hom=hom),
        ]
    zoo.append(ZooEntry(f"sandwich M{LARGE_DIM}", "sandwich", (LARGE_DIM,),
                        (oracle.haar_unitary(rng, LARGE_DIM), oracle.haar_unitary(rng, LARGE_DIM)),
                        hom=hom))
    unitaries = tuple(None if d == 1 else oracle.haar_unitary(rng, d) for d in MIXED_DIMS)
    # 1x1 blocks count as homomorphic whether transposed or not
    zoo.append(ZooEntry(
        "mixed block map M1+M2+M4", "block_map", MIXED_DIMS, unitaries,
        hom=frozenset(i for i, (d, t) in enumerate(zip(MIXED_DIMS, MIXED_FLAGS)) if d == 1 or not t),
        antihom=frozenset(i for i, (d, t) in enumerate(zip(MIXED_DIMS, MIXED_FLAGS)) if d > 1 and t),
    ))
    for d in SCALE_DIMS:
        c = complex(rng.uniform(0.2, 0.9) * oracle.unit_phases(rng, 1)[0])
        zoo.append(ZooEntry(f"scale M{d}", "scale", (d,), scale=c))
    return zoo


def build_zoo_map(lib, entry: ZooEntry):
    p, algebra = lib.preservers, lib.algebra
    shape = algebra.AlgebraShape(entry.dims)
    if entry.builder == "star_hom":
        return p.build_star_hom(shape, shape, [0], list(entry.params))
    if entry.builder == "star_anti_hom":
        return p.build_star_anti_hom(shape, shape, [0], list(entry.params))
    if entry.builder == "transpose":
        return p.transpose_map(shape)
    if entry.builder == "sandwich":
        u, v = (algebra.AlgebraElement.single(m) for m in entry.params)
        return p.build_sandwich(u, v)
    if entry.builder == "block_map":
        return p.build_block_map(shape, shape, list(range(len(entry.dims))),
                                 list(MIXED_FLAGS), list(entry.params))
    return p.scale_map(shape, entry.scale)


def _build_zoo(lib, zoo: list[ZooEntry]) -> list[tuple[ZooEntry, Any]]:
    return [(entry, build_zoo_map(lib, entry)) for entry in zoo]


def check_triple_hom_report(report, entry: ZooEntry) -> str | None:
    if entry.scale is None:
        return None if report.verdict else f"defect {report.defect!r} on a triple homomorphism"
    expected = oracle.scale_triple_defect(entry.scale)
    if report.verdict or not abs(report.defect - expected) <= 1e-12:
        return f"verdict {report.verdict}, defect {report.defect!r}; expected false, {expected!r}"
    return None


def check_classification(out, entry: ZooEntry, not_triple_hom: type) -> str | None:
    if entry.scale is not None:
        return None if isinstance(out, not_triple_hom) else f"classified {out!r}, expected NotTripleHom"
    if isinstance(out, Exception):
        return f"raised {out!r}"
    split = (set(out.hom_block_indices), set(out.antihom_block_indices))
    if split != (set(entry.hom), set(entry.antihom)):
        return f"hom/anti-hom blocks {split}, built as {(set(entry.hom), set(entry.antihom))}"
    pi = oracle.partial_isometry_defect(out.unit_image.matrix)
    if not pi <= DEFECT_BOUND:
        return f"unit image is no partial isometry (defect {pi!r})"
    return None


def _ops_zoo(lib, built) -> list[Op]:
    preservers, not_triple_hom = lib.preservers, lib.errors.NotTripleHom

    def classify(t):
        try:
            return preservers.classify_triple_hom(t)
        except not_triple_hom as exc:
            return exc

    ops = []
    for entry, tmap in built:
        repeats = SHORT_REPEATS if sum(entry.dims) <= SHORT_DIM else 1
        ops.append(Op(f"is_triple_hom {entry.label}",
                      lambda t=tmap: preservers.is_triple_hom(t),
                      lambda out, e=entry: check_triple_hom_report(out, e), repeats))
        ops.append(Op(f"classify_triple_hom {entry.label}",
                      lambda t=tmap: classify(t),
                      lambda out, e=entry: check_classification(out, e, not_triple_hom), repeats))
    return ops


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[int, Path], Any]
    build: Callable[[Any, Any], Any]
    ops: Callable[[Any, Any], list[Op]]


WORKLOADS = {
    "verify-suite": Workload(_prepare_verify, _build_verify, _ops_verify),
    "compat-oracle": Workload(_prepare_oracle, _build_oracle, _ops_oracle),
    "fuzz": Workload(_prepare_fuzz, _build_fuzz, _ops_fuzz),
    "triplehom": Workload(_prepare_zoo, _build_zoo, _ops_zoo),
}
