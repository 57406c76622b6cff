"""Command-line front end.

Exit codes: 0 verdict true / all suites pass, 1 verdict false (or not a
triple homomorphism under ``classify``), 2 parse/shape/configuration errors,
3 counterexample found under ``fuzz``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import AbscompatError, NotTripleHom
from .preservers import MAX_BUDGET, MAX_TRIALS, classify_triple_hom, fuzz_counterexample
from .relations import (
    CompatKind,
    check_orth_characterization,
    check_p00_equivalences,
    check_tripotent_characterization,
    compat_defect,
    is_orthogonal,
    is_partial_isometry,
    is_projection,
)
from .algebra import is_contraction, is_positive
from .reports import ConsistencyReport, RelationReport
from .serialize import dumps_canonical, load_map, load_matrix, save_matrix
from .suites import run_all_suites
from .tolerance import ToleranceConfig

_BINARY_RELATIONS = ("compat", "orth", "orth-characterization", "p00")
_UNARY_RELATIONS = (
    "projection", "partial-isometry", "positive", "contraction", "tripotent",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abscompat",
        description="Check operator relations and compatibility preservers "
                    "on block matrix algebras.",
    )
    # the options every command takes
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-8,
                        help="relation tolerance (default 1e-8)")
    common.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable report")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", parents=[common], help="evaluate a relation on one or two matrix files")
    p_check.add_argument("relation",
                         choices=_BINARY_RELATIONS + _UNARY_RELATIONS)
    p_check.add_argument("file_a")
    p_check.add_argument("file_b", nargs="?")
    p_check.add_argument("--kind", choices=[k.value for k in CompatKind],
                         default="full", help="compatibility kind")

    p_suite = sub.add_parser(
        "verify-suite", parents=[common], help="run every invariant and equivalence suite")
    p_suite.add_argument("--dims", default="2,3",
                         help="comma list of block dims (default 2,3)")
    p_suite.add_argument("--trials", type=int, default=200)
    p_suite.add_argument("--seed", type=int, default=0)

    p_cls = sub.add_parser("classify", parents=[common],
                           help="split a triple homomorphism into hom/anti-hom blocks")
    p_cls.add_argument("map_file")

    p_fuzz = sub.add_parser(
        "fuzz", parents=[common], help="search compatible pairs whose images violate compatibility")
    p_fuzz.add_argument("map_file")
    p_fuzz.add_argument("--kind", choices=[k.value for k in CompatKind],
                        default="full")
    p_fuzz.add_argument("--budget", type=int, default=1000)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--out-dir", default=".",
                        help="directory for witness files (default .)")
    return parser


def _print_relation(report: RelationReport, as_json: bool) -> int:
    if as_json:
        print(dumps_canonical(report.to_dict()), end="")
    else:
        print(f"relation:  {report.relation_name}")
        print(f"verdict:   {'true' if report.verdict else 'false'}")
        print(f"defect:    {report.defect:.6g}")
        print(f"tolerance: {report.tolerance_used:g}")
    return 0 if report.verdict else 1


def _print_consistency(report: ConsistencyReport, as_json: bool) -> int:
    if as_json:
        print(dumps_canonical(report.to_dict()), end="")
    else:
        print(f"relation:   {report.relation_name}")
        print(f"consistent: {'true' if report.consistent else 'false'}")
        for clause in report.clauses:
            status = "agree" if clause.agree else (
                "indeterminate" if clause.indeterminate else "DISAGREE")
            print(f"  clause [{clause.name}]: {status}")
            for side in clause.sides:
                print(f"    {'true ' if side.verdict else 'false'} "
                      f"defect={side.defect:.6g}  {side.label}")
    return 0 if report.consistent else 1


def cmd_check(args: argparse.Namespace, tol: ToleranceConfig) -> int:
    relation = args.relation
    a = load_matrix(args.file_a)
    binary = relation in _BINARY_RELATIONS
    if binary and args.file_b is None:
        raise AbscompatError(f"relation {relation!r} needs two matrix files")
    if not binary and args.file_b is not None:
        raise AbscompatError(f"relation {relation!r} takes a single matrix file")
    b = load_matrix(args.file_b) if binary else None
    checks = {
        "compat": lambda: compat_defect(a, b, CompatKind(args.kind), tol),
        "orth": lambda: is_orthogonal(a, b, tol),
        "orth-characterization": lambda: check_orth_characterization(a, b, tol),
        "p00": lambda: check_p00_equivalences(a, b, tol),
        "projection": lambda: is_projection(a, tol),
        "partial-isometry": lambda: is_partial_isometry(a, tol),
        "positive": lambda: is_positive(a, tol),
        "contraction": lambda: is_contraction(a, tol),
        "tripotent": lambda: check_tripotent_characterization(a, tol),
    }
    report = checks[relation]()
    if isinstance(report, ConsistencyReport):
        return _print_consistency(report, args.as_json)
    return _print_relation(report, args.as_json)


def cmd_verify_suite(args: argparse.Namespace, tol: ToleranceConfig) -> int:
    try:
        dims = [int(d) for d in args.dims.split(",") if d.strip()]
    except ValueError as exc:
        raise AbscompatError(f"--dims must be a comma list of ints: {exc}") from exc
    if args.trials > MAX_TRIALS:
        raise AbscompatError(f"--trials {args.trials} exceeds the limit {MAX_TRIALS}")
    results = run_all_suites(dims, args.trials, args.seed, tol)
    if args.as_json:
        print(dumps_canonical({
            "dims": dims, "trials": args.trials, "seed": args.seed,
            "tolerance": args.tol,
            "passed": all(r.passed for r in results),
            "suites": [r.to_dict() for r in results],
        }), end="")
    else:
        name_w = max(len(r.name) for r in results)
        print(f"{'status':6}  {'suite':{name_w}}  {'trials':>6}  {'fail':>4}  "
              f"{'indet':>5}  worst defect")
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL':6}  {r.name:{name_w}}  "
                  f"{r.trials:6}  {r.failures:4}  {r.indeterminate:5}  "
                  f"{r.worst_defect:.3g}" + (f"  [{r.note}]" if r.note else ""))
        n_pass = sum(r.passed for r in results)
        print(f"\n{n_pass}/{len(results)} suites passed "
              f"(dims={dims}, trials={args.trials}, seed={args.seed})")
    return 0 if all(r.passed for r in results) else 1


def cmd_classify(args: argparse.Namespace, tol: ToleranceConfig) -> int:
    tmap = load_map(args.map_file, tol)
    try:
        cls = classify_triple_hom(tmap, tol)
    except NotTripleHom as exc:
        if args.as_json:
            print(dumps_canonical({"triple_hom": False, "reason": str(exc)}),
                  end="")
        else:
            print(f"triple homomorphism: false ({exc})")
        return 1
    payload = {
        "triple_hom": True,
        "unit_image_partial_isometry": True,
        "hom_blocks": sorted(cls.hom_block_indices),
        "antihom_blocks": sorted(cls.antihom_block_indices),
        "residuals": {
            str(k): {"multiplicative": v[0], "anti_multiplicative": v[1]}
            for k, v in sorted(cls.residuals.items())
        },
    }
    if args.as_json:
        print(dumps_canonical(payload), end="")
    else:
        print("triple homomorphism: true")
        print("unit image is a partial isometry: true")
        print(f"homomorphic blocks:      {payload['hom_blocks']}")
        print(f"anti-homomorphic blocks: {payload['antihom_blocks']}")
        for k, v in sorted(cls.residuals.items()):
            print(f"  block {k}: mult defect {v[0]:.3g}, "
                  f"anti-mult defect {v[1]:.3g}")
    return 0


def cmd_fuzz(args: argparse.Namespace, tol: ToleranceConfig) -> int:
    if not 1 <= args.budget <= MAX_BUDGET:
        raise AbscompatError(f"--budget must be in [1, {MAX_BUDGET}], got {args.budget}")
    tmap = load_map(args.map_file, tol)
    witness = fuzz_counterexample(
        tmap, CompatKind(args.kind), args.budget, args.seed, tol)
    if witness is None:
        if args.as_json:
            print(dumps_canonical({"witness_found": False,
                                   "budget": args.budget}), end="")
        else:
            print(f"no counterexample found within budget {args.budget}")
        return 0
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path_a, path_b = out_dir / "witness_a.json", out_dir / "witness_b.json"
    save_matrix(witness.a, path_a)
    save_matrix(witness.b, path_b)
    payload = {
        "witness_found": True,
        "source": witness.source,
        "index": witness.index,
        "input_defect": witness.input_defect,
        "output_defect": witness.output_defect,
        "witness_a": str(path_a),
        "witness_b": str(path_b),
    }
    if args.as_json:
        print(dumps_canonical(payload), end="")
    else:
        print("counterexample found:")
        print(f"  source:        {witness.source} (stream index {witness.index})")
        print(f"  input defect:  {witness.input_defect:.6g}")
        print(f"  output defect: {witness.output_defect:.6g}")
        print(f"  witness files: {path_a} {path_b}")
    return 3


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "check": cmd_check,
        "verify-suite": cmd_verify_suite,
        "classify": cmd_classify,
        "fuzz": cmd_fuzz,
    }
    try:
        tol = ToleranceConfig(relation=args.tol)
        if getattr(args, "seed", 0) < 0:  # fuzz and verify-suite
            raise AbscompatError(f"--seed must be >= 0, got {args.seed}")
        return handlers[args.command](args, tol)
    except NotTripleHom as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AbscompatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
