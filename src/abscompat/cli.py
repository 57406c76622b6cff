"""Command-line front end. Each ``cmd_*`` handler returns ``(exit code, JSON
payload, text lines)`` and ``main`` alone prints one of the two, once; the
``check`` relations live in one table, and ``--kind`` in a parent parser.

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
from .reports import RelationReport
from .serialize import dumps_canonical, load_map, load_matrix, save_matrix
from .suites import run_all_suites
from .tolerance import ToleranceConfig

# relation name -> (check, whether it takes two matrix files); each check is
# called as check(*operands, tol), and compat_defect takes the --kind before tol
_RELATIONS = {
    "compat": (compat_defect, True),
    "orth": (is_orthogonal, True),
    "orth-characterization": (check_orth_characterization, True),
    "p00": (check_p00_equivalences, True),
    "projection": (is_projection, False),
    "partial-isometry": (is_partial_isometry, False),
    "positive": (is_positive, False),
    "contraction": (is_contraction, False),
    "tripotent": (check_tripotent_characterization, False),
}


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
    # the option of the commands that judge compatibility
    kind = argparse.ArgumentParser(add_help=False)
    kind.add_argument("--kind", choices=[k.value for k in CompatKind],
                      default="full", help="compatibility kind")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", parents=[common, kind], help="evaluate a relation on one or two matrix files")
    p_check.add_argument("relation", choices=_RELATIONS)
    p_check.add_argument("file_a")
    p_check.add_argument("file_b", nargs="?")
    p_check.set_defaults(run=cmd_check)

    p_suite = sub.add_parser(
        "verify-suite", parents=[common], help="run every invariant and equivalence suite")
    p_suite.add_argument("--dims", default="2,3",
                         help="comma list of block dims (default 2,3)")
    p_suite.add_argument("--trials", type=int, default=200)
    p_suite.add_argument("--seed", type=int, default=0)
    p_suite.set_defaults(run=cmd_verify_suite)

    p_cls = sub.add_parser("classify", parents=[common],
                           help="split a triple homomorphism into hom/anti-hom blocks")
    p_cls.add_argument("map_file")
    p_cls.set_defaults(run=cmd_classify)

    p_fuzz = sub.add_parser(
        "fuzz", parents=[common, kind],
        help="search compatible pairs whose images violate compatibility")
    p_fuzz.add_argument("map_file")
    p_fuzz.add_argument("--budget", type=int, default=1000)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--out-dir", default=".",
                        help="directory for witness files (default .)")
    p_fuzz.set_defaults(run=cmd_fuzz)
    return parser


def cmd_check(args: argparse.Namespace, tol: ToleranceConfig) -> tuple[int, dict, list[str]]:
    check, binary = _RELATIONS[args.relation]
    a = load_matrix(args.file_a)
    if binary != (args.file_b is not None):
        raise AbscompatError(f"relation {args.relation!r} " + (
            "needs two matrix files" if binary else "takes a single matrix file"))
    operands = [a, load_matrix(args.file_b)] if binary else [a]
    if check is compat_defect:
        operands.append(CompatKind(args.kind))
    report = check(*operands, tol)
    if isinstance(report, RelationReport):
        verdict = report.verdict
        lines = [f"relation:  {report.relation_name}",
                 f"verdict:   {'true' if verdict else 'false'}",
                 f"defect:    {report.defect:.6g}",
                 f"tolerance: {report.tolerance_used:g}"]
    else:
        verdict = report.consistent
        lines = [f"relation:   {report.relation_name}",
                 f"consistent: {'true' if verdict else 'false'}"]
        for clause in report.clauses:
            status = "agree" if clause.agree else (
                "indeterminate" if clause.indeterminate else "DISAGREE")
            lines.append(f"  clause [{clause.name}]: {status}")
            lines += [f"    {'true ' if side.verdict else 'false'} "
                      f"defect={side.defect:.6g}  {side.label}" for side in clause.sides]
    return 0 if verdict else 1, report.to_dict(), lines


def cmd_verify_suite(args: argparse.Namespace, tol: ToleranceConfig) -> tuple[int, dict, list[str]]:
    try:
        dims = [int(d) for d in args.dims.split(",") if d.strip()]
    except ValueError as exc:
        raise AbscompatError(f"--dims must be a comma list of ints: {exc}") from exc
    if args.trials > MAX_TRIALS:
        raise AbscompatError(f"--trials {args.trials} exceeds the limit {MAX_TRIALS}")
    results = run_all_suites(dims, args.trials, args.seed, tol)
    passed = all(r.passed for r in results)
    payload = {
        "dims": dims, "trials": args.trials, "seed": args.seed,
        "tolerance": args.tol,
        "passed": passed,
        "suites": [r.to_dict() for r in results],
    }
    name_w = max(len(r.name) for r in results)
    lines = [f"{'status':6}  {'suite':{name_w}}  {'trials':>6}  {'fail':>4}  "
             f"{'indet':>5}  worst defect"]
    lines += [f"{'PASS' if r.passed else 'FAIL':6}  {r.name:{name_w}}  "
              f"{r.trials:6}  {r.failures:4}  {r.indeterminate:5}  "
              f"{r.worst_defect:.3g}" + (f"  [{r.note}]" if r.note else "") for r in results]
    lines.append(f"\n{sum(r.passed for r in results)}/{len(results)} suites passed "
                 f"(dims={dims}, trials={args.trials}, seed={args.seed})")
    return 0 if passed else 1, payload, lines


def cmd_classify(args: argparse.Namespace, tol: ToleranceConfig) -> tuple[int, dict, list[str]]:
    tmap = load_map(args.map_file, tol)
    try:
        cls = classify_triple_hom(tmap, tol)
    except NotTripleHom as exc:
        return 1, {"triple_hom": False, "reason": str(exc)}, [
            f"triple homomorphism: false ({exc})"]
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
    lines = ["triple homomorphism: true",
             "unit image is a partial isometry: true",
             f"homomorphic blocks:      {payload['hom_blocks']}",
             f"anti-homomorphic blocks: {payload['antihom_blocks']}"]
    lines += [f"  block {k}: mult defect {v[0]:.3g}, anti-mult defect {v[1]:.3g}"
              for k, v in sorted(cls.residuals.items())]
    return 0, payload, lines


def cmd_fuzz(args: argparse.Namespace, tol: ToleranceConfig) -> tuple[int, dict, list[str]]:
    if not 1 <= args.budget <= MAX_BUDGET:
        raise AbscompatError(f"--budget must be in [1, {MAX_BUDGET}], got {args.budget}")
    tmap = load_map(args.map_file, tol)
    witness = fuzz_counterexample(
        tmap, CompatKind(args.kind), args.budget, args.seed, tol)
    if witness is None:
        return 0, {"witness_found": False, "budget": args.budget}, [
            f"no counterexample found within budget {args.budget}"]
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
    return 3, payload, [
        "counterexample found:",
        f"  source:        {witness.source} (stream index {witness.index})",
        f"  input defect:  {witness.input_defect:.6g}",
        f"  output defect: {witness.output_defect:.6g}",
        f"  witness files: {path_a} {path_b}"]


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        tol = ToleranceConfig(relation=args.tol)
        if getattr(args, "seed", 0) < 0:  # fuzz and verify-suite
            raise AbscompatError(f"--seed must be >= 0, got {args.seed}")
        code, payload, lines = args.run(args, tol)
        if args.as_json:
            print(dumps_canonical(payload), end="")
        else:
            print(*lines, sep="\n")
        return code
    except NotTripleHom as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AbscompatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
