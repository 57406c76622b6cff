from __future__ import annotations

import hashlib
import json
import re

import numpy as np
import pytest

from abscompat import (
    AlgebraElement, AlgebraShape, build_star_hom, identity_map, scale_map, transpose_map,
)
from abscompat import cli, suites
from abscompat.cli import main
from abscompat.preservers import MAX_BUDGET, MAX_TRIALS
from abscompat.sampling import compatible_positive_pair_2x2, crossed_isometry_pair_2x2
from abscompat.serialize import dumps_canonical, matrix_to_dict, save_map, save_matrix


@pytest.fixture
def fixtures(tmp_path):
    a, b = compatible_positive_pair_2x2()
    e, v = crossed_isometry_pair_2x2()
    paths = {}
    items = {
        "a": AlgebraElement.single(a),
        "b": AlgebraElement.single(b),
        "et": AlgebraElement.single(e.T),
        "vt": AlgebraElement.single(v.T),
        "p": AlgebraElement.single(np.diag([1.0, 0.0])),
        "q": AlgebraElement.single(np.diag([0.0, 1.0])),
    }
    for name, el in items.items():
        paths[name] = str(tmp_path / f"{name}.json")
        save_matrix(el, paths[name])
    sh2 = AlgebraShape((2,))
    paths["transpose"] = str(tmp_path / "transpose.json")
    save_map(transpose_map(sh2), paths["transpose"])
    paths["half"] = str(tmp_path / "half.json")
    save_map(scale_map(sh2, 0.5), paths["half"])
    paths["identity"] = str(tmp_path / "identity.json")
    save_map(identity_map(sh2), paths["identity"])
    paths["hom"] = str(tmp_path / "hom.json")
    save_map(build_star_hom(sh2, AlgebraShape((2, 2)), [0, 0]), paths["hom"])
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    paths["bad"] = str(bad)
    return paths


class TestCheck:
    def test_compat_true_exit_zero(self, fixtures, capsys):
        rc = main(["check", "compat", fixtures["a"], fixtures["b"],
                   "--kind", "full"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict:   true" in out

    def test_compat_false_exit_one(self, fixtures, capsys):
        rc = main(["check", "compat", fixtures["et"], fixtures["vt"],
                   "--kind", "domain"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "0.414214" in out

    def test_orth_projections(self, fixtures):
        assert main(["check", "orth", fixtures["p"], fixtures["q"]]) == 0

    def test_unary_relations(self, fixtures):
        assert main(["check", "projection", fixtures["p"]]) == 0
        assert main(["check", "partial-isometry", fixtures["p"]]) == 0
        assert main(["check", "positive", fixtures["a"]]) == 0
        assert main(["check", "contraction", fixtures["a"]]) == 0
        assert main(["check", "tripotent", fixtures["p"]]) == 0

    def test_consistency_relations(self, fixtures, capsys):
        assert main(["check", "orth-characterization", fixtures["a"],
                     fixtures["b"]]) == 0
        assert main(["check", "p00", fixtures["a"], fixtures["b"]]) == 0
        capsys.readouterr()

    def test_arity_enforced(self, fixtures, capsys):
        assert main(["check", "compat", fixtures["a"]]) == 2
        assert main(["check", "projection", fixtures["a"], fixtures["b"]]) == 2
        capsys.readouterr()

    def test_parse_error_exit_two(self, fixtures, capsys):
        assert main(["check", "compat", fixtures["bad"], fixtures["a"]]) == 2
        assert "error:" in capsys.readouterr().err

    def test_shape_mismatch_exit_two(self, fixtures, tmp_path, capsys):
        wide = tmp_path / "wide.json"
        save_matrix(AlgebraElement.single(np.eye(3)), wide)
        assert main(["check", "compat", fixtures["a"], str(wide)]) == 2
        capsys.readouterr()

    def test_json_matches_text_verdict(self, fixtures, capsys):
        rc = main(["check", "compat", fixtures["a"], fixtures["b"], "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["verdict"] is True
        assert set(payload) >= {"relation", "verdict", "defect", "tolerance",
                                "witnesses"}

    def test_indeterminate_clause_exits_zero(self, tmp_path, capsys):
        # sides 1.4e-8 (false) and 7e-9 (true) both lie in the near-threshold band
        path = str(tmp_path / "tiny.json")
        save_matrix(AlgebraElement.single(np.diag([0.7e-8, 0.0])), path)
        assert main(["check", "tripotent", path]) == 0
        out = capsys.readouterr().out
        assert "clause [self-compat vs partial isometry]: indeterminate" in out
        assert "false defect=1.4e-08  self compat" in out
        assert "true  defect=7e-09  a a* a = a" in out

    def test_tolerance_flag(self, fixtures):
        # at a huge tolerance even the transposed pair "passes"
        rc = main(["check", "compat", fixtures["et"], fixtures["vt"],
                   "--kind", "domain", "--tol", "0.5"])
        assert rc == 0

    def test_tolerance_flag_reaches_the_hermiticity_gate(self, tmp_path, capsys):
        # p00 needs both inputs Hermitian within --tol; a has a 5e-7 gap
        a, zero = tmp_path / "a.json", tmp_path / "zero.json"
        save_matrix(AlgebraElement.single(np.array([[0.5, 5e-7], [0.0, 0.25]])), a)
        save_matrix(AlgebraElement.single(np.zeros((2, 2))), zero)
        assert main(["check", "p00", str(a), str(zero)]) == 2
        assert "not Hermitian" in capsys.readouterr().err
        assert main(["check", "p00", str(a), str(zero), "--tol", "1e-6"]) == 0
        capsys.readouterr()


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tolerance_exit_two(fixtures, tmp_path, capsys, tol):
    # a NaN tolerance would make every verdict false, an infinite one every verdict true
    commands = [
        ["check", "contraction", fixtures["a"]],
        ["verify-suite", "--dims", "2", "--trials", "10"],
        ["classify", fixtures["transpose"]],
        ["fuzz", fixtures["transpose"], "--out-dir", str(tmp_path)],
    ]
    for argv in commands:
        assert main(argv + ["--tol", tol]) == 2
        captured = capsys.readouterr()
        assert "finite and positive" in captured.err
        assert captured.out == ""


class TestVerifySuite:
    def test_small_run_passes(self, capsys):
        rc = main(["verify-suite", "--dims", "2", "--trials", "25",
                   "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "suites passed" in out
        assert "FAIL" not in out

    def test_json_form(self, capsys):
        rc = main(["verify-suite", "--dims", "2", "--trials", "10",
                   "--seed", "3", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["passed"] is True
        assert len(payload["suites"]) >= 20

    def test_reference_run_replays_its_digest(self, capsys):
        # the reference command of ROADMAP.md: a change that regroups work
        # (pages, stacks, judge windows) must keep every byte of its output
        rc = main(["verify-suite", "--dims", "2,3", "--trials", "200", "--seed", "7", "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        assert hashlib.md5(out.encode()).hexdigest() == "74faca7023ec5e5fcf907cca4d74d4c0"

    def test_zero_trials_rejected(self, capsys):
        assert main(["verify-suite", "--trials", "0"]) == 2
        capsys.readouterr()

    def test_loose_tolerance_fails_without_traceback(self, capsys):
        # at 0.5 the transpose is not refuted; that fails the fuzzing rows
        rc = main(["verify-suite", "--dims", "2", "--trials", "10", "--tol", "0.5"])
        out = capsys.readouterr().out
        assert rc == 1
        failed = [line.split()[1:4] for line in out.splitlines() if line.startswith("FAIL")]
        assert ["counterexample", "fuzzing", "regressions"] in failed

    def test_tolerance_below_roundoff_exits_two_with_the_excess(self, capsys):
        # some operand overshoots the unit ball by roundoff, more than 1e-16
        rc = main(["verify-suite", "--dims", "2", "--trials", "10", "--tol", "1e-16"])
        captured = capsys.readouterr()
        assert rc == 2
        assert re.search(r"operator norm 1 \+ \S+ exceeds 1 \+ tol \(1e-16\)", captured.err)
        assert "Traceback" not in captured.err + captured.out

    def test_bad_dims_rejected(self, capsys):
        assert main(["verify-suite", "--dims", "2,x"]) == 2
        assert main(["verify-suite", "--dims", ""]) == 2
        capsys.readouterr()


class TestClassify:
    def test_transpose(self, fixtures, capsys):
        rc = main(["classify", fixtures["transpose"]])
        out = capsys.readouterr().out
        assert rc == 0
        assert "anti-homomorphic blocks: [0]" in out

    def test_hom_builder(self, fixtures, capsys):
        rc = main(["classify", fixtures["hom"], "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["hom_blocks"] == [0]
        assert payload["antihom_blocks"] == []

    def test_half_map_exit_one(self, fixtures, capsys):
        rc = main(["classify", fixtures["half"]])
        out = capsys.readouterr().out
        assert rc == 1
        assert "false" in out

    def test_half_map_json_gives_the_reason(self, fixtures, capsys):
        assert main(["classify", fixtures["half"], "--json"]) == 1
        assert capsys.readouterr().out == dumps_canonical(
            {"reason": "triple-homomorphism defect 0.375", "triple_hom": False})

    def test_parse_error(self, fixtures, capsys):
        assert main(["classify", fixtures["bad"]]) == 2
        capsys.readouterr()

    def test_sandwich_on_another_shape_exits_two(self, tmp_path, capsys):
        u = AlgebraElement.single(np.eye(3))
        v = AlgebraElement.single(np.eye(2))
        path = tmp_path / "sandwich.json"
        path.write_text(json.dumps({
            "domain_shape": [2], "codomain_shape": [2],
            "builder": {"kind": "sandwich", "u": matrix_to_dict(u), "v": matrix_to_dict(v)},
        }), encoding="utf-8")
        assert main(["classify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sandwich u/v must live on the domain shape\n"

    @pytest.mark.parametrize("spec", [
        {"builder": {"kind": "transpose"}},
        {"builder": {"kind": "identity"}},
        {"action": [[]] * 200**2},  # the right row count, so parsing would allocate
    ], ids=["transpose", "identity", "raw-action"])
    def test_oversized_map_exit_two(self, tmp_path, capsys, spec):
        # an action on M200 would hold 200^4 complex entries (25 GB)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"domain_shape": [200], "codomain_shape": [200], **spec}),
                        encoding="utf-8")
        assert main(["classify", str(path)]) == 2
        assert "exceeds the limit" in capsys.readouterr().err


class TestFuzz:
    def test_transpose_witness_exit_three(self, fixtures, tmp_path, capsys):
        out_dir = tmp_path / "wit"
        rc = main(["fuzz", fixtures["transpose"], "--kind", "domain",
                   "--seed", "5", "--out-dir", str(out_dir)])
        out = capsys.readouterr().out
        assert rc == 3
        assert "crossed_isometries_2x2" in out
        wa = json.loads((out_dir / "witness_a.json").read_text())
        assert wa["shape"] == [2]

    def test_transpose_witness_at_range_kind(self, fixtures, tmp_path, capsys):
        rc = main(["fuzz", fixtures["transpose"], "--kind", "range",
                   "--seed", "5", "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 3
        assert "crossed_isometries_adjoint_2x2" in out

    def test_hom_no_witness_exit_zero(self, fixtures, capsys):
        rc = main(["fuzz", fixtures["hom"], "--budget", "50", "--seed", "5"])
        assert rc == 0
        capsys.readouterr()

    def test_json_payload(self, fixtures, tmp_path, capsys):
        rc = main(["fuzz", fixtures["transpose"], "--kind", "domain",
                   "--seed", "5", "--out-dir", str(tmp_path), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 3
        assert payload["witness_found"] is True
        assert payload["index"] == 1

    def test_identity_json_reports_no_witness(self, fixtures, capsys):
        assert main(["fuzz", fixtures["identity"], "--json"]) == 0
        assert capsys.readouterr().out == dumps_canonical(
            {"budget": 1000, "witness_found": False})

    def test_parse_error(self, fixtures, capsys):
        assert main(["fuzz", fixtures["bad"]]) == 2
        capsys.readouterr()

    def test_bad_budget(self, fixtures, capsys):
        assert main(["fuzz", fixtures["transpose"], "--budget", "0"]) == 2
        capsys.readouterr()


@pytest.mark.parametrize("command", ["check", "fuzz"])
def test_kind_help_is_shared(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--kind {domain,range,full}" in out
    assert "compatibility kind" in out


@pytest.mark.parametrize("map_name", [None, "transpose", "identity"])
def test_negative_seed_exits_two_naming_the_flag(fixtures, tmp_path, capsys, map_name):
    # the transpose is refuted among the fixed pairs, before any seeded draw
    argv = (["fuzz", fixtures[map_name], "--out-dir", str(tmp_path)] if map_name
            else ["verify-suite", "--dims", "2", "--trials", "10"])
    assert main(argv + ["--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--seed" in captured.err
    assert not (tmp_path / "witness_a.json").exists()


@pytest.mark.parametrize("command, flag, limit", [
    ("verify-suite", "--trials", MAX_TRIALS), ("fuzz", "--budget", MAX_BUDGET)])
def test_oversized_run_exits_two_before_it_starts(fixtures, monkeypatch, capsys,
                                                  command, flag, limit):
    # the search at the limit is stubbed; one past it must not reach the search
    calls = []

    def stub(*args):
        calls.append(args)
        return [suites.SuiteResult("stub", 1, 0, 0, 0.0, True)] if command != "fuzz" else None

    monkeypatch.setattr(cli, "run_all_suites", stub)
    monkeypatch.setattr(cli, "fuzz_counterexample", stub)
    argv = [command] + ([fixtures["hom"]] if command == "fuzz" else [])
    assert main(argv + [flag, str(limit)]) == 0
    assert len(calls) == 1 and limit in calls[0]
    capsys.readouterr()

    assert main(argv + [flag, str(limit + 1)]) == 2
    captured = capsys.readouterr()
    assert len(calls) == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(limit) in captured.err


def test_witness_files_round_trip(fixtures, tmp_path, capsys):
    rc = main(["fuzz", fixtures["half"], "--kind", "domain", "--seed", "5",
               "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert rc == 3
    from abscompat.serialize import load_matrix
    from abscompat import CompatKind, compat_defect

    a = load_matrix(tmp_path / "witness_a.json")
    b = load_matrix(tmp_path / "witness_b.json")
    assert compat_defect(a, b, CompatKind.DOMAIN).verdict


_M2 = '"domain_shape": [2], "codomain_shape": [2]'
_HUGE_INT = "9" * 400  # beyond the float range
_EMPTY_ROWS = '{"shape": [1000000], "blocks": [[' + "[], " * 999999 + "[]]]}"  # 4 MB
_DEEP = "[" * 100000 + "]" * 100000


def _matrix(entry: str = "[0.5, 0.0]", shape: str = "[1]") -> str:
    return f'{{"shape": {shape}, "blocks": [[[{entry}]]]}}'


def _action(entry: str = "[0.0, 0.0]", rows: int = 4) -> str:
    zero_row = "[" + ", ".join(["[0.0, 0.0]"] * 4) + "]"
    first = "[" + ", ".join([entry] + ["[0.0, 0.0]"] * 3) + "]"
    return f'{{{_M2}, "action": [{", ".join([first] + [zero_row] * (rows - 1))}]}}'


def _builder(spec: str, shapes: str = _M2) -> str:
    return f'{{{shapes}, "builder": {spec}}}'


_HOSTILE_MATRICES = {
    "huge-int": _matrix(f"[{_HUGE_INT}, 0]"),
    "million-empty-rows": _EMPTY_ROWS,
    "many-small-blocks": f'{{"shape": {[1] * 3000}, "blocks": {[[[[0.5, 0.0]]]] * 3000}}}',
    "bool-shape": _matrix(shape="[true]"),
    "bool-entry": _matrix("[true, 0.0]"),
    "nan": _matrix("[NaN, 0.0]"),
    "infinity": _matrix("[0.5, -Infinity]"),
    "string-entry": _matrix('["0.5", 0.0]'),
    "ragged-rows": '{"shape": [2], "blocks": [[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]]}',
    "three-element-pair": _matrix("[0.5, 0.0, 0.0]"),
    "truncated": _matrix()[:-3],
    "non-object": "[1, 2]",
    "deep-nesting": _DEEP,
}
_HOSTILE_MAPS = {
    "huge-int": _action(f"[{_HUGE_INT}, 0]"),
    "million-empty-rows": _builder(
        f'{{"kind": "sandwich", "u": {_EMPTY_ROWS}, "v": {_matrix(shape="[2]")}}}'),
    "bool-shape-and-assignment": _builder(
        '{"kind": "star_hom", "block_assignment": [false, true]}',
        '"domain_shape": [true, 2], "codomain_shape": [true, 2]'),
    "bool-assignment": _builder('{"kind": "star_hom", "block_assignment": [false, true]}',
                                '"domain_shape": [1, 2], "codomain_shape": [1, 2]'),
    "bool-entry": _action("[true, 0.0]"),
    "nan": _action("[NaN, 0.0]"),
    "infinity": _builder('{"kind": "scale", "factor": [Infinity, 0.0]}'),
    "string-entry": _action('[0.5, "0"]'),
    "ragged-rows": f'{{{_M2}, "action": [[[1.0, 0.0]], [], [], []]}}',
    "three-element-pair": _builder('{"kind": "scale", "factor": [0.5, 0.0, 0.0]}'),
    "truncated": _action()[:-2],
    "non-object": '"transpose"',
    "action-one-row-short": _action(rows=3),
    "deep-nesting": _DEEP,
}
_HOSTILE = [pytest.param("check", text, id=f"check-{name}")
            for name, text in _HOSTILE_MATRICES.items()] + [
    pytest.param(command, text, id=f"{command}-{name}")
    for command in ("classify", "fuzz") for name, text in _HOSTILE_MAPS.items()]


@pytest.mark.parametrize("command, text", _HOSTILE)
def test_hostile_file_exits_two_with_a_message(tmp_path, capsys, command, text):
    # exit 1 would read as a verdict, so a traceback or a wrong verdict must not happen
    path = tmp_path / "hostile.json"
    path.write_text(text, encoding="utf-8")
    argv = {"check": ["check", "contraction", str(path)],
            "classify": ["classify", str(path)],
            "fuzz": ["fuzz", str(path), "--budget", "20", "--out-dir", str(tmp_path)]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


_TOL = 1e-8
_EDGE_MATRICES = {
    "denormal": ((2,), [np.diag([5e-324, 0.5])]),
    "norm-1+tol/2": ((2,), [np.diag([1.0 + _TOL / 2, 0.2])]),
    "norm-1+2tol": ((2,), [np.diag([1.0 + 2 * _TOL, 0.2])]),
    "zero-block": ((2, 1), [np.zeros((2, 2)), np.array([[0.5]])]),
    "rank-one": ((2,), [np.array([[0.5, 0.5], [0.5, 0.5]])]),
    "1x1": ((1,), [np.array([[0.3j]])]),
}
# (matrix, relation, exit code, defect or None); compat judges the matrix with itself
_EDGE_CASES = [
    ("denormal", "contraction", 0, 0.0),
    ("denormal", "compat", 1, 1.0),
    ("denormal", "tripotent", 0, None),
    ("norm-1+tol/2", "contraction", 0, _TOL / 2),
    ("norm-1+tol/2", "compat", 1, 0.4 / (1.0 + _TOL / 2)),
    ("norm-1+2tol", "contraction", 1, 2 * _TOL),
    ("norm-1+2tol", "compat", 2, None),
    ("norm-1+2tol", "tripotent", 2, None),
    ("zero-block", "compat", 1, 1.0),
    ("rank-one", "compat", 0, 0.0),
    ("1x1", "compat", 1, 0.6),
]


@pytest.mark.parametrize("name, relation, code, defect", _EDGE_CASES,
                         ids=[f"{name}-{relation}" for name, relation, *_ in _EDGE_CASES])
def test_edge_case_matrix_files(tmp_path, capsys, name, relation, code, defect):
    dims, blocks = _EDGE_MATRICES[name]
    path = str(tmp_path / "m.json")
    save_matrix(AlgebraElement.from_blocks(AlgebraShape(dims), blocks), path)
    files = [path, path] if relation == "compat" else [path]
    assert main(["check", relation, *files, "--json"]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    elif defect is not None:
        assert json.loads(captured.out)["defect"] == pytest.approx(defect, rel=1e-9, abs=1e-14)
