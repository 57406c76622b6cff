from __future__ import annotations

import json

import numpy as np
import pytest

from abscompat import AlgebraElement, AlgebraShape, build_star_hom, scale_map, transpose_map
from abscompat.cli import main
from abscompat.sampling import compatible_positive_pair_2x2, crossed_isometry_pair_2x2
from abscompat.serialize import dumps_canonical, save_map, save_matrix


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

    def test_tolerance_flag(self, fixtures):
        # at a huge tolerance even the transposed pair "passes"
        rc = main(["check", "compat", fixtures["et"], fixtures["vt"],
                   "--kind", "domain", "--tol", "0.5"])
        assert rc == 0


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

    def test_zero_trials_rejected(self, capsys):
        assert main(["verify-suite", "--trials", "0"]) == 2
        capsys.readouterr()

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

    def test_parse_error(self, fixtures, capsys):
        assert main(["classify", fixtures["bad"]]) == 2
        capsys.readouterr()


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

    def test_parse_error(self, fixtures, capsys):
        assert main(["fuzz", fixtures["bad"]]) == 2
        capsys.readouterr()

    def test_bad_budget(self, fixtures, capsys):
        assert main(["fuzz", fixtures["transpose"], "--budget", "0"]) == 2
        capsys.readouterr()


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
