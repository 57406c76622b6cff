"""Tests of the benchmark itself: its oracle against a dense computation, and
each workload's output check against a wrong answer.

    python3 -m pytest benchmark/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracle import TOL  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return run.import_library()


def _block_diag(blocks: list[np.ndarray]) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=np.complex128)
    offset = 0
    for b in blocks:
        d = b.shape[0]
        out[offset:offset + d, offset:offset + d] = b
        offset += d
    return out


@pytest.mark.parametrize("dims", [(2,), (3,), (5,), (2, 3, 4)])
@pytest.mark.parametrize("compatible", [True, False])
def test_pointwise_oracle_matches_dense_svd(dims, compatible):
    rng = np.random.default_rng(11)
    for _ in range(3):
        case = workloads.oracle_case(rng, dims, compatible)
        a, b = _block_diag(case.blocks_a), _block_diag(case.blocks_b)
        for kind in workloads.COMPAT_KINDS:
            assert oracle.compat_defect(a, b, kind) == pytest.approx(case.oracle, abs=1e-12)
        if compatible:
            assert case.oracle <= 1e-15  # a modulus of 1 is exact to rounding
        else:
            assert case.oracle > 1e-3


def test_dense_abs_value_is_the_square_root_of_the_gram():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    abs_x, abs_x_adj = oracle.abs_pair(x)
    assert np.allclose(abs_x @ abs_x, x.conj().T @ x)
    assert np.allclose(abs_x_adj @ abs_x_adj, x @ x.conj().T)


def test_compat_check_rejects_a_perturbed_defect(lib):
    case = workloads.oracle_case(np.random.default_rng(5), (3,), False)
    shape = lib.algebra.AlgebraShape(case.dims)
    a = lib.algebra.AlgebraElement.from_blocks(shape, case.blocks_a)
    b = lib.algebra.AlgebraElement.from_blocks(shape, case.blocks_b)
    report = lib.relations.compat_defect(a, b, lib.relations.CompatKind.FULL)
    assert workloads.check_compat_report(report, case.oracle) is None
    perturbed = lib.reports.RelationReport.from_defect(
        report.relation_name, report.defect + 1e-6, TOL)
    assert workloads.check_compat_report(perturbed, case.oracle) is not None
    flipped = SimpleNamespace(defect=0.0, verdict=True)
    assert workloads.check_compat_report(flipped, 0.5) is not None
    # inside the band around the tolerance only the defect bound applies
    assert workloads.check_compat_report(SimpleNamespace(defect=TOL, verdict=True), TOL) is None


def _fuzz_case(map_name: str, kind: str) -> workloads.FuzzCase:
    return next(c for c in workloads.FUZZ_CASES if (c.map_name, c.kind) == (map_name, kind))


def test_fuzz_check_rejects_a_fabricated_witness(lib):
    shape = lib.algebra.AlgebraShape((2,))
    transpose = lib.preservers.transpose_map(shape)
    case = _fuzz_case("transpose", "domain")
    witness = lib.preservers.fuzz_counterexample(transpose, lib.relations.CompatKind.DOMAIN, 50, 0)
    assert workloads.check_fuzz_witness(witness, case) is None
    # a pair that is not compatible to begin with
    rng = np.random.default_rng(2)
    a, b = (lib.sampling.rand_contraction(rng, shape) for _ in range(2))
    fabricated = dataclasses.replace(witness, a=a, b=b)
    assert workloads.check_fuzz_witness(fabricated, case) is not None
    # a compatible pair whose image stays compatible
    one = lib.algebra.unit(shape)
    assert workloads.check_fuzz_witness(dataclasses.replace(witness, a=one, b=one), case) is not None
    # the right pair with a misreported output defect
    assert workloads.check_fuzz_witness(
        dataclasses.replace(witness, output_defect=0.5), case) is not None
    # any witness against a triple homomorphism contradicts the theorem
    assert workloads.check_fuzz_witness(witness, _fuzz_case("transpose", "full")) is not None
    assert workloads.check_fuzz_witness(None, _fuzz_case("transpose", "full")) is None
    assert workloads.check_fuzz_witness(None, case) is not None


def _zoo_entry(label_prefix: str) -> workloads.ZooEntry:
    zoo = workloads.WORKLOADS["triplehom"].prepare(4, Path("unused"))
    return next(e for e in zoo if e.label.startswith(label_prefix))


def test_classification_check_rejects_swapped_blocks(lib):
    entry = _zoo_entry("mixed block map")
    cls = lib.preservers.classify_triple_hom(workloads.build_zoo_map(lib, entry))
    not_triple_hom = lib.errors.NotTripleHom
    assert workloads.check_classification(cls, entry, not_triple_hom) is None
    swapped = dataclasses.replace(cls, hom_block_indices=cls.antihom_block_indices,
                                  antihom_block_indices=cls.hom_block_indices)
    assert workloads.check_classification(swapped, entry, not_triple_hom) is not None
    not_isometry = dataclasses.replace(cls, unit_image=0.5 * cls.unit_image)
    assert workloads.check_classification(not_isometry, entry, not_triple_hom) is not None


def test_triple_hom_check_rejects_a_verdict_on_a_scale_map(lib):
    entry = _zoo_entry("scale M2")
    tmap = workloads.build_zoo_map(lib, entry)
    report = lib.preservers.is_triple_hom(tmap)
    assert workloads.check_triple_hom_report(report, entry) is None
    passed = lib.reports.RelationReport.from_defect(report.relation_name, 0.0, TOL)
    assert workloads.check_triple_hom_report(passed, entry) is not None
    off = lib.reports.RelationReport.from_defect(report.relation_name, report.defect + 1e-9, TOL)
    assert workloads.check_triple_hom_report(off, entry) is not None
    not_triple_hom = lib.errors.NotTripleHom
    assert workloads.check_classification(not_triple_hom("x"), entry, not_triple_hom) is None
    cls = lib.preservers.classify_triple_hom(lib.preservers.transpose_map(tmap.domain_shape))
    assert workloads.check_classification(cls, entry, not_triple_hom) is not None


def test_verify_suite_check_rejects_a_failed_or_shrunk_run():
    suite = {"suite": "s", "trials": 200, "failures": 0, "passed": True}
    payload = {"dims": [2, 3], "trials": 200, "seed": 7, "passed": True, "suites": [suite]}
    good = (0, json.dumps(payload))
    assert workloads.check_verify_suite(good, 7) is None
    assert workloads.check_verify_suite(good, 8) is not None
    assert workloads.check_verify_suite((1, json.dumps(payload)), 7) is not None
    failed = {**payload, "suites": [{**suite, "failures": 1, "passed": False}]}
    assert workloads.check_verify_suite((0, json.dumps(failed)), 7) is not None
    assert workloads.check_verify_suite((0, json.dumps({**payload, "trials": 20})), 7) is not None


def test_schedule_spreads_repeats_and_calls_are_scaled_to_the_quiet_host():
    ops = [workloads.Op("a", None, None, 3), workloads.Op("b", None, None)]
    assert [op.label for op in run.schedule(ops)] == ["a", "b", "a", "a"]
    with pytest.raises(ValueError):
        run.schedule([workloads.Op("a", None, None)] * 2)
    tally = run.Tally()
    round_ops = run.schedule([workloads.Op("a", None, None, 2), workloads.Op("b", None, None)])
    # the second round ran on a host twice as slow: the reference piece took
    # twice its quiet time around it
    quiet = run.REFERENCE_QUIET_S
    tally.rounds = [(round_ops, [2.0, 1.0, 1.5], [quiet] * 3),
                    (round_ops, [4.0, 2.0, 6.0], [2 * quiet] * 3)]
    assert tally.calls() == {"a": [2.0, 1.5, 2.0, 3.0], "b": [1.0, 1.0]}
    assert tally.wall_s() == 3.0  # a: median 2.0, b: median 1.0
    assert tally.wall_s(tally.rounds[-1:]) == 3.5
    assert tally.op_p50_s() == 1.75
    tally.setups = [(0.1, quiet), (0.4, 2 * quiet), (0.3, quiet)]
    assert tally.setup_s() == 0.2


def test_host_speed_samples_and_leaves_the_samples_inside_a_call_out():
    speed = run.HostSpeed()
    means = [speed.sample() for _ in range(3)]
    assert speed.samples == means
    assert 0.0 < speed.fastest <= min(means)
    t0 = time.perf_counter()
    out, seconds, inside = speed.timed(lambda: [speed._sample_inside(None, None) for _ in range(3)])
    elapsed = time.perf_counter() - t0
    assert out == [None] * 3 and len(inside) >= 3 and min(inside) > 0.0
    assert 0.0 <= seconds < elapsed - sum(inside)


def test_tracer_counts_and_restores(lib):
    shape = lib.algebra.AlgebraShape((2,))
    a = lib.algebra.AlgebraElement.single(np.diag([1.0, 0.0]))
    original = lib.relations.compat_defect
    tracer = tracing.Tracer()
    tracer.install(lib)
    try:
        lib.preservers.fuzz_counterexample(lib.preservers.transpose_map(shape),
                                           lib.relations.CompatKind.DOMAIN, 50, 0)
        lib.relations.compat_defect(a, a, lib.relations.CompatKind.RANGE)
    finally:
        tracer.uninstall()
    assert lib.relations.compat_defect is original
    assert lib.preservers.compat_defect is original
    values = tracer.per_layer(0.0)
    assert values["preservers.fuzz_counterexample.calls"] == 1
    assert values["preservers.fuzz.evaluated"] == 2  # refuted at stream index 1
    assert values["relations.compat_defect.range.calls"] == 1
    assert values["relations.compat_defect.domain.calls"] >= 2
    assert values["linalg.svd.calls"] > 0 and values["linalg.eigh.calls"] > 0
    assert 0.0 <= values["relations.compat_defect.self_s"] <= values["relations.compat_defect.time_s"]


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert all(m["unit"] == tracing.unit_of(m["name"]) for m in spec["per_layer"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
