"""Checks of the benchmark itself: inputs, reference, tracer, result line.

    python3 -m pytest -q bench/test_bench.py

The oracle check runs brute-force factoring on every irreducible verdict of
mixed-lowdeg and takes about half a minute.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import build_reference
import corpus
import harness
import tracing

BENCH = Path(__file__).resolve().parent


def reference_rows(workload: str) -> list[dict]:
    with open(harness.REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)["inputs"]


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_generated_inputs_match_the_reference(workload):
    inputs = corpus.inputs(workload)
    assert len(harness.load_reference(workload, inputs)) == len(inputs)


def test_mixed_lowdeg_copies_the_criterion_13_recipe():
    api = harness.load_api()
    edcert = sys.modules["edcert"]
    if not hasattr(edcert, "random_ed_polynomial"):
        pytest.skip("the package no longer ships the test generator")
    rng = random.Random(1013)
    for draw, item in enumerate(corpus.inputs("mixed-lowdeg"), start=1):
        A, _ = edcert.random_ed_polynomial(
            rng, max_degree=6, max_unit=6, max_endpoint_val=2, extra_val=1
        )
        if draw % 3 == 0:
            A = A.taylor_shift(rng.choice((-1, 1)))
        assert A == api.FormalPoly.from_coeffs(item.coeffs), item.id


def test_cyclo_shift_certificates_name_p():
    build_reference.check_cyclo(reference_rows("cyclo-shift"))


def test_mixed_lowdeg_irreducible_verdicts_confirmed_by_oracle():
    rows = reference_rows("mixed-lowdeg")
    assert sum(row["verdict"] == "irreducible" for row in rows) > 250
    build_reference.check_oracle(harness.load_api(), rows)


def test_seed_sets_only_the_order():
    inputs = corpus.inputs("mixed-lowdeg")
    first = corpus.order("mixed-lowdeg", inputs, 1)
    assert first == corpus.order("mixed-lowdeg", inputs, 1)
    assert first != corpus.order("mixed-lowdeg", inputs, 2)
    assert sorted(first, key=lambda i: i.id) == inputs


def test_tracer_reports_a_missing_name_as_absent(monkeypatch):
    api = harness.load_api()
    monkeypatch.delattr(sys.modules["edcert.cli"], "parse_poly")
    tracer = tracing.Tracer([api])
    tracer.install()
    try:
        tracer.input = 0
        poly = api.FormalPoly.from_coeffs(corpus.inputs("cyclo-shift")[0].coeffs)
        cert, text = harness.certify(api, poly)
        with pytest.raises(NameError):  # validate calls parse_poly, which is gone
            harness.verify(api, text)
        stats = tracer.take_pass([1.0])
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics([stats], tracer.present)
    assert metrics["cli.parse_poly.ms"]["value"] is None
    assert metrics["moebius.act.full.calls"]["value"] == 0
    assert metrics["moebius.act.triangular.calls"]["value"] == 4
    assert metrics["certify.transforms.calls"]["value"] == 4
    assert not hasattr(harness.certify, "__wrapped__")  # originals restored


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_result_line(trace):
    out = run_bench(BENCH.parent, "--workload", "cyclo-shift", "--seed", "3",
                    "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 27
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert sorted(last["metrics"]) == sorted(names)
    if trace == "1":
        metrics = {k: v["value"] for k, v in last["metrics"].items()}
        assert metrics["moebius.act.full.calls"] == 0
        assert metrics["exact_arith.factor.self_ms"] > metrics["certify.certify_search.ms"] / 2


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = run_bench(tmp_path, "--workload", "cyclo-shift", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
