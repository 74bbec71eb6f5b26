"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest bench

They run real passes of the cheapest workload, so they take about two
minutes.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import spans  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def reference():
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def faults(results):
    return [(op, fault) for op, fault in results if fault is not None]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def mesh_output(tmp_path_factory):
    workload = WORKLOADS["mesh"]
    out_dir = str(tmp_path_factory.mktemp("mesh") / "pass")
    return workload.run_pass(workload.setup(DEFAULT_SEED), out_dir)


def test_spec_checker_counts_a_perturbed_output(mesh_output, tmp_path):
    workload = WORKLOADS["mesh"]
    expected = reference()["mesh"]
    assert faults(workload.check(mesh_output, expected)) == []

    perturbed = tmp_path / "perturbed"
    shutil.copytree(mesh_output["out_dir"], perturbed)
    summary = perturbed / "summary.csv"
    with open(summary, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    rows[1]["final_cost"] = repr(float(rows[1]["final_cost"]) * (1 + 1e-4))
    with open(summary, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    trace = perturbed / "cell0002.csv"
    lines = trace.read_text(encoding="utf-8").split("\n")
    fields = lines[5].split(",")
    fields[1] = "nan"
    lines[5] = ",".join(fields)
    trace.write_text("\n".join(lines), encoding="utf-8")

    found = faults(workload.check({"out_dir": str(perturbed)}, expected))
    assert [op for op, _ in found] == ["cell1", "cell2"]


def _certify_outputs(expected):
    rng = np.random.default_rng(0)
    matrices = {name: rng.standard_normal((4, 3)) for name in ("B", "M", "H")}
    matrices["F"] = rng.standard_normal(4)
    g_clean, g_noisy = rng.standard_normal(5), rng.standard_normal(5)
    generated = SimpleNamespace(problem=SimpleNamespace(**matrices),
                                stacked_clean=g_clean, stacked_noisy=g_noisy)
    loaded = (SimpleNamespace(**{k: v.copy() for k, v in matrices.items()}),
              g_clean.copy(), g_noisy.copy())
    reports = {int(k): SimpleNamespace(tau_max=v) for k, v in expected["tau_max"].items()}
    certificates = [SimpleNamespace(spectral_radius=rho, convergent=convergent, tau=0.1)
                    for rho, convergent in expected["certificates"]]
    tau_max, s_Bk = expected["s_path"]
    return {"generated": generated, "loaded": loaded, "reports": reports,
            "certificates": certificates,
            "s_report": SimpleNamespace(tau_max=tau_max, s_Bk=s_Bk)}


def test_certify_checker_counts_a_perturbed_output():
    workload = WORKLOADS["certify"]
    expected = reference()["certify"]
    outputs = _certify_outputs(expected)
    assert faults(workload.check(outputs, expected)) == []
    assert len(workload.check(outputs, expected)) == workload.ops_per_pass

    outputs["loaded"][0].B[0, 0] += 1e-12
    outputs["certificates"][2].convergent = True
    outputs["s_report"].tau_max *= 1.01
    found = faults(workload.check(outputs, None))
    assert [op for op, _ in found] == ["export_load", "certify2"]
    found = faults(workload.check(outputs, expected))
    assert [op for op, _ in found] == ["export_load", "certify2", "s_path"]


def test_layer_times_subtract_children_and_skip_nested_repeats():
    spans_ = [
        ["cavity.load", 0.0, 10.0, None, 0],
        ["matrixio.read", 1.0, 4.0, 0, 0],
        ["matrixio.read", 1.5, 3.5, 1, 0],   # read_vector -> read_matrix
        ["problem.init", 5.0, 9.0, 0, 0],
        ["cavity.load", 20.0, 21.0, None, 1],
    ]
    times = spans.layer_times(spans_, 0)
    assert times["cavity.load.s"] == 10.0
    assert times["matrixio.read.s"] == 3.0
    assert times["problem.init.s"] == 4.0
    assert times["cavity.self.s"] == 3.0
    assert times["spectral.eig.s"] == 0.0


def test_traced_run_reports_every_layer_and_repeats_its_counts():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    results = []
    for _ in range(2):
        done = run_bench("--workload", "mesh", "--seed", "1", "--seconds", "1",
                         "--trace", "1")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().split("\n")[-1])
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        results.append(result["metrics"])
    for name in spans.COUNT_METRICS:
        assert results[0][name] == results[1][name], name
    assert results[0]["descent.inner_sweeps"]["value"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = run_bench("--workload", "mesh", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
