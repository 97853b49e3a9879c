"""Checks of the benchmark itself; run with

    python3 -m pytest bench/test_bench.py

They start the benchmark as a subprocess on short runs, so they take
about two minutes and stay out of the package's own test suite.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "bench", "run.py")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    digest = next(l for l in lines if "inputs sha256" in l).split()[-1]
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_every_metric_is_emitted(workload):
    (first, d1), (second, d2) = (result(run(workload, 5, 1))
                                 for _ in range(2))
    assert d1 == d2, "same seed must write byte-identical inputs"
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for out in (first, second):
        assert out["correct"] and out["failed"] == 0
        assert {k: v["unit"] for k, v in out["metrics"].items()} == names
    for name, unit in names.items():
        if unit in ("count", "bits"):
            assert (first["metrics"][name]["value"]
                    == second["metrics"][name]["value"]), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted(workload):
    out, _ = result(run(workload, 5, 0))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert ({k: v["unit"] for k, v in out["metrics"].items()}
            == {m["name"]: m["unit"] for m in SPEC["end_to_end"]})
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 1, 0, cwd=tmp_path,
               script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
