"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench/tests
Each workload runs once untraced and once traced at a tiny window and the
default seed, which still completes every digest item and compares its facts
with the stored reference.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, speed  # noqa: E402
from perfbench.tracer import TRACED_NAMES  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# workload on which each traced function is predicted to run
PREDICTED = {name: "verdict-mixed" for name in TRACED_NAMES}
PREDICTED.update({
    "geometry.polyhedron_from_halfspaces": "cli-cold",  # scenario files list halfspaces
    "cli.parse_scenario": "cli-cold",
    "perturb.perturb_to_extreme": "perturb-prism3",
    "exhaustive.minimal_exhaustive_subset": "perturb-prism3",
    "applications.sample_menu": "experiment-cube4",
    "applications.force_exhaustive": "experiment-cube4",
    "applications.genericity_experiment": "experiment-cube4",
})


def run_bench(workload, trace, seed=harness.DEFAULT_SEED):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    return {(w, t): run_bench(w, t) for w in WORKLOADS for t in (0, 1)}


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_every_metric(results, workload):
    for trace, spec in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        result = results[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {m: v["unit"] for m, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec}
    assert results[workload, 0]["metrics"]["correct_share"]["value"] == 1


def test_every_traced_function_runs_where_predicted(results):
    for name, workload in PREDICTED.items():
        calls = results[workload, 1]["metrics"][f"{name}.calls"]["value"]
        assert calls >= 1, f"{name} never ran on {workload}"


def test_certificate_layer_idle_on_experiment(results):
    metrics = results["experiment-cube4", 1]["metrics"]
    assert metrics["extremality.extract_decomposition.calls"]["value"] == 0
    assert metrics["extremality.verify_certificate.calls"]["value"] == 0


def test_tampered_reference_fails_the_run(monkeypatch, capsys):
    name = "perturb-prism3"
    tampered = list(harness.REFERENCE[name])
    tampered[3] = "0" * 16
    monkeypatch.setitem(harness.REFERENCE, name, tampered)
    code = harness.main(["--workload", name, "--seed", str(harness.DEFAULT_SEED),
                         "--seconds", "0.1"], perf_counter())
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert not result["correct"] and result["failed"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verdict-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_timings_scale_by_neighbouring_calibration_blocks():
    blocks = [[1.0], [3.0], [2.0, 2.0]]  # before item 0, between, after item 1
    assert speed.scale([0.1, 0.3], blocks) == pytest.approx([0.1 / 2, 0.3 / 2])
