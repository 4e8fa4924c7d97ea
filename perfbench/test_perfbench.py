"""The benchmark's own tests (about three minutes; not part of tier-1):

    python3 -m pytest perfbench/test_perfbench.py

They check the metric declarations against ``BENCHMARK.json``, that every
workload emits every end-to-end metric, that the traced run emits every
per-layer metric, that a perturbed expectation is caught, that a run
leaves ``git status`` unchanged, and that the benchmark refuses to run
without the program.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_status() -> str:
    if not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    return subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                          capture_output=True, text=True,
                          check=True).stdout


def run_benchmark(*args: str) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
        capture_output=True, text=True, timeout=180)
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_metric_names_and_units():
    bench = benchmark_json()
    declared = bench["end_to_end"] + bench["per_layer"]
    for metric in declared:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
    names = [metric["name"] for metric in declared]
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == layers.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_workload_emits_every_end_to_end_metric(workload):
    before = git_status()
    result = run_benchmark("--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", "0")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
        assert metric["value"] > 0
    assert git_status() == before


def test_traced_run_emits_every_per_layer_metric():
    before = git_status()
    result = run_benchmark("--workload", "fuzz", "--seed", "5",
                           "--seconds", "1", "--trace", "1")
    assert result["correct"]
    assert [(name, metric["unit"])
            for name, metric in result["metrics"].items()] \
        == [(name, unit) for name, unit, _ in layers.PER_LAYER]
    metrics = {name: metric["value"]
               for name, metric in result["metrics"].items()}
    for name in ("fuzz.generate_s", "fuzz.oracle.differential_s",
                 "core.snapshot_s", "simulate_s", "engine.run_cells_s"):
        assert metrics[name] > 0, name
    assert git_status() == before


def _small_sweep(tmp_path, expected):
    sweep = workloads.make("sweep-spec", 0, tmp_path, expected)
    sweep.specs = sweep.specs[:2]
    return sweep.run()


def test_perturbed_cell_expectation_fails(tmp_path):
    expected = workloads.load_expected()
    assert not _small_sweep(tmp_path / "ok", expected).failures
    perturbed = copy.deepcopy(expected)
    perturbed["cells"]["perlbench/insecure"]["cycles"] += 1
    outcome = _small_sweep(tmp_path / "bad", perturbed)
    assert outcome.attempted == 2
    assert len(outcome.failures) == 1


def test_perturbed_fuzz_expectation_fails(tmp_path):
    expected = copy.deepcopy(workloads.load_expected())
    expected["fuzz"]["0"]["instructions"][1] += 1
    fuzz = workloads.make("fuzz", 0, tmp_path, expected)
    # Two seeds keep the test short.  The recorded coverage_size is that
    # of all 64 seeds, so the coverage check fails too.
    fuzz.options = dataclasses.replace(fuzz.options, seeds=2)
    outcome = fuzz.run()
    assert outcome.attempted == 3
    assert len(outcome.failures) == 2
    assert outcome.failures[0].startswith("fuzz seed 1:")
    assert outcome.failures[1].startswith("fuzz coverage_size")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz", "--seed",
         "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
        capture_output=True, text=True, timeout=180)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_tail_has_ten_samples_above_it():
    assert layers.tail(list(range(48))) == 37
    assert layers.tail([3.0, 1.0, 2.0]) == 3.0
    assert layers.tail([]) == 0.0
