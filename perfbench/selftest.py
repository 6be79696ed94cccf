"""Tests of the benchmark itself, at tiny input sizes (about a minute).

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these out of the repository's default ``pytest`` run;
they start subprocesses and a TCP server.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def bench(workload: str, trace: int, cwd: str = ROOT, script: str = None):
    """Run the benchmark command at tiny sizes; return (exit code, last line)."""
    done = subprocess.run(
        [
            sys.executable, script or os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", "1", "--seconds", "0.5",
            "--trace", str(trace), "--profile", "tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_passes_its_output_check(workload):
    code, result = bench(workload, trace=0)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.BATCH))
def test_perturbed_summary_fails_the_check(workload, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SOLVE_CACHE_DIR", str(tmp_path / "solve-cache"))
    monkeypatch.setenv("REPRO_RUN_STORE", "0")
    driver = workloads.BATCH[workload]("tiny", 1, str(tmp_path))
    rows = driver.rows(driver.call())
    expected = workloads.expected_digest(workload, "tiny", 1)
    assert workloads.digest(rows) == expected
    key = next(k for k, v in rows[0].items() if isinstance(v, float) and math.isfinite(v))
    rows[0][key] = math.nextafter(rows[0][key], math.inf)
    assert workloads.digest(rows) != expected


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_traced_run_reports_every_layer(workload):
    code, first = bench(workload, trace=1)
    assert code == 0 and first["correct"] is True
    metrics = {name: entry["value"] for name, entry in first["metrics"].items()}
    assert set(metrics) == set(run.per_layer_units())
    self_times = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_times + metrics["trace.other_s"] == pytest.approx(
        metrics["trace.wall_s"], rel=1e-9
    )
    assert metrics["trace.other_s"] >= 0

    _, second = bench(workload, trace=1)
    units = run.per_layer_units()
    counts = [k for k, unit in units.items() if unit == "count" and k != "gen.late_sends"]
    assert {k: metrics[k] for k in counts} == {
        k: second["metrics"][k]["value"] for k in counts
    }


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    code, result = bench(
        "joint-sweep", 0, cwd=str(tmp_path), script=str(tmp_path / "perfbench" / "run.py")
    )
    assert code != 0 and result is None


def test_slots_per_s_is_scaled_to_the_reference_speed():
    ref = workloads.CALIBRATION_REF_S
    figures = {
        "op_slots": [100, 100, 50],
        "op_seconds": [1.0, 2.0, 0.25],
        "op_calibration_s": [ref, 2 * ref, ref / 2],
    }
    assert run.slots_per_s(figures) == pytest.approx(100.0)
