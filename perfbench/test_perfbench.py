"""Tests of the benchmark itself, at the tiny input size.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import telekf.cli  # noqa: E402,F401
import telekf.estimator  # noqa: E402
import telekf.netsim  # noqa: E402
from telekf.errors import DataError  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_lists_match_benchmark_json():
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"])
                    for m in BENCHMARK[key]]
        assert declared == list(table)
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        ["sweep_c11", "identify_long", "filter_direct"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["sweep_c11", "identify_long",
                                      "filter_direct"])
def test_smoke_run_emits_every_metric_with_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in
                BENCHMARK["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


def _run_tiny(workload, tmp_path):
    args = run.parse_args(["--workload", workload, "--seed", "4",
                           "--seconds", "0", "--trace", "0",
                           "--size", "tiny"])
    report = {}
    attempted, failed, _ = run.run(args, telekf, tmp_path, report)
    return failed / attempted, report["failures"]


@pytest.fixture
def one_setup_run(monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)


def test_error_row_raises_failed_frac(tmp_path, monkeypatch, one_setup_run):
    impair = telekf.netsim.impair

    def failing_impair(clean, scenario, *args, **kwargs):
        if scenario.label == "scenario_3":
            raise DataError("injected channel failure")
        return impair(clean, scenario, *args, **kwargs)

    monkeypatch.setattr(telekf.netsim, "impair", failing_impair)
    frac, failures = _run_tiny("sweep_c11", tmp_path)
    assert frac > 0
    assert set(failures) == {"scenario_3"}


def test_non_finite_output_raises_failed_frac(tmp_path, monkeypatch,
                                              one_setup_run):
    run_filter = telekf.estimator.run_filter

    def nan_filter(*args, **kwargs):
        result = run_filter(*args, **kwargs)
        estimates = result.estimates.copy()
        estimates[7] = np.nan
        return dataclasses.replace(result, estimates=estimates)

    monkeypatch.setattr(telekf.estimator, "run_filter", nan_filter)
    frac, failures = _run_tiny("filter_direct", tmp_path)
    assert frac > 0
    assert set(failures) == {"run_filter"}


def test_changed_output_between_iterations_is_a_failure(tmp_path,
                                                        monkeypatch,
                                                        one_setup_run):
    calls = []
    run_filter = telekf.estimator.run_filter

    def drifting_filter(*args, **kwargs):
        calls.append(1)
        result = run_filter(*args, **kwargs)
        if len(calls) > 12:  # after the first sweep, estimates drift
            return dataclasses.replace(result,
                                       estimates=result.estimates + 1e-3)
        return result

    monkeypatch.setattr(telekf.estimator, "run_filter", drifting_filter)
    args = run.parse_args(["--workload", "sweep_c11", "--seed", "4",
                           "--seconds", "0", "--size", "tiny"])
    report = {}
    _, failed, _ = run.run(args, telekf, tmp_path, report)
    assert failed > 0


def test_missing_sources_exit_nonzero(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_c11",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
