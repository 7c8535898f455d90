"""Tests of the benchmark itself: python -m pytest perfbench (from the repo root)."""

import importlib
import json
import os
import random
import shutil
import subprocess
import sys
import types

import pytest

import reference
import spans
import worker
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)  # the verify workload reads corpus/ relative to the checkout


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_layer_handles_are_modules():
    # The package re-exports the function evolve under the submodule's name.
    assert not isinstance(importlib.import_module("gapsim").evolve, types.ModuleType)
    assert set(workloads.LAYERS) == set(workloads.LAYER_NAMES)
    for name, handle in workloads.LAYERS.items():
        assert isinstance(handle, types.ModuleType), name
        assert handle.__name__ == f"gapsim.{name}"
    assert isinstance(workloads.evolve, types.ModuleType)


@pytest.mark.parametrize("name", sorted(workloads.SETUPS))
def test_same_seed_same_inputs(name):
    def digest(seed):
        return workloads.SETUPS[name](random.Random(seed), spans.Tracer(), "tiny").digest()

    assert digest(5) == digest(5)
    if name != "verify":  # verify's inputs are the shipped corpus; the seed orders them
        assert digest(5) != digest(6)


@pytest.mark.parametrize("name", sorted(workloads.SETUPS))
def test_tiny_run_passes_every_check(name):
    result = worker.run_workload(name, 3, 0, False, scale="tiny", min_jobs=1)
    assert result["failed"] == 0, result["problems"]
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {"jobs_per_s", "job_p50_ms", "job_p90_ms", "peak_rss_mb"}


@pytest.mark.parametrize("name", sorted(workloads.SETUPS))
def test_traced_tiny_run_reports_every_per_layer_metric(name):
    result = worker.run_workload(name, 3, 0, True, scale="tiny", min_jobs=1)
    assert result["failed"] == 0, result["problems"]
    expected = {m["name"] for m in _spec()["per_layer"]}
    assert expected <= set(result["metrics"])


def test_corrupted_reference_counts_as_failure(monkeypatch):
    monkeypatch.setattr(reference, "accept_amplitude", lambda *args: 10**9)
    result = worker.run_workload("simulate", 3, 0, False, scale="tiny", min_jobs=1)
    assert result["attempted"] > 0
    assert result["failed"] == result["attempted"]
    assert "wrong answer" in result["problems"][0]


def test_failing_reference_counts_as_failure(monkeypatch):
    def broken(*args):
        raise ValueError("broken reference")

    monkeypatch.setattr(reference, "inlined_gaps", broken)
    result = worker.run_workload("gap_trees", 3, 0, False, scale="tiny", min_jobs=1)
    assert 0 < result["failed"] < result["attempted"]
    assert any("broken reference" in p for p in result["problems"])


def test_self_time_subtracts_children():
    span_list = [
        ["job.x", 0.0, 10.0, None, 0, "job"],
        ["model.a", 1.0, 3.0, 0, 0, "job"],
        ["evolve.b", 4.0, 8.0, 0, 0, "job"],
        ["trees.c", 5.0, 6.0, 2, 0, "job"],
    ]
    assert spans.self_times(span_list) == [4.0, 2.0, 3.0, 1.0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_job_latency_is_the_median_of_its_inputs_scaled_times():
    host = worker.REFERENCE_LOOP_S
    records = [
        [0, 3.0, None, None, host],
        [1, 5.0, None, None, 2 * host],  # a slow host: 5 s count as 2.5 s
        [0, 1.0, None, None, host],
        [1, 7.0, None, None, host],
        [0, 2.0, None, None, host],
        [1, 4.0, None, None, host],
    ]
    assert worker.job_latencies(records) == [2.0, 4.0, 2.0, 4.0, 2.0, 4.0]
    metrics = worker.end_to_end(records, [True] * 5 + [False], 20.0)
    assert metrics["jobs_per_s"] == 5 / 18.0
    assert metrics["job_p50_ms"] == 3000.0


def test_reference_loop_runs_between_jobs():
    records, _pass_times, _counters = worker._measure(
        workloads.SETUPS["simulate"](random.Random(3), spans.Tracer(), "tiny"),
        random.Random(3), 0, False, spans.Tracer(), 1,
    )
    assert records and all(0 < record[4] < 1 for record in records)
