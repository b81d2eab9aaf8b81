"""Self-tests of the deployed-path benchmark (``pytest benchmarks/deployed``).

Every workload runs shrunk (smaller bootstrap, fewer KPIs, a few
requests) through the real 2-shard plane, traced, so the checks, the
metric report and the waterfall are exercised end to end. Two
must-fail cases prove the checks and the waterfall can fail: a tampered
reply, and a 50 ms sleep wrapped around ``atomic_checkpoint``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.serve.shard as shard_module

import run
from workloads import WORKLOADS, build_inputs

SMALL = {
    "durable-point": ({}, 6),
    "backfill-week": ({"n_kpis": 2}, 1),
    "fanout-stream": ({"n_kpis": 6}, 12),
}


def small(name: str):
    overrides, units = SMALL[name]
    return dataclasses.replace(WORKLOADS[name], **overrides), units


def traced_run(name: str) -> "run.Result":
    workload, units = small(name)
    return run.run_workload(workload, seed=0, seconds=10, trace=True,
                            units=units)


@pytest.fixture(scope="module")
def results():
    return {name: traced_run(name) for name in WORKLOADS}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(results, name):
    result = results[name]
    assert result.correct, result.failures
    report = run.render(result)
    for metric, unit in {**run.END_TO_END, **run.PER_LAYER}.items():
        assert any(
            line.split()[:1] == [metric] and line.split()[-1] == unit
            for line in report.splitlines()
        ), f"{metric} [{unit}] missing from the report"
    line = result.result_line()
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(run.PER_LAYER)
    assert line["attempted"] >= 1 and line["failed"] == 0


@pytest.mark.parametrize("name", ["durable-point", "backfill-week"])
def test_layers_cover_the_request_latency(results, name):
    assert 0.9 <= results[name].metrics["coverage"] <= 1.1


def test_trace_overhead_is_reported_everywhere(results):
    for result in results.values():
        assert result.metrics["trace_overhead"] > 0


def test_untraced_run_reports_the_median_setup():
    workload, units = small("durable-point")
    result = run.run_workload(workload, seed=0, seconds=10, trace=False,
                              units=units)
    assert result.correct, result.failures
    setups = [float(s) for s in result.info["setup_s_each"].split()]
    assert len(setups) == run.SETUPS
    median = statistics.median(setups)
    assert result.metrics["setup_s"] == pytest.approx(median, abs=1e-3)
    assert result.info["requests_sent"] == units
    assert set(result.result_line()["metrics"]) == set(run.END_TO_END)


def test_tampered_reply_fails_the_checks():
    workload, units = small("durable-point")
    inputs = build_inputs(workload, seed=0, units=units)
    phase = run.run_phase(inputs, traced=False, deadline_s=60)
    assert run.check(inputs, phase) == []

    phase.replies[0].body["accepted"] = 0
    assert any("acknowledged" in f for f in run.check(inputs, phase))
    phase.replies[0].body["accepted"] = 1

    phase.replies[-1].body["events"].append(
        {"kind": "closed", "kpi": phase.replies[-1].request.points[0][0],
         "begin_index": 1, "end_index": 3, "peak_score": 1.0,
         "diagnosis": "spike"}
    )
    failures = run.check(inputs, phase)
    assert any("out of order" in f for f in failures)
    assert any("twin" in f for f in failures)


def test_checkpoint_sleep_shows_in_the_waterfall(results, monkeypatch):
    original = shard_module.atomic_checkpoint

    def slow_checkpoint(*args, **kwargs):
        time.sleep(0.05)
        return original(*args, **kwargs)

    monkeypatch.setattr(shard_module, "atomic_checkpoint", slow_checkpoint)
    slow = traced_run("durable-point")
    base = results["durable-point"]
    assert slow.correct, slow.failures
    for metric in ("serve.checkpoint.ms_per_batch", "request_p50_ms"):
        assert slow.metrics[metric] - base.metrics[metric] > 25, metric


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }


def test_fails_without_the_program(tmp_path: Path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "deployed",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/deployed/run.py", "--workload",
         "durable-point", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
