"""The CI benchmark-regression gate (tools/bench_compare.py).

A gate that cannot fail is not a gate, so both directions are covered:
an unchanged run passes, a synthetic 2x slowdown fails, and the
baseline-refresh path works.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOL = REPO_ROOT / "tools" / "bench_compare.py"


def bench_json(path: Path, medians: dict) -> Path:
    payload = {
        "benchmarks": [
            {"fullname": name, "stats": {"median": median}}
            for name, median in medians.items()
        ]
    }
    path.write_text(json.dumps(payload))
    return path


def run_tool(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, args)],
        capture_output=True,
        text=True,
    )


@pytest.fixture()
def runs(tmp_path):
    baseline = bench_json(
        tmp_path / "baseline.json", {"bench::a": 1.0, "bench::b": 0.5}
    )
    current = bench_json(
        tmp_path / "current.json", {"bench::a": 1.1, "bench::b": 0.45}
    )
    return baseline, current


def test_within_threshold_passes(runs):
    baseline, current = runs
    result = run_tool(baseline, current, "--max-slowdown", "1.25")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "OK" in result.stdout


def test_injected_2x_slowdown_fails(runs):
    baseline, current = runs
    result = run_tool(
        baseline, current, "--max-slowdown", "1.25", "--inject-slowdown", "2.0"
    )
    assert result.returncode == 1
    assert "REGRESSION" in result.stdout
    assert "FAIL" in result.stdout


def test_real_regression_fails(tmp_path):
    baseline = bench_json(tmp_path / "b.json", {"bench::a": 1.0})
    current = bench_json(tmp_path / "c.json", {"bench::a": 1.3})
    result = run_tool(baseline, current)
    assert result.returncode == 1


def test_removed_baseline_bench_warns_but_passes(tmp_path):
    """Retiring a benchmark (or a whole backend) must not wedge the gate."""
    baseline = bench_json(tmp_path / "b.json", {"bench::a": 1.0, "bench::gone": 1.0})
    current = bench_json(tmp_path / "c.json", {"bench::a": 1.0})
    result = run_tool(baseline, current)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "WARNING" in result.stdout
    assert "bench::gone" in result.stdout


def test_empty_gated_overlap_fails(tmp_path):
    """A gate that measures nothing must not pass: disjoint runs fail
    even though every baseline benchmark is 'only' removed."""
    baseline = bench_json(tmp_path / "b.json", {"bench::old": 1.0})
    current = bench_json(tmp_path / "c.json", {"bench::new": 1.0})
    result = run_tool(baseline, current)
    assert result.returncode == 1
    assert "FAIL" in result.stdout
    assert "no benchmark" in result.stdout


def test_new_benchmarks_are_not_gated(tmp_path):
    baseline = bench_json(tmp_path / "b.json", {"bench::a": 1.0})
    current = bench_json(tmp_path / "c.json", {"bench::a": 1.0, "bench::new": 9.0})
    result = run_tool(baseline, current)
    assert result.returncode == 0
    assert "not gated" in result.stdout


def test_update_baseline(tmp_path):
    current = bench_json(tmp_path / "c.json", {"bench::a": 2.0})
    target = tmp_path / "nested" / "baseline.json"
    result = run_tool(target, current, "--update-baseline")
    assert result.returncode == 0
    assert json.loads(target.read_text()) == json.loads(current.read_text())


def test_unreadable_input_is_usage_error(tmp_path):
    missing = tmp_path / "nope.json"
    current = bench_json(tmp_path / "c.json", {"bench::a": 1.0})
    result = run_tool(missing, current)
    assert result.returncode == 2 or "cannot read" in result.stderr


def test_committed_baseline_matches_recorded_run():
    """The seeded baseline and BENCH_4.json must stay comparable."""
    baseline = REPO_ROOT / "benchmarks" / "baselines" / "bench_baseline.json"
    recorded = REPO_ROOT / "BENCH_4.json"
    assert baseline.exists() and recorded.exists()
    def names(path):
        return {
            bench["fullname"]
            for bench in json.loads(path.read_text())["benchmarks"]
        }

    # A benchmark that still exists, recorded in both files.
    live = "benchmarks/bench_table3_registry.py::test_feature_extraction_full_kpi[SRT]"
    assert live in names(baseline) & names(recorded)
    assert (REPO_ROOT / live.split("::")[0]).exists()
    result = run_tool(baseline, recorded, "--max-slowdown", "1000")
    assert result.returncode == 0
