"""In-process stream cost per point, by detector family.

§4.3.2 scores each point the moment it arrives, so the deployed path
runs one ``FamilyStream.update`` per family per point. This bench times
those updates for the full Table 3 bank, family by family, on three
series:

* ``srt-clean``: SRT (hourly), six weeks of warm-up, the seventh week
  timed;
* ``srt-nan-run``: the same with a 30-point NaN run early in the timed
  week. After the run, SVD skips every config whose window (up to 350
  points) reaches back into it, which covers the rest of the week, so
  this scenario understates SVD; the clean one does not;
* ``pv-1min``: PV at the paper's 1-minute interval, six weeks (60,480
  points) of warm-up, 1,000 points timed. The wavelet's 7-day window is
  10,080 points here.

Every family is warm before timing starts. The warm streams are
snapshotted once, and each pass times the same points on streams
restored from that snapshot; a family's cost is the median over passes
(with the range), in µs per point. ±inf never occurs in these series,
so each update sees the value ``StreamBank.extract_point`` would pass.

Run ``PYTHONPATH=src python benchmarks/bench_stream_families.py
[scenario ...]`` for one JSON line per scenario, or through pytest for
the printed tables. The PV scenario's warm-up takes a few minutes.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.data import make_pv, make_srt
from repro.detectors import build_family_evaluators, configs_for
from repro.timeseries import TimeSeries

PASSES = 5


def _srt(nan_run: bool) -> Tuple[TimeSeries, int, int]:
    series = make_srt(weeks=7).series
    warm = 6 * series.points_per_week
    if nan_run:
        values = series.values.copy()
        values[warm + 10:warm + 40] = np.nan
        series = TimeSeries(values=values, interval=series.interval)
    return series, warm, series.points_per_week


def _pv_1min() -> Tuple[TimeSeries, int, int]:
    timed = 1000
    series = make_pv(weeks=6 + timed / 10080 + 0.01, paper_interval=True).series
    return series, 6 * series.points_per_week, timed


SCENARIOS = {
    "srt-clean": lambda: _srt(nan_run=False),
    "srt-nan-run": lambda: _srt(nan_run=True),
    "pv-1min": _pv_1min,
}


def measure(scenario: str, passes: int = PASSES) -> Dict[str, object]:
    """µs per point of each family's stream over the timed points."""
    series, warm, timed = SCENARIOS[scenario]()
    values = series.values.tolist()
    evaluators = build_family_evaluators(configs_for(series))
    streams = [evaluator.make_stream() for evaluator in evaluators]
    for value in values[:warm]:
        for stream in streams:
            stream.update(value)
    states = [stream.snapshot() for stream in streams]
    tail = values[warm:warm + timed]

    samples: Dict[str, List[float]] = {}
    for _ in range(passes):
        fresh = [
            evaluator.make_stream().restore(state)
            for evaluator, state in zip(evaluators, states)
        ]
        spent = [0.0] * len(fresh)
        clock = time.perf_counter
        for value in tail:
            for i, stream in enumerate(fresh):
                began = clock()
                stream.update(value)
                spent[i] += clock() - began
        totals: Dict[str, float] = {}
        for evaluator, seconds in zip(evaluators, spent):
            totals[evaluator.kind] = totals.get(evaluator.kind, 0.0) + seconds
        for kind, seconds in totals.items():
            samples.setdefault(kind, []).append(1e6 * seconds / len(tail))
        samples.setdefault("total", []).append(1e6 * sum(spent) / len(tail))
    return {
        "scenario": scenario,
        "interval_s": series.interval,
        "warm_points": warm,
        "timed_points": len(tail),
        "passes": passes,
        "us_per_point": {
            kind: {
                "median": float(np.median(runs)),
                "min": float(np.min(runs)),
                "max": float(np.max(runs)),
            }
            for kind, runs in samples.items()
        },
    }


def render(result: Dict[str, object]) -> str:
    lines = [
        f"{result['scenario']}: {result['timed_points']} points timed after "
        f"{result['warm_points']} warm, interval {result['interval_s']} s, "
        f"{result['passes']} passes (µs per point)",
        f"{'family':<20} {'median':>9} {'min':>9} {'max':>9}",
    ]
    for kind, cost in sorted(
        result["us_per_point"].items(), key=lambda item: -item[1]["median"]
    ):
        lines.append(
            f"{kind:<20} {cost['median']:>9.1f} {cost['min']:>9.1f} "
            f"{cost['max']:>9.1f}"
        )
    return "\n".join(lines)


def test_stream_cost_per_family():
    from _common import print_header

    print_header("Stream cost per point by family (full Table 3 bank)")
    for scenario in SCENARIOS:
        result = measure(scenario)
        print(render(result))
        costs = result["us_per_point"]
        assert {"svd", "historical", "wavelet", "seasonal-residual"} <= set(costs)
        assert all(cost["median"] > 0 for cost in costs.values())


if __name__ == "__main__":
    for name in sys.argv[1:] or list(SCENARIOS):
        print(json.dumps(measure(name)), flush=True)
