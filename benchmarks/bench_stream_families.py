"""In-process stream cost per point, by detector family.

§4.3.2 scores each point the moment it arrives, so the deployed path
runs one ``StreamBank.extract_point`` per point: the bank appends the
value to its one ring of raw values, then each family's
``FamilyStream.update`` reads its tail of that ring. This bench times
those updates family by family, and the bank's own share (the ring
append and the row assembly), on four series:

* ``srt-clean``: SRT (hourly), full Table 3 bank, six weeks of warm-up,
  the seventh week timed;
* ``srt-nan-run``: the same with a 30-point NaN run early in the timed
  week. After the run, SVD skips every config whose window (up to 350
  points) reaches back into it, which covers the rest of the week, so
  this scenario understates SVD; the clean one does not;
* ``pv-1min``: PV at the paper's 1-minute interval, full bank, six
  weeks (60,480 points) of warm-up, 1,000 points timed. The wavelet's
  7-day window is 10,080 points here;
* ``small-bank``: PV at 10 minutes with ``small_bank``, the per-KPI
  bank of the deployed ``fanout-stream`` workload, one week of warm-up
  (its bootstrap) and 1,000 points timed.

Every family is warm before timing starts. The warm bank is
snapshotted once, and each pass times the same points on a bank
restored from that snapshot and the values it had seen; a family's
cost is the median over passes (with the range), in µs per point.
Each scenario also reports, at the end of the warm-up, the bytes of
each family's stream checkpoint state (JSON) and each family's
``buffered_points()``; ``bank`` is the raw-value ring, counted once.

Run ``PYTHONPATH=src python benchmarks/bench_stream_families.py
[scenario ...]`` for one JSON line per scenario, or through pytest for
the printed tables. The PV 1-minute warm-up takes a few minutes.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.data import make_pv, make_srt
from repro.detectors import DetectorConfig, StreamBank, configs_for
from repro.fleet.banks import small_bank
from repro.timeseries import TimeSeries

PASSES = 5

Scenario = Tuple[TimeSeries, Sequence[DetectorConfig], int, int]


def _srt(nan_run: bool) -> Scenario:
    series = make_srt(weeks=7).series
    warm = 6 * series.points_per_week
    if nan_run:
        values = series.values.copy()
        values[warm + 10:warm + 40] = np.nan
        series = TimeSeries(values=values, interval=series.interval)
    return series, configs_for(series), warm, series.points_per_week


def _pv_1min() -> Scenario:
    timed = 1000
    series = make_pv(weeks=6 + timed / 10080 + 0.01, paper_interval=True).series
    return series, configs_for(series), 6 * series.points_per_week, timed


def _small_bank() -> Scenario:
    timed = 1000
    series = make_pv(weeks=1 + timed / 1008 + 0.01).series
    ppw = series.points_per_week
    return series, small_bank(ppw), ppw, timed


SCENARIOS: Dict[str, Callable[[], Scenario]] = {
    "srt-clean": lambda: _srt(nan_run=False),
    "srt-nan-run": lambda: _srt(nan_run=True),
    "pv-1min": _pv_1min,
    "small-bank": _small_bank,
}


def _timed(update: Callable, spent: List[float], i: int) -> Callable:
    clock = time.perf_counter

    def timed(value):
        began = clock()
        out = update(value)
        spent[i] += clock() - began
        return out

    return timed


def _by_kind(kinds: Sequence[str], amounts: Sequence[float]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for kind, amount in zip(kinds, amounts):
        totals[kind] = totals.get(kind, 0) + amount
    return totals


def measure(scenario: str, passes: int = PASSES) -> Dict[str, object]:
    """µs per point of each family's stream over the timed points, and
    each family's checkpoint bytes and buffered points once warm."""
    series, configs, warm, timed = SCENARIOS[scenario]()
    values = series.values
    bank = StreamBank(configs)
    for value in values[:warm]:
        bank.extract_point(value)
    states = bank.snapshot()
    kinds = [evaluator.kind for evaluator in bank._evaluators]
    checkpoint_bytes = _by_kind(kinds, [len(json.dumps(s)) for s in states])
    buffered = {
        "bank": len(bank._values),
        **_by_kind(kinds, [s.buffered_points() for s in bank._streams]),
    }
    tail = values[warm:warm + timed]

    samples: Dict[str, List[float]] = {}
    clock = time.perf_counter
    for _ in range(passes):
        fresh = StreamBank(configs).restore(states, values[:warm])
        spent = [0.0] * len(kinds)
        for i, stream in enumerate(fresh._streams):
            stream.update = _timed(stream.update, spent, i)
        began = clock()
        for value in tail:
            fresh.extract_point(value)
        total = clock() - began
        for kind, seconds in _by_kind(kinds, spent).items():
            samples.setdefault(kind, []).append(1e6 * seconds / len(tail))
        samples.setdefault("bank", []).append(
            1e6 * (total - sum(spent)) / len(tail)
        )
        samples.setdefault("total", []).append(1e6 * total / len(tail))
    return {
        "scenario": scenario,
        "interval_s": series.interval,
        "configs": len(configs),
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
        "checkpoint_bytes": {
            **checkpoint_bytes, "total": sum(checkpoint_bytes.values())
        },
        "buffered_points": {**buffered, "total": bank.buffered_points()},
    }


def render(result: Dict[str, object]) -> str:
    lines = [
        f"{result['scenario']}: {result['configs']} configs, "
        f"{result['timed_points']} points timed after "
        f"{result['warm_points']} warm, interval {result['interval_s']} s, "
        f"{result['passes']} passes (µs per point; checkpoint bytes and "
        "buffered points once warm)",
        f"{'family':<20} {'median':>9} {'min':>9} {'max':>9} "
        f"{'bytes':>9} {'buffered':>9}",
    ]
    for kind, cost in sorted(
        result["us_per_point"].items(), key=lambda item: -item[1]["median"]
    ):
        lines.append(
            f"{kind:<20} {cost['median']:>9.1f} {cost['min']:>9.1f} "
            f"{cost['max']:>9.1f} "
            f"{result['checkpoint_bytes'].get(kind, 0):>9} "
            f"{result['buffered_points'].get(kind, 0):>9}"
        )
    return "\n".join(lines)


def test_stream_cost_per_family():
    from _common import print_header

    print_header("Stream cost per point by family")
    for scenario in SCENARIOS:
        result = measure(scenario)
        print(render(result))
        costs = result["us_per_point"]
        assert {"bank", "window-bank", "historical", "seasonal-residual"} <= set(costs)
        assert all(cost["median"] > 0 for cost in costs.values())


if __name__ == "__main__":
    for name in sys.argv[1:] or list(SCENARIOS):
        print(json.dumps(measure(name)), flush=True)
