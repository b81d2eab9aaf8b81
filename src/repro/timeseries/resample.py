"""Grid resampling: moving between sampling intervals.

The paper's KPIs arrive at 1-minute granularity; monitoring pipelines
routinely aggregate to coarser grids (this repository's default
profiles use 10 minutes for tractability). ``downsample`` aggregates
blocks of points onto a coarser grid with an explicit aggregation
choice — ``"mean"`` for volume-like KPIs, ``"max"`` to preserve spike
visibility (the same reason the labeling tool renders with max, §4.2).

Labels aggregate with ANY semantics: a coarse point is anomalous if any
fine point inside it was. Missing fine points are ignored by the
aggregator; an entirely-missing block stays missing.
"""

from __future__ import annotations

import numpy as np

from .series import TimeSeries, TimeSeriesError

_AGGREGATORS = {
    "mean": np.nanmean,
    "max": np.nanmax,
    "min": np.nanmin,
    "median": np.nanmedian,
    "sum": np.nansum,
}


def downsample(
    series: TimeSeries, factor: int, *, aggregate: str = "mean"
) -> TimeSeries:
    """Aggregate every ``factor`` consecutive points into one.

    A trailing partial block is dropped (it would be a biased sample).
    ``sum`` treats an all-missing block as missing, not 0.
    """
    if factor < 1:
        raise TimeSeriesError(f"factor must be >= 1, got {factor}")
    if aggregate not in _AGGREGATORS:
        raise TimeSeriesError(
            f"aggregate must be one of {sorted(_AGGREGATORS)}, got {aggregate!r}"
        )
    if factor == 1:
        return series.copy()
    n_blocks = len(series) // factor
    if n_blocks == 0:
        raise TimeSeriesError(
            f"series of {len(series)} points has no complete block of {factor}"
        )
    blocks = series.values[: n_blocks * factor].reshape(n_blocks, factor)
    aggregator = _AGGREGATORS[aggregate]
    # Entirely-missing blocks stay missing and out of the reduction,
    # which would warn on them.
    observed = ~np.isnan(blocks).all(axis=1)
    values = np.full(n_blocks, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        values[observed] = aggregator(blocks[observed], axis=1)

    labels = None
    if series.labels is not None:
        label_blocks = series.labels[: n_blocks * factor].reshape(
            n_blocks, factor
        )
        labels = label_blocks.any(axis=1).astype(np.int8)
    return TimeSeries(
        values=values,
        interval=series.interval * factor,
        start=series.start,
        labels=labels,
        name=series.name,
    )


def to_interval(
    series: TimeSeries, interval: int, *, aggregate: str = "mean"
) -> TimeSeries:
    """Downsample to an exact target ``interval`` (seconds)."""
    if interval <= 0 or interval % series.interval != 0:
        raise TimeSeriesError(
            f"target interval {interval} is not a multiple of the series "
            f"interval {series.interval}"
        )
    return downsample(series, interval // series.interval, aggregate=aggregate)
