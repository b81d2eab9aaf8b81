"""Training data and the default diagnoser.

The injectors in :mod:`repro.data.anomalies` record the exact kind of
every window they place, so diagnosis training labels are free: build
labelled series across a spread of synthetic regimes, cut each ground
truth window plus its preceding context into shape features, and fit
the one-vs-rest forest. Everything is seeded, so two processes (or a
supervisor and the shard it forks) always train the same diagnoser.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data import (
    DEFAULT_INJECTORS,
    InjectionResult,
    SeasonalProfile,
    generate_kpi,
    inject_anomalies,
)
from .classifier import AnomalyDiagnoser
from .features import CONTEXT_POINTS, window_shape_features

#: Seasonal regimes the default diagnoser trains across: quiet and
#: noisy, flat and strongly daily, additive and bursty — so the shape
#: features learn the anomaly patterns, not one profile's texture.
_TRAINING_PROFILES: Tuple[Tuple[str, int, SeasonalProfile], ...] = (
    ("flat-quiet", 900, SeasonalProfile(
        base_level=120.0, daily_amplitude=0.15, noise_scale=0.02,
        trend=0.0,
    )),
    ("daily-strong", 1800, SeasonalProfile(
        base_level=80.0, daily_amplitude=0.6, noise_scale=0.03,
        trend=0.0,
    )),
    ("noisy-trend", 900, SeasonalProfile(
        base_level=200.0, daily_amplitude=0.3, noise_scale=0.06,
        trend=0.02, noise_ar=0.5,
    )),
    ("bursty", 1800, SeasonalProfile(
        base_level=60.0, daily_amplitude=0.4, noise_scale=0.04,
        burst_rate=0.01, burst_scale=0.6,
    )),
)


def series_period(interval: int) -> Optional[int]:
    """Points per day for a regular grid, or None off the daily cycle."""
    if interval > 0 and 86400 % interval == 0:
        return 86400 // interval
    return None


def window_training_rows(
    result: InjectionResult,
    *,
    context_points: Optional[int] = None,
) -> Tuple[np.ndarray, List[str]]:
    """Feature rows + kind labels for every ground-truth window.

    Pairs each window of an :class:`~repro.data.InjectionResult` with
    the values preceding it — a full seasonal period when the interval
    divides a day, else :data:`~repro.diagnosis.CONTEXT_POINTS` — which
    is exactly what the live diagnoser sees at alert-close time.
    """
    if len(result.windows) != len(result.kinds):
        raise ValueError(
            f"{len(result.windows)} windows but {len(result.kinds)} kinds"
        )
    period = series_period(result.series.interval)
    if context_points is None:
        context_points = max(period or 0, CONTEXT_POINTS)
    values = result.series.values
    rows = []
    for window in result.windows:
        context = values[max(window.begin - context_points, 0):window.begin]
        rows.append(
            window_shape_features(
                values[window.begin:window.end], context, period=period
            )
        )
    features = (
        np.vstack(rows) if rows else np.empty((0, 0), dtype=np.float64)
    )
    return features, list(result.kinds)


def training_corpus(
    *,
    seed: int = 0,
    weeks: float = 2.0,
    repeats: int = 3,
    injectors: Optional[Dict] = None,
) -> Tuple[np.ndarray, List[str]]:
    """A balanced, deterministic diagnosis training set.

    Injects anomalies into ``repeats`` differently-seeded copies of
    each training regime. The injector mix is flattened to equal
    weights so no kind is starved of examples regardless of the
    operational mix used at detection time.
    """
    if injectors is None:
        injectors = {
            kind: (fn, 1.0) for kind, (fn, _) in DEFAULT_INJECTORS.items()
        }
    blocks: List[np.ndarray] = []
    kinds: List[str] = []
    for index, (name, interval, profile) in enumerate(_TRAINING_PROFILES):
        for repeat in range(repeats):
            stream_seed = seed + 101 * index + 13 * repeat
            generated = generate_kpi(
                weeks=weeks,
                interval=interval,
                profile=profile,
                seed=stream_seed,
                name=f"diagnosis-train-{name}-{repeat}",
            )
            result = inject_anomalies(
                generated.series,
                target_fraction=0.25,
                seed=stream_seed + 7,
                mean_window=7.0,
                injectors=injectors,
            )
            rows, row_kinds = window_training_rows(result)
            if len(rows):
                blocks.append(rows)
                kinds.extend(row_kinds)
    return np.vstack(blocks), kinds


def fit_diagnoser(
    *,
    seed: int = 0,
    n_estimators: int = 32,
    weeks: float = 2.0,
    repeats: int = 8,
) -> AnomalyDiagnoser:
    """Fit a fresh diagnoser on the synthetic training corpus."""
    features, kinds = training_corpus(seed=seed, weeks=weeks, repeats=repeats)
    return AnomalyDiagnoser(n_estimators=n_estimators, seed=seed).fit(
        features, kinds
    )


@lru_cache(maxsize=1)
def default_diagnoser() -> AnomalyDiagnoser:
    """The process-wide default diagnoser (fitted once, deterministic).

    Every caller — the fleet CLI, the serve plane's shard factories,
    tests — gets the same fitted object, and because training is fully
    seeded, *different* processes converge on bit-identical forests.
    """
    return fit_diagnoser(seed=0)


def is_default_diagnoser(diagnoser: AnomalyDiagnoser) -> bool:
    """Whether ``diagnoser`` is :func:`default_diagnoser`'s fit; False,
    without fitting it, in a process that has not built the default."""
    if default_diagnoser.cache_info().currsize == 0:
        return False
    default = default_diagnoser()
    return diagnoser is default or diagnoser.sha256() == default.sha256()
