"""Shared helpers for the paper-reproduction benchmarks.

Every bench file regenerates one table or figure of the paper. The
expensive intermediates — the three Table 1 KPIs, their 133-column
feature matrices, and the weekly I1 scores of the random forest — are
computed once per pytest session here and shared by all benches.

Scale notes (see DESIGN.md): PV and #SR use a 10-minute grid instead of
the paper's 1-minute grid so the whole suite runs in minutes; every
other Table 1 characteristic is matched. The evaluation forest uses 30
trees and caps each (re)training set at 6000 points (anomalies are
always all kept); both knobs only trade statistical smoothness for
speed and do not change who wins.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
import pytest

from repro.core import FeatureMatrix, I1
from repro.core.opprentice import _subsample_training
from repro.data import InjectionResult, make_all
from repro.ml import Imputer, RandomForest
from repro.obs import (
    enable_from_env,
    get_provider,
    render_prometheus,
    write_snapshot,
)

#: Directory (overridable via $REPRO_OBS_DIR) where benchmark metric
#: snapshots land when observability is enabled.
OBS_SNAPSHOT_DIR_ENV = "REPRO_OBS_DIR"
DEFAULT_OBS_SNAPSHOT_DIR = "obs-snapshots"

#: Evaluation-scale forest (see module docstring).
N_TREES = 50
MAX_TRAIN_POINTS = 6000


def bench_forest(seed: int = 0) -> RandomForest:
    return RandomForest(n_estimators=N_TREES, seed=seed)


@dataclass
class WeeklyScores:
    """Per-test-week random-forest scores from the I1 loop (§5.3's
    detection fashion: incremental retraining, test from week 9)."""

    name: str
    weeks: List[int]
    bounds: List[tuple]          # (test_begin, test_end) per week
    scores: List[np.ndarray]     # forest probabilities per week
    labels: List[np.ndarray]     # ground-truth labels per week
    train_bounds: List[tuple]    # (train_begin, train_end) per week

    @property
    def all_scores(self) -> np.ndarray:
        return np.concatenate(self.scores)

    @property
    def all_labels(self) -> np.ndarray:
        return np.concatenate(self.labels)

    @property
    def test_begin(self) -> int:
        return self.bounds[0][0]

    @property
    def test_end(self) -> int:
        return self.bounds[-1][1]


def run_i1_weekly_scores(
    name: str, result: InjectionResult, matrix: FeatureMatrix
) -> WeeklyScores:
    """One pass of the I1 loop, recording scores only (cThld policies
    are applied afterwards by the individual benches)."""
    series = result.series
    labels = series.labels
    weeks, bounds, train_bounds, week_scores, week_labels = [], [], [], [], []
    for split in I1.splits(series):
        train_rows = matrix.rows(split.train_begin, split.train_end)
        train_labels = labels[split.train_begin: split.train_end]
        imputer = Imputer().fit(train_rows)
        train_x, train_y = _subsample_training(
            imputer.transform(train_rows), train_labels,
            MAX_TRAIN_POINTS, split.test_week,
        )
        classifier = bench_forest(seed=split.test_week)
        classifier.fit(train_x, train_y)
        test_rows = imputer.transform(
            matrix.rows(split.test_begin, split.test_end)
        )
        weeks.append(split.test_week)
        bounds.append((split.test_begin, split.test_end))
        train_bounds.append((split.train_begin, split.train_end))
        week_scores.append(classifier.predict_proba(test_rows))
        week_labels.append(labels[split.test_begin: split.test_end])
    return WeeklyScores(
        name=name, weeks=weeks, bounds=bounds, scores=week_scores,
        labels=week_labels, train_bounds=train_bounds,
    )


def print_header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


# ----------------------------------------------------------------------
# Observability wiring: run any bench with REPRO_OBS=1 to record the
# §5.8 quantities (per-stage latency histograms, span wall times) and
# drop a machine-checkable JSON + Prometheus snapshot at session end.
# ----------------------------------------------------------------------
def maybe_enable_observability() -> bool:
    """Install a live provider when ``$REPRO_OBS`` is set."""
    return enable_from_env()


def write_metrics_snapshot(
    label: str, directory: Optional[str] = None
) -> Optional[Path]:
    """Dump the active provider's metrics as ``<label>.json`` (plus a
    ``.prom`` rendering) under the snapshot directory.

    Returns the JSON path, or None when observability is disabled —
    benches can call this unconditionally.
    """
    provider = get_provider()
    if not provider.enabled:
        return None
    target_dir = Path(
        directory
        or os.environ.get(OBS_SNAPSHOT_DIR_ENV, DEFAULT_OBS_SNAPSHOT_DIR)
    )
    snapshot = provider.snapshot()
    path = write_snapshot(snapshot, target_dir / f"{label}.json")
    (target_dir / f"{label}.prom").write_text(render_prometheus(snapshot))
    return path
