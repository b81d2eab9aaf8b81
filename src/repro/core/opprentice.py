"""The Opprentice framework (§4, Fig 3).

Training side (Fig 3a): detectors extract severity features from
labelled KPI data; a random forest is (re)trained incrementally on all
historical labelled data; the operators' accuracy preference guides
cThld configuration. Detection side (Fig 3b): the same detectors
extract features of incoming data and the latest classifier thresholds
the anomaly probability at the predicted cThld.

Two entry points:

* :class:`Opprentice` — the simple fit/detect API for one-shot use.
* :func:`run_online` — the weekly incremental-retraining loop used by
  the paper's evaluation (train on all history, predict next week's
  cThld, detect the next week, repeat).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..detectors import DetectorConfig
from ..evaluation import (
    MODERATE_PREFERENCE,
    AccuracyPreference,
    evaluate_threshold,
)
from ..ml import Classifier, Imputer, RandomForest
from ..obs import get_provider
from ..timeseries import TimeSeries
from .feature_matrix import FeatureExtractor, FeatureMatrix
from .prediction import CThldPredictor, EWMAPredictor, best_cthld
from .training import INITIAL_TRAIN_WEEKS, TrainingStrategy, I1


def default_classifier_factory() -> RandomForest:
    """The paper's classifier: a fully grown random forest."""
    return RandomForest(n_estimators=50, max_features="sqrt", seed=0)


def _subsample_training(
    features: np.ndarray,
    labels: np.ndarray,
    max_points: Optional[int],
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Optionally cap the training-set size, keeping every anomaly.

    Normal points vastly outnumber anomalies (§3.2), so dropping a
    random subset of normals preserves the learning problem while
    bounding retraining cost on long histories.
    """
    if max_points is None or len(labels) <= max_points:
        return features, labels
    rng = np.random.default_rng(seed)
    anomaly_idx = np.flatnonzero(labels == 1)
    normal_idx = np.flatnonzero(labels == 0)
    n_normals = max(max_points - len(anomaly_idx), 1)
    if n_normals < len(normal_idx):
        normal_idx = rng.choice(normal_idx, size=n_normals, replace=False)
    keep = np.sort(np.concatenate([anomaly_idx, normal_idx]))
    return features[keep], labels[keep]


class Opprentice:
    """Simple fit/detect interface over the full pipeline.

    >>> opp = Opprentice()
    >>> opp.fit(labeled_series)        # doctest: +SKIP
    >>> result = opp.detect(new_week)  # doctest: +SKIP

    Parameters
    ----------
    configs:
        Detector configurations (default: the Table 3 bank).
    preference:
        Operators' "recall >= R and precision >= P" target.
    classifier_factory:
        Builds a fresh classifier per (re)training round.
    cthld_predictor:
        Strategy for the online cThld; default EWMA (§4.5.2).
    max_train_points:
        Optional training-set size cap (see evaluation harness docs).

    Extraction here is serial. To extract in parallel, build the matrix
    with a configured :class:`FeatureExtractor` and pass it to
    :meth:`fit_features`.
    """

    def __init__(
        self,
        configs: Optional[Sequence[DetectorConfig]] = None,
        preference: AccuracyPreference = MODERATE_PREFERENCE,
        classifier_factory: Callable[[], Classifier] = default_classifier_factory,
        cthld_predictor: Optional[CThldPredictor] = None,
        max_train_points: Optional[int] = None,
        seed: int = 0,
    ):
        self.extractor = FeatureExtractor(configs)
        self.preference = preference
        self.classifier_factory = classifier_factory
        self.cthld_predictor = cthld_predictor or EWMAPredictor(preference)
        self.max_train_points = max_train_points
        self.seed = seed
        self.classifier_: Optional[Classifier] = None
        self.imputer_: Optional[Imputer] = None
        self.cthld_: Optional[float] = None
        self._train_features: Optional[np.ndarray] = None
        self._train_labels: Optional[np.ndarray] = None
        #: The series fit() saw, kept so that detect() on subsequent
        #: data can extract features *in context*: seasonal detectors
        #: (TSD, historical average...) need past weeks to produce
        #: severities for the first incoming points (Fig 3b applies the
        #: detectors to the stream, not to an isolated window).
        self._history: Optional[TimeSeries] = None
        #: Raw (un-imputed) feature rows of ``_history``, cached so that
        #: fit_incremental() can extend the matrix with just the new
        #: points' severity rows instead of re-extracting everything.
        self._feature_values: Optional[np.ndarray] = None

    @property
    def _feature_values(self) -> Optional[np.ndarray]:
        return self._features

    @_feature_values.setter
    def _feature_values(self, values: Optional[np.ndarray]) -> None:
        # Replacing the matrix (fit, incremental refit, restore) drops
        # the JSON text encoded from the old one.
        self._features = values
        self._features_json: Optional[str] = None

    def feature_values_json(self) -> str:
        """The cached feature matrix as JSON text, encoded once per fit.

        Equals ``json.dumps(self._feature_values.tolist())``. Service
        checkpoints write it at every save, while the matrix changes
        only when the model is refit.
        """
        if self._features is None:
            raise RuntimeError("no cached feature matrix; fit() first")
        if self._features_json is None:
            self._features_json = json.dumps(self._features.tolist())
        return self._features_json

    # ------------------------------------------------------------------
    def fit(self, series: TimeSeries) -> "Opprentice":
        """Train on a labelled series and configure the cThld.

        Feature rows of the whole series form the training set; the
        cThld comes from the configured predictor (EWMA's first
        prediction = 5-fold cross-validation on the training set).
        """
        if not series.is_labeled:
            raise ValueError("fit requires a labelled series (§4.2)")
        with get_provider().span(
            "train.fit", kpi=series.name or "", n_points=len(series)
        ):
            matrix = self.extractor.extract(series)
            self._history = series
            self._feature_values = matrix.values
            return self.fit_features(matrix.values, series.labels)

    def fit_features(
        self, features: np.ndarray, labels: np.ndarray
    ) -> "Opprentice":
        """Train directly on a precomputed feature matrix."""
        labels = np.asarray(labels, dtype=np.int8)
        obs = get_provider()
        with obs.span(
            "train.fit_features", n_points=len(labels)
        ) as span:
            self.imputer_ = Imputer().fit(features)
            imputed = self.imputer_.transform(features)
            train_x, train_y = _subsample_training(
                imputed, labels, self.max_train_points, self.seed
            )
            self._train_features, self._train_labels = train_x, train_y
            self.classifier_ = self.classifier_factory()
            with obs.timer(
                "repro_training_seconds",
                "Wall time per training sub-stage",
                stage="classifier_fit",
            ):
                self.classifier_.fit(train_x, train_y)
            with obs.timer(
                "repro_training_seconds",
                "Wall time per training sub-stage",
                stage="cthld_predict",
            ):
                self.cthld_ = self.cthld_predictor.predict(
                    self.classifier_factory, train_x, train_y
                )
            span.set("cthld", self.cthld_)
        obs.counter(
            "repro_training_rounds_total", "Classifier (re)training rounds"
        ).inc()
        obs.emit(
            "training_round",
            n_points=int(len(train_y)),
            n_anomalies=int(train_y.sum()),
            cthld=self.cthld_,
        )
        return self

    def retrain(self, series: TimeSeries) -> "Opprentice":
        """Incremental retraining (§3.2): refit on a series extended
        with newly labelled data. Semantically identical to fit(); the
        separate name documents the weekly retraining call site."""
        return self.fit(series)

    def fit_incremental(
        self, series: TimeSeries, new_rows: np.ndarray
    ) -> "Opprentice":
        """Retrain on ``series`` — the fitted history extended by new
        points — reusing the cached feature matrix.

        ``new_rows`` are the severity rows of exactly the points that
        extend the history, in order. The stream == batch invariant
        makes the severities collected during streaming detection (each
        :class:`~repro.core.StreamDecision`'s ``severities``) identical
        to what a fresh batch extraction over the combined series would
        produce for those points, so feature cost per retraining round
        is O(new points) instead of O(all history). Classifier and cThld
        fitting are unchanged — the result equals ``fit(series)``.
        """
        if not series.is_labeled:
            raise ValueError("fit requires a labelled series (§4.2)")
        cached = self._feature_values
        if cached is None:
            raise RuntimeError("fit() must run before fit_incremental()")
        new_rows = np.asarray(new_rows, dtype=np.float64)
        if new_rows.size == 0:
            new_rows = new_rows.reshape(0, cached.shape[1])
        if new_rows.ndim != 2 or new_rows.shape[1] != cached.shape[1]:
            raise ValueError(
                f"new rows of shape {new_rows.shape} do not match the "
                f"cached {cached.shape[1]}-feature matrix"
            )
        if len(cached) + len(new_rows) != len(series):
            raise ValueError(
                f"{len(new_rows)} new rows do not extend the cached "
                f"{len(cached)}-row matrix to {len(series)} points"
            )
        with get_provider().span(
            "train.fit_incremental",
            kpi=series.name or "",
            n_points=len(series),
            n_new_points=len(new_rows),
        ):
            features = (
                np.vstack([cached, new_rows]) if len(new_rows) else cached
            )
            self._history = series
            self._feature_values = features
            return self.fit_features(features, series.labels)

    # ------------------------------------------------------------------
    def anomaly_scores(self, series: TimeSeries) -> np.ndarray:
        """Anomaly probability per point of ``series``.

        If ``series`` continues the grid of the series fit() was given,
        features are extracted over history + new data so windowed
        detectors keep their context (and their causality guarantees
        make the result identical to a true streaming run).
        """
        if self.classifier_ is None or self.imputer_ is None:
            raise RuntimeError("Opprentice is not fitted")
        history = self._history
        if history is not None and self._continues_history(series):
            combined = TimeSeries(
                values=np.concatenate([history.values, series.values]),
                interval=history.interval,
                start=history.start,
                name=series.name or history.name,
            )
            matrix = self.extractor.extract(combined)
            return self.score_features(matrix.values[len(history):])
        matrix = self.extractor.extract(series)
        return self.score_features(matrix.values)

    def _continues_history(self, series: TimeSeries) -> bool:
        history = self._history
        return (
            history is not None
            and series.interval == history.interval
            and series.start == history.start + len(history) * history.interval
        )

    def score_features(self, features: np.ndarray) -> np.ndarray:
        if self.classifier_ is None or self.imputer_ is None:
            raise RuntimeError("Opprentice is not fitted")
        obs = get_provider()
        with obs.span("classify.score_features", n_points=len(features)):
            scores = self.classifier_.predict_proba(
                self.imputer_.transform(features)
            )
        obs.counter(
            "repro_points_classified_total",
            "Points scored by the classifier",
        ).inc(len(features))
        return scores

    def detect(self, series: TimeSeries) -> "DetectionResult":
        """Classify every point of ``series`` at the configured cThld."""
        scores = self.anomaly_scores(series)
        assert self.cthld_ is not None
        return DetectionResult(
            series=series,
            scores=scores,
            cthld=self.cthld_,
            predictions=(scores >= self.cthld_).astype(np.int8),
        )

    def observe_best_cthld(self, scores: np.ndarray, labels: np.ndarray) -> float:
        """After a window's ground truth arrives, compute its best cThld
        and update the predictor (the EWMA feedback loop)."""
        best = best_cthld(scores, labels, self.preference)
        self.cthld_predictor.observe_best(best)
        return best

    def training_health(self) -> dict:
        """Self-diagnostics from the training round, without any
        held-out data: the forest's out-of-bag accuracy and OOB AUCPR,
        the Brier score of the OOB probabilities, and whether the OOB
        operating point at the configured cThld satisfies the
        preference. Useful right after the initial fit, before the
        first labelled test week exists (§4.1's bootstrap moment)."""
        from ..evaluation import aucpr, brier_score
        from ..evaluation.metrics import evaluate_threshold
        from ..ml import RandomForest

        if self.classifier_ is None or self._train_labels is None:
            raise RuntimeError("Opprentice is not fitted")
        if not isinstance(self.classifier_, RandomForest):
            raise TypeError("training_health needs a RandomForest classifier")
        scores = self.classifier_.oob_scores()
        labels = self._train_labels
        recall, precision = evaluate_threshold(scores, labels, self.cthld_)
        return {
            "oob_accuracy": self.classifier_.oob_accuracy(),
            "oob_aucpr": aucpr(scores, labels),
            "oob_brier": brier_score(scores, labels),
            "oob_recall_at_cthld": recall,
            "oob_precision_at_cthld": precision,
            "preference_satisfied": self.preference.satisfied_by(
                recall, precision
            ),
        }


@dataclass
class DetectionResult:
    """Point-level detections of one series."""

    series: TimeSeries
    scores: np.ndarray
    cthld: float
    predictions: np.ndarray

    def anomalous_indices(self) -> np.ndarray:
        return np.flatnonzero(self.predictions == 1)

    def accuracy(self) -> tuple[float, float]:
        """(recall, precision) against the series' labels."""
        if not self.series.is_labeled:
            raise ValueError("series has no ground-truth labels")
        return evaluate_threshold(self.scores, self.series.labels, self.cthld)


# ----------------------------------------------------------------------
# The weekly online loop (§5.6 / Fig 13)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WeeklyOutcome:
    """One test week of the online loop."""

    week: int
    test_begin: int
    test_end: int
    cthld_used: float
    cthld_best: float
    recall: float
    precision: float
    best_recall: float
    best_precision: float


@dataclass
class OnlineRun:
    """Everything the online loop produced over the test region."""

    series: TimeSeries
    preference: AccuracyPreference
    outcomes: List[WeeklyOutcome]
    #: Full-length arrays (NaN / -1 outside the test region).
    scores: np.ndarray
    predictions: np.ndarray
    predictions_best: np.ndarray

    @property
    def test_begin(self) -> int:
        return self.outcomes[0].test_begin

    @property
    def test_end(self) -> int:
        return self.outcomes[-1].test_end

    def n_detected(self) -> int:
        """Total points identified as anomalies in the test region."""
        return int(np.sum(self.predictions == 1))

    def moving_window_accuracy(
        self,
        window_weeks: int = 4,
        step_days: int = 1,
        use_best: bool = False,
    ) -> List[tuple[float, float]]:
        """(recall, precision) of a moving window over the test region.

        Fig 13: "we calculate the average recall and precision of a
        4-week moving window. The window moves one day for each step."
        Accuracy is computed over the window's pooled points.
        """
        predictions = self.predictions_best if use_best else self.predictions
        labels = self.series.labels
        if labels is None:
            raise ValueError("series has no labels")
        ppd = self.series.points_per_day
        ppw = self.series.points_per_week
        window = window_weeks * ppw
        step = step_days * ppd
        points = []
        begin = self.test_begin
        while begin + window <= self.test_end:
            window_preds = predictions[begin: begin + window].astype(np.float64)
            window_preds[window_preds < 0] = np.nan
            recall, precision = _recall_precision(
                window_preds, labels[begin: begin + window]
            )
            points.append((recall, precision))
            begin += step
        return points

    def satisfaction_rate(
        self, window_weeks: int = 4, step_days: int = 1, use_best: bool = False
    ) -> float:
        """Fraction of moving windows meeting the preference (the
        "points inside the shaded region" statistic of Fig 13)."""
        points = self.moving_window_accuracy(window_weeks, step_days, use_best)
        if not points:
            raise ValueError("test region shorter than one window")
        satisfied = sum(
            self.preference.satisfied_by(r, p) for r, p in points
        )
        return satisfied / len(points)


def _recall_precision(predictions, labels) -> tuple[float, float]:
    from ..evaluation.confusion import precision_recall

    return precision_recall(predictions, labels)


def run_online(
    series: TimeSeries,
    *,
    configs: Optional[Sequence[DetectorConfig]] = None,
    preference: AccuracyPreference = MODERATE_PREFERENCE,
    classifier_factory: Callable[[], Classifier] = default_classifier_factory,
    predictor: Optional[CThldPredictor] = None,
    strategy: TrainingStrategy = I1,
    features: Optional[FeatureMatrix] = None,
    max_train_points: Optional[int] = None,
    seed: int = 0,
) -> OnlineRun:
    """The paper's online evaluation loop (§5.6).

    For every test window of ``strategy`` (default I1: 1-week windows
    from week 9, incremental retraining on all history):

    1. retrain the classifier on the training range's labelled points;
    2. predict the cThld with ``predictor`` (default EWMA);
    3. detect the test window at the predicted cThld;
    4. compute the window's offline best cThld and feed it back.

    Pass a precomputed ``features`` matrix to amortise extraction across
    the EWMA / 5-fold / best-case comparison runs, or to extract it in
    parallel with a configured :class:`FeatureExtractor`.
    """
    if not series.is_labeled:
        raise ValueError("online evaluation needs a labelled series")
    predictor = predictor or EWMAPredictor(preference)
    matrix = features
    if matrix is None:
        matrix = FeatureExtractor(configs).extract(series)
    if matrix.n_points != len(series):
        raise ValueError(
            f"feature matrix has {matrix.n_points} rows for a series of "
            f"{len(series)} points"
        )
    labels = series.labels
    assert labels is not None

    n = len(series)
    scores_full = np.full(n, np.nan)
    predictions = np.full(n, -1, dtype=np.int8)
    predictions_best = np.full(n, -1, dtype=np.int8)
    outcomes: List[WeeklyOutcome] = []

    obs = get_provider()
    for split in strategy.splits(series):
        weekly_span = obs.span(
            "train.weekly_round",
            kpi=series.name or "",
            week=split.test_week,
            strategy=strategy.id,
        )
        with weekly_span:
            train_rows = matrix.rows(split.train_begin, split.train_end)
            train_labels = labels[split.train_begin: split.train_end]
            imputer = Imputer().fit(train_rows)
            train_x, train_y = _subsample_training(
                imputer.transform(train_rows),
                train_labels,
                max_train_points,
                seed + split.test_week,
            )
            if train_y.sum() == 0 or train_y.sum() == len(train_y):
                # Degenerate training window (no anomalies labelled yet):
                # nothing to learn from; skip this step.
                weekly_span.set("skipped", True)
                continue
            with obs.timer(
                "repro_training_seconds",
                "Wall time per training sub-stage",
                stage="classifier_fit",
            ):
                classifier = classifier_factory()
                classifier.fit(train_x, train_y)
            with obs.timer(
                "repro_training_seconds",
                "Wall time per training sub-stage",
                stage="cthld_predict",
            ):
                cthld = predictor.predict(classifier_factory, train_x, train_y)

            test_rows = imputer.transform(
                matrix.rows(split.test_begin, split.test_end)
            )
            with obs.timer(
                "repro_classification_seconds",
                "Wall time per classification batch",
            ):
                test_scores = classifier.predict_proba(test_rows)
            test_labels = labels[split.test_begin: split.test_end]

        best = best_cthld(test_scores, test_labels, preference)
        predictor.observe_best(best)

        recall, precision = evaluate_threshold(test_scores, test_labels, cthld)
        best_recall, best_precision = evaluate_threshold(
            test_scores, test_labels, best
        )
        scores_full[split.test_begin: split.test_end] = test_scores
        predictions[split.test_begin: split.test_end] = (
            test_scores >= cthld
        ).astype(np.int8)
        predictions_best[split.test_begin: split.test_end] = (
            test_scores >= best
        ).astype(np.int8)
        outcomes.append(
            WeeklyOutcome(
                week=split.test_week,
                test_begin=split.test_begin,
                test_end=split.test_end,
                cthld_used=cthld,
                cthld_best=best,
                recall=recall,
                precision=precision,
                best_recall=best_recall,
                best_precision=best_precision,
            )
        )
    if not outcomes:
        raise ValueError(
            "series too short for the training strategy "
            f"(needs > {INITIAL_TRAIN_WEEKS + strategy.test_weeks} weeks)"
        )
    return OnlineRun(
        series=series,
        preference=preference,
        outcomes=outcomes,
        scores=scores_full,
        predictions=predictions,
        predictions_best=predictions_best,
    )
