"""An operational monitoring service around the Opprentice pipeline.

This is the deployment wrapper a downstream team would run (Fig 3's two
halves glued together): points stream in, alerts stream out, operator
labels arrive periodically, and the classifier retrains incrementally
on all labelled history with the cThld tracked by the EWMA rule.

    service = MonitoringService(preference=..., min_duration_points=2)
    service.bootstrap(labeled_history)         # initial training (>= warm-up)
    for value in live_feed:
        events = service.ingest(value)         # [] or [opened/closed alerts]
    service.submit_labels(windows)             # operator's weekly labeling
    service.retrain()                          # weekly incremental retrain

The service never looks at future data: detection uses the streaming
detectors, and retraining uses only points the operator has labelled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..detectors import DetectorConfig
from ..evaluation import MODERATE_PREFERENCE, AccuracyPreference
from ..ml import Classifier
from ..obs import MetricsRegistry, get_provider
from ..timeseries import AnomalyWindow, TimeSeries, merge_windows, windows_to_points
from .jsonio import JSONText
from .opprentice import Opprentice, default_classifier_factory
from .prediction import best_cthld
from .streaming import StreamingDetector

#: Version tag of the service-checkpoint dict layout produced by
#: :meth:`MonitoringService.snapshot`.
SERVICE_SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class AlertEvent:
    """An alert lifecycle event emitted by :meth:`MonitoringService.ingest`."""

    kind: str  # "opened" | "closed"
    begin_index: int
    end_index: int  # exclusive; == begin for a just-opened alert
    peak_score: float
    #: Which KPI the alert belongs to (the monitored series' name).
    #: Defaults to None so single-KPI callers constructing events by
    #: hand stay source-compatible; fleet deployments rely on it to
    #: attribute alerts from many services on one sink.
    kpi: Optional[str] = None
    #: The diagnosed anomaly *type* ("spike", "dip", "ramp", "jitter",
    #: "level_shift") attached when a ``closed`` event ends a run and
    #: the service carries a fitted diagnoser. None on ``opened``
    #: events (the shape is only classifiable once the run is whole)
    #: and on services without a diagnoser.
    diagnosis: Optional[str] = None


class ServiceStats:
    """Counters exposed for dashboards, backed by a per-service
    :class:`~repro.obs.MetricsRegistry`.

    The attribute API is unchanged (``stats.points_ingested += 1``
    still works via property setters) but the numbers now live in real
    counter metrics, so ``stats.registry.snapshot()`` exports the same
    dashboard through the Prometheus/JSON exporters. The registry is
    always live — independent of whether the process-global
    observability provider is enabled.

    The property setters are a non-atomic read-modify-write and exist
    only for tests and backfill; live code paths must use the
    ``inc_*`` methods, which increment the underlying counters under
    their lock and stay correct under concurrent ingest.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._points_ingested = self.registry.counter(
            "repro_points_ingested_total", "Points pushed through ingest()"
        )
        self._anomalous_points = self.registry.counter(
            "repro_points_anomalous_total",
            "Ingested points classified anomalous",
        )
        self._alerts_opened = self.registry.counter(
            "repro_alerts_opened_total",
            "Alerts that crossed the duration filter",
        )
        self._retrain_rounds = self.registry.counter(
            "repro_retrain_rounds_total", "Incremental retraining rounds"
        )
        self._callback_errors = self.registry.counter(
            "repro_alert_callback_errors_total",
            "Alert callbacks that raised (and were contained)",
        )
        #: Closed-alert diagnoses by anomaly kind. Kept as a plain dict
        #: alongside the kind-labelled registry counters so the counts
        #: round-trip through as_dict()/checkpoints like the scalars.
        self._alerts_diagnosed: Dict[str, int] = {}

    @property
    def points_ingested(self) -> int:
        return int(self._points_ingested.value)

    @points_ingested.setter
    def points_ingested(self, value: int) -> None:
        self._points_ingested._set_total(value)

    @property
    def anomalous_points(self) -> int:
        return int(self._anomalous_points.value)

    @anomalous_points.setter
    def anomalous_points(self, value: int) -> None:
        self._anomalous_points._set_total(value)

    @property
    def alerts_opened(self) -> int:
        return int(self._alerts_opened.value)

    @alerts_opened.setter
    def alerts_opened(self, value: int) -> None:
        self._alerts_opened._set_total(value)

    @property
    def retrain_rounds(self) -> int:
        return int(self._retrain_rounds.value)

    @retrain_rounds.setter
    def retrain_rounds(self, value: int) -> None:
        self._retrain_rounds._set_total(value)

    @property
    def callback_errors(self) -> int:
        return int(self._callback_errors.value)

    @callback_errors.setter
    def callback_errors(self, value: int) -> None:
        self._callback_errors._set_total(value)

    @property
    def alerts_diagnosed(self) -> Dict[str, int]:
        return dict(self._alerts_diagnosed)

    @alerts_diagnosed.setter
    def alerts_diagnosed(self, counts: Mapping[str, int]) -> None:
        self._alerts_diagnosed = {
            str(kind): int(count) for kind, count in counts.items()
        }
        for kind, count in self._alerts_diagnosed.items():
            self.registry.counter(
                "repro_alerts_diagnosed_total",
                "Closed alerts by diagnosed anomaly kind",
                kind=kind,
            )._set_total(count)

    # ------------------------------------------------------------------
    # Atomic increments for live code paths.
    # ------------------------------------------------------------------
    def inc_points_ingested(self, amount: int = 1) -> None:
        self._points_ingested.inc(amount)

    def inc_anomalous_points(self, amount: int = 1) -> None:
        self._anomalous_points.inc(amount)

    def inc_alerts_opened(self, amount: int = 1) -> None:
        self._alerts_opened.inc(amount)

    def inc_retrain_rounds(self, amount: int = 1) -> None:
        self._retrain_rounds.inc(amount)

    def inc_callback_errors(self, amount: int = 1) -> None:
        self._callback_errors.inc(amount)

    def inc_alerts_diagnosed(self, kind: str, amount: int = 1) -> None:
        self._alerts_diagnosed[kind] = (
            self._alerts_diagnosed.get(kind, 0) + amount
        )
        self.registry.counter(
            "repro_alerts_diagnosed_total",
            "Closed alerts by diagnosed anomaly kind",
            kind=kind,
        ).inc(amount)

    def as_dict(self) -> dict:
        return {
            "points_ingested": self.points_ingested,
            "anomalous_points": self.anomalous_points,
            "alerts_opened": self.alerts_opened,
            "retrain_rounds": self.retrain_rounds,
            "callback_errors": self.callback_errors,
            "alerts_diagnosed": self.alerts_diagnosed,
        }

    def __repr__(self) -> str:  # keeps the old dataclass-style repr
        body = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"ServiceStats({body})"


class MonitoringService:
    """Streaming detection + alerting + incremental retraining."""

    def __init__(
        self,
        *,
        configs: Optional[Sequence[DetectorConfig]] = None,
        preference: AccuracyPreference = MODERATE_PREFERENCE,
        classifier_factory: Callable[[], Classifier] = default_classifier_factory,
        min_duration_points: int = 1,
        max_train_points: Optional[int] = None,
        alert_callback: Optional[Callable[[AlertEvent], None]] = None,
        diagnoser=None,
    ):
        if min_duration_points < 1:
            raise ValueError("min_duration_points must be >= 1")
        self._opprentice = Opprentice(
            configs=configs,
            preference=preference,
            classifier_factory=classifier_factory,
            max_train_points=max_train_points,
        )
        self.min_duration_points = min_duration_points
        self._alert_callback = alert_callback
        #: Optional anomaly-type classifier
        #: (:class:`repro.diagnosis.AnomalyDiagnoser`); when present,
        #: every ``closed`` event carries its predicted kind.
        self.diagnoser = diagnoser
        self.stats = ServiceStats()

        self._history: Optional[TimeSeries] = None
        self._label_windows: List[AnomalyWindow] = []
        self._labeled_until = 0
        self._streaming: Optional[StreamingDetector] = None
        self._pending_values: List[float] = []
        #: Scores and severity rows of the pending (not yet labelled)
        #: points only — retraining consumes and resets both, so their
        #: memory is bounded by the inter-retrain window, not by the
        #: total history. The severity rows double as the new points'
        #: feature-matrix rows (stream == batch), which is what makes
        #: retraining O(new points).
        self._pending_scores: List[float] = []
        self._pending_rows: List[np.ndarray] = []
        self._run_begin: Optional[int] = None
        self._run_scores: List[float] = []

    # ------------------------------------------------------------------
    @property
    def opprentice(self) -> Opprentice:
        return self._opprentice

    @property
    def kpi(self) -> Optional[str]:
        """The monitored KPI's identity (the bootstrap series' name)."""
        return self._history.name if self._history is not None else None

    @property
    def history_length(self) -> int:
        base = len(self._history) if self._history is not None else 0
        return base + len(self._pending_values)

    @property
    def pending_points(self) -> int:
        """Ingested points not yet consumed by a retraining round."""
        return len(self._pending_values)

    @property
    def cthld(self) -> float:
        if self._opprentice.cthld_ is None:
            raise RuntimeError("service is not bootstrapped")
        return self._opprentice.cthld_

    # ------------------------------------------------------------------
    def bootstrap(self, labeled_history: TimeSeries) -> None:
        """Initial training on operator-labelled history (§4.1: "label
        anomalies in the historical data at the beginning")."""
        if not labeled_history.is_labeled:
            raise ValueError("bootstrap requires a labelled series")
        obs = get_provider()
        with obs.span(
            "service.bootstrap",
            kpi=labeled_history.name or "",
            n_points=len(labeled_history),
        ):
            self._history = labeled_history.copy()
            self._labeled_until = len(labeled_history)
            from ..timeseries import points_to_windows

            self._label_windows = points_to_windows(labeled_history.labels)
            self._opprentice.fit(labeled_history)
            self._streaming = StreamingDetector(
                self._opprentice, history=labeled_history
            )
            self._pending_values = []
            self._pending_scores = []
            self._pending_rows = []
        obs.gauge("repro_cthld", "Current classification threshold").set(
            self.cthld
        )
        obs.gauge(
            "repro_stream_buffer_points",
            "Points buffered across all detector streams",
        ).set(self._streaming.buffered_points())
        obs.emit(
            "bootstrap",
            kpi=labeled_history.name or "",
            n_points=len(labeled_history),
            cthld=self.cthld,
        )

    # ------------------------------------------------------------------
    def ingest(self, value: float) -> List[AlertEvent]:
        """Process one incoming point; returns alert lifecycle events."""
        if self._streaming is None:
            raise RuntimeError("bootstrap() must run before ingest()")
        obs = get_provider()
        with obs.timer(
            "repro_ingest_seconds", "MonitoringService.ingest wall time",
            kpi=self.kpi or "",
        ):
            decision = self._streaming.push(value)
        self._pending_values.append(float(value))
        self._pending_scores.append(decision.score)
        self._pending_rows.append(decision.severities)
        self.stats.inc_points_ingested()
        obs.counter(
            "repro_points_ingested_total", "Points pushed through ingest()"
        ).inc()

        events: List[AlertEvent] = []
        index = decision.index
        if decision.is_anomaly:
            self.stats.inc_anomalous_points()
            obs.counter(
                "repro_points_anomalous_total",
                "Ingested points classified anomalous",
            ).inc()
            if self._run_begin is None:
                self._run_begin = index
                self._run_scores = []
            self._run_scores.append(decision.score)
            run_length = index - self._run_begin + 1
            if run_length == self.min_duration_points:
                # The run just crossed the duration filter: open.
                events.append(
                    AlertEvent(
                        kind="opened",
                        begin_index=self._run_begin,
                        end_index=index + 1,
                        peak_score=max(self._run_scores),
                        kpi=self.kpi,
                    )
                )
                self.stats.inc_alerts_opened()
        else:
            if self._run_begin is not None:
                run_length = index - self._run_begin
                if run_length >= self.min_duration_points:
                    events.append(
                        AlertEvent(
                            kind="closed",
                            begin_index=self._run_begin,
                            end_index=index,
                            peak_score=max(self._run_scores),
                            kpi=self.kpi,
                            diagnosis=self._diagnose_run(
                                self._run_begin, index
                            ),
                        )
                    )
                self._run_begin = None
                self._run_scores = []
        self._dispatch_events(events)
        return events

    # ------------------------------------------------------------------
    def _values_slice(self, begin: int, end: int) -> np.ndarray:
        """Ingested values by absolute index, across the history/pending
        boundary (the indices :class:`AlertEvent` uses)."""
        base = len(self._history) if self._history is not None else 0
        parts = []
        if begin < base:
            parts.append(self._history.values[begin:min(end, base)])
        if end > base:
            parts.append(
                np.asarray(
                    self._pending_values[max(begin - base, 0):end - base],
                    dtype=np.float64,
                )
            )
        return (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.float64)
        )

    def _diagnose_run(self, begin: int, end: int) -> Optional[str]:
        """The diagnosed anomaly kind of a finished run, or None.

        Consults only the run's values and the points before it, so
        the diagnosis is a pure function of the ingested stream — an
        interrupted-and-restored service reproduces it exactly.
        """
        if self.diagnoser is None or end <= begin:
            return None
        from ..diagnosis import CONTEXT_POINTS, series_period

        interval = (
            int(self._history.interval) if self._history is not None else 0
        )
        period = series_period(interval) if interval else None
        context_len = max(period or 0, CONTEXT_POINTS)
        window = self._values_slice(begin, end)
        if not np.isfinite(window).any():
            return None
        context = self._values_slice(max(begin - context_len, 0), begin)
        return self.diagnoser.diagnose(window, context, period=period)

    def _dispatch_events(self, events: List[AlertEvent]) -> None:
        """Record alert lifecycle events and notify the callback.

        The callback is operator-supplied code (a pager, a webhook, a
        fleet sink): if it raises, the error is counted and logged but
        never propagates — a broken alert sink must not wedge the
        ingest stream mid-point.
        """
        obs = get_provider()
        for event in events:
            obs.counter(
                "repro_alerts_total",
                "Alert lifecycle transitions",
                event=event.kind,
            ).inc()
            if event.diagnosis is not None:
                self.stats.inc_alerts_diagnosed(event.diagnosis)
                obs.counter(
                    "repro_alerts_diagnosed_total",
                    "Closed alerts by diagnosed anomaly kind",
                    kind=event.diagnosis,
                ).inc()
            fields = dict(
                kpi=event.kpi or "",
                begin_index=event.begin_index,
                end_index=event.end_index,
                peak_score=event.peak_score,
            )
            if event.diagnosis is not None:
                fields["diagnosis"] = event.diagnosis
            obs.emit(f"alert_{event.kind}", **fields)
        if self._alert_callback is not None:
            for event in events:
                try:
                    self._alert_callback(event)
                except Exception as error:  # repro: disable=api-hygiene — callbacks are arbitrary operator code; swallowing (after counting) is the contract
                    self.stats.inc_callback_errors()
                    obs.counter(
                        "repro_alert_callback_errors_total",
                        "Alert callbacks that raised (and were contained)",
                    ).inc()
                    obs.emit(
                        "alert_callback_error",
                        kpi=event.kpi or "",
                        event=event.kind,
                        begin_index=event.begin_index,
                        error=repr(error),
                    )

    def _close_open_run(self) -> List[AlertEvent]:
        """Close a dangling alert run (retraining rebuilds the streams,
        so a run left open would never emit its ``closed`` event). The
        run ends — exclusively — at the last ingested point."""
        events: List[AlertEvent] = []
        if self._run_begin is not None:
            end = self.history_length
            if end - self._run_begin >= self.min_duration_points:
                events.append(
                    AlertEvent(
                        kind="closed",
                        begin_index=self._run_begin,
                        end_index=end,
                        peak_score=max(self._run_scores),
                        kpi=self.kpi,
                        diagnosis=self._diagnose_run(self._run_begin, end),
                    )
                )
            self._run_begin = None
            self._run_scores = []
        self._dispatch_events(events)
        return events

    # ------------------------------------------------------------------
    def submit_labels(self, windows: Sequence[AnomalyWindow]) -> None:
        """Operator labels for ingested (not yet labelled) data. Indices
        are absolute (matching :class:`AlertEvent` indices)."""
        total = self.history_length
        for window in windows:
            begin, end = int(window.begin), int(window.end)
            if begin < 0 or begin >= end:
                raise ValueError(
                    f"invalid label window [{begin}, {end}): begin must "
                    "be >= 0 and < end"
                )
            if end > total:
                raise ValueError(
                    f"window {window} beyond ingested history ({total})"
                )
        self._label_windows = merge_windows(
            list(self._label_windows) + list(windows)
        )

    def retrain(self) -> float:
        """Incremental retraining on all ingested data (§3.2).

        All pending points become labelled history (anomalous where the
        operator submitted windows), the best cThld of the newly
        labelled span feeds the EWMA predictor, and the classifier is
        refitted incrementally: the training feature matrix is extended
        with the severity rows already collected during streaming
        detection, and the warm detector streams carry over through a
        checkpoint instead of replaying history — both O(new points),
        keeping retrain cost flat in history length. An alert run still
        open at this point is closed first (its ``closed`` event goes to
        the callback/metrics, not to this call's return value), so alert
        lifecycles always pair up. Returns the new cThld.
        """
        if self._history is None:
            raise RuntimeError("bootstrap() must run before retrain()")
        if not self._pending_values:
            raise ValueError("no new data since the last retraining round")
        obs = get_provider()
        retrain_span = obs.span(
            "service.retrain",
            kpi=self._history.name or "",
            n_new_points=len(self._pending_values),
        )
        with retrain_span:
            return self._retrain_impl(retrain_span)

    def _retrain_impl(self, span) -> float:
        assert self._history is not None
        assert self._streaming is not None
        obs = get_provider()
        began = time.perf_counter()
        new_values = np.asarray(self._pending_values)
        extension = TimeSeries(
            values=new_values,
            interval=self._history.interval,
            start=self._history.start
            + len(self._history) * self._history.interval,
            labels=np.zeros(len(new_values), dtype=np.int8),
            name=self._history.name,
        )
        combined = self._history.concat(extension)
        labels = windows_to_points(self._label_windows, len(combined))
        combined = combined.with_labels(labels)

        # Feed the finished span's best cThld into the EWMA predictor.
        span_scores = np.asarray(self._pending_scores)
        span_labels = labels[self._labeled_until:]
        if len(span_scores) and span_labels.sum() > 0:
            best = best_cthld(
                span_scores, span_labels, self._opprentice.preference
            )
            self._opprentice.cthld_predictor.observe_best(best)

        # The streams have already seen every point of `combined`
        # (bootstrap replay + one push per ingested point), so their
        # current state *is* the post-replay state: checkpoint them now
        # and restore into the rebuilt detector instead of replaying.
        self._close_open_run()
        checkpoint = self._streaming.snapshot()

        if self._opprentice._feature_values is None:
            # A service restored from a checkpoint saved without the
            # feature-matrix cache (snapshot(include_features=False)):
            # fall back to a full refit, which re-extracts the combined
            # series and re-primes the cache. The incremental == full
            # equivalence tests make the two paths interchangeable.
            self._opprentice.fit(combined)
        else:
            self._opprentice.fit_incremental(
                combined, np.asarray(self._pending_rows, dtype=np.float64)
            )
        self._opprentice.cthld_ = self._opprentice.cthld_predictor.predict(
            self._opprentice.classifier_factory,
            self._opprentice._train_features,
            self._opprentice._train_labels,
        )
        self._streaming = StreamingDetector(
            self._opprentice, checkpoint=checkpoint, kpi=combined.name
        )
        self._history = combined
        self._labeled_until = len(combined)
        self._pending_values = []
        self._pending_scores = []
        self._pending_rows = []
        self.stats.inc_retrain_rounds()
        obs.counter(
            "repro_retrain_rounds_total", "Incremental retraining rounds"
        ).inc()
        obs.gauge("repro_cthld", "Current classification threshold").set(
            self.cthld
        )
        obs.gauge(
            "repro_retrain_last_seconds",
            "Wall time of the most recent retraining round",
        ).set(time.perf_counter() - began)
        obs.gauge(
            "repro_stream_buffer_points",
            "Points buffered across all detector streams",
        ).set(self._streaming.buffered_points())
        span.set("cthld", self.cthld)
        obs.emit(
            "retrain",
            kpi=combined.name or "",
            n_points=len(combined),
            cthld=self.cthld,
        )
        return self.cthld

    # ------------------------------------------------------------------
    # Checkpointing: the full mutable service state as one JSON dict.
    # ------------------------------------------------------------------
    def snapshot(
        self, include_features: bool = True, *, memoised: bool = False
    ) -> Dict[str, Any]:
        """The service's mutable state as a JSON-serializable dict.

        Together with the model artifact (:func:`~repro.core.save_model`)
        this makes a deployed service fully restartable: restoring the
        snapshot into a fresh service over the same fitted model
        reproduces the uninterrupted service's future alert stream
        exactly — including an alert run still *open* at checkpoint time
        (``_run_begin``/``_run_scores``) and the pending not-yet-labelled
        buffers, so a crash-restart never silently drops an in-flight
        alert or the points awaiting the next retraining round.

        ``include_features=False`` omits the cached training feature
        matrix (the bulkiest part, O(history × configs)); a service
        restored without it stays bit-identical for ingest and falls
        back to a full refit on its next :meth:`retrain`.

        ``memoised=True`` is the form
        :func:`~repro.core.save_service_checkpoint` writes: the parts
        that change only when a model is fitted (the training matrix and
        the diagnoser) come back as their memoised
        :class:`~repro.core.jsonio.JSONText`, so a checkpoint re-encodes
        only the per-point state.
        """
        if self._history is None or self._streaming is None:
            raise RuntimeError("bootstrap() must run before snapshot()")
        features = self._opprentice._feature_values
        if not include_features or features is None:
            train_features = None
        elif memoised:
            train_features = JSONText(self._opprentice.feature_values_json())
        else:
            train_features = features.tolist()
        if self.diagnoser is None:
            diagnoser = None
        elif memoised:
            diagnoser = JSONText(self.diagnoser.to_json())
        else:
            diagnoser = self.diagnoser.to_dict()
        return {
            "format_version": SERVICE_SNAPSHOT_VERSION,
            "kpi": self._history.name,
            "min_duration_points": self.min_duration_points,
            "history": {
                "values": [float(v) for v in self._history.values],
                "labels": [int(v) for v in self._history.labels],
                "interval": int(self._history.interval),
                "start": int(self._history.start),
                "name": self._history.name,
            },
            "label_windows": [
                [int(w.begin), int(w.end)] for w in self._label_windows
            ],
            "labeled_until": int(self._labeled_until),
            "pending": {
                "values": list(self._pending_values),
                "scores": [float(s) for s in self._pending_scores],
                "rows": [
                    [float(x) for x in row] for row in self._pending_rows
                ],
            },
            "run": {
                "begin": self._run_begin,
                "scores": [float(s) for s in self._run_scores],
            },
            "stream": self._streaming.snapshot(),
            "cthld_predictor": self._opprentice.cthld_predictor.snapshot(),
            "train_features": train_features,
            "diagnoser": diagnoser,
            "stats": self.stats.as_dict(),
        }

    def _restore_streams(
        self,
        checkpoint: Mapping[str, Any],
        history: TimeSeries,
        pending_values: Sequence[float],
    ) -> StreamingDetector:
        """The warm detector streams of a snapshot.

        An older stream checkpoint (version 1 or 2) holds states the
        family streams no longer read. Its streams had seen exactly the
        history and the pending points, so replaying those into fresh
        streams rebuilds the state they would have restored.
        """
        if checkpoint.get("format_version") not in (1, 2):
            return StreamingDetector(
                self._opprentice, checkpoint=checkpoint, kpi=history.name
            )
        streaming = StreamingDetector(self._opprentice, kpi=history.name)
        streaming.check_feature_names(checkpoint["feature_names"])
        seen = np.concatenate(
            [history.values, np.asarray(pending_values, dtype=np.float64)]
        )
        if len(seen) != int(checkpoint["index"]) + 1:
            raise ValueError(
                f"stream checkpoint saw {int(checkpoint['index']) + 1} "
                f"points, the snapshot holds {len(seen)}"
            )
        streaming.replay(
            TimeSeries(
                values=seen,
                interval=history.interval,
                start=history.start,
                name=history.name,
            )
        )
        return streaming

    def restore_snapshot(
        self, snapshot: Mapping[str, Any]
    ) -> "MonitoringService":
        """Load a :meth:`snapshot` into this service.

        The service must carry a *fitted* Opprentice over the same
        detector bank the snapshot was taken with (typically via
        :func:`~repro.core.load_model` into ``service.opprentice``); the
        stream restore validates the bank through its feature names.
        """
        version = snapshot.get("format_version")
        if version != SERVICE_SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported service snapshot version {version!r} "
                f"(expected {SERVICE_SNAPSHOT_VERSION})"
            )
        if (
            self._opprentice.classifier_ is None
            or self._opprentice.imputer_ is None
        ):
            raise RuntimeError(
                "restore_snapshot() needs a fitted model; load_model() "
                "into service.opprentice first"
            )
        with get_provider().span(
            "service.restore", kpi=snapshot.get("kpi") or ""
        ):
            stored = snapshot["history"]
            history = TimeSeries(
                values=np.asarray(stored["values"], dtype=np.float64),
                interval=int(stored["interval"]),
                start=int(stored["start"]),
                labels=np.asarray(stored["labels"], dtype=np.int8),
                name=stored["name"],
            )
            # A default-bank service has no configs until it sees a
            # series; derive them from the restored history so a plain
            # MonitoringService() can be rebuilt from model + snapshot
            # without re-bootstrapping.
            self._opprentice.extractor.configs(history)
            # The stream restore is the bank-compatibility gate: run it
            # first so a mismatched checkpoint leaves the service
            # untouched.
            streaming = self._restore_streams(
                snapshot["stream"], history, snapshot["pending"]["values"]
            )
            self._history = history
            self._label_windows = [
                AnomalyWindow(int(begin), int(end))
                for begin, end in snapshot["label_windows"]
            ]
            self._labeled_until = int(snapshot["labeled_until"])
            pending = snapshot["pending"]
            self._pending_values = [float(v) for v in pending["values"]]
            self._pending_scores = [float(s) for s in pending["scores"]]
            self._pending_rows = [
                np.asarray(row, dtype=np.float64) for row in pending["rows"]
            ]
            run = snapshot["run"]
            self._run_begin = (
                None if run["begin"] is None else int(run["begin"])
            )
            self._run_scores = [float(s) for s in run["scores"]]
            self._streaming = streaming
            self.min_duration_points = int(snapshot["min_duration_points"])
            self._opprentice.cthld_predictor.restore(
                snapshot.get("cthld_predictor") or {}
            )
            # Re-prime the incremental-retraining caches: the fitted
            # history and (when persisted) its raw feature rows.
            self._opprentice._history = history
            features = snapshot.get("train_features")
            self._opprentice._feature_values = (
                np.asarray(features, dtype=np.float64)
                if features is not None
                else None
            )
            diagnoser = snapshot.get("diagnoser")
            if diagnoser is not None:
                from ..diagnosis import AnomalyDiagnoser

                self.diagnoser = AnomalyDiagnoser.from_dict(diagnoser)
            stats = snapshot.get("stats") or {}
            self.stats.points_ingested = int(stats.get("points_ingested", 0))
            self.stats.anomalous_points = int(
                stats.get("anomalous_points", 0)
            )
            self.stats.alerts_opened = int(stats.get("alerts_opened", 0))
            self.stats.retrain_rounds = int(stats.get("retrain_rounds", 0))
            self.stats.callback_errors = int(stats.get("callback_errors", 0))
            self.stats.alerts_diagnosed = stats.get("alerts_diagnosed") or {}
        return self
