"""True streaming detection: one point in, one decision out.

§4.3.2 requires that "once a data point arrives, its severity should be
calculated by the detectors without waiting for any subsequent data",
and that per-point processing beats the data interval. The batch
:class:`~repro.core.Opprentice` API scores whole series;
:class:`StreamingDetector` runs the same fitted model point-by-point
using each detector's online stream — the deployment shape of Fig 3(b).

The streams are exact (the test suite asserts stream == batch for every
configuration), so pushing points one at a time produces the same
scores and decisions as batch detection over the same data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from ..detectors import StreamBank
from ..obs import get_provider
from ..timeseries import TimeSeries
from .opprentice import Opprentice

#: Version tag of the stream-checkpoint dict layout produced by
#: :meth:`StreamingDetector.snapshot`. Version 4 stores one state per
#: detector family and no raw values. Versions 1 and 2 (per-config
#: states) and 3 (raw rings inside the family states) restore by
#: replaying the points their streams had seen.
STREAM_CHECKPOINT_VERSION = 4


@dataclass(frozen=True)
class StreamDecision:
    """The outcome for one pushed data point."""

    index: int
    score: float
    is_anomaly: bool
    severities: np.ndarray

    @property
    def cThld_exceeded(self) -> bool:
        return self.is_anomaly


class StreamingDetector:
    """Point-at-a-time detection with a fitted :class:`Opprentice`.

    Parameters
    ----------
    opprentice:
        A fitted model (classifier, imputer and cThld configured).
    history:
        Optional recent series to replay through the detector streams so
        windowed detectors start warm — typically the training series.
        Replaying the training series makes subsequent decisions equal
        to the batch contextual scores.
    checkpoint:
        A dict from :meth:`snapshot` of a previous StreamingDetector
        over the same detector bank, which had seen ``history``
        (:meth:`restore`).
    """

    def __init__(
        self,
        opprentice: Opprentice,
        history: Optional[TimeSeries] = None,
        checkpoint: Optional[Mapping[str, Any]] = None,
        kpi: Optional[str] = None,
    ):
        if opprentice.classifier_ is None or opprentice.imputer_ is None:
            raise ValueError("StreamingDetector needs a fitted Opprentice")
        self._opprentice = opprentice
        # Per-KPI latency attribution: the kpi label on the per-point
        # stage timers; falls back to the replayed history's name.
        self.kpi = kpi if kpi is not None else (
            history.name if history is not None else None
        )
        configs = opprentice.extractor.config_bank
        if configs is None:
            raise ValueError(
                "the Opprentice has no detector configs yet; fit it on a "
                "series (or pass configs explicitly) first"
            )
        #: The bank's feature columns, built once: every checkpoint
        #: writes them and every restore checks them.
        self._feature_names = [config.name for config in configs]
        # One fused stream per detector family (the Holt-Winters sweep
        # is a single vectorised update instead of 64 scalar ones), and
        # one checkpoint state per family — see StreamBank.
        self._bank = StreamBank(configs)
        self._index = -1
        if checkpoint is not None:
            self.restore(checkpoint, history)
        elif history is not None:
            self.replay(history)

    @property
    def n_configs(self) -> int:
        return len(self._bank)

    @property
    def points_seen(self) -> int:
        return self._index + 1

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The warm state of every detector stream as one
        JSON-serializable checkpoint dict (a service checkpoint carries
        it as its ``stream`` entry). It holds no raw values: restoring
        it, with the series this detector has seen, into a fresh
        StreamingDetector over the same bank reproduces this detector's
        future decisions exactly."""
        return {
            "format_version": STREAM_CHECKPOINT_VERSION,
            "index": self._index,
            "feature_names": list(self._feature_names),
            "streams": self._bank.snapshot(),
        }

    def restore(
        self, checkpoint: Mapping[str, Any], seen: Optional[TimeSeries]
    ) -> "StreamingDetector":
        """Bring the fresh streams to a :meth:`snapshot` taken after they
        had seen ``seen``: a version-4 checkpoint's states load and the
        bank's raw-value ring refills from ``seen``'s tail; an older
        one's states are not read, so ``seen`` is replayed."""
        version = checkpoint.get("format_version")
        if version not in (1, 2, 3, STREAM_CHECKPOINT_VERSION):
            raise ValueError(
                f"unsupported stream checkpoint version {version!r} "
                f"(expected {STREAM_CHECKPOINT_VERSION})"
            )
        if list(checkpoint["feature_names"]) != self._feature_names:
            raise ValueError(
                "detector bank mismatch: the checkpoint was taken over a "
                "different feature set"
            )
        index = int(checkpoint["index"])
        if seen is None or len(seen) != index + 1:
            raise ValueError(
                f"stream checkpoint version {version} saw {index + 1} "
                "points; restore it with the series its streams saw"
            )
        if version != STREAM_CHECKPOINT_VERSION:
            self.replay(seen)
            return self
        with get_provider().span(
            "stream.restore", n_streams=len(self._bank)
        ):
            self._bank.restore(list(checkpoint["streams"]), seen.values)
        self._index = index
        return self

    def buffered_points(self) -> int:
        """Total points buffered across all detector streams — the value
        behind the ``repro_stream_buffer_points`` gauge. Flat over time
        for the bounded streams every registered detector uses."""
        return self._bank.buffered_points()

    def replay(self, series: TimeSeries) -> None:
        """Warm the detector streams with historical data (no decisions
        are produced)."""
        with get_provider().span(
            "stream.replay", kpi=series.name or "", n_points=len(series)
        ):
            for value in series.values:
                self._advance(value)

    def _advance(self, value: float) -> np.ndarray:
        self._index += 1
        return self._bank.extract_point(value)

    def push(self, value: float) -> StreamDecision:
        """Consume the next data point and classify it."""
        obs = get_provider()
        with obs.timer(
            "repro_stream_point_seconds",
            "Per-point streaming latency by stage (§4.3.2/§5.8)",
            stage="features",
            kpi=self.kpi or "",
        ):
            severities = self._advance(float(value))
        opprentice = self._opprentice
        with obs.timer(
            "repro_stream_point_seconds",
            "Per-point streaming latency by stage (§4.3.2/§5.8)",
            stage="classify",
            kpi=self.kpi or "",
        ):
            features = opprentice.imputer_.transform(severities[np.newaxis, :])
            score = float(opprentice.classifier_.predict_proba(features)[0])
        obs.counter(
            "repro_stream_points_total", "Points pushed through streams"
        ).inc()
        assert opprentice.cthld_ is not None
        return StreamDecision(
            index=self._index,
            score=score,
            is_anomaly=score >= opprentice.cthld_,
            severities=severities,
        )

    def push_many(self, values) -> List[StreamDecision]:
        """Convenience: push a sequence of points."""
        return [self.push(value) for value in values]
