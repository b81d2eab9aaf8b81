"""Assembling the severity feature matrix (§4.3).

"Multiple detectors are applied to the KPI data in parallel to extract
features" — here, every registered configuration contributes one column
of severities. Feature extraction, training and classification all work
on individual data points (§4.3.1), so the matrix has one row per grid
point of the KPI.

Extraction is compiled at the detector-*family* level: sibling
configurations (the window bank, the Holt-Winters sweep, the seasonal
and historical grids, the wavelet bands) share one fused numpy pass
each (see :func:`repro.detectors.build_family_evaluators`), run one
after another in the calling thread. The paper's "all the detectors can
run in parallel" (§5.8) is served one level up: ``repro-serve`` runs
KPIs on several forked shard processes (see docs/performance.md). The
online loop does not come through here:
:class:`repro.detectors.StreamBank` feeds one point at a time through
warm per-family streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..detectors import DetectorConfig, build_family_evaluators, configs_for
from ..obs import get_provider
from ..timeseries import TimeSeries


@dataclass
class FeatureMatrix:
    """An (n_points, n_configs) severity matrix with column metadata.

    ``values[t, j]`` is configuration ``j``'s severity for point ``t``;
    NaN inside warm-up windows and at missing points.
    """

    values: np.ndarray
    names: List[str]

    def __post_init__(self) -> None:
        if self.values.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got {self.values.shape}")
        if self.values.shape[1] != len(self.names):
            raise ValueError(
                f"{self.values.shape[1]} columns vs {len(self.names)} names"
            )

    @property
    def n_points(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def rows(self, begin: int, end: int) -> np.ndarray:
        """The feature rows for points [begin, end)."""
        if begin < 0 or end > self.n_points or begin > end:
            raise ValueError(
                f"rows [{begin}, {end}) outside matrix of {self.n_points}"
            )
        return self.values[begin:end]

    def column(self, name: str) -> np.ndarray:
        """One configuration's severities by feature name."""
        try:
            index = self.names.index(name)
        except ValueError:
            raise KeyError(f"no feature named {name!r}") from None
        return self.values[:, index]


class FeatureExtractor:
    """Runs a detector bank over series to produce feature matrices.

    Parameters
    ----------
    configs:
        Detector configurations; defaults to the Table 3 bank sized for
        the first series passed to :meth:`extract`.
    """

    def __init__(self, configs: Optional[Sequence[DetectorConfig]] = None):
        self._configs: Optional[List[DetectorConfig]] = (
            list(configs) if configs is not None else None
        )

    def configs(self, series: Optional[TimeSeries] = None) -> List[DetectorConfig]:
        if self._configs is None:
            if series is None:
                raise ValueError(
                    "no configs set and no series to derive them from"
                )
            self._configs = configs_for(series)
        return self._configs

    @property
    def config_bank(self) -> Optional[Tuple[DetectorConfig, ...]]:
        """The resolved detector bank as an immutable tuple, or ``None``
        if the default bank has not been derived from a series yet. The
        public read-only counterpart of :meth:`configs` for callers that
        must not trigger (or cannot provide a series for) derivation."""
        if self._configs is None:
            return None
        return tuple(self._configs)

    @property
    def names(self) -> List[str]:
        if self._configs is None:
            raise RuntimeError("extractor has no configs yet")
        return [c.name for c in self._configs]

    def extract(self, series: TimeSeries) -> FeatureMatrix:
        """The full severity matrix for ``series``: the bank compiled
        into fused family evaluators, each run in the calling thread and
        written to the columns of its configs."""
        configs = self.configs(series)
        n = len(series)
        obs = get_provider()
        with obs.span(
            "feature_matrix.extract",
            kpi=series.name or "",
            n_points=n,
            n_configs=len(configs),
        ):
            matrix = np.full((n, len(configs)), np.nan)
            for evaluator in build_family_evaluators(configs):
                with obs.span(
                    "extract.config",
                    detector=evaluator.kind,
                    n_columns=len(evaluator.configs),
                ), obs.timer(
                    "repro_detector_severities_seconds",
                    "Severity extraction per detector configuration batch",
                    detector=evaluator.kind,
                ):
                    matrix[:, list(evaluator.indices)] = evaluator.evaluate(
                        series
                    )
        obs.counter(
            "repro_feature_points_total",
            "Points x extraction passes through the detector bank",
        ).inc(n)
        return FeatureMatrix(values=matrix, names=[c.name for c in configs])
