"""Assembling the severity feature matrix (§4.3).

"Multiple detectors are applied to the KPI data in parallel to extract
features" — here, every registered configuration contributes one column
of severities. Feature extraction, training and classification all work
on individual data points (§4.3.1), so the matrix has one row per grid
point of the KPI.

Extraction is compiled at the detector-*family* level: sibling
configurations (the window bank, the Holt-Winters sweep, the seasonal
and historical grids, the wavelet bands) share one fused numpy pass
each (see :func:`repro.detectors.build_family_evaluators`). *Where* the
work runs is delegated to an execution backend (``serial`` / ``thread``
/ ``process``, see :mod:`repro.core.execution`); the matrix is
bit-identical whichever is active (see docs/performance.md). The online
loop does not come through here: :class:`repro.detectors.StreamBank`
feeds one point at a time through warm per-family streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..detectors import DetectorConfig, build_family_evaluators, configs_for
from ..obs import get_provider
from ..timeseries import TimeSeries
from .execution import (
    BackendSpec,
    ExecutionBackend,
    resolve_backend,
    resolve_workers,
)


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
    workers:
        Parallelism for extraction (§5.8: "all the detectors can run in
        parallel"). ``0`` means one worker per available CPU; ``1``
        (default) runs sequentially; negative counts raise.
    backend:
        Where the work runs: ``"serial"``, ``"thread"``, ``"process"``,
        or an :class:`~repro.core.execution.ExecutionBackend` instance.
        ``None`` keeps the historical mapping — serial for one worker,
        the thread pool for more. The ``process`` backend fans
        configurations out over real cores with the series shared via
        :mod:`multiprocessing.shared_memory`; all backends produce
        bit-identical matrices.
    """

    def __init__(
        self,
        configs: Optional[Sequence[DetectorConfig]] = None,
        *,
        workers: int = 1,
        backend: BackendSpec = None,
    ):
        self.workers = resolve_workers(workers)
        self._configs: Optional[List[DetectorConfig]] = (
            list(configs) if configs is not None else None
        )
        self.backend: ExecutionBackend = resolve_backend(backend, self.workers)

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
        into fused family evaluators, run on the execution backend."""
        configs = self.configs(series)
        n = len(series)
        obs = get_provider()
        with obs.span(
            "feature_matrix.extract",
            kpi=series.name or "",
            n_points=n,
            n_configs=len(configs),
            backend=self.backend.name,
        ):
            obs.gauge(
                "repro_extract_workers",
                "Workers used by the active extraction backend",
            ).set(self.backend.workers)
            matrix = np.full((n, len(configs)), np.nan)
            evaluators = build_family_evaluators(configs)
            for evaluator, columns in self.backend.run_tasks(evaluators, series):
                matrix[:, list(evaluator.indices)] = columns
        obs.counter(
            "repro_feature_points_total",
            "Points x extraction passes through the detector bank",
        ).inc(n)
        return FeatureMatrix(values=matrix, names=[c.name for c in configs])

    def close(self) -> None:
        """Release backend resources (the persistent process pool and
        its shared-memory segment). Safe to call more than once; the
        extractor remains usable and re-acquires resources on demand."""
        self.backend.close()

    def __enter__(self) -> "FeatureExtractor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
