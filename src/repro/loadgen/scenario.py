"""Deterministic multi-KPI scenarios shared across load surfaces.

One scenario description, two consumers:

* the :class:`~repro.loadgen.harness.SoakHarness`, which bootstraps it
  into an in-process fleet or — against a ``repro-serve`` plane —
  regenerates the *same* series client-side and streams the live tail
  over HTTP;
* the ``repro-serve`` scenario mode, where each forked shard process
  builds only its consistent-hash slice of the same scenario.

Everything is a pure function of the spec: ``make_kpi`` seeds from
``seed_offset + index``, so a server and a client (or two servers in a
kill-recovery A/B run) that share a spec generate bit-identical series,
ground-truth windows and KPI ids without exchanging any data. That
equality is what the networked SLO gate's alert-divergence checks
stand on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..data.datasets import PROFILES, make_kpi
from ..timeseries import TimeSeries
from ..timeseries.windows import AnomalyWindow

SECONDS_PER_WEEK = 7 * 24 * 3600


def kpi_identifier(profile_name: str, index: int) -> str:
    """A fleet-legal KPI id (``#SR`` itself is not: ids must start
    alphanumeric), keeping the profile recognisable: ``SR-003``."""
    clean = "".join(
        ch for ch in profile_name if ch.isalnum() or ch in "._-"
    ) or "KPI"
    return f"{clean}-{index:03d}"


@dataclass(frozen=True)
class ScenarioSpec:
    """The full identity of a synthetic multi-KPI scenario.

    KPIs come from one of two sources: the Table 1 ``profiles`` tuple
    (the default), or — when ``dataset`` names a registered
    ``repro.corpus`` dataset — that dataset's KPIs, cycled the same
    way. Either source is a pure function of the spec, so the
    bit-identity guarantee carries over unchanged.
    """

    n_kpis: int = 8
    #: Simulated stream length after bootstrap, in weeks.
    weeks: float = 0.25
    #: Labelled history each KPI bootstraps on, in weeks.
    bootstrap_weeks: float = 1.0
    #: Profiles cycled across KPIs (Table 1 names). Ignored when
    #: ``dataset`` is set.
    profiles: Tuple[str, ...] = ("PV", "#SR", "SRT")
    seed_offset: int = 0
    #: A ``repro.corpus`` dataset name to draw KPIs from instead of
    #: the Table 1 profiles.
    dataset: Optional[str] = None

    def _corpus(self):
        from ..corpus import get_dataset

        return get_dataset(self.dataset)

    def validate(self) -> None:
        if self.n_kpis < 1:
            raise ValueError("n_kpis must be >= 1")
        if self.weeks <= 0 or self.bootstrap_weeks <= 0:
            raise ValueError("weeks and bootstrap_weeks must be > 0")
        if self.dataset is not None:
            self._corpus()  # CorpusError (a ValueError) on unknown
            return
        if not self.profiles:
            raise ValueError("profiles must not be empty")
        unknown = [p for p in self.profiles if p not in PROFILES]
        if unknown:
            raise ValueError(
                f"unknown profile(s) {unknown}; Table 1 has "
                f"{sorted(PROFILES)}"
            )

    def source_name(self, index: int) -> str:
        """The profile or dataset-KPI name behind scenario slot
        ``index`` (cycled when ``n_kpis`` exceeds the source count)."""
        if self.dataset is not None:
            names = self._corpus().kpi_names()
            return names[index % len(names)]
        return self.profiles[index % len(self.profiles)]

    def profile_of(self, index: int):
        if self.dataset is not None:
            raise ValueError(
                f"scenario draws from dataset {self.dataset!r}, "
                "not Table 1 profiles"
            )
        return PROFILES[self.profiles[index % len(self.profiles)]]

    def kpi_ids(self) -> List[str]:
        """Every KPI id, *without* generating any series — cheap enough
        for routing tables over 10k-KPI scenarios."""
        return [
            kpi_identifier(self.source_name(index), index)
            for index in range(self.n_kpis)
        ]

    def intervals(self) -> dict:
        """``{kpi_id: sampling interval seconds}`` without generating
        any series (profiles and datasets declare their intervals)."""
        if self.dataset is not None:
            corpus = self._corpus()
            return {
                kpi_identifier(self.source_name(index), index):
                    corpus.kpi_interval(self.source_name(index))
                for index in range(self.n_kpis)
            }
        return {
            kpi_identifier(self.profile_of(index).name, index):
                self.profile_of(index).interval
            for index in range(self.n_kpis)
        }

    def as_dict(self) -> dict:
        return {
            "n_kpis": self.n_kpis,
            "weeks": self.weeks,
            "bootstrap_weeks": self.bootstrap_weeks,
            "profiles": list(self.profiles),
            "seed_offset": self.seed_offset,
            "dataset": self.dataset,
        }


@dataclass(frozen=True)
class ScenarioKpi:
    """One generated KPI: labelled series plus the bootstrap split."""

    kpi_id: str
    profile: str
    index: int
    interval: int
    bootstrap_points: int
    series: TimeSeries
    windows: Tuple[AnomalyWindow, ...]

    @property
    def bootstrap(self) -> TimeSeries:
        return self.series.slice(0, self.bootstrap_points)

    @property
    def live_values(self) -> List[float]:
        return [
            float(value)
            for value in self.series.slice(
                self.bootstrap_points, len(self.series)
            ).values
        ]


def build_scenario_kpi(spec: ScenarioSpec, index: int) -> ScenarioKpi:
    """Generate KPI ``index`` of the scenario (deterministic)."""
    source = spec.source_name(index)
    kpi_id = kpi_identifier(source, index)
    if spec.dataset is not None:
        generated = spec._corpus().load(
            source,
            weeks=spec.bootstrap_weeks + spec.weeks,
            seed_offset=spec.seed_offset + index,
        )
    else:
        generated = make_kpi(
            spec.profile_of(index),
            seed_offset=spec.seed_offset + index,
            weeks=spec.bootstrap_weeks + spec.weeks,
        )
    series = generated.series
    points_per_week = SECONDS_PER_WEEK // series.interval
    bootstrap_points = int(spec.bootstrap_weeks * points_per_week)
    if len(series) <= bootstrap_points:
        raise ValueError(
            f"{kpi_id}: {len(series)} points cannot cover the "
            f"{bootstrap_points}-point bootstrap"
        )
    return ScenarioKpi(
        kpi_id=kpi_id,
        profile=source,
        index=index,
        interval=series.interval,
        bootstrap_points=bootstrap_points,
        series=series,
        windows=tuple(sorted(generated.windows)),
    )


def build_scenario(
    spec: ScenarioSpec, kpi_ids: Optional[Sequence[str]] = None
) -> List[ScenarioKpi]:
    """Generate the scenario — or only the named subset of it.

    The subset path is what shard processes use: every shard knows the
    full id list (cheap) but generates and bootstraps only its own
    slice, so an N-shard startup parallelizes the expensive part.
    """
    spec.validate()
    if kpi_ids is None:
        return [
            build_scenario_kpi(spec, index) for index in range(spec.n_kpis)
        ]
    by_id = {
        kpi_identifier(spec.source_name(index), index): index
        for index in range(spec.n_kpis)
    }
    missing = sorted(set(kpi_ids) - set(by_id))
    if missing:
        raise ValueError(f"not in this scenario: {missing}")
    return [build_scenario_kpi(spec, by_id[kpi_id]) for kpi_id in kpi_ids]


__all__ = [
    "SECONDS_PER_WEEK",
    "ScenarioKpi",
    "ScenarioSpec",
    "build_scenario",
    "build_scenario_kpi",
    "kpi_identifier",
]
