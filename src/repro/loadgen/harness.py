"""The soak driver: simulated weeks of multi-KPI load on one target.

:class:`SoakHarness` replays a deterministic scenario (see
:mod:`repro.loadgen.scenario`) on a *simulated* clock: one tick per
greatest-common-divisor of the KPI sampling intervals, each KPI
offering a point whenever its interval comes due, one batch per tick.
The batch goes to one of two targets:

* :class:`FleetTarget` (the default) — the scenario bootstrapped into
  an in-process :class:`~repro.fleet.FleetManager`, pumped once per
  tick. The first ``fault_kpis`` KPIs are built on a
  :class:`FaultInjectingService` that raises on every Nth ingest, so
  the fleet's quarantine → backoff → recovery lifecycle keeps cycling
  under load (failures are never consecutive, so no KPI degrades);
* :class:`~repro.loadgen.client.HttpTarget` (``target`` set) — a
  running ``repro-serve`` plane, one ``POST /ingest/batch`` per tick,
  with optional shard kill / graceful-restart drills.

Every ``retrain_every`` simulated seconds the ground-truth anomaly
windows are submitted as operator labels (the fleet clips them to what
each KPI has ingested) and the target retrains. Every
``checkpoint_every`` simulated seconds the harness records a combined
metrics snapshot (its own provider plus the target's per-KPI rollup)
tagged with the simulated timestamp. The resulting soak document is
exactly what ``repro-obs slo`` consumes for multi-window burn-rate
evaluation (see :mod:`repro.obs.slo`).

Two metrics exist only here:

* ``repro_loadgen_points_offered_total{kpi}`` — the denominator for
  drop-ratio SLOs (``repro_fleet_dropped_points_total`` is the
  numerator);
* ``repro_alert_delay_points{kpi}`` — detection delay of each opened
  alert in *points* past the ground-truth window begin (the paper's
  Fig. 12 delay axis), a point-valued histogram the alert-delay SLO
  consumes.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.service import AlertEvent, MonitoringService
from ..fleet.banks import small_bank
from ..fleet.manager import FleetManager
from ..fleet.status import FleetStatus
from ..ml import RandomForest
from ..obs import combine_snapshots, get_provider
from ..serve.shard import serialize_events
from ..timeseries.windows import AnomalyWindow
from .client import HttpTarget
from .scenario import ScenarioKpi, ScenarioSpec, build_scenario

#: Point-valued buckets for ``repro_alert_delay_points`` — spanning the
#: duration filter's floor (alerts open after ``min_duration_points``)
#: up to a whole missed window.
DEFAULT_ALERT_DELAY_BUCKETS: Tuple[float, ...] = (
    0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0,
    64.0,
)

SECONDS_PER_WEEK = 7 * 24 * 3600


class InjectedFault(RuntimeError):
    """The deliberate failure a :class:`FaultInjectingService` raises."""


class FaultInjectingService(MonitoringService):
    """A monitoring service that fails every Nth ingest.

    The failures are periodic, never consecutive, so the owning fleet
    quarantines and recovers the KPI over and over without ever
    degrading it — sustained lifecycle churn, which is exactly what the
    soak wants on a few KPIs.
    """

    def __init__(self, *args, fault_every: int = 100, **kwargs):
        if fault_every < 2:
            raise ValueError("fault_every must be >= 2 (never consecutive)")
        super().__init__(*args, **kwargs)
        self.fault_every = fault_every
        self._ingest_calls = 0

    def ingest(self, value: float) -> List[AlertEvent]:
        self._ingest_calls += 1
        if self._ingest_calls % self.fault_every == 0:
            raise InjectedFault(
                f"injected fault on ingest #{self._ingest_calls}"
            )
        return super().ingest(value)


@dataclass(frozen=True)
class SoakConfig:
    """Everything one soak run needs, all in simulated seconds."""

    n_kpis: int = 8
    #: Simulated stream length after bootstrap, in weeks.
    weeks: float = 0.25
    #: Labelled history each KPI bootstraps on, in weeks.
    bootstrap_weeks: float = 1.0
    #: Profiles cycled across KPIs (Table 1 names). Ignored when
    #: ``dataset`` names a ``repro.corpus`` dataset instead.
    profiles: Tuple[str, ...] = ("PV", "#SR", "SRT")
    #: Draw KPIs from this registered corpus dataset (None: profiles).
    dataset: Optional[str] = None
    #: Simulated seconds between metrics checkpoints.
    checkpoint_every: float = 3600.0
    #: Simulated seconds between label-submission + retrain rounds
    #: (0 disables retraining).
    retrain_every: float = 6.0 * 3600.0
    #: How many leading KPIs run on a :class:`FaultInjectingService`.
    fault_kpis: int = 2
    #: Those KPIs fail every Nth ingest.
    fault_every: int = 40
    #: Real points/second pacing; 0 streams as fast as possible.
    points_per_second: float = 0.0
    #: Wall-clock budget in real seconds; 0 is unbounded. On expiry the
    #: stream stops early (a final checkpoint is still recorded).
    max_wall_seconds: float = 0.0
    #: Forest size for the per-KPI classifiers (small: soak, not F1).
    trees: int = 10
    #: Attach the default anomaly-kind diagnoser to every service, so
    #: closed alerts carry a diagnosis (one-time seeded fitting cost).
    diagnose: bool = False
    min_duration_points: int = 2
    n_shards: int = 4
    queue_depth: int = 256
    batch_points: int = 64
    seed_offset: int = 0
    #: A ``repro-serve`` base URL to replay at over HTTP instead of the
    #: in-process fleet (the fleet-building fields above then belong to
    #: the server, and the fault-injection fields are ignored).
    target: Optional[str] = None
    #: HTTP target only: SIGKILL this shard process after
    #: ``kill_after_batches`` batch posts (-1 disables).
    kill_shard: int = -1
    kill_after_batches: int = 0
    #: HTTP target only: gracefully restart this shard instead.
    restart_shard: int = -1
    restart_after_batches: int = 0

    def validate(self) -> None:
        self.scenario_spec().validate()
        if self.checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be > 0")
        if self.target is None and not 0 <= self.fault_kpis <= self.n_kpis:
            raise ValueError("fault_kpis must be in [0, n_kpis]")
        if self.kill_shard >= 0 and self.kill_after_batches < 1:
            raise ValueError("kill_after_batches must be >= 1")
        if self.restart_shard >= 0 and self.restart_after_batches < 1:
            raise ValueError("restart_after_batches must be >= 1")

    def scenario_spec(self) -> ScenarioSpec:
        return ScenarioSpec(
            n_kpis=self.n_kpis,
            weeks=self.weeks,
            bootstrap_weeks=self.bootstrap_weeks,
            profiles=self.profiles,
            seed_offset=self.seed_offset,
            dataset=self.dataset,
        )


@dataclass
class SoakResult:
    """What a soak run produced (``document`` is the on-disk form)."""

    points_offered: int
    accepted: int
    rejected: int
    alerts_opened: int
    quarantines: int
    sim_seconds: float
    wall_seconds: float
    completed: bool  # False when the wall budget expired early
    #: None when no fault drill ran; else whether the shard came back.
    recovered: Optional[bool]
    document: dict = field(repr=False, default_factory=dict)


class FleetTarget:
    """The in-process target: the scenario bootstrapped into one fleet."""

    def __init__(self, config: SoakConfig, kpis: Sequence[ScenarioKpi]):
        self.config = config
        self._intervals = {kpi.kpi_id: kpi.interval for kpi in kpis}
        self._fault_ids = {
            kpi.kpi_id for kpi in kpis if kpi.index < config.fault_kpis
        }
        self.fleet = FleetManager(
            n_shards=config.n_shards,
            queue_depth=config.queue_depth,
            batch_points=config.batch_points,
            service_factory=self._service_for,
        )
        for kpi in kpis:
            self.fleet.add_kpi(kpi.kpi_id, bootstrap=kpi.bootstrap)

    def _service_for(self, kpi_id: str) -> MonitoringService:
        points_per_week = SECONDS_PER_WEEK // self._intervals[kpi_id]
        config = self.config
        diagnoser = None
        if config.diagnose:
            from ..diagnosis import default_diagnoser

            diagnoser = default_diagnoser()
        kwargs = dict(
            configs=small_bank(points_per_week),
            classifier_factory=lambda: RandomForest(
                n_estimators=config.trees, seed=0
            ),
            min_duration_points=config.min_duration_points,
            diagnoser=diagnoser,
        )
        if kpi_id in self._fault_ids:
            return FaultInjectingService(
                fault_every=config.fault_every, **kwargs
            )
        return MonitoringService(**kwargs)

    def post(
        self, points: List[Tuple[str, float]]
    ) -> Tuple[int, int, List[dict]]:
        """Offer one tick's points and pump once (every tick, so
        quarantine backoffs count down even when nothing is due)."""
        accepted = sum(
            1 for kpi_id, value in points if self.fleet.offer(kpi_id, value)
        )
        events = serialize_events(self.fleet.pump())
        return accepted, len(points) - accepted, events

    def retrain(self, windows: Dict[str, List[AnomalyWindow]]) -> None:
        for kpi_id, kpi_windows in windows.items():
            self.fleet.submit_labels(kpi_id, kpi_windows)
        self.fleet.retrain()

    def snapshot(self) -> dict:
        return self.fleet.metrics_snapshot()

    def drain(self) -> List[dict]:
        """Flush what the queues still hold (quarantine backoff may
        have starved some KPIs)."""
        return serialize_events(self.fleet.drain_all())

    def final_status(self) -> dict:
        return {"fleet": self.fleet.status().as_dict()}


class SoakHarness:
    """Build the target, stream the load, record the checkpoints.

    The harness records into whatever observability provider is active;
    enable one first (the CLI does) or every checkpoint snapshot — and
    therefore every SLO — will be empty.
    """

    def __init__(self, config: SoakConfig):
        config.validate()
        self.config = config
        kpis = build_scenario(config.scenario_spec())
        self._intervals = {kpi.kpi_id: kpi.interval for kpi in kpis}
        self._live = {kpi.kpi_id: kpi.live_values for kpi in kpis}
        self._windows = {kpi.kpi_id: list(kpi.windows) for kpi in kpis}
        self._window_begins = {
            kpi_id: [w.begin for w in windows]
            for kpi_id, windows in self._windows.items()
        }
        self._alerts: Dict[str, List[dict]] = {
            kpi_id: [] for kpi_id in self._intervals
        }
        self.target = (
            FleetTarget(config, kpis)
            if config.target is None
            else HttpTarget(
                config.target,
                list(self._intervals),
                kill_shard=config.kill_shard,
                kill_after_batches=config.kill_after_batches,
                restart_shard=config.restart_shard,
                restart_after_batches=config.restart_after_batches,
            )
        )

    def _record_alerts(self, events: Sequence[dict]) -> int:
        """Keep every opened alert and observe its detection delay (in
        points) when it falls inside a ground-truth anomaly window."""
        obs = get_provider()
        opened = 0
        for event in events:
            kpi_id = event.get("kpi")
            if event.get("kind") != "opened" or kpi_id is None:
                continue
            opened += 1
            self._alerts.setdefault(kpi_id, []).append(event)
            begins = self._window_begins.get(kpi_id)
            if not begins:
                continue
            begin_index = int(event["begin_index"])
            slot = bisect_right(begins, begin_index) - 1
            if slot < 0:
                continue
            window = self._windows[kpi_id][slot]
            if begin_index >= window.end:
                continue  # false alarm between windows; no delay sample
            obs.histogram(
                "repro_alert_delay_points",
                "Detection delay of opened alerts, in points past the "
                "ground-truth window begin (Fig. 12 delay axis)",
                buckets=DEFAULT_ALERT_DELAY_BUCKETS,
                kpi=kpi_id,
            ).observe(float(begin_index - window.begin))
        return opened

    def run(self) -> SoakResult:
        config = self.config
        target = self.target
        obs = get_provider()
        sim_end = config.weeks * SECONDS_PER_WEEK
        tick = float(math.gcd(*self._intervals.values()))
        offered_counters = {
            kpi_id: obs.counter(
                "repro_loadgen_points_offered_total",
                "Points the load generator offered to the fleet",
                kpi=kpi_id,
            )
            for kpi_id in self._intervals
        }
        cursors = {kpi_id: 0 for kpi_id in self._intervals}
        checkpoints: List[dict] = []
        points_offered = accepted = rejected = alerts_opened = 0
        completed = True
        began = time.monotonic()
        next_checkpoint = config.checkpoint_every
        next_retrain = config.retrain_every or float("inf")

        def record_checkpoint(sim_now: float) -> None:
            checkpoints.append(
                {
                    "sim_seconds": sim_now,
                    "points_offered": points_offered,
                    "snapshot": combine_snapshots(
                        [obs.snapshot(), target.snapshot()]
                    ),
                }
            )

        with obs.span(
            "loadgen.soak",
            n_kpis=config.n_kpis,
            weeks=config.weeks,
            target=config.target or "in-process",
        ) as span:
            sim_now = 0.0
            while sim_now < sim_end:
                sim_now += tick
                batch: List[Tuple[str, float]] = []
                for kpi_id, interval in self._intervals.items():
                    if sim_now % interval:
                        continue
                    cursor = cursors[kpi_id]
                    live = self._live[kpi_id]
                    if cursor >= len(live):
                        continue
                    batch.append((kpi_id, live[cursor]))
                    offered_counters[kpi_id].inc()
                    cursors[kpi_id] = cursor + 1
                points_offered += len(batch)
                ok, refused, events = target.post(batch)
                accepted += ok
                rejected += refused
                alerts_opened += self._record_alerts(events)
                if config.retrain_every and sim_now >= next_retrain:
                    next_retrain += config.retrain_every
                    target.retrain(self._windows)
                if sim_now >= next_checkpoint:
                    next_checkpoint += config.checkpoint_every
                    record_checkpoint(sim_now)
                if config.points_per_second > 0:
                    ahead = (
                        points_offered / config.points_per_second
                        - (time.monotonic() - began)
                    )
                    if ahead > 0:
                        time.sleep(ahead)
                if (
                    config.max_wall_seconds
                    and time.monotonic() - began > config.max_wall_seconds
                ):
                    completed = False
                    break
            alerts_opened += self._record_alerts(target.drain())
            if not checkpoints or checkpoints[-1]["sim_seconds"] < sim_now:
                record_checkpoint(sim_now)
            span.set("points_offered", points_offered)
            span.set("completed", completed)

        final = {"fault": None, "recovered": None, **target.final_status()}
        wall = time.monotonic() - began
        settings = {
            **config.scenario_spec().as_dict(),
            "checkpoint_every": config.checkpoint_every,
            "retrain_every": config.retrain_every,
        }
        if config.target is None:
            settings["fault_kpis"] = config.fault_kpis
            settings["fault_every"] = config.fault_every
        document = {
            "version": 1,
            "mode": "soak" if config.target is None else "replay",
            "target": config.target,
            "config": settings,
            "completed": completed,
            "wall_seconds": wall,
            "points_offered": points_offered,
            "accepted": accepted,
            "rejected": rejected,
            "alerts_opened": alerts_opened,
            **final,
            "alerts": self._alerts,
            "checkpoints": checkpoints,
        }
        return SoakResult(
            points_offered=points_offered,
            accepted=accepted,
            rejected=rejected,
            alerts_opened=alerts_opened,
            quarantines=FleetStatus.from_dict(
                document["fleet"]
            ).total_quarantines,
            sim_seconds=checkpoints[-1]["sim_seconds"],
            wall_seconds=wall,
            completed=completed,
            recovered=document["recovered"],
            document=document,
        )


__all__ = [
    "DEFAULT_ALERT_DELAY_BUCKETS",
    "SECONDS_PER_WEEK",
    "FaultInjectingService",
    "FleetTarget",
    "InjectedFault",
    "SoakConfig",
    "SoakHarness",
    "SoakResult",
]
