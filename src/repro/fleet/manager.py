"""The fleet manager: N KPI monitors in one thread, fault-isolated.

Opprentice's deployment story (§5.8) is per-KPI, but a real monitoring
team runs hundreds of KPIs at once. :class:`FleetManager` owns one
:class:`~repro.core.MonitoringService` per KPI and adds the operational
layer around them:

* **Sharded dispatch** — KPIs are consistent-hashed onto shards
  (:class:`~repro.fleet.scheduler.Scheduler`); :meth:`pump` drains each
  KPI's bounded ingest queue in batches, shard after shard.
* **Fault isolation** — an exception from one KPI's detector bank or
  classifier quarantines *that KPI only*: its failing point is dropped
  (counted), the rest of its batch goes back to the queue front, and it
  sits out an exponential backoff (in pump cycles) before retrying.
  After ``max_retries`` consecutive failures the KPI is ``degraded``
  and drops points at offer time until an operator :meth:`revive`\\ s
  it. The other KPIs never see any of this — their alert streams are
  bit-identical to a fleet without the fault.
* **Serial retraining** — :meth:`retrain` refits its target KPIs one
  after another; a failed refit quarantines only that KPI.
* **Crash recovery** — :meth:`save` writes a fleet directory (manifest
  + per-KPI model and service checkpoints); :meth:`restore` rebuilds
  the fleet mid-run, reproducing the remaining alert stream exactly.
* **Rollups** — kpi_id-tagged gauges/counters on the global provider,
  a :class:`~repro.fleet.status.FleetStatus` snapshot API, and
  :meth:`metrics_snapshot` merging every per-service registry into one
  exportable document.

Determinism: dispatch order is shard index, then registration order
within the shard, then queue order — independent of dict hashing. The
fleet runs in its caller's thread; :mod:`repro.serve` scales out with
one fleet per shard process instead.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..core.persistence import (
    load_model,
    load_service_checkpoint,
    save_model,
    save_service_checkpoint,
)
from ..core.service import AlertEvent, MonitoringService
from ..obs import estimate_percentile, get_provider, merge_snapshots
from ..timeseries import TimeSeries
from ..timeseries.windows import AnomalyWindow
from .scheduler import Scheduler
from .status import (
    ACTIVE,
    DEGRADED,
    KPI_STATES,
    QUARANTINED,
    RECOVERED,
    FleetStatus,
    KpiStatus,
)

#: On-disk layout version of the fleet directory written by
#: :meth:`FleetManager.save`.
FLEET_FORMAT_VERSION = 1

#: KPI ids become directory names under ``<fleet>/kpis/``, so they are
#: restricted to a filesystem-safe alphabet (no separators, no leading
#: dot, bounded length).
_KPI_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")

ServiceFactory = Callable[[str], MonitoringService]

#: The file under a fleet directory holding the non-default diagnosers
#: its services carry, as ``{sha256: diagnoser dict}``.
DIAGNOSER_FILE = "diagnoser.json"


def _validate_kpi_id(kpi_id: str) -> str:
    if not _KPI_ID_PATTERN.match(kpi_id):
        raise ValueError(
            f"invalid KPI id {kpi_id!r}: must match "
            "[A-Za-z0-9][A-Za-z0-9._-]{0,127} (it names a checkpoint "
            "directory)"
        )
    return kpi_id


@dataclass
class _KpiHandle:
    """The fleet's mutable bookkeeping around one service."""

    service: MonitoringService
    state: str = ACTIVE
    retries: int = 0
    backoff_remaining: int = 0
    quarantines: int = 0
    last_error: Optional[str] = None
    dropped: Dict[str, int] = field(default_factory=dict)


class FleetManager:
    """Orchestrates many per-KPI monitoring services as one fleet."""

    def __init__(
        self,
        *,
        n_shards: int = 4,
        queue_depth: int = 1024,
        queue_policy: str = "drop-oldest",
        batch_points: int = 64,
        backoff_base: int = 1,
        backoff_cap: int = 64,
        max_retries: int = 5,
        service_factory: Optional[ServiceFactory] = None,
    ):
        if batch_points < 1:
            raise ValueError("batch_points must be >= 1")
        if backoff_base < 1 or backoff_cap < backoff_base:
            raise ValueError(
                "backoff must satisfy 1 <= backoff_base <= backoff_cap"
            )
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self._scheduler = Scheduler(
            n_shards=n_shards,
            queue_depth=queue_depth,
            queue_policy=queue_policy,
        )
        self.batch_points = batch_points
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.max_retries = max_retries
        self._service_factory = service_factory
        self._kpis: Dict[str, _KpiHandle] = {}
        self._cycles = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    @property
    def kpi_ids(self) -> List[str]:
        return list(self._kpis)

    def __len__(self) -> int:
        return len(self._kpis)

    def __contains__(self, kpi_id: str) -> bool:
        return kpi_id in self._kpis

    def service(self, kpi_id: str) -> MonitoringService:
        return self._kpis[kpi_id].service

    def state(self, kpi_id: str) -> str:
        return self._kpis[kpi_id].state

    def shard_of(self, kpi_id: str) -> int:
        return self._scheduler.shard_of(kpi_id)

    def add_kpi(
        self,
        kpi_id: str,
        *,
        service: Optional[MonitoringService] = None,
        bootstrap: Optional[TimeSeries] = None,
    ) -> MonitoringService:
        """Register a KPI, optionally bootstrapping its service.

        Either pass an already-bootstrapped ``service``, or a labelled
        ``bootstrap`` series (a service is then built via the fleet's
        ``service_factory``, or with defaults). The series is renamed to
        ``kpi_id`` so every :class:`~repro.core.AlertEvent` the fleet
        emits carries the right attribution.
        """
        _validate_kpi_id(kpi_id)
        if kpi_id in self._kpis:
            raise ValueError(f"KPI {kpi_id!r} is already managed")
        if service is None:
            service = (
                self._service_factory(kpi_id)
                if self._service_factory is not None
                else MonitoringService()
            )
        if bootstrap is not None:
            if bootstrap.name != kpi_id:
                bootstrap = TimeSeries(
                    values=bootstrap.values,
                    interval=bootstrap.interval,
                    start=bootstrap.start,
                    labels=bootstrap.labels,
                    name=kpi_id,
                )
            service.bootstrap(bootstrap)
        if service.kpi is None:
            raise ValueError(
                "the fleet manages bootstrapped services only: pass "
                "bootstrap= or a service that already ran bootstrap()"
            )
        if service.kpi != kpi_id:
            raise ValueError(
                f"service monitors KPI {service.kpi!r}, not {kpi_id!r}; "
                "alert attribution would be wrong"
            )
        self._scheduler.register(kpi_id)
        self._kpis[kpi_id] = _KpiHandle(service=service)
        # Pre-register the drop counter at zero so a clean run reports
        # a *measured* zero drop ratio instead of "no data" (the SLO
        # gate rightly refuses to pass an absent numerator).
        get_provider().counter(
            "repro_fleet_dropped_points_total",
            "Fleet ingest points dropped, by KPI and reason",
            kpi=kpi_id,
            reason=self._scheduler.queue_policy,
        )
        self._refresh_state_gauges()
        return service

    def remove_kpi(self, kpi_id: str) -> None:
        del self._kpis[kpi_id]
        self._scheduler.unregister(kpi_id)
        self._refresh_state_gauges()

    def revive(self, kpi_id: str) -> None:
        """Operator override: put a quarantined/degraded KPI back into
        rotation with a clean retry budget."""
        handle = self._kpis[kpi_id]
        handle.state = ACTIVE
        handle.retries = 0
        handle.backoff_remaining = 0
        handle.last_error = None
        self._refresh_state_gauges()
        get_provider().emit("kpi_revived", kpi=kpi_id)

    # ------------------------------------------------------------------
    # Ingest path
    # ------------------------------------------------------------------
    def offer(self, kpi_id: str, value: float) -> bool:
        """Queue one point for ``kpi_id``; returns True if it was
        accepted without displacing another point.

        Degraded KPIs drop at offer time (reason ``degraded``); a full
        queue applies the configured backpressure policy, and any drop
        is counted in ``repro_fleet_dropped_points_total``.
        """
        handle = self._kpis[kpi_id]
        if handle.state == DEGRADED:
            self._record_drop(kpi_id, handle, "degraded")
            return False
        reason = self._scheduler.offer(kpi_id, value)
        self._queue_gauge(kpi_id)
        if reason is not None:
            self._record_drop(kpi_id, handle, reason)
            return False
        return True

    def offer_many(self, kpi_id: str, values: Sequence[float]) -> int:
        """Queue many points; returns how many were accepted."""
        return sum(1 for value in values if self.offer(kpi_id, value))

    def pump(
        self, max_points_per_kpi: Optional[int] = None
    ) -> List[AlertEvent]:
        """One dispatch cycle: drain every KPI's queue in batches.

        Shards run in index order and, within a shard, KPIs in
        registration order. Returns every alert event raised this
        cycle, in that dispatch order.
        """
        obs = get_provider()
        limit = (
            self.batch_points
            if max_points_per_kpi is None
            else max_points_per_kpi
        )
        shards = [kpis for kpis in self._scheduler.kpis_by_shard() if kpis]
        with obs.span(
            "fleet.pump", n_kpis=len(self._kpis), n_shards=len(shards)
        ) as span:
            events = [
                event
                for shard in shards
                for kpi_id in shard
                for event in self._pump_kpi(kpi_id, limit)
            ]
            span.set("n_events", len(events))
        self._cycles += 1
        self._refresh_state_gauges()
        return events

    def _pump_kpi(self, kpi_id: str, limit: int) -> List[AlertEvent]:
        """Dispatch one KPI's next batch, isolating its failures."""
        handle = self._kpis[kpi_id]
        if handle.state == DEGRADED:
            return []
        if handle.state == QUARANTINED and handle.backoff_remaining > 0:
            handle.backoff_remaining -= 1
            return []
        batch = self._scheduler.drain(kpi_id, limit)
        events: List[AlertEvent] = []
        ingest_timer = get_provider().timer(
            "repro_fleet_ingest_seconds",
            "Per-point fleet ingest wall time (queue drain to alert "
            "decision), labelled by KPI",
            kpi=kpi_id,
        )
        for position, value in enumerate(batch):
            try:
                with ingest_timer:
                    events.extend(handle.service.ingest(value))
            except Exception as error:  # repro: disable=api-hygiene — fault isolation: one KPI's detector/classifier failure must quarantine that KPI, not crash the fleet
                self._record_drop(kpi_id, handle, "error")
                self._scheduler.requeue_front(kpi_id, batch[position + 1:])
                self._on_failure(kpi_id, handle, error)
                self._queue_gauge(kpi_id)
                return events
        if batch:
            self._on_success(kpi_id, handle)
        self._queue_gauge(kpi_id)
        return events

    def drain_all(
        self, max_cycles: int = 1_000_000
    ) -> List[AlertEvent]:
        """Pump until every queue is empty (or only unpumpable KPIs —
        quarantined/degraded — still hold points)."""
        events: List[AlertEvent] = []
        for _ in range(max_cycles):
            if not self._has_pumpable_points():
                break
            events.extend(self.pump())
        return events

    def _has_pumpable_points(self) -> bool:
        for kpi_id, handle in self._kpis.items():
            if handle.state == DEGRADED:
                continue
            if self._scheduler.depth(kpi_id) > 0:
                return True
        return False

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _on_failure(
        self, kpi_id: str, handle: _KpiHandle, error: BaseException
    ) -> None:
        obs = get_provider()
        handle.retries += 1
        handle.quarantines += 1
        handle.last_error = repr(error)
        obs.counter(
            "repro_fleet_quarantines_total",
            "KPI quarantine transitions after a dispatch failure",
            kpi=kpi_id,
        ).inc()
        if handle.retries > self.max_retries:
            handle.state = DEGRADED
            handle.backoff_remaining = 0
            obs.emit(
                "kpi_degraded",
                kpi=kpi_id,
                retries=handle.retries,
                error=handle.last_error,
            )
        else:
            backoff = min(
                self.backoff_base * 2 ** (handle.retries - 1),
                self.backoff_cap,
            )
            handle.state = QUARANTINED
            handle.backoff_remaining = backoff
            obs.emit(
                "kpi_quarantined",
                kpi=kpi_id,
                retries=handle.retries,
                backoff_cycles=backoff,
                error=handle.last_error,
            )
        self._refresh_state_gauges()

    def _on_success(self, kpi_id: str, handle: _KpiHandle) -> None:
        if handle.state == QUARANTINED:
            handle.state = RECOVERED
            handle.retries = 0
            handle.backoff_remaining = 0
            get_provider().emit(
                "kpi_recovered", kpi=kpi_id, quarantines=handle.quarantines
            )
            self._refresh_state_gauges()

    def _record_drop(
        self, kpi_id: str, handle: _KpiHandle, reason: str
    ) -> None:
        handle.dropped[reason] = handle.dropped.get(reason, 0) + 1
        get_provider().counter(
            "repro_fleet_dropped_points_total",
            "Fleet ingest points dropped, by KPI and reason",
            kpi=kpi_id,
            reason=reason,
        ).inc()

    # ------------------------------------------------------------------
    # Labels + retraining
    # ------------------------------------------------------------------
    def submit_labels(
        self, kpi_id: str, windows: Sequence[AnomalyWindow]
    ) -> int:
        """Label windows for one KPI, clipped to the points its service
        has actually ingested (the operator cannot label the future).
        Returns how many windows were submitted."""
        service = self._kpis[kpi_id].service
        horizon = service.history_length
        visible = [w for w in windows if w.end <= horizon]
        if visible:
            service.submit_labels(visible)
        return len(visible)

    def retrain(
        self, kpi_ids: Optional[Sequence[str]] = None
    ) -> Dict[str, Optional[float]]:
        """Retrain KPIs one after another.

        Targets every non-degraded KPI with pending points unless
        ``kpi_ids`` narrows the set. A retraining failure quarantines
        that KPI like a dispatch failure would. Returns
        ``{kpi_id: new_cthld}`` (None for a KPI whose retrain failed).
        """
        obs = get_provider()
        targets = [
            kpi_id
            for kpi_id in (kpi_ids if kpi_ids is not None else self._kpis)
            if self._kpis[kpi_id].state != DEGRADED
            and self._kpis[kpi_id].service.pending_points > 0
        ]
        results: Dict[str, Optional[float]] = {}
        with obs.span("fleet.retrain", n_kpis=len(targets)):
            for kpi_id in targets:
                handle = self._kpis[kpi_id]
                try:
                    results[kpi_id] = handle.service.retrain()
                except Exception as error:  # repro: disable=api-hygiene — fault isolation: a failed retrain quarantines the KPI instead of aborting the fleet's retrain
                    self._on_failure(kpi_id, handle, error)
                    results[kpi_id] = None
        self._refresh_state_gauges()
        return results

    # ------------------------------------------------------------------
    # Rollups
    # ------------------------------------------------------------------
    def _ingest_p99(self, kpi_id: str) -> Optional[float]:
        """Estimated p99 of ``repro_fleet_ingest_seconds{kpi=...}`` from
        the global provider (None when obs is off or no points yet)."""
        histogram = get_provider().histogram(
            "repro_fleet_ingest_seconds",
            "Per-point fleet ingest wall time (queue drain to alert "
            "decision), labelled by KPI",
            kpi=kpi_id,
        )
        counts = getattr(histogram, "counts", None)
        if counts is None:  # NullProvider handle has no buckets
            return None
        cumulative: List[float] = []
        running = 0.0
        for count in counts:
            running += count
            cumulative.append(running)
        return estimate_percentile(histogram.buckets, cumulative, 0.99)

    def status(self) -> FleetStatus:
        """A point-in-time :class:`FleetStatus` snapshot."""
        kpis = []
        for kpi_id, handle in self._kpis.items():
            stats = handle.service.stats
            kpis.append(
                KpiStatus(
                    kpi_id=kpi_id,
                    state=handle.state,
                    shard=self._scheduler.shard_of(kpi_id),
                    queue_depth=self._scheduler.depth(kpi_id),
                    points_ingested=stats.points_ingested,
                    anomalous_points=stats.anomalous_points,
                    alerts_opened=stats.alerts_opened,
                    retrain_rounds=stats.retrain_rounds,
                    callback_errors=stats.callback_errors,
                    pending_points=handle.service.pending_points,
                    cthld=handle.service.cthld,
                    retries=handle.retries,
                    backoff_remaining=handle.backoff_remaining,
                    quarantines=handle.quarantines,
                    last_error=handle.last_error,
                    dropped=dict(handle.dropped),
                    diagnosed=stats.alerts_diagnosed,
                    ingest_p99=self._ingest_p99(kpi_id),
                )
            )
        return FleetStatus(kpis=tuple(kpis), cycles=self._cycles)

    def metrics_snapshot(self) -> dict:
        """Every per-service registry merged into one snapshot, samples
        tagged ``kpi=<id>`` (see :func:`~repro.obs.merge_snapshots`)."""
        return merge_snapshots(
            {
                kpi_id: handle.service.stats.registry.snapshot()
                for kpi_id, handle in self._kpis.items()
            },
            label="kpi",
        )

    def _refresh_state_gauges(self) -> None:
        obs = get_provider()
        counts = {state: 0 for state in KPI_STATES}
        for handle in self._kpis.values():
            counts[handle.state] += 1
        for state, count in counts.items():
            obs.gauge(
                "repro_fleet_kpis",
                "Managed KPIs by lifecycle state",
                state=state,
            ).set(count)

    def _queue_gauge(self, kpi_id: str) -> None:
        get_provider().gauge(
            "repro_fleet_queue_depth",
            "Pending points in a KPI's ingest queue",
            kpi=kpi_id,
        ).set(self._scheduler.depth(kpi_id))

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def save(self, directory: Union[str, Path]) -> Path:
        """Write the fleet to ``directory``: a ``fleet.json`` manifest
        (config, per-KPI lifecycle state, queued points) plus
        ``kpis/<id>/model.json`` and ``kpis/<id>/service.json``.

        Service checkpoints name their diagnoser by sha256. A diagnoser
        other than :func:`~repro.diagnosis.default_diagnoser` is written
        once for the whole fleet, to ``diagnoser.json`` (keyed by
        digest), which :meth:`restore` reads; the default is fitted
        again on restore and never written.
        """
        from ..diagnosis import is_default_diagnoser

        root = Path(directory)
        obs = get_provider()
        with obs.span("fleet.save", n_kpis=len(self._kpis)):
            (root / "kpis").mkdir(parents=True, exist_ok=True)
            entries = []
            shared: Dict[str, dict] = {}
            for kpi_id, handle in self._kpis.items():
                diagnoser = handle.service.diagnoser
                if not (
                    diagnoser is None
                    or diagnoser.sha256() in shared
                    or is_default_diagnoser(diagnoser)
                ):
                    shared[diagnoser.sha256()] = diagnoser.to_dict()
                kpi_dir = root / "kpis" / kpi_id
                kpi_dir.mkdir(parents=True, exist_ok=True)
                save_model(handle.service.opprentice, kpi_dir / "model.json")
                save_service_checkpoint(
                    handle.service, kpi_dir / "service.json"
                )
                stats = handle.service.stats
                entries.append(
                    {
                        "kpi_id": kpi_id,
                        "state": handle.state,
                        "shard": self._scheduler.shard_of(kpi_id),
                        "retries": handle.retries,
                        "backoff_remaining": handle.backoff_remaining,
                        "quarantines": handle.quarantines,
                        "last_error": handle.last_error,
                        "dropped": dict(handle.dropped),
                        # Headline service numbers, embedded so
                        # `repro-fleet status --json` can render a full
                        # FleetStatus without loading any model
                        # (restore ignores them: they live in the
                        # service checkpoint too).
                        "stats": {
                            "points_ingested": stats.points_ingested,
                            "anomalous_points": stats.anomalous_points,
                            "alerts_opened": stats.alerts_opened,
                            "retrain_rounds": stats.retrain_rounds,
                            "callback_errors": stats.callback_errors,
                            "alerts_diagnosed": stats.alerts_diagnosed,
                            "pending_points": handle.service.pending_points,
                            "cthld": handle.service.cthld,
                        },
                        "queue": self._scheduler.queue(kpi_id).drain(None),
                    }
                )
                # drain() above emptied the live queue; put the points
                # straight back so save() is a pure observer.
                self._scheduler.requeue_front(kpi_id, entries[-1]["queue"])
            manifest = {
                "format_version": FLEET_FORMAT_VERSION,
                "config": {
                    "n_shards": self._scheduler.n_shards,
                    "queue_depth": self._scheduler.queue_depth,
                    "queue_policy": self._scheduler.queue_policy,
                    "batch_points": self.batch_points,
                    "backoff_base": self.backoff_base,
                    "backoff_cap": self.backoff_cap,
                    "max_retries": self.max_retries,
                },
                "cycles": self._cycles,
                "kpis": entries,
            }
            if shared:
                (root / DIAGNOSER_FILE).write_text(json.dumps(shared))
            (root / "fleet.json").write_text(json.dumps(manifest, indent=2))
        return root

    @classmethod
    def restore(
        cls,
        directory: Union[str, Path],
        *,
        service_factory: Optional[ServiceFactory] = None,
        kpi_ids: Optional[Sequence[str]] = None,
    ) -> "FleetManager":
        """Rebuild a fleet from a :meth:`save` directory.

        ``service_factory`` must build services with the *same detector
        bank and classifier factory* the fleet ran with (the per-KPI
        model load validates the bank through its feature names); the
        default builds default-bank services. The restored fleet's next
        :meth:`pump`/:meth:`retrain` behave exactly as the uninterrupted
        fleet's would — queued points, backoffs, quarantine states and
        open alert runs all survive.

        ``kpi_ids`` restores only that subset of the checkpoint — the
        serve plane's shard processes use this to load exactly the
        KPIs their consistent-hash slice owns out of one shared fleet
        directory. Unknown ids raise (a partition that silently loses
        KPIs would drop their traffic on the floor). Config keys the
        manifest holds beyond the constructor's (older fleets wrote
        thread-pool options) are ignored.
        """
        root = Path(directory)
        manifest = json.loads((root / "fleet.json").read_text())
        version = manifest.get("format_version")
        if version != FLEET_FORMAT_VERSION:
            raise ValueError(
                f"unsupported fleet format {version!r} "
                f"(expected {FLEET_FORMAT_VERSION})"
            )
        if kpi_ids is not None:
            known = {entry["kpi_id"] for entry in manifest["kpis"]}
            missing = sorted(set(kpi_ids) - known)
            if missing:
                raise ValueError(
                    f"checkpoint {root} has no KPI(s) {missing}; "
                    f"it holds {sorted(known)}"
                )
            wanted = set(kpi_ids)
            manifest = dict(manifest)
            manifest["kpis"] = [
                entry
                for entry in manifest["kpis"]
                if entry["kpi_id"] in wanted
            ]
        config = manifest["config"]
        manager = cls(
            n_shards=config["n_shards"],
            queue_depth=config["queue_depth"],
            queue_policy=config["queue_policy"],
            batch_points=config["batch_points"],
            backoff_base=config["backoff_base"],
            backoff_cap=config["backoff_cap"],
            max_retries=config["max_retries"],
            service_factory=service_factory,
        )
        shared = {}
        if (root / DIAGNOSER_FILE).exists():
            from ..diagnosis import AnomalyDiagnoser

            # Keyed by the digest each entry really has, so a corrupt
            # entry matches no checkpoint and its restore raises.
            stored = json.loads((root / DIAGNOSER_FILE).read_text())
            loaded = map(AnomalyDiagnoser.from_dict, stored.values())
            shared = {diagnoser.sha256(): diagnoser for diagnoser in loaded}
        obs = get_provider()
        with obs.span("fleet.restore", n_kpis=len(manifest["kpis"])):
            for entry in manifest["kpis"]:
                kpi_id = _validate_kpi_id(entry["kpi_id"])
                kpi_dir = root / "kpis" / kpi_id
                service = (
                    service_factory(kpi_id)
                    if service_factory is not None
                    else MonitoringService()
                )
                load_model(
                    kpi_dir / "model.json", opprentice=service.opprentice
                )
                load_service_checkpoint(
                    kpi_dir / "service.json",
                    service,
                    shared_diagnosers=shared,
                )
                manager.add_kpi(kpi_id, service=service)
                handle = manager._kpis[kpi_id]
                handle.state = entry["state"]
                handle.retries = int(entry["retries"])
                handle.backoff_remaining = int(entry["backoff_remaining"])
                handle.quarantines = int(entry["quarantines"])
                handle.last_error = entry["last_error"]
                handle.dropped = {
                    reason: int(count)
                    for reason, count in entry["dropped"].items()
                }
                # Refill the queue verbatim (bypassing the drop policy:
                # the points fitted before, so they fit now).
                manager._scheduler.requeue_front(kpi_id, entry["queue"])
                manager._queue_gauge(kpi_id)
            manager._cycles = int(manifest.get("cycles", 0))
        manager._refresh_state_gauges()
        return manager


__all__ = [
    "FLEET_FORMAT_VERSION",
    "FleetManager",
    "ServiceFactory",
]
