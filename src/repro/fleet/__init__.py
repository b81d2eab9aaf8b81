"""Multi-KPI orchestration over Opprentice monitoring services.

Opprentice (§5.8) costs out a *single* KPI's detection loop; a
monitoring team runs hundreds. This package is the operational layer
that scales the per-KPI :class:`~repro.core.MonitoringService` out to a
fleet:

* :class:`FleetManager` — owns one service per KPI; batch dispatch,
  fault isolation (quarantine with exponential backoff → degraded),
  serial retraining, fleet checkpoints (:meth:`FleetManager.save` /
  :meth:`FleetManager.restore`), and rollups.
* :class:`Scheduler` — consistent-hash KPI→shard assignment plus
  bounded per-KPI ingest queues with explicit backpressure policies
  (``drop-oldest`` / ``drop-newest`` / ``block``).
* :class:`FleetStatus` / :class:`KpiStatus` — the snapshot API behind
  the ``repro-fleet`` CLI (``python -m repro.fleet``).

The KPI lifecycle: ``active`` KPIs dispatch normally; a dispatch or
retrain failure moves the KPI to ``quarantined`` (exponential backoff
in pump cycles, then a retry); a successful retry marks it
``recovered``; exhausting ``max_retries`` marks it ``degraded`` until
an operator calls :meth:`FleetManager.revive`. Faults never cross KPI
boundaries: the other KPIs' alert streams are bit-identical to a fleet
without the fault (pinned by the fleet test suite).
"""

from .banks import small_bank
from .manager import FLEET_FORMAT_VERSION, FleetManager, ServiceFactory
from .scheduler import (
    QUEUE_POLICIES,
    BackpressureError,
    ConsistentHashRing,
    IngestQueue,
    Scheduler,
)
from .status import (
    ACTIVE,
    DEGRADED,
    KPI_STATES,
    QUARANTINED,
    RECOVERED,
    STATUS_DOCUMENT_VERSION,
    FleetStatus,
    KpiStatus,
    merge_statuses,
    status_document,
)

__all__ = [
    "small_bank",
    "FleetManager",
    "ServiceFactory",
    "FLEET_FORMAT_VERSION",
    "Scheduler",
    "ConsistentHashRing",
    "IngestQueue",
    "BackpressureError",
    "QUEUE_POLICIES",
    "FleetStatus",
    "KpiStatus",
    "KPI_STATES",
    "STATUS_DOCUMENT_VERSION",
    "ACTIVE",
    "QUARANTINED",
    "RECOVERED",
    "DEGRADED",
    "merge_statuses",
    "status_document",
]
