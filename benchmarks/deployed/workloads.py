"""Workloads of the deployed-path benchmark and the plane process.

A workload is a scenario (which KPIs, how much bootstrap history), a
per-KPI service configuration, a shard checkpoint cadence and a traffic
shape. :func:`build_inputs` turns a workload and a seed into the
generated series and the exact list of HTTP requests the closed-loop
client sends; everything here is a pure function of ``(workload, seed,
units)``, so two runs with one seed send byte-identical traffic.

:func:`plane_main` is the body of the forked plane process: it fits the
diagnoser, composes ``ShardSupervisor(n_shards=2)`` + ``ReproServer``
exactly as ``repro-serve`` does, and reports its port once every shard
has answered a ping. The generated bootstrap series reach the shards by
fork inheritance through the ``build_fleet`` closure.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from repro.core import MonitoringService
from repro.diagnosis import default_diagnoser
from repro.fleet.banks import small_bank
from repro.fleet.manager import FleetManager
from repro.loadgen.scenario import (
    SECONDS_PER_WEEK,
    ScenarioKpi,
    ScenarioSpec,
    build_scenario,
)
from repro.ml import RandomForest
from repro.obs import get_provider
from repro.serve.server import ReproServer
from repro.serve.supervisor import ShardSupervisor

SHARDS = 2
#: ``repro-serve``'s per-shard fleet settings (its CLI defaults).
QUEUE_DEPTH = 256
BATCH_POINTS = 64
MIN_DURATION_POINTS = 2
#: Trees of the ``repro-serve`` CLI's per-KPI forest (``--trees``).
CLI_TREES = 10


@dataclass(frozen=True)
class Workload:
    """One traffic mix through the 2-shard plane.

    ``traffic`` picks the request shape: ``point`` (one ``POST /ingest``
    per point, KPIs round-robin) or ``batch`` (one ``/ingest/batch`` per
    ``span_points`` consecutive live points of every KPI). A run sends
    ``units(seconds)`` of these; ``units_per_second`` was calibrated
    once so that a run measures about ``seconds`` on a 2-core machine,
    and it never depends on how fast the code runs.
    """

    name: str
    why: str
    n_kpis: int
    profiles: Tuple[str, ...]
    bootstrap_weeks: float
    #: ``full``: the Table 3 bank, the default 50-tree forest and the
    #: diagnoser. ``cli``: ``repro-serve``'s per-KPI service
    #: (``small_bank``, 10 trees, diagnoser).
    service: str
    checkpoint_every_batches: int
    traffic: str
    units_per_second: float
    #: Points of every KPI per request of ``batch`` traffic.
    span_points: int = 1
    #: After the run, replay the acknowledged points through fleets
    #: restored from the shards' initial checkpoints and require the
    #: same alert events.
    twin: bool = False

    def units(self, seconds: float) -> int:
        return max(1, round(seconds * self.units_per_second))


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="durable-point",
            why="single-point POST /ingest with checkpoint-before-ack on "
                "the full config: the checkpoint dominates, extraction "
                "and vote are a small share",
            n_kpis=2, profiles=("SRT",), bootstrap_weeks=2.0,
            service="full", checkpoint_every_batches=1,
            traffic="point", units_per_second=12.5, twin=True,
        ),
        Workload(
            name="backfill-week",
            why="a collector catching up a week per batch on the full "
                "config: family streams and the one-row vote dominate, "
                "one checkpoint per shard per batch",
            n_kpis=2, profiles=("SRT",), bootstrap_weeks=2.0,
            service="full", checkpoint_every_batches=1,
            traffic="batch", span_points=168, units_per_second=1.2,
        ),
        Workload(
            name="fanout-stream",
            why="one point of each of many cheap KPIs per batch, no "
                "checkpoints: HTTP, framing, routing, fan-out and the "
                "fleet pump dominate",
            n_kpis=8, profiles=("PV", "#SR", "SRT"), bootstrap_weeks=1.0,
            service="cli", checkpoint_every_batches=0,
            traffic="batch", units_per_second=200.0,
        ),
    )
}


@dataclass
class Request:
    """One ingest request of a workload's plan; ``points`` lists
    ``(kpi, value)`` in body order."""

    path: str
    body: bytes
    points: List[Tuple[str, float]]


@dataclass
class Inputs:
    """Everything generated from the seed before any clock starts."""

    workload: Workload
    seed: int
    kpis: List[ScenarioKpi]
    plan: List[Request]


def _live_weeks(workload: Workload, units: int) -> float:
    """Live span to generate so every KPI has the points ``units``
    requests consume (the slowest profile, SRT, has 168 per week)."""
    per_week = SECONDS_PER_WEEK // 3600
    if workload.traffic == "point":
        points = math.ceil(units / workload.n_kpis)
    else:
        points = units * workload.span_points
    return (points + 1) / per_week


def _ingest(kpi: str, value: float) -> Request:
    body = json.dumps({"kpi": kpi, "value": value}).encode()
    return Request("/ingest", body, [(kpi, value)])


def _batch(points: List[Tuple[str, float]]) -> Request:
    body = "".join(
        json.dumps({"kpi": kpi, "value": value}) + "\n"
        for kpi, value in points
    ).encode()
    return Request("/ingest/batch", body, points)


def _plan(
    workload: Workload, kpis: Sequence[ScenarioKpi], units: int
) -> List[Request]:
    live = {kpi.kpi_id: kpi.live_values for kpi in kpis}
    ids = [kpi.kpi_id for kpi in kpis]
    if workload.traffic == "point":
        return [
            _ingest(ids[j % len(ids)], live[ids[j % len(ids)]][j // len(ids)])
            for j in range(units)
        ]
    if workload.traffic == "batch":
        length = workload.span_points
        return [
            _batch([
                (kpi, live[kpi][t])
                for t in range(length * unit, length * (unit + 1))
                for kpi in ids
            ])
            for unit in range(units)
        ]
    raise ValueError(f"unknown traffic shape {workload.traffic!r}")


def build_inputs(workload: Workload, seed: int, units: int) -> Inputs:
    """Generate the scenario and the request plan for one seed."""
    spec = ScenarioSpec(
        n_kpis=workload.n_kpis,
        weeks=_live_weeks(workload, units),
        bootstrap_weeks=workload.bootstrap_weeks,
        profiles=workload.profiles,
        seed_offset=seed,
    )
    kpis = build_scenario(spec)
    return Inputs(workload, seed, kpis, _plan(workload, kpis, units))


def service_factory(
    workload: Workload, kpis: Sequence[ScenarioKpi], diagnoser
) -> Callable[[str], MonitoringService]:
    """The per-KPI service the shards build (and the twin restores)."""
    intervals = {kpi.kpi_id: kpi.interval for kpi in kpis}

    def build(kpi_id: str) -> MonitoringService:
        if workload.service == "full":
            return MonitoringService(
                min_duration_points=MIN_DURATION_POINTS, diagnoser=diagnoser
            )
        return MonitoringService(
            configs=small_bank(SECONDS_PER_WEEK // intervals[kpi_id]),
            classifier_factory=lambda: RandomForest(
                n_estimators=CLI_TREES, seed=0
            ),
            min_duration_points=MIN_DURATION_POINTS,
            diagnoser=diagnoser,
        )

    return build


def twin_fleet(
    directory: Path, workload: Workload, kpis: Sequence[ScenarioKpi]
) -> FleetManager:
    """An in-process fleet restored from one shard's checkpoint (the
    diagnoser rides in the service checkpoints)."""
    return FleetManager.restore(
        directory, service_factory=service_factory(workload, kpis, None)
    )


def _supervisor(inputs: Inputs, workdir: Path, diagnoser) -> ShardSupervisor:
    workload = inputs.workload
    by_id = {kpi.kpi_id: kpi for kpi in inputs.kpis}
    factory = service_factory(workload, inputs.kpis, diagnoser)

    def build_fleet(index: int, ids: List[str]) -> FleetManager:
        fleet = FleetManager(
            n_shards=1,
            queue_depth=QUEUE_DEPTH,
            batch_points=BATCH_POINTS,
            service_factory=factory,
        )
        for kpi_id in ids:
            fleet.add_kpi(kpi_id, bootstrap=by_id[kpi_id].bootstrap)
        return fleet

    return ShardSupervisor(
        list(by_id),
        build_fleet,
        workdir=str(workdir),
        n_shards=SHARDS,
        service_factory=factory,
        checkpoint_every_batches=workload.checkpoint_every_batches,
    )


def _request_seconds() -> Dict[str, List[float]]:
    """``{endpoint: [sum, count]}`` of this process's
    ``repro_serve_request_seconds`` histogram."""
    for metric in get_provider().snapshot()["metrics"]:
        if metric["name"] == "repro_serve_request_seconds":
            return {
                sample["labels"]["endpoint"]: [sample["sum"], sample["count"]]
                for sample in metric["samples"]
            }
    return {}


def plane_main(conn, inputs: Inputs, workdir: Path, tracer) -> None:
    """Body of the forked plane process.

    Replies on ``conn`` with ``{"port", "pid", "route", "shard_pids"}``
    once every shard answered its ping, then waits for ``"stop"``; on
    stop it shuts the shards down and answers with the plane's own
    request-latency histogram. ``tracer`` is a :class:`waterfall.Tracer`
    (inactive on untraced runs) whose wrappers were installed before
    the fork.
    """
    tracer.start("plane")
    try:
        with tracer.measure("setup.diagnoser_fit"):
            diagnoser = default_diagnoser()
        supervisor = _supervisor(inputs, workdir, diagnoser)
        server = ReproServer(supervisor, stop_supervisor=False)
        try:
            server.start()
            conn.send(
                {
                    "port": server.port,
                    "pid": os.getpid(),
                    "route": {
                        kpi.kpi_id: supervisor.shard_for(kpi.kpi_id)
                        for kpi in inputs.kpis
                    },
                    "shard_pids": [
                        row["pid"] for row in supervisor.shard_table()
                    ],
                }
            )
            conn.recv()  # "stop"
            request_seconds = _request_seconds()
        finally:
            server.close()
            supervisor.stop(checkpoint=False)
        conn.send({"request_seconds": request_seconds})
    except Exception:  # repro: disable=api-hygiene — process boundary: any plane failure must reach the parent as a message, not a silent exit
        with contextlib.suppress(OSError):  # the parent may be gone
            conn.send({"error": traceback.format_exc()})
    finally:
        tracer.dump()
        conn.close()


__all__ = [
    "SHARDS",
    "Inputs",
    "Request",
    "WORKLOADS",
    "Workload",
    "build_inputs",
    "plane_main",
    "service_factory",
    "twin_fleet",
]
