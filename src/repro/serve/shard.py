"""The shard worker: one forked process hosting a sub-fleet.

A shard process owns a :class:`~repro.fleet.FleetManager` holding the
KPIs its consistent-hash slice assigned (see
:class:`~repro.serve.supervisor.ShardSupervisor`) and serves a
request/reply loop over the socketpair it was forked with: ``ping``,
``offer_batch`` (enqueue + pump, returning alert events and drop
counts), ``status``, ``metrics``, ``submit_labels``, ``retrain``,
``revive``, ``checkpoint`` and ``shutdown``.

Durability model: the shard checkpoints its whole sub-fleet (the PR 5
bit-identical fleet directory format) into ``<checkpoint_dir>/live``
via an atomic directory swap — first at startup, then every
``checkpoint_every_batches`` acknowledged batches (and on demand / at
graceful shutdown). A checkpoint is taken *before* the batch that
triggered it is acknowledged, so an acknowledged batch at cadence 1 is
always durable; at larger cadences durability lags by at most
``cadence - 1`` batches, which is the window a ``kill -9`` can lose.
A re-forked shard finds the ``live`` directory (or ``old``, if the
kill landed mid-swap) and resumes from it — queued points, quarantine
backoffs and open alert runs included.

A shard is a long-lived stateful server: it deliberately owns mutable
state (its fleet), and that state reaches the parent only through
explicit replies and checkpoints. Module- and class-level state is in
no checkpoint, so a re-fork after ``kill -9`` would silently lose it:
:func:`shard_worker_main` is therefore the root of the
``worker-reachability`` lint rule, which rejects any such write
reachable from it.
"""

from __future__ import annotations

import os
import shutil
import socket
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from ..core.service import AlertEvent
from ..fleet.manager import FleetManager, ServiceFactory
from ..obs import combine_snapshots, get_provider
from ..obs.provider import ObservabilityProvider, enable
from ..timeseries.windows import AnomalyWindow
from .protocol import ConnectionClosed, recv_message, send_message

#: Subdirectory names of a shard's checkpoint rotation.
LIVE_DIR = "live"
TMP_DIR = "live.tmp"
OLD_DIR = "live.old"

FleetBuilder = Callable[[], FleetManager]


@dataclass
class ShardSpec:
    """Everything one shard process needs, composed by the supervisor.

    ``build_fleet`` constructs the shard's sub-fleet on *first* start
    (bootstrap a scenario slice, or restore a slice of a shared fleet
    directory); it is carried across the fork by memory inheritance,
    so any callable works. On re-fork after a crash the builder is
    skipped: the shard restores from its own last checkpoint instead,
    using ``service_factory`` to rebuild services with the right
    detector bank.
    """

    index: int
    checkpoint_dir: str
    build_fleet: FleetBuilder
    service_factory: Optional[ServiceFactory] = None
    #: Checkpoint after every Nth acknowledged batch (0 = only at
    #: startup, on demand, and at graceful shutdown).
    checkpoint_every_batches: int = 0


def find_checkpoint(checkpoint_dir: Path) -> Optional[Path]:
    """The restorable fleet directory under ``checkpoint_dir``, if any.

    Prefers ``live``; falls back to ``old`` when a kill landed between
    the two renames of the atomic swap (at that instant ``old`` holds
    the last complete checkpoint).
    """
    for name in (LIVE_DIR, OLD_DIR):
        candidate = checkpoint_dir / name
        if (candidate / "fleet.json").exists():
            return candidate
    return None


def atomic_checkpoint(fleet: FleetManager, checkpoint_dir: Path) -> Path:
    """Write ``fleet`` under ``checkpoint_dir`` with an atomic swap.

    Save into ``live.tmp``, rotate ``live`` → ``live.old``, rename the
    tmp into place, then drop the old generation. A crash at any point
    leaves either the previous ``live`` or a complete ``live.old`` for
    :func:`find_checkpoint` — never a half-written checkpoint in the
    restore path.
    """
    root = Path(checkpoint_dir)
    root.mkdir(parents=True, exist_ok=True)
    live, tmp, old = root / LIVE_DIR, root / TMP_DIR, root / OLD_DIR
    if tmp.exists():
        shutil.rmtree(tmp)
    fleet.save(tmp)
    if old.exists():
        shutil.rmtree(old)
    if live.exists():
        os.rename(live, old)
    os.rename(tmp, live)
    if old.exists():
        shutil.rmtree(old)
    return live


def load_or_build(spec: ShardSpec) -> FleetManager:
    """Restore the shard's last checkpoint, or build + checkpoint it.

    The initial checkpoint is written before the shard serves anything,
    so a re-fork after even an immediate crash has a restore point.
    """
    root = Path(spec.checkpoint_dir)
    existing = find_checkpoint(root)
    if existing is not None:
        return FleetManager.restore(
            existing, service_factory=spec.service_factory
        )
    fleet = spec.build_fleet()
    atomic_checkpoint(fleet, root)
    return fleet


def serialize_events(events: Sequence[AlertEvent]) -> List[dict]:
    """Alert events as the JSON dicts a shard replies with (and the
    soak driver attributes delays from)."""
    return [
        {
            "kind": event.kind,
            "kpi": event.kpi,
            "begin_index": event.begin_index,
            "end_index": event.end_index,
            "peak_score": event.peak_score,
            "diagnosis": event.diagnosis,
        }
        for event in events
    ]


class _ShardServer:
    """The request/reply loop around one shard's fleet."""

    def __init__(self, spec: ShardSpec):
        self.spec = spec
        self.fleet = load_or_build(spec)
        self.batches = 0
        self._since_checkpoint = 0

    # ------------------------------------------------------------------
    # Ops (each returns the reply payload; "ok" is added by the loop)
    # ------------------------------------------------------------------
    def op_ping(self, payload: dict) -> dict:
        return {
            "pid": os.getpid(),
            "shard": self.spec.index,
            "kpis": self.fleet.kpi_ids,
            "batches": self.batches,
        }

    def op_offer_batch(self, payload: dict) -> dict:
        """Enqueue ``points`` (``[[kpi, value], ...]``), pump, reply.

        ``accepted`` counts points that entered a queue without
        displacing another; ``rejected`` is the backpressure signal the
        ingest plane turns into 429s. When the checkpoint cadence comes
        due, the checkpoint is taken before this reply is sent — an
        acknowledged batch at cadence 1 is durable.
        """
        accepted = 0
        rejected = 0
        unknown: List[str] = []
        for kpi_id, value in payload["points"]:
            if kpi_id not in self.fleet:
                unknown.append(kpi_id)
                continue
            if self.fleet.offer(kpi_id, float(value)):
                accepted += 1
            else:
                rejected += 1
        events = self.fleet.drain_all() if payload.get("pump", True) else []
        self.batches += 1
        self._since_checkpoint += 1
        cadence = self.spec.checkpoint_every_batches
        if cadence and self._since_checkpoint >= cadence:
            self._since_checkpoint = 0
            atomic_checkpoint(self.fleet, Path(self.spec.checkpoint_dir))
        return {
            "accepted": accepted,
            "rejected": rejected,
            "unknown": unknown,
            "events": serialize_events(events),
            "batches": self.batches,
        }

    def op_status(self, payload: dict) -> dict:
        return {
            "status": self.fleet.status().as_dict(),
            "pid": os.getpid(),
            "batches": self.batches,
        }

    def op_metrics(self, payload: dict) -> dict:
        """This process's provider snapshot merged with the per-KPI
        registry rollup — the same combination the in-process soak
        checkpoints record."""
        return {
            "snapshot": combine_snapshots(
                [get_provider().snapshot(), self.fleet.metrics_snapshot()]
            )
        }

    def op_submit_labels(self, payload: dict) -> dict:
        """Label windows for one KPI (clipped by the fleet to what the
        KPI has ingested)."""
        windows = [
            AnomalyWindow(int(begin), int(end))
            for begin, end in payload["windows"]
        ]
        return {
            "submitted": self.fleet.submit_labels(payload["kpi"], windows)
        }

    def op_retrain(self, payload: dict) -> dict:
        results = self.fleet.retrain(payload.get("kpis"))
        return {"results": results}

    def op_revive(self, payload: dict) -> dict:
        self.fleet.revive(payload["kpi"])
        return {}

    def op_checkpoint(self, payload: dict) -> dict:
        path = atomic_checkpoint(self.fleet, Path(self.spec.checkpoint_dir))
        self._since_checkpoint = 0
        return {"path": str(path)}

    # ------------------------------------------------------------------
    def dispatch(self, request: dict) -> dict:
        op = request.get("op")
        handler = getattr(self, f"op_{op}", None)
        if handler is None or not str(op).isidentifier():
            return {"ok": False, "error": f"unknown op {op!r}"}
        try:
            reply = handler(request)
        except Exception as error:  # repro: disable=api-hygiene — request containment: one bad request must answer with an error frame, not kill the shard and lose its queued points
            return {"ok": False, "error": repr(error)}
        reply["ok"] = True
        return reply


def shard_worker_main(
    conn: socket.socket,
    parent_end: Optional[socket.socket],
    spec: ShardSpec,
) -> None:
    """Entry point of a forked shard process.

    Installs a *fresh* observability provider (the fork inherited the
    parent's counters; shard metrics must start from zero or the
    ``/metrics`` rollup would double-count the parent), closes the
    parent's socket end, builds or restores the fleet, and serves until
    the ``shutdown`` op or until the supervisor end of the socket
    closes (parent death — the shard must not outlive it).
    """
    if parent_end is not None:
        parent_end.close()
    enable(ObservabilityProvider())
    try:
        server = _ShardServer(spec)
        while True:
            try:
                request = recv_message(conn)
            except ConnectionClosed:
                return  # supervisor is gone; exit quietly
            if request.get("op") == "shutdown":
                if request.get("checkpoint", True):
                    atomic_checkpoint(
                        server.fleet, Path(spec.checkpoint_dir)
                    )
                send_message(conn, {"ok": True, "pid": os.getpid()})
                return
            send_message(conn, server.dispatch(request))
    finally:
        conn.close()


__all__ = [
    "LIVE_DIR",
    "OLD_DIR",
    "TMP_DIR",
    "FleetBuilder",
    "ShardSpec",
    "atomic_checkpoint",
    "find_checkpoint",
    "load_or_build",
    "serialize_events",
    "shard_worker_main",
]
