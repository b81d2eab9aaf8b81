"""Process supervision for the sharded serve plane.

:class:`ShardSupervisor` promotes the fleet layer's
:class:`~repro.fleet.ConsistentHashRing` from in-process shard
*selection* to routing across N worker *processes*. Each shard process
hosts a disjoint :class:`~repro.fleet.FleetManager` sub-fleet (see
:mod:`repro.serve.shard`), is forked once at startup via the ``fork`` context of
:mod:`repro.core.execution`, and talks to the supervisor over a
private ``socketpair`` speaking the length-prefixed JSON protocol of
:mod:`repro.serve.protocol`.

Supervision contract:

* A shard that dies mid-request (``kill -9``, OOM, crash) surfaces as
  :class:`~repro.serve.protocol.ConnectionClosed`; the supervisor
  re-forks it immediately, the replacement restores from the shard's
  last atomic checkpoint, and the original request is retried once
  against the restored state. Work since the last checkpoint is the
  only loss window (bounded by the checkpoint cadence).
* :meth:`restart_shard` is the graceful path: the shard checkpoints
  everything — queued points included — before exiting, so the
  replacement resumes with **zero alert divergence** relative to an
  undisturbed fleet (pinned by the serve test suite).
* Restarts are observable: ``repro_serve_shard_restarts_total``
  (labels ``shard``, ``reason``: ``crash`` / ``graceful``) plus
  ``shard_started`` / ``shard_restarted`` events.

Aggregation: :meth:`status` merges per-shard fleet statuses into one
:class:`~repro.fleet.FleetStatus` — each KPI row re-tagged with the
*process* shard index so operators see the routing that actually
happened — and :meth:`metrics` merges per-shard observability
snapshots with every sample tagged ``shard=<index>``.
"""

from __future__ import annotations

import dataclasses
import socket
import threading
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.execution import get_fork_context
from ..fleet.manager import FleetManager, ServiceFactory
from ..fleet.scheduler import ConsistentHashRing
from ..fleet.status import FleetStatus, merge_statuses
from ..obs import get_provider, merge_snapshots
from .protocol import ConnectionClosed, recv_message, send_message
from .shard import ShardSpec, shard_worker_main

#: Ring salt for KPI → *process* routing. Deliberately distinct from
#: the in-fleet default (``repro-fleet``) so the two layers of
#: consistent hashing are independent.
SUPERVISOR_SALT = "repro-serve"

#: A ``(shard_index, shard_kpi_ids) -> FleetManager`` factory; runs
#: inside the freshly forked shard on first start.
ShardFleetBuilder = Callable[[int, Sequence[str]], FleetManager]


class ShardError(RuntimeError):
    """A shard answered a request with ``ok: false``."""


class _ShardHandle:
    """Parent-side bookkeeping for one shard process.

    All mutable fields are read and written only under ``lock`` —
    requests to one shard serialize, while different shards proceed
    concurrently (the ingest plane fans batches out across handles).
    """

    def __init__(self, index: int, spec: ShardSpec):
        self.index = index
        self.spec = spec
        self.lock = threading.Lock()
        self.process = None
        self.conn: Optional[socket.socket] = None
        self.pid: Optional[int] = None
        self.restarts = 0
        self.stopped = False
        #: ``load_s`` and ``restored`` from the latest fork's ping reply.
        self.loaded: dict = {}


class ShardSupervisor:
    """Fork, route to, monitor, and re-fork N shard processes."""

    def __init__(
        self,
        kpi_ids: Sequence[str],
        fleet_builder: ShardFleetBuilder,
        *,
        workdir: str,
        n_shards: int = 4,
        service_factory: Optional[ServiceFactory] = None,
        checkpoint_every_batches: int = 0,
        replicas: int = 64,
    ):
        if not kpi_ids:
            raise ValueError("a serve plane needs at least one KPI")
        self.n_shards = n_shards
        self.workdir = Path(workdir)
        self.ring = ConsistentHashRing(
            n_shards, replicas=replicas, salt=SUPERVISOR_SALT
        )
        self.assignment: Dict[int, List[str]] = {
            index: [] for index in range(n_shards)
        }
        self._route: Dict[str, int] = {}
        for kpi_id in kpi_ids:
            shard = self.ring.shard_for(kpi_id)
            self.assignment[shard].append(kpi_id)
            self._route[kpi_id] = shard
        self._handles: List[_ShardHandle] = []
        for index in range(n_shards):
            assigned = self.assignment[index]
            spec = ShardSpec(
                index=index,
                checkpoint_dir=str(self.workdir / f"shard-{index}"),
                # Bind the slice now; the closure crosses the fork by
                # memory inheritance, never by pickling.
                build_fleet=(
                    lambda idx=index, ids=tuple(assigned): fleet_builder(
                        idx, list(ids)
                    )
                ),
                service_factory=service_factory,
                checkpoint_every_batches=checkpoint_every_batches,
            )
            self._handles.append(_ShardHandle(index, spec))
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Fork every shard and block until each answers a ping
        (i.e. has built or restored its sub-fleet)."""
        if self._started:
            return
        for handle in self._handles:
            with handle.lock:
                self._fork_locked(handle)
            get_provider().emit(
                "shard_started", shard=handle.index, pid=handle.pid,
                kpis=len(self.assignment[handle.index]),
            )
        self._started = True

    def stop(self, *, checkpoint: bool = True) -> None:
        """Gracefully shut every shard down (checkpointing by default)."""
        for handle in self._handles:
            with handle.lock:
                if handle.stopped or handle.conn is None:
                    continue
                handle.stopped = True
                try:
                    send_message(
                        handle.conn,
                        {"op": "shutdown", "checkpoint": checkpoint},
                    )
                    recv_message(handle.conn)
                except ConnectionClosed:
                    pass  # already dead; nothing left to flush
                handle.conn.close()
                handle.conn = None
                if handle.process is not None:
                    handle.process.join(timeout=30)

    def __enter__(self) -> "ShardSupervisor":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def restart_shard(self, index: int) -> int:
        """Gracefully restart one shard mid-stream.

        The shard checkpoints its entire state (queues included) before
        exiting, so the replacement diverges from an undisturbed fleet
        by exactly nothing. Returns the new pid.
        """
        handle = self._handles[index]
        with handle.lock:
            if handle.conn is not None:
                try:
                    send_message(
                        handle.conn, {"op": "shutdown", "checkpoint": True}
                    )
                    recv_message(handle.conn)
                except ConnectionClosed:
                    pass  # fell over before the ack; checkpoint still has the last durable state
                handle.conn.close()
                handle.conn = None
            if handle.process is not None:
                handle.process.join(timeout=30)
            self._refork_locked(handle, reason="graceful")
            return handle.pid

    # ------------------------------------------------------------------
    # Forking
    # ------------------------------------------------------------------
    def _fork_locked(self, handle: _ShardHandle) -> None:
        """Fork one shard (caller holds ``handle.lock``)."""
        context = get_fork_context()
        parent_end, child_end = socket.socketpair()
        process = context.Process(
            target=shard_worker_main,
            args=(child_end, parent_end, handle.spec),
            daemon=True,
            name=f"repro-serve-shard-{handle.index}",
        )
        process.start()
        child_end.close()
        handle.process = process
        handle.conn = parent_end
        handle.stopped = False
        try:
            send_message(parent_end, {"op": "ping"})
            reply = recv_message(parent_end)
        except ConnectionClosed as error:
            raise RuntimeError(
                f"shard {handle.index} died during startup "
                f"(build/restore failed; see its stderr)"
            ) from error
        handle.pid = reply.get("pid", process.pid)
        handle.loaded = {key: reply.get(key) for key in ("load_s", "restored")}

    def _refork_locked(self, handle: _ShardHandle, *, reason: str) -> None:
        """Replace a dead/stopped shard (caller holds ``handle.lock``).

        The replacement restores from the shard's last atomic
        checkpoint — :func:`repro.serve.shard.load_or_build` prefers it
        over the builder whenever one exists.
        """
        if handle.conn is not None:
            handle.conn.close()
            handle.conn = None
        if handle.process is not None:
            handle.process.join(timeout=30)
        self._fork_locked(handle)
        handle.restarts += 1
        provider = get_provider()
        provider.counter(
            "repro_serve_shard_restarts_total",
            "Shard processes re-forked by the supervisor",
            shard=str(handle.index), reason=reason,
        ).inc()
        provider.emit(
            "shard_restarted", shard=handle.index, pid=handle.pid,
            reason=reason, restarts=handle.restarts,
        )

    # ------------------------------------------------------------------
    # Routing + request plumbing
    # ------------------------------------------------------------------
    @property
    def kpi_ids(self) -> List[str]:
        return sorted(self._route)

    def shard_for(self, kpi_id: str) -> Optional[int]:
        """The process shard serving ``kpi_id`` (None if unknown)."""
        return self._route.get(kpi_id)

    def request(self, index: int, op: str, **payload) -> dict:
        """Send one op to shard ``index`` and return its reply payload.

        On :class:`ConnectionClosed` (the shard died) the shard is
        re-forked from its checkpoint and the request retried exactly
        once; a second failure propagates. Replies with ``ok: false``
        raise :class:`ShardError`.
        """
        handle = self._handles[index]
        with handle.lock:
            try:
                send_message(handle.conn, {"op": op, **payload})
                reply = recv_message(handle.conn)
            except ConnectionClosed:
                self._refork_locked(handle, reason="crash")
                send_message(handle.conn, {"op": op, **payload})
                reply = recv_message(handle.conn)
        if not reply.get("ok"):
            raise ShardError(
                f"shard {index} failed op {op!r}: "
                f"{reply.get('error', 'unknown error')}"
            )
        return reply

    # ------------------------------------------------------------------
    # Data plane helpers
    # ------------------------------------------------------------------
    def offer_batch(
        self, index: int, points: Sequence[Tuple[str, float]]
    ) -> dict:
        """Forward a pre-routed batch to one shard (enqueue + pump)."""
        return self.request(
            index, "offer_batch", points=[list(point) for point in points]
        )

    def submit_labels(
        self, kpi_id: str, windows: Sequence[Tuple[int, int]]
    ) -> dict:
        shard = self._route[kpi_id]
        return self.request(
            shard, "submit_labels", kpi=kpi_id,
            windows=[list(window) for window in windows],
        )

    def retrain(self, kpi_ids: Optional[Sequence[str]] = None) -> dict:
        """Retrain everywhere (or route the named KPIs to their shards)."""
        results: Dict[str, Optional[float]] = {}
        if kpi_ids is None:
            for index in range(self.n_shards):
                results.update(self.request(index, "retrain")["results"])
            return results
        by_shard: Dict[int, List[str]] = {}
        for kpi_id in kpi_ids:
            by_shard.setdefault(self._route[kpi_id], []).append(kpi_id)
        for index, ids in by_shard.items():
            results.update(
                self.request(index, "retrain", kpis=ids)["results"]
            )
        return results

    def revive(self, kpi_id: str) -> None:
        self.request(self._route[kpi_id], "revive", kpi=kpi_id)

    def checkpoint_all(self) -> List[str]:
        return [
            self.request(index, "checkpoint")["path"]
            for index in range(self.n_shards)
        ]

    # ------------------------------------------------------------------
    # Rollups
    # ------------------------------------------------------------------
    def shard_table(self) -> List[dict]:
        """The supervision table for status documents (no shard I/O)."""
        table = []
        for handle in self._handles:
            with handle.lock:
                alive = (
                    handle.process is not None and handle.process.is_alive()
                )
                table.append(
                    {
                        "shard": handle.index,
                        "pid": handle.pid,
                        "alive": alive,
                        "restarts": handle.restarts,
                        "kpis": len(self.assignment[handle.index]),
                        **handle.loaded,
                    }
                )
        return table

    def status(self) -> Tuple[FleetStatus, List[dict]]:
        """One merged fleet status plus the per-process shard table.

        Each KPI row's ``shard`` is re-tagged from the sub-fleet's
        internal index to the *process* shard that served it — the
        number an operator can actually act on (kill, restart).
        """
        statuses = []
        for index in range(self.n_shards):
            raw = FleetStatus.from_dict(self.request(index, "status")["status"])
            statuses.append(
                dataclasses.replace(
                    raw,
                    kpis=tuple(
                        dataclasses.replace(kpi, shard=index)
                        for kpi in raw.kpis
                    ),
                )
            )
        return merge_statuses(statuses), self.shard_table()

    def metrics(self) -> dict:
        """All shards' snapshots merged, samples tagged ``shard=<i>``."""
        return merge_snapshots(
            {
                str(index): self.request(index, "metrics")["snapshot"]
                for index in range(self.n_shards)
            },
            label="shard",
        )


__all__ = [
    "SUPERVISOR_SALT",
    "ShardError",
    "ShardFleetBuilder",
    "ShardSupervisor",
]
