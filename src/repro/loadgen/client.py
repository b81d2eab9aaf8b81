"""The HTTP soak target: a running ``repro-serve`` plane.

:class:`HttpTarget` is the networked target of
:class:`~repro.loadgen.harness.SoakHarness` (``repro-loadgen
--target``). The harness regenerates the deterministic scenario
client-side (see :mod:`repro.loadgen.scenario`) and this target
streams its live tail at the plane — one newline-delimited ``POST
/ingest/batch`` per simulated tick, so the byte stream a given server
sees is a pure function of the scenario spec. Two replays of the same
spec against two fresh servers send identical request sequences; that
is what makes kill-recovery A/B comparisons
(``tools/soak_alerts_diff.py``) meaningful.

Delays are attributed client-side from the alert events each batch
response carries, and every harness checkpoint merges the client's
snapshot with the server's ``GET /metrics`` rollup (fleet + serve
metrics, all shards), so the *same* ``slo/targets.toml`` burn-rate gate
judges a real networked run.

Fault drills: ``kill_shard``/``kill_after_batches`` SIGKILLs a shard
process mid-stream (pid discovered via ``GET /status``) and the final
status then checks that the supervisor re-forked it;
``restart_shard``/``restart_after_batches`` exercises the graceful
``POST /shards/<i>/restart`` path instead. Outcomes land in the
document (``fault``, ``recovered``) for the CI gate.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from ..timeseries.windows import AnomalyWindow


class TargetError(RuntimeError):
    """The serve plane answered something the replay cannot proceed on."""


class HttpTarget:
    """A keep-alive JSON client for one ``repro-serve`` base URL.

    Construction runs the preflight: the server must be alive and
    serving every one of ``kpi_ids`` — a spec mismatch would stream
    points into the void.
    """

    def __init__(
        self,
        target: str,
        kpi_ids: Sequence[str],
        *,
        kill_shard: int = -1,
        kill_after_batches: int = 0,
        restart_shard: int = -1,
        restart_after_batches: int = 0,
        timeout: float = 120.0,
    ):
        parsed = urlsplit(target)
        if parsed.scheme != "http" or not parsed.hostname:
            raise ValueError(
                f"--target must look like http://host:port, got {target!r}"
            )
        self.url = target
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.timeout = timeout
        self.kill_shard = kill_shard
        self.restart_shard = restart_shard
        self._fault_due = (
            kill_after_batches
            if kill_shard >= 0
            else restart_after_batches
            if restart_shard >= 0
            else 0
        )
        self.fault: Optional[dict] = None
        self.batches = 0
        self._conn: Optional[http.client.HTTPConnection] = None
        self._preflight(kpi_ids)

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, dict]:
        """One request; reconnects and retries once on a dropped
        keep-alive connection (the server stays up across shard kills,
        but the idle socket may still have died)."""
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body)
                response = conn.getresponse()
                payload = response.read()
                break
            except (ConnectionError, http.client.HTTPException, OSError):
                self.close()
                if attempt:
                    raise
        try:
            parsed = json.loads(payload.decode("utf-8")) if payload else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            parsed = {}
        return response.status, parsed

    def _get(self, path: str) -> dict:
        status, document = self.request("GET", path)
        if status != 200:
            raise TargetError(f"{self.url}{path} answered {status}")
        return document

    def _post(self, path: str, body: bytes) -> dict:
        status, reply = self.request("POST", path, body)
        if status != 200:
            raise TargetError(
                f"{path} answered {status}: {reply.get('error', reply)}"
            )
        return reply

    def _preflight(self, kpi_ids: Sequence[str]) -> None:
        self._get("/healthz")
        served = {
            kpi["kpi_id"]
            for kpi in self._get("/status").get("fleet", {}).get("kpis", [])
        }
        missing = sorted(set(kpi_ids) - served)
        if missing:
            raise TargetError(
                f"server is not serving {len(missing)} scenario KPIs "
                f"(e.g. {missing[:3]}); was it started with the same "
                f"--kpis/--profiles/--seed-offset?"
            )

    # ------------------------------------------------------------------
    # The soak-target surface
    # ------------------------------------------------------------------
    def post(
        self, points: List[Tuple[str, float]]
    ) -> Tuple[int, int, List[dict]]:
        """One ``/ingest/batch`` (none for an empty tick); a due fault
        drill fires right after the batch that made it due."""
        if not points:
            return 0, 0, []
        body = "\n".join(
            json.dumps({"kpi": kpi_id, "value": value},
                       separators=(",", ":"))
            for kpi_id, value in points
        ).encode("utf-8")
        status, reply = self.request("POST", "/ingest/batch", body)
        if status not in (200, 429):
            raise TargetError(
                f"/ingest/batch answered {status}: "
                f"{reply.get('error', reply)}"
            )
        self.batches += 1
        if self.fault is None and self._fault_due and (
            self.batches >= self._fault_due
        ):
            self.fault = self._inject_fault()
        return (
            reply.get("accepted", 0),
            reply.get("rejected", 0),
            reply.get("events", []),
        )

    def retrain(self, windows: Dict[str, List[AnomalyWindow]]) -> None:
        """Submit every ground-truth window (each shard's fleet clips
        to what its KPIs have ingested), then retrain all shards."""
        for kpi_id, kpi_windows in windows.items():
            if not kpi_windows:
                continue
            body = json.dumps(
                {
                    "kpi": kpi_id,
                    "windows": [[w.begin, w.end] for w in kpi_windows],
                }
            ).encode("utf-8")
            self._post("/labels", body)
        self._post("/retrain", b"{}")

    def snapshot(self) -> dict:
        return self._get("/metrics")

    def drain(self) -> List[dict]:
        """Nothing to flush: every shard drains its queues per batch."""
        return []

    def final_status(self) -> dict:
        """The plane's final ``/status`` plus the drill outcome."""
        document = self._get("/status")
        self.close()
        shards = document.get("shards", [])
        return {
            "fleet": document.get("fleet", {}),
            "shards": shards,
            "fault": self.fault,
            "recovered": self._recovered(shards) if self.fault else None,
        }

    # ------------------------------------------------------------------
    # Fault drills
    # ------------------------------------------------------------------
    def _inject_fault(self) -> dict:
        if self.kill_shard >= 0:
            pids = {
                shard.get("shard"): shard["pid"]
                for shard in self._get("/status").get("shards", [])
            }
            if self.kill_shard not in pids:
                raise TargetError(f"no shard {self.kill_shard} in /status")
            pid = int(pids[self.kill_shard])
            os.kill(pid, signal.SIGKILL)
            return {
                "type": "kill", "shard": self.kill_shard, "pid": pid,
                "after_batches": self._fault_due,
            }
        reply = self._post(f"/shards/{self.restart_shard}/restart", b"")
        return {
            "type": "graceful", "shard": self.restart_shard,
            "pid": reply.get("pid"),
            "after_batches": self._fault_due,
        }

    def _recovered(self, shards: List[dict]) -> bool:
        """The drilled shard must be alive again, re-forked (crash) or
        replaced (graceful), and the plane still serving its KPIs."""
        for shard in shards:
            if shard.get("shard") == self.fault["shard"]:
                restarted = (
                    shard.get("restarts", 0) >= 1
                    if self.fault["type"] == "kill"
                    else shard.get("pid") != self.fault.get("pid")
                )
                return bool(shard.get("alive")) and restarted
        return False


__all__ = ["HttpTarget", "TargetError"]
