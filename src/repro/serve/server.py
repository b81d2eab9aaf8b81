"""The networked ingest plane: HTTP/JSON in front of the shard fleet.

A deliberately small asyncio HTTP/1.1 server (stdlib only — the repo
bakes in no web framework) that fronts a
:class:`~repro.serve.supervisor.ShardSupervisor`:

* ``POST /ingest`` — one ``{"kpi": ..., "value": ...}`` point, routed
  to its shard, pumped, alert events in the reply. A point the shard's
  bounded queue rejected comes back as **429** with ``Retry-After`` —
  the fleet layer's backpressure made visible to the network client.
* ``POST /ingest/batch`` — newline-delimited JSON points, grouped per
  shard in arrival order and fanned out concurrently (shards are
  disjoint, so cross-shard concurrency cannot reorder any one KPI's
  stream). 429 when everything offered was rejected.
* ``GET /status`` — the shared :func:`~repro.fleet.status_document`
  (``source="serve"``) with the supervision table: the same schema
  ``repro-fleet run --json`` and ``repro-fleet status --json`` emit.
* ``GET /metrics`` — the cross-process rollup: every shard's snapshot
  (samples tagged ``shard=<i>``) combined with this process's own
  serve-plane metrics; ``?format=prom`` renders Prometheus text.
* ``POST /labels``, ``POST /retrain``, ``POST /checkpoint``,
  ``POST /shards/<i>/restart`` — the operator control plane, including
  graceful mid-stream shard restart (zero alert divergence).
* ``GET /healthz`` — liveness.

Serve-plane observability (this process; the shard-side taxonomy rides
in via the metrics rollup): ``repro_serve_requests_total{endpoint,
status}``, ``repro_serve_request_seconds{endpoint}`` and the
supervisor's restart counter/events.

Blocking supervisor requests run in a thread pool sized to the shard
count; per-shard locks serialize traffic to one shard while different
shards proceed in parallel.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..fleet.status import status_document
from ..obs import combine_snapshots, enable, get_provider, render_prometheus
from .supervisor import ShardError, ShardSupervisor

#: Upper bound on request bodies (matches the framing ceiling's intent:
#: a corrupt or hostile Content-Length must not allocate gigabytes).
MAX_BODY_BYTES = 64 * 1024 * 1024

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
}


class _HttpError(Exception):
    """Short-circuit a handler with a specific HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class IngestPlane:
    """The asyncio server; owns no fleet state, only the supervisor."""

    def __init__(
        self,
        supervisor: ShardSupervisor,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.supervisor = supervisor
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor = ThreadPoolExecutor(
            max_workers=max(4, supervisor.n_shards + 2),
            thread_name_prefix="repro-serve",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                keep_alive = await self._handle_one(reader, writer)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ConnectionError,
        ):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            pass  # server shutdown cancelled this connection mid-read
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                # Shutdown may cancel this task while it waits for the
                # close; letting that escape makes asyncio log it.
                pass

    async def _handle_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        request_line = await reader.readline()
        if not request_line or request_line in (b"\r\n", b"\n"):
            return False
        try:
            method, target, _version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            await self._respond(
                writer, 400, {"error": "malformed request line"},
                endpoint="<bad>", close=True,
            )
            return False
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            await self._respond(
                writer, 413,
                {"error": f"body of {length} bytes exceeds "
                          f"{MAX_BODY_BYTES}"},
                endpoint="<bad>", close=True,
            )
            return False
        body = await reader.readexactly(length) if length else b""
        keep_alive = headers.get("connection", "").lower() != "close"

        parts = urlsplit(target)
        path = parts.path
        query = parse_qs(parts.query)
        endpoint = self._endpoint_label(path)
        started = time.perf_counter()
        try:
            status, payload, raw = await self._dispatch(
                method, path, query, body
            )
        except _HttpError as error:
            status, payload, raw = error.status, {"error": error.message}, None
        except ShardError as error:
            status, payload, raw = 500, {"error": str(error)}, None
        except Exception as error:  # repro: disable=api-hygiene — request containment: a handler bug must answer this request with a 500, not tear down the listener mid-soak
            status, payload, raw = 500, {"error": repr(error)}, None
        provider = get_provider()
        provider.histogram(
            "repro_serve_request_seconds",
            "Ingest-plane request latency",
            endpoint=endpoint,
        ).observe(time.perf_counter() - started)
        provider.counter(
            "repro_serve_requests_total",
            "Ingest-plane requests served",
            endpoint=endpoint, status=str(status),
        ).inc()
        await self._respond(
            writer, status, payload, endpoint=endpoint,
            close=not keep_alive, raw=raw,
        )
        return keep_alive

    @staticmethod
    def _endpoint_label(path: str) -> str:
        """Collapse parameterized paths to bounded label values."""
        if path.startswith("/shards/"):
            return "/shards/restart"
        return path

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        *,
        endpoint: str,
        close: bool,
        raw: Optional[Tuple[str, bytes]] = None,
    ) -> None:
        if raw is not None:
            content_type, body = raw
        else:
            content_type = "application/json"
            body = (json.dumps(payload) + "\n").encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        if status == 429:
            head.append("Retry-After: 1")
        if close:
            head.append("Connection: close")
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
        )
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, query: dict, body: bytes
    ) -> Tuple[int, dict, Optional[Tuple[str, bytes]]]:
        if path == "/healthz":
            return 200, {"ok": True}, None
        if path == "/status":
            self._require(method, "GET")
            return 200, await self._status_document(), None
        if path == "/metrics":
            self._require(method, "GET")
            return await self._metrics(query)
        if path == "/ingest":
            self._require(method, "POST")
            return await self._ingest_single(body)
        if path == "/ingest/batch":
            self._require(method, "POST")
            return await self._ingest_batch(body)
        if path == "/labels":
            self._require(method, "POST")
            return await self._labels(body)
        if path == "/retrain":
            self._require(method, "POST")
            return await self._retrain(body)
        if path == "/checkpoint":
            self._require(method, "POST")
            paths = await self._call(self.supervisor.checkpoint_all)
            return 200, {"checkpoints": paths}, None
        if path.startswith("/shards/") and path.endswith("/restart"):
            self._require(method, "POST")
            return await self._restart_shard(path)
        raise _HttpError(404, f"no route for {path}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"use {expected}")

    async def _call(self, fn, *args):
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args
        )

    @staticmethod
    def _parse_json(body: bytes) -> dict:
        try:
            parsed = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _HttpError(400, f"body is not JSON: {error}") from error
        if not isinstance(parsed, dict):
            raise _HttpError(400, "body must be a JSON object")
        return parsed

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    async def _status_document(self) -> dict:
        merged, table = await self._call(self.supervisor.status)
        return status_document(merged, source="serve", shards=table)

    async def _metrics(self, query: dict):
        shard_rollup = await self._call(self.supervisor.metrics)
        snapshot = combine_snapshots(
            [get_provider().snapshot(), shard_rollup]
        )
        if query.get("format", [""])[0] == "prom":
            text = render_prometheus(snapshot)
            return 200, {}, ("text/plain; version=0.0.4", text.encode("utf-8"))
        return 200, snapshot, None

    def _point(self, record: dict) -> Tuple[str, float, int]:
        kpi = record.get("kpi")
        if not isinstance(kpi, str):
            raise _HttpError(400, "point needs a string 'kpi'")
        try:
            value = float(record["value"])
        except (KeyError, TypeError, ValueError) as error:
            raise _HttpError(
                400, f"point for {kpi!r} needs a numeric 'value'"
            ) from error
        shard = self.supervisor.shard_for(kpi)
        return kpi, value, -1 if shard is None else shard

    async def _ingest_single(self, body: bytes):
        kpi, value, shard = self._point(self._parse_json(body))
        if shard < 0:
            raise _HttpError(404, f"unknown KPI {kpi!r}")
        reply = await self._call(
            self.supervisor.offer_batch, shard, [(kpi, value)]
        )
        result = {
            "accepted": reply["accepted"],
            "rejected": reply["rejected"],
            "events": reply["events"],
        }
        if reply["accepted"] == 0:
            return 429, result, None
        return 200, result, None

    async def _ingest_batch(self, body: bytes):
        """NDJSON points, grouped per shard in arrival order, offered
        to all shards concurrently."""
        by_shard: Dict[int, List[Tuple[str, float]]] = {}
        unknown: List[str] = []
        for line_no, line in enumerate(body.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise _HttpError(
                    400, f"batch line {line_no} is not JSON: {error}"
                ) from error
            if not isinstance(record, dict):
                raise _HttpError(
                    400, f"batch line {line_no} must be a JSON object"
                )
            kpi, value, shard = self._point(record)
            if shard < 0:
                unknown.append(kpi)
                continue
            by_shard.setdefault(shard, []).append((kpi, value))
        if not by_shard and not unknown:
            raise _HttpError(400, "empty batch")
        replies = await asyncio.gather(
            *(
                self._call(self.supervisor.offer_batch, shard, points)
                for shard, points in by_shard.items()
            )
        )
        accepted = sum(reply["accepted"] for reply in replies)
        rejected = sum(reply["rejected"] for reply in replies)
        events: List[dict] = []
        for reply in replies:
            events.extend(reply["events"])
            unknown.extend(reply["unknown"])
        result = {
            "accepted": accepted,
            "rejected": rejected,
            "unknown": unknown,
            "events": events,
        }
        if accepted == 0 and rejected > 0:
            return 429, result, None
        if accepted == 0 and unknown:
            return 404, result, None
        return 200, result, None

    async def _labels(self, body: bytes):
        parsed = self._parse_json(body)
        kpi = parsed.get("kpi")
        if self.supervisor.shard_for(kpi) is None:
            raise _HttpError(404, f"unknown KPI {kpi!r}")
        windows = parsed.get("windows", [])
        reply = await self._call(
            lambda: self.supervisor.submit_labels(
                kpi, [tuple(window) for window in windows]
            )
        )
        return 200, {"submitted": reply["submitted"]}, None

    async def _retrain(self, body: bytes):
        parsed = self._parse_json(body) if body.strip() else {}
        kpis = parsed.get("kpis")
        if kpis is not None:
            missing = [
                kpi for kpi in kpis
                if self.supervisor.shard_for(kpi) is None
            ]
            if missing:
                raise _HttpError(404, f"unknown KPIs: {missing}")
        results = await self._call(self.supervisor.retrain, kpis)
        return 200, {"results": results}, None

    async def _restart_shard(self, path: str):
        fragment = path[len("/shards/"):-len("/restart")]
        try:
            index = int(fragment)
        except ValueError as error:
            raise _HttpError(
                400, f"bad shard index {fragment!r}"
            ) from error
        if not 0 <= index < self.supervisor.n_shards:
            raise _HttpError(404, f"no shard {index}")
        pid = await self._call(self.supervisor.restart_shard, index)
        return 200, {"shard": index, "pid": pid}, None


class ReproServer:
    """Synchronous wrapper: the plane on a background event loop.

    What the CLI and the tests use — ``start()`` returns once the port
    is bound, ``close()`` tears down the loop and (by default) the
    supervisor's shards.
    """

    def __init__(
        self,
        supervisor: ShardSupervisor,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        stop_supervisor: bool = True,
    ):
        self.plane = IngestPlane(supervisor, host=host, port=port)
        self.supervisor = supervisor
        self._stop_supervisor = stop_supervisor
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._started = threading.Event()
        self._shutdown: Optional[asyncio.Event] = None  # created in-loop

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self.plane.start())
        self._shutdown = asyncio.Event()
        self._started.set()
        try:
            self._loop.run_until_complete(self._main())
        finally:
            self._loop.close()

    async def _main(self) -> None:
        """Serve until :meth:`close` sets the shutdown event, then tear
        everything down *inside* the loop (no cross-thread races)."""
        serve_task = asyncio.ensure_future(self.plane.serve_forever())
        await self._shutdown.wait()
        serve_task.cancel()
        try:
            await serve_task
        except asyncio.CancelledError:
            pass
        await self.plane.stop()
        pending = [
            task for task in asyncio.all_tasks()
            if task is not asyncio.current_task()
        ]
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)

    def start(self) -> "ReproServer":
        # A serve plane without metrics cannot be SLO-gated; turn the
        # process-global provider on (idempotent — an already-enabled
        # provider is kept).
        enable()
        self.supervisor.start()
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("serve plane failed to bind within 30s")
        return self

    @property
    def port(self) -> int:
        return self.plane.port

    @property
    def url(self) -> str:
        return f"http://{self.plane.host}:{self.plane.port}"

    def close(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._shutdown.set)
            self._thread.join(timeout=30)
        if self._stop_supervisor:
            self.supervisor.stop()

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


__all__ = ["MAX_BODY_BYTES", "IngestPlane", "ReproServer"]
