"""repro.serve: protocol framing, shard supervision, the HTTP plane.

The expensive part is bootstrapping per-KPI services, so supervisor
tests reuse the bootstrapped template from ``test_fleet`` (one bank
extraction per module, cloned per KPI through the public checkpoint
path); child processes inherit the clone closures across the fork.

The crash drills here pin the ISSUE's durability contract end-to-end:
``kill -9`` a shard mid-ingest, the supervisor re-forks it from its
last atomic checkpoint, and with checkpoint cadence 1 every shard's
alert stream stays bit-identical to an undisturbed twin fleet.
"""

import json
import logging
import os
import signal
import socket
import struct
import subprocess
import sys
import time
import http.client
from pathlib import Path

import pytest

from repro.fleet import FleetManager
from repro.fleet.status import (
    STATUS_DOCUMENT_VERSION,
    FleetStatus,
    merge_statuses,
    status_document,
)
from repro.loadgen import ScenarioSpec, SoakConfig, SoakHarness
from repro.obs import ObservabilityProvider, set_provider
from repro.obs.slo import evaluate_slo, load_snapshot_series, parse_slo_spec
from repro.serve import (
    MAX_MESSAGE_BYTES,
    ConnectionClosed,
    ProtocolError,
    ReproServer,
    ShardError,
    ShardSupervisor,
    atomic_checkpoint,
    find_checkpoint,
    recv_message,
    send_message,
)
from repro.serve import cli as serve_cli
from repro.serve.shard import LIVE_DIR, OLD_DIR, ShardSpec, load_or_build

from test_fleet import (  # noqa: F401 — fleet_kpi/template are fixtures
    build_fleet,
    clone_service,
    fleet_kpi,
    service_factory,
    template,
)


@pytest.fixture(autouse=True)
def _fresh_provider():
    previous = set_provider(ObservabilityProvider())
    yield
    set_provider(previous)


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
@pytest.fixture()
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


class TestProtocol:
    def test_round_trip(self, pair):
        a, b = pair
        message = {"op": "ping", "values": [1, 2.5, "é"], "nested": {"x": None}}
        send_message(a, message)
        assert recv_message(b) == message

    def test_frames_stay_ordered(self, pair):
        a, b = pair
        for index in range(16):
            send_message(a, {"n": index})
        assert [recv_message(b)["n"] for _ in range(16)] == list(range(16))

    def test_peer_close_is_connection_closed(self, pair):
        a, b = pair
        a.close()
        with pytest.raises(ConnectionClosed):
            recv_message(b)

    def test_send_to_dead_peer_is_connection_closed(self, pair):
        a, b = pair
        b.close()
        with pytest.raises(ConnectionClosed):
            # AF_UNIX raises EPIPE promptly; allow a couple of sends
            # for the buffered first write.
            for _ in range(4):
                send_message(a, {"op": "ping"})

    def test_oversize_frame_rejected(self, pair):
        a, b = pair
        a.sendall(struct.pack(">I", MAX_MESSAGE_BYTES + 1))
        with pytest.raises(ProtocolError, match="exceeds"):
            recv_message(b)

    def test_non_object_frame_rejected(self, pair):
        a, b = pair
        payload = json.dumps([1, 2, 3]).encode("utf-8")
        a.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(ProtocolError):
            recv_message(b)

    def test_truncated_frame_is_connection_closed(self, pair):
        a, b = pair
        a.sendall(struct.pack(">I", 64) + b"{")
        a.close()
        with pytest.raises(ConnectionClosed):
            recv_message(b)


# ----------------------------------------------------------------------
# Checkpoint rotation
# ----------------------------------------------------------------------
class TestCheckpointRotation:
    def test_atomic_swap_and_mid_swap_fallback(self, template, tmp_path):
        fleet = build_fleet(template, ["kpi-000"], n_shards=1)
        root = tmp_path / "ckpt"
        live = atomic_checkpoint(fleet, root)
        assert live == root / LIVE_DIR
        assert find_checkpoint(root) == live
        # A second checkpoint rotates without leaving tmp/old litter.
        assert atomic_checkpoint(fleet, root) == live
        assert not (root / OLD_DIR).exists()
        # Simulate a kill between the swap's two renames: live is gone
        # but old still holds the previous complete generation.
        os.rename(live, root / OLD_DIR)
        assert find_checkpoint(root) == root / OLD_DIR
        restored = FleetManager.restore(
            find_checkpoint(root), service_factory=service_factory(template)
        )
        assert restored.kpi_ids == ["kpi-000"]

    def test_find_checkpoint_empty(self, tmp_path):
        assert find_checkpoint(tmp_path) is None

    def test_load_or_build_prefers_checkpoint_over_builder(
        self, template, tmp_path, fleet_kpi
    ):
        series, _, split = fleet_kpi
        root = tmp_path / "shard-0"
        spec = ShardSpec(
            index=0,
            checkpoint_dir=str(root),
            build_fleet=lambda: build_fleet(template, ["kpi-000"], n_shards=1),
            service_factory=service_factory(template),
        )
        first = load_or_build(spec)  # builds, writes the initial checkpoint
        assert find_checkpoint(root) is not None
        baseline = first.status().kpis[0].points_ingested
        # Mutate in memory only — the next load must ignore the builder
        # *and* this un-checkpointed progress.
        first.offer("kpi-000", float(series.values[split]))
        first.drain_all()
        second = load_or_build(spec)
        assert second.status().kpis[0].points_ingested == baseline


# ----------------------------------------------------------------------
# Shard supervision
# ----------------------------------------------------------------------
KPI_IDS = [f"kpi-{i:03d}" for i in range(6)]


def make_supervisor(template, workdir, kpi_ids=KPI_IDS, **kwargs):
    kwargs.setdefault("n_shards", 2)
    kwargs.setdefault("checkpoint_every_batches", 1)
    return ShardSupervisor(
        kpi_ids,
        lambda index, ids: build_fleet(template, ids, n_shards=1),
        workdir=str(workdir),
        service_factory=service_factory(template),
        **kwargs,
    )


def stream_batches(supervisor, values, disturb_at=None, disturb=None):
    """Offer each value to every KPI (one batch per shard per value),
    collecting alert-event streams per KPI. ``disturb`` runs before the
    batch at index ``disturb_at``."""
    events = {}
    for index, value in enumerate(values):
        if disturb_at is not None and index == disturb_at:
            disturb(supervisor)
        for shard, ids in supervisor.assignment.items():
            if not ids:
                continue
            reply = supervisor.offer_batch(
                shard, [(kpi_id, float(value)) for kpi_id in ids]
            )
            assert reply["accepted"] == len(ids)
            assert reply["unknown"] == []
            for event in reply["events"]:
                events.setdefault(event["kpi"], []).append(
                    (
                        event["kind"],
                        event["begin_index"],
                        event["end_index"],
                        event["peak_score"],
                        event.get("diagnosis"),
                    )
                )
    return events


def kpi_counters(supervisor):
    status, _ = supervisor.status()
    return {
        kpi.kpi_id: (kpi.points_ingested, kpi.alerts_opened, kpi.state)
        for kpi in status.kpis
    }


def sigkill_shard(index):
    def disturb(supervisor):
        pid = supervisor.shard_table()[index]["pid"]
        os.kill(pid, signal.SIGKILL)
        deadline = time.time() + 10
        while time.time() < deadline:
            if not supervisor.shard_table()[index]["alive"]:
                return
            time.sleep(0.05)
        raise AssertionError(f"shard {index} survived SIGKILL")

    return disturb


class TestShardSupervisor:
    def test_start_assignment_and_ping(self, template, tmp_path):
        with make_supervisor(template, tmp_path) as supervisor:
            assigned = [
                kpi
                for ids in supervisor.assignment.values()
                for kpi in ids
            ]
            assert sorted(assigned) == KPI_IDS
            table = supervisor.shard_table()
            assert [row["shard"] for row in table] == [0, 1]
            assert all(row["alive"] for row in table)
            assert all(row["restarts"] == 0 for row in table)
            for index in range(supervisor.n_shards):
                reply = supervisor.request(index, "ping")
                assert reply["pid"] == table[index]["pid"]
                assert sorted(reply["kpis"]) == sorted(
                    supervisor.assignment[index]
                )

    def test_both_shards_populated(self, template, tmp_path):
        # The drills below kill one shard and compare the other; the
        # ring must give each of the two processes real work.
        supervisor = make_supervisor(template, tmp_path)
        assert all(supervisor.assignment[i] for i in range(2))

    def test_status_retags_process_shard(self, template, tmp_path, fleet_kpi):
        series, _, split = fleet_kpi
        with make_supervisor(template, tmp_path) as supervisor:
            stream_batches(supervisor, series.values[split : split + 4])
            status, table = supervisor.status()
            assert status.n_kpis == len(KPI_IDS)
            for kpi in status.kpis:
                assert kpi.shard == supervisor.shard_for(kpi.kpi_id)
                assert kpi.points_ingested == 4
            assert len(table) == 2

    def test_metrics_rollup_tags_shard(self, template, tmp_path, fleet_kpi):
        series, _, split = fleet_kpi
        with make_supervisor(template, tmp_path) as supervisor:
            stream_batches(supervisor, series.values[split : split + 2])
            snapshot = supervisor.metrics()
            names = {metric["name"] for metric in snapshot["metrics"]}
            assert "repro_fleet_ingest_seconds" in names
            assert "repro_fleet_dropped_points_total" in names
            for metric in snapshot["metrics"]:
                for sample in metric["samples"]:
                    assert sample["labels"].get("shard") in {"0", "1"}

    def test_bad_requests_raise_shard_error(self, template, tmp_path):
        with make_supervisor(template, tmp_path) as supervisor:
            with pytest.raises(ShardError, match="unknown op"):
                supervisor.request(0, "launch_missiles")
            with pytest.raises(ShardError):
                supervisor.request(0, "submit_labels", kpi="nope", windows=[])
            # A failed request must not wedge the shard.
            assert supervisor.request(0, "ping")["ok"]

    def test_kill9_recovery_is_bit_identical(
        self, template, tmp_path, fleet_kpi
    ):
        """The tentpole drill: SIGKILL one shard mid-stream. The
        supervisor re-forks it from its checkpoint and — at cadence 1,
        where every acknowledged batch is durable — both the killed and
        the surviving shard end bit-identical to an undisturbed twin."""
        series, _, split = fleet_kpi
        # Offsets 100–160 of the live third straddle several injected
        # anomalies (alerts open around offsets 112–135), so the drill
        # compares *non-empty* alert streams across the kill.
        values = series.values[split + 100 : split + 160]
        victim = 0

        undisturbed = make_supervisor(template, tmp_path / "a")
        with undisturbed:
            base_events = stream_batches(undisturbed, values)
            base_counters = kpi_counters(undisturbed)

        disturbed = make_supervisor(template, tmp_path / "b")
        with disturbed:
            drill_events = stream_batches(
                disturbed, values, disturb_at=20, disturb=sigkill_shard(victim)
            )
            drill_counters = kpi_counters(disturbed)
            table = disturbed.shard_table()

        assert table[victim]["restarts"] == 1
        assert drill_counters == base_counters
        assert drill_events == base_events
        assert any(base_events.values()), (
            "drill window produced no alerts anywhere; the bit-identity "
            "assertion would be vacuous"
        )

    def test_graceful_restart_has_zero_divergence(
        self, template, tmp_path, fleet_kpi
    ):
        series, _, split = fleet_kpi
        values = series.values[split + 100 : split + 140]
        victim = 1

        undisturbed = make_supervisor(template, tmp_path / "a")
        with undisturbed:
            base_events = stream_batches(undisturbed, values)
            base_counters = kpi_counters(undisturbed)

        disturbed = make_supervisor(template, tmp_path / "b")
        with disturbed:
            old_pid = disturbed.shard_table()[victim]["pid"]

            def disturb(supervisor):
                assert supervisor.restart_shard(victim) != old_pid

            drill_events = stream_batches(
                disturbed, values, disturb_at=20, disturb=disturb
            )
            drill_counters = kpi_counters(disturbed)
            assert disturbed.shard_table()[victim]["restarts"] == 1

        assert drill_counters == base_counters
        assert drill_events == base_events
        assert any(base_events.values())

    def test_restart_emits_observability(self, template, tmp_path):
        provider = ObservabilityProvider()
        previous = set_provider(provider)
        try:
            with make_supervisor(template, tmp_path) as supervisor:
                supervisor.restart_shard(0)
                snapshot = provider.snapshot()
        finally:
            set_provider(previous)
        restarts = [
            sample
            for metric in snapshot["metrics"]
            if metric["name"] == "repro_serve_shard_restarts_total"
            for sample in metric["samples"]
        ]
        assert restarts and restarts[0]["labels"] == {
            "shard": "0",
            "reason": "graceful",
        }


# ----------------------------------------------------------------------
# Diagnosis over the networked path
# ----------------------------------------------------------------------
class TestNetworkedDiagnosis:
    def test_kind_sequence_matches_in_process_twin_across_kill9(
        self, template, tmp_path, fleet_kpi
    ):
        """With a diagnoser in every service checkpoint, alert events
        crossing the shard protocol carry the same diagnosis sequence
        an in-process twin produces — and a SIGKILL mid-stream does not
        change a single kind, because the fitted diagnoser rides the
        shard checkpoints through the re-fork."""
        import copy

        from repro.diagnosis import fit_diagnoser

        diagnoser = fit_diagnoser(
            seed=0, n_estimators=8, weeks=1.0, repeats=1
        )
        snapshot = copy.deepcopy(template["snapshot"])
        snapshot["diagnoser"] = diagnoser.to_dict()
        diagnosing = {**template, "snapshot": snapshot}

        series, _, split = fleet_kpi
        # Same live window as the kill drill: it straddles injected
        # anomalies, so closed (diagnosed) alerts are guaranteed.
        values = series.values[split + 100 : split + 160]
        kpi_ids = KPI_IDS[:3]

        supervisor = make_supervisor(diagnosing, tmp_path, kpi_ids=kpi_ids)
        with supervisor:
            networked = stream_batches(
                supervisor, values, disturb_at=20, disturb=sigkill_shard(0)
            )
            assert supervisor.shard_table()[0]["restarts"] == 1

        twins = {}
        for kpi_id in kpi_ids:
            service = clone_service(diagnosing, kpi_id)
            assert service.diagnoser is not None
            collected = []
            for value in values:
                collected.extend(service.ingest(float(value)))
            twins[kpi_id] = [
                (e.kind, e.begin_index, e.end_index, e.peak_score,
                 e.diagnosis)
                for e in collected
            ]

        for kpi_id in kpi_ids:
            assert networked.get(kpi_id, []) == twins[kpi_id]
        closed_kinds = [
            event[4]
            for sequence in twins.values()
            for event in sequence
            if event[0] == "closed"
        ]
        assert closed_kinds, "drill window closed no alerts"
        assert None not in closed_kinds
        assert set(closed_kinds) <= {
            "spike", "dip", "ramp", "jitter", "level_shift"
        }


# ----------------------------------------------------------------------
# Status serializers (shared by repro-fleet --json and GET /status)
# ----------------------------------------------------------------------
class TestStatusSerializers:
    def test_from_dict_round_trips(self, template, fleet_kpi):
        series, _, split = fleet_kpi
        fleet = build_fleet(template, ["kpi-000", "kpi-001"], n_shards=1)
        fleet.offer("kpi-000", float(series.values[split]))
        fleet.drain_all()
        status = fleet.status()
        rebuilt = FleetStatus.from_dict(status.as_dict())
        assert rebuilt.as_dict() == status.as_dict()

    def test_merge_statuses_concatenates(self, template):
        first = build_fleet(template, ["kpi-000"], n_shards=1).status()
        second = build_fleet(template, ["kpi-001"], n_shards=1).status()
        merged = merge_statuses([first, second])
        assert merged.n_kpis == 2
        assert {kpi.kpi_id for kpi in merged.kpis} == {"kpi-000", "kpi-001"}

    def test_status_document_envelope(self, template):
        status = build_fleet(template, ["kpi-000"], n_shards=1).status()
        document = status_document(status, source="serve", shards=[{"shard": 0}])
        assert document["version"] == STATUS_DOCUMENT_VERSION
        assert document["source"] == "serve"
        assert document["shards"] == [{"shard": 0}]
        json.dumps(document)  # must be JSON-serializable as-is


# ----------------------------------------------------------------------
# HTTP ingest plane
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def server(template, tmp_path_factory):
    previous = set_provider(ObservabilityProvider())
    supervisor = make_supervisor(
        template, tmp_path_factory.mktemp("serve-http")
    )
    try:
        with ReproServer(supervisor) as running:
            yield running
    finally:
        set_provider(previous)


def http_request(server, method, path, body=None, headers=None):
    connection = http.client.HTTPConnection(
        "127.0.0.1", server.port, timeout=60
    )
    try:
        data = None
        if body is not None:
            data = body if isinstance(body, bytes) else json.dumps(body).encode()
        connection.request(method, path, body=data, headers=headers or {})
        response = connection.getresponse()
        raw = response.read()
    finally:
        connection.close()
    try:
        payload = json.loads(raw) if raw else None
    except json.JSONDecodeError:
        payload = raw.decode("utf-8", "replace")
    return response.status, dict(response.getheaders()), payload


class TestHttpPlane:
    def test_healthz(self, server):
        status, _, payload = http_request(server, "GET", "/healthz")
        assert status == 200
        assert payload["ok"] is True

    def test_ingest_single_point(self, server):
        status, _, payload = http_request(
            server, "POST", "/ingest", {"kpi": "kpi-000", "value": 101.5}
        )
        assert status == 200
        assert payload["accepted"] == 1
        assert payload["rejected"] == 0

    def test_ingest_unknown_kpi_404(self, server):
        status, _, _ = http_request(
            server, "POST", "/ingest", {"kpi": "nope", "value": 1.0}
        )
        assert status == 404

    def test_ingest_batch_ndjson(self, server):
        lines = [
            json.dumps({"kpi": kpi_id, "value": 100.0 + index})
            for index, kpi_id in enumerate(KPI_IDS)
        ]
        lines.append(json.dumps({"kpi": "ghost", "value": 1.0}))
        status, _, payload = http_request(
            server, "POST", "/ingest/batch", "\n".join(lines).encode()
        )
        assert status == 200
        assert payload["accepted"] == len(KPI_IDS)
        assert payload["unknown"] == ["ghost"]

    def test_batch_rejects_malformed_lines(self, server):
        status, _, payload = http_request(
            server, "POST", "/ingest/batch", b'{"kpi": "kpi-000"\nnot json'
        )
        assert status == 400
        assert "line 1" in payload["error"]

    def test_status_document(self, server):
        status, _, payload = http_request(server, "GET", "/status")
        assert status == 200
        assert payload["version"] == STATUS_DOCUMENT_VERSION
        assert payload["source"] == "serve"
        assert len(payload["shards"]) == 2
        assert payload["fleet"]["n_kpis"] == len(KPI_IDS)
        shard_by_kpi = {
            kpi["kpi_id"]: kpi["shard"] for kpi in payload["fleet"]["kpis"]
        }
        for kpi_id in KPI_IDS:
            assert shard_by_kpi[kpi_id] == server.supervisor.shard_for(kpi_id)

    def test_metrics_json_and_prometheus(self, server):
        # Serve-plane counters live in this test's (fresh) provider and
        # are recorded before each response is written, so one settled
        # request guarantees they exist for the snapshot below.
        http_request(server, "GET", "/healthz")
        status, _, payload = http_request(server, "GET", "/metrics")
        assert status == 200
        names = {metric["name"] for metric in payload["metrics"]}
        assert "repro_serve_requests_total" in names
        assert "repro_fleet_ingest_seconds" in names
        status, headers, text = http_request(
            server, "GET", "/metrics?format=prom"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "# HELP repro_serve_request_seconds" in text

    def test_labels_and_targeted_retrain(self, server):
        # /retrain skips a KPI with nothing ingested since its last
        # round, so the test feeds kpi-001 its own points first.
        lines = [
            json.dumps({"kpi": "kpi-001", "value": 100.0 + index})
            for index in range(3)
        ]
        status, _, payload = http_request(
            server, "POST", "/ingest/batch", "\n".join(lines).encode()
        )
        assert status == 200
        assert payload["accepted"] == 3
        status, _, payload = http_request(
            server, "POST", "/labels",
            # The second window lies beyond what the KPI has ingested:
            # the operator cannot label the future, so it is clipped.
            {"kpi": "kpi-001", "windows": [[10, 14], [10**9, 10**9 + 4]]},
        )
        assert status == 200
        assert payload["submitted"] == 1
        status, _, payload = http_request(
            server, "POST", "/retrain", {"kpis": ["kpi-001"]}
        )
        assert status == 200
        assert set(payload["results"]) == {"kpi-001"}

    def test_labels_unknown_kpi_404(self, server):
        status, _, _ = http_request(
            server, "POST", "/labels", {"kpi": "ghost", "windows": [[0, 1]]}
        )
        assert status == 404

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/labels", {"kpi": ["x"], "windows": [[0, 1]]}),
            ("/labels", {"kpi": "kpi-001", "windows": [[5, 2]]}),
            ("/retrain", {"kpis": 5}),
            ("/retrain", {"kpis": "abc"}),
        ],
    )
    def test_malformed_control_bodies_400(self, server, path, body):
        """Shape errors are the client's: a 400, not a shard failure
        (500) or a lookup of each character as a KPI (404)."""
        status, _, payload = http_request(server, "POST", path, body)
        assert status == 400, payload

    def test_checkpoint_endpoint(self, server):
        status, _, payload = http_request(server, "POST", "/checkpoint", {})
        assert status == 200
        assert len(payload["checkpoints"]) == 2
        for path in payload["checkpoints"]:
            assert Path(path).name == LIVE_DIR

    def test_graceful_shard_restart_endpoint(self, server):
        before = server.supervisor.shard_table()[1]["pid"]
        status, _, payload = http_request(
            server, "POST", "/shards/1/restart", {}
        )
        assert status == 200
        assert payload["pid"] != before
        status, _, payload = http_request(server, "GET", "/status")
        assert payload["shards"][1]["restarts"] >= 1
        # The restarted shard still serves its KPIs.
        kpi_id = server.supervisor.assignment[1][0]
        status, _, payload = http_request(
            server, "POST", "/ingest", {"kpi": kpi_id, "value": 100.0}
        )
        assert status == 200 and payload["accepted"] == 1

    def test_unroutable_paths_and_methods(self, server):
        assert http_request(server, "GET", "/nope")[0] == 404
        assert http_request(server, "GET", "/ingest")[0] == 405
        assert http_request(server, "POST", "/ingest", b"not json")[0] == 400


class TestInfiniteValues:
    def test_infinite_value_is_a_counted_400_and_changes_nothing(
        self, template, tmp_path, fleet_kpi
    ):
        """±inf is no measurement (NaN is the §6 missing point): both
        ingest endpoints answer it with a counted 400 before any shard
        sees it, so the KPI's alerts stay those of an undisturbed twin."""
        series, _, split = fleet_kpi
        values = series.values[split + 100 : split + 160]
        infinite = [
            ("/ingest", b'{"kpi": "kpi-000", "value": 1e999}'),
            ("/ingest", b'{"kpi": "kpi-000", "value": -Infinity}'),
            ("/ingest/batch", b'{"kpi": "kpi-000", "value": Infinity}\n'),
        ]
        provider = ObservabilityProvider()
        previous = set_provider(provider)
        networked = []
        try:
            supervisor = make_supervisor(
                template, tmp_path, kpi_ids=["kpi-000"], n_shards=1
            )
            with ReproServer(supervisor) as server:
                for index, value in enumerate(values):
                    if index == 20:
                        for path, body in infinite:
                            status, _, payload = http_request(
                                server, "POST", path, body
                            )
                            assert status == 400, payload
                            assert "infinite" in payload["error"]
                    status, _, payload = http_request(
                        server, "POST", "/ingest",
                        {"kpi": "kpi-000", "value": float(value)},
                    )
                    assert status == 200, payload
                    networked.extend(
                        (event["kind"], event["begin_index"],
                         event["end_index"], event["peak_score"])
                        for event in payload["events"]
                    )
        finally:
            set_provider(previous)
        for endpoint, rejected in (("/ingest", 2), ("/ingest/batch", 1)):
            counted = provider.counter(
                "repro_serve_requests_total", endpoint=endpoint, status="400"
            )
            assert counted.value == rejected

        twin = clone_service(template, "kpi-000")
        expected = []
        for value in values:
            expected.extend(
                (event.kind, event.begin_index, event.end_index,
                 event.peak_score)
                for event in twin.ingest(float(value))
            )
        assert expected, "the window raised no alerts"
        assert networked == expected


class _SaturatedSupervisor:
    """A supervisor double whose shards reject everything — drives the
    plane's 429 mapping without needing a real overloaded fleet."""

    n_shards = 1

    def start(self):
        pass

    def stop(self, **kwargs):
        pass

    def shard_for(self, kpi_id):
        return 0

    def offer_batch(self, index, points):
        return {
            "accepted": 0,
            "rejected": len(points),
            "unknown": [],
            "events": [],
        }

    def shard_table(self):
        return [{"shard": 0, "pid": 0, "alive": True, "restarts": 0, "kpis": 1}]


class TestBackpressure:
    def test_saturated_ingest_maps_to_429(self):
        with ReproServer(_SaturatedSupervisor()) as server:
            status, headers, payload = http_request(
                server, "POST", "/ingest", {"kpi": "kpi-000", "value": 1.0}
            )
            assert status == 429
            assert headers["Retry-After"] == "1"
            assert payload["rejected"] == 1
            status, _, _ = http_request(
                server,
                "POST",
                "/ingest/batch",
                json.dumps({"kpi": "kpi-000", "value": 1.0}).encode(),
            )
            assert status == 429


def raw_exchange(server, request: bytes) -> bytes:
    """Send raw request bytes; read everything until the server closes."""
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestMalformedRequests:
    @pytest.mark.parametrize("declared", [b"abc", b"-5"])
    def test_bad_content_length_is_a_counted_400(self, declared, caplog):
        caplog.set_level(logging.WARNING, logger="asyncio")
        provider = ObservabilityProvider()
        previous = set_provider(provider)
        try:
            with ReproServer(_SaturatedSupervisor()) as server:
                reply = raw_exchange(
                    server,
                    b"POST /ingest HTTP/1.1\r\nContent-Length: "
                    + declared + b"\r\n\r\n",
                )
        finally:
            set_provider(previous)
        head = reply.partition(b"\r\n\r\n")[0].decode("latin-1")
        assert head.startswith("HTTP/1.1 400 ")
        assert "Connection: close" in head.split("\r\n")
        counted = provider.counter(
            "repro_serve_requests_total", endpoint="<bad>", status="400"
        )
        assert counted.value == 1
        assert [
            record.getMessage() for record in caplog.records
            if record.name == "asyncio"
        ] == []

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/labels", {"kpi": ["x"], "windows": [[0, 1]]}),
            ("/labels", {"kpi": None, "windows": [[0, 1]]}),
            ("/labels", {"kpi": "kpi-000", "windows": 5}),
            ("/labels", {"kpi": "kpi-000", "windows": [[0, 1, 2]]}),
            ("/labels", {"kpi": "kpi-000", "windows": [[3, 3]]}),
            ("/labels", {"kpi": "kpi-000", "windows": [[-1, 2]]}),
            ("/labels", {"kpi": "kpi-000", "windows": [["0", 1]]}),
            ("/labels", {"kpi": "kpi-000", "windows": [[0.5, 1]]}),
            ("/labels", {"kpi": "kpi-000", "windows": [[True, 2]]}),
            ("/labels", {"kpi": "kpi-000", "windows": [{"begin": 0}]}),
            ("/retrain", {"kpis": 5}),
            ("/retrain", {"kpis": "abc"}),
            ("/retrain", {"kpis": [["x"]]}),
        ],
    )
    def test_malformed_control_bodies_400(self, path, body):
        """The plane rejects the shape before any shard sees it (the
        double has no label or retrain ops to fall back on)."""
        with ReproServer(_SaturatedSupervisor()) as server:
            status, _, payload = http_request(server, "POST", path, body)
        assert status == 400, payload


class TestShutdown:
    def test_stop_with_open_keep_alive_connections_logs_nothing(
        self, caplog
    ):
        """A handler cancelled by shutdown while it waits for its
        connection to close must not surface as an asyncio error log.
        The race is timing-dependent (one client hangs up just before
        the stop), so the stop is repeated."""
        caplog.set_level(logging.WARNING, logger="asyncio")
        for _ in range(12):
            server = ReproServer(_SaturatedSupervisor()).start()
            connections = []
            for _ in range(3):
                connection = http.client.HTTPConnection(
                    "127.0.0.1", server.port, timeout=10
                )
                connection.request("GET", "/healthz")
                connection.getresponse().read()
                connections.append(connection)
            connections[0].close()
            server.close()
            for connection in connections:
                connection.close()
        assert [
            record.getMessage() for record in caplog.records
            if record.name == "asyncio"
        ] == []


# ----------------------------------------------------------------------
# repro-serve CLI composition
# ----------------------------------------------------------------------
class TestServeCli:
    def test_fleet_restore_mode(self, template, tmp_path):
        fleet = build_fleet(template, KPI_IDS[:4], n_shards=1)
        fleet_dir = tmp_path / "fleet"
        fleet.save(fleet_dir)
        args = serve_cli.build_parser().parse_args(
            [
                "--fleet", str(fleet_dir),
                "--interval", "3600",
                "--shards", "2",
                "--workdir", str(tmp_path / "serve"),
            ]
        )
        supervisor = serve_cli.build_supervisor(args)
        with supervisor:
            status, _ = supervisor.status()
            assert status.n_kpis == 4
            assert {kpi.kpi_id for kpi in status.kpis} == set(KPI_IDS[:4])

    def test_missing_fleet_dir_is_value_error(self, tmp_path):
        args = serve_cli.build_parser().parse_args(
            ["--fleet", str(tmp_path / "ghost"), "--workdir", str(tmp_path)]
        )
        with pytest.raises(ValueError, match="fleet.json"):
            serve_cli.build_supervisor(args)


# ----------------------------------------------------------------------
# Networked replay end-to-end (mini soak + fault drill + SLO wiring)
# ----------------------------------------------------------------------
SCENARIO = ScenarioSpec(
    n_kpis=3, weeks=0.1, bootstrap_weeks=1.0, profiles=("SRT",)
)


def scenario_server(workdir):
    args = serve_cli.build_parser().parse_args(
        [
            "--workdir", str(workdir),
            "--shards", "2",
            "--kpis", str(SCENARIO.n_kpis),
            "--weeks", str(SCENARIO.weeks),
            "--bootstrap-weeks", str(SCENARIO.bootstrap_weeks),
            "--profiles", *SCENARIO.profiles,
            "--trees", "5",
            "--checkpoint-every-batches", "1",
        ]
    )
    return ReproServer(serve_cli.build_supervisor(args))


def run_replay(workdir, **overrides):
    with scenario_server(workdir) as server:
        config = SoakConfig(
            target=server.url,
            n_kpis=SCENARIO.n_kpis,
            weeks=SCENARIO.weeks,
            bootstrap_weeks=SCENARIO.bootstrap_weeks,
            profiles=SCENARIO.profiles,
            checkpoint_every=3600.0,
            retrain_every=8 * 3600.0,
            **overrides,
        )
        return SoakHarness(config).run()


@pytest.fixture(scope="module")
def replay_docs(tmp_path_factory):
    """One undisturbed networked replay and one with a kill -9 drill,
    over identical deterministic scenarios (module-scoped: each run
    bootstraps real sub-fleets in forked shards)."""
    previous = set_provider(ObservabilityProvider())
    try:
        baseline = run_replay(tmp_path_factory.mktemp("replay-base"))
        set_provider(ObservabilityProvider())  # fresh client counters
        disturbed = run_replay(
            tmp_path_factory.mktemp("replay-kill"),
            kill_shard=0,
            kill_after_batches=5,
        )
    finally:
        set_provider(previous)
    return baseline, disturbed


class TestNetworkedReplay:
    def test_full_span_streams_and_recovers(self, replay_docs):
        baseline, disturbed = replay_docs
        for result in (baseline, disturbed):
            assert result.completed
            assert result.points_offered > 0
            assert result.accepted == result.points_offered
            assert result.rejected == 0
        assert baseline.recovered is None  # no drill requested
        assert disturbed.recovered is True
        fault = disturbed.document["fault"]
        assert fault["type"] == "kill" and fault["shard"] == 0
        assert any(
            row["restarts"] >= 1 for row in disturbed.document["shards"]
        )

    def test_document_feeds_the_slo_engine(self, replay_docs, tmp_path):
        baseline, _ = replay_docs
        path = tmp_path / "replay.json"
        path.write_text(json.dumps(baseline.document))
        series = load_snapshot_series(path)
        assert len(series) == len(baseline.document["checkpoints"])
        spec = parse_slo_spec(
            {
                "name": "ingest-p99",
                "objective": "p99_latency",
                "metric": "repro_fleet_ingest_seconds",
                "target": 60.0,  # absurdly lax: asserts wiring, not speed
                "windows": ["1h", "5h"],
            }
        )
        evaluated = evaluate_slo(spec, series)
        assert not evaluated.violated
        assert all(w.burn_rate is not None for w in evaluated.windows)

    def test_checkpoints_merge_client_and_server_metrics(self, replay_docs):
        baseline, _ = replay_docs
        last = baseline.document["checkpoints"][-1]["snapshot"]
        names = {metric["name"] for metric in last["metrics"]}
        # Client-side offered counter and server-side fleet rollup land
        # in the same SLO-gateable snapshot.
        assert "repro_loadgen_points_offered_total" in names
        assert "repro_fleet_ingest_seconds" in names
        assert "repro_fleet_dropped_points_total" in names

    def test_soak_alerts_diff_accepts_surviving_shards(
        self, replay_docs, tmp_path
    ):
        baseline, disturbed = replay_docs
        base_path = tmp_path / "base.json"
        dist_path = tmp_path / "dist.json"
        base_path.write_text(json.dumps(baseline.document))
        dist_path.write_text(json.dumps(disturbed.document))
        tool = Path(__file__).resolve().parents[1] / "tools" / "soak_alerts_diff.py"
        run = subprocess.run(
            [sys.executable, str(tool), str(base_path), str(dist_path)],
            capture_output=True,
            text=True,
        )
        assert run.returncode == 0, run.stdout + run.stderr
        assert "no forbidden divergence" in run.stdout

    def test_soak_alerts_diff_flags_surviving_divergence(
        self, replay_docs, tmp_path
    ):
        baseline, disturbed = replay_docs
        doctored = json.loads(json.dumps(disturbed.document))
        drilled = doctored["fault"]["shard"]
        surviving = [
            kpi["kpi_id"]
            for kpi in doctored["fleet"]["kpis"]
            if kpi["shard"] != drilled
        ]
        assert surviving, "scenario left a shard empty; widen n_kpis"
        doctored["alerts"][surviving[0]] = [
            {"kind": "alert_open", "begin_index": 1, "end_index": 2,
             "peak_score": 9.9}
        ]
        base_path = tmp_path / "base.json"
        dist_path = tmp_path / "dist.json"
        base_path.write_text(json.dumps(baseline.document))
        dist_path.write_text(json.dumps(doctored))
        tool = Path(__file__).resolve().parents[1] / "tools" / "soak_alerts_diff.py"
        run = subprocess.run(
            [sys.executable, str(tool), str(base_path), str(dist_path)],
            capture_output=True,
            text=True,
        )
        assert run.returncode == 1
        assert "SURVIVING-shard divergence" in run.stderr

    def test_soak_alerts_diff_rejects_mismatched_scenarios(
        self, replay_docs, tmp_path
    ):
        baseline, disturbed = replay_docs
        doctored = json.loads(json.dumps(disturbed.document))
        doctored["config"]["n_kpis"] = 99
        base_path = tmp_path / "base.json"
        dist_path = tmp_path / "dist.json"
        base_path.write_text(json.dumps(baseline.document))
        dist_path.write_text(json.dumps(doctored))
        tool = Path(__file__).resolve().parents[1] / "tools" / "soak_alerts_diff.py"
        run = subprocess.run(
            [sys.executable, str(tool), str(base_path), str(dist_path)],
            capture_output=True,
            text=True,
        )
        assert run.returncode == 2
