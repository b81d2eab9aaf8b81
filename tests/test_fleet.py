"""repro.fleet: sharded scheduling, fault isolation, crash recovery.

The expensive part of a fleet test is bootstrapping services (a full
bank extraction per KPI), so one template service is bootstrapped once
per module and cloned into N per-KPI services through the public
checkpoint path (save_model + MonitoringService.snapshot) — which also
keeps the clone path itself under test.
"""

import json
import shutil

import numpy as np
import pytest

from repro.core import MonitoringService, load_model, save_model
from repro.fleet import (
    ACTIVE,
    DEGRADED,
    QUARANTINED,
    RECOVERED,
    BackpressureError,
    ConsistentHashRing,
    FleetManager,
    IngestQueue,
    Scheduler,
)
from repro.fleet.status import FleetStatus

from test_opprentice import fast_forest, small_bank


# ----------------------------------------------------------------------
# Scheduler units
# ----------------------------------------------------------------------
class TestConsistentHashRing:
    def test_assignment_is_stable_across_instances(self):
        ids = [f"kpi-{i:03d}" for i in range(64)]
        first = ConsistentHashRing(4)
        second = ConsistentHashRing(4)
        assert [first.shard_for(k) for k in ids] == [
            second.shard_for(k) for k in ids
        ]

    def test_assignment_spreads_over_shards(self):
        ids = [f"kpi-{i:03d}" for i in range(64)]
        ring = ConsistentHashRing(4)
        shards = {ring.shard_for(k) for k in ids}
        assert shards <= {0, 1, 2, 3}
        assert len(shards) >= 3  # 64 ids over 4 shards: no dead shards

    def test_resharding_moves_a_minority(self):
        ids = [f"kpi-{i:03d}" for i in range(64)]
        four = ConsistentHashRing(4)
        five = ConsistentHashRing(5)
        moved = sum(
            1 for k in ids if four.shard_for(k) != five.shard_for(k)
        )
        # Consistent hashing: adding a shard reassigns ~1/5 of the
        # keys, not almost all of them like `hash(k) % n` would.
        assert moved < len(ids) // 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(0)
        with pytest.raises(ValueError):
            ConsistentHashRing(2, replicas=0)


class TestIngestQueue:
    def test_drop_oldest_keeps_freshest_window(self):
        queue = IngestQueue(3, "drop-oldest")
        reasons = [queue.offer(v) for v in [1.0, 2.0, 3.0, 4.0, 5.0]]
        assert reasons == [None, None, None, "drop-oldest", "drop-oldest"]
        assert queue.drain() == [3.0, 4.0, 5.0]

    def test_drop_newest_rejects_the_offered_point(self):
        queue = IngestQueue(2, "drop-newest")
        assert queue.offer(1.0) is None
        assert queue.offer(2.0) is None
        assert queue.offer(3.0) == "drop-newest"
        assert queue.drain() == [1.0, 2.0]

    def test_block_raises(self):
        queue = IngestQueue(1, "block")
        queue.offer(1.0)
        with pytest.raises(BackpressureError, match="pump"):
            queue.offer(2.0)

    def test_requeue_front_preserves_order(self):
        queue = IngestQueue(8)
        for value in [1.0, 2.0, 3.0, 4.0]:
            queue.offer(value)
        batch = queue.drain(3)
        assert batch == [1.0, 2.0, 3.0]
        queue.requeue_front(batch[1:])
        assert queue.drain() == [2.0, 3.0, 4.0]

    def test_drain_limit(self):
        queue = IngestQueue(8)
        for value in [1.0, 2.0, 3.0]:
            queue.offer(value)
        assert queue.drain(2) == [1.0, 2.0]
        assert len(queue) == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="depth"):
            IngestQueue(0)
        with pytest.raises(ValueError, match="policy"):
            IngestQueue(4, "drop-random")


class TestScheduler:
    def test_register_routes_to_ring_shard(self):
        scheduler = Scheduler(n_shards=4)
        shard = scheduler.register("kpi-000")
        assert shard == scheduler.ring.shard_for("kpi-000")
        assert scheduler.shard_of("kpi-000") == shard
        assert "kpi-000" in scheduler.kpis_by_shard()[shard]

    def test_duplicate_registration_rejected(self):
        scheduler = Scheduler()
        scheduler.register("kpi-000")
        with pytest.raises(ValueError, match="already"):
            scheduler.register("kpi-000")

    def test_unregister(self):
        scheduler = Scheduler()
        shard = scheduler.register("kpi-000")
        scheduler.unregister("kpi-000")
        assert "kpi-000" not in scheduler.kpis_by_shard()[shard]
        scheduler.register("kpi-000")  # re-registration works


# ----------------------------------------------------------------------
# Fleet fixtures: one bootstrapped template, cloned per KPI.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fleet_kpi():
    """3 weeks of hourly KPI: 2 bootstrap + 1 live."""
    from repro.data import SeasonalProfile, generate_kpi, inject_anomalies

    generated = generate_kpi(
        weeks=3,
        interval=3600,
        profile=SeasonalProfile(base_level=100.0, daily_amplitude=0.5,
                                noise_scale=0.02, trend=0.0),
        seed=77,
        name="template",
    )
    result = inject_anomalies(
        generated.series, target_fraction=0.06, seed=78, mean_window=4.0
    )
    series = result.series
    split = 2 * series.points_per_week
    return series, result.windows, split


@pytest.fixture(scope="module")
def template(fleet_kpi, tmp_path_factory):
    """A bootstrapped service snapshot + model artifact to clone from."""
    series, _, split = fleet_kpi
    service = MonitoringService(
        configs=small_bank(series.points_per_week),
        classifier_factory=fast_forest,
        min_duration_points=2,
    )
    service.bootstrap(series.slice(0, split))
    model_path = tmp_path_factory.mktemp("fleet-template") / "model.json"
    save_model(service.opprentice, model_path)
    return {
        "snapshot": service.snapshot(),
        "model_path": model_path,
        "ppw": series.points_per_week,
    }


def service_factory(template):
    """A FleetManager service_factory cloning the template per KPI."""

    def build(kpi_id: str) -> MonitoringService:
        service = MonitoringService(
            configs=small_bank(template["ppw"]),
            classifier_factory=fast_forest,
            min_duration_points=2,
        )
        load_model(template["model_path"], opprentice=service.opprentice)
        return service

    return build


def clone_service(template, kpi_id: str) -> MonitoringService:
    service = service_factory(template)(kpi_id)
    snapshot = template["snapshot"]
    snapshot["kpi"] = kpi_id
    snapshot["history"]["name"] = kpi_id
    service.restore_snapshot(snapshot)
    return service


def build_fleet(template, kpi_ids, **kwargs) -> FleetManager:
    kwargs.setdefault("n_shards", 4)
    kwargs.setdefault("batch_points", 8)
    fleet = FleetManager(service_factory=service_factory(template), **kwargs)
    for kpi_id in kpi_ids:
        fleet.add_kpi(kpi_id, service=clone_service(template, kpi_id))
    return fleet


def events_by_kpi(events):
    grouped = {}
    for event in events:
        grouped.setdefault(event.kpi, []).append(event)
    return grouped


def always_boom(service):
    """Make every subsequent ingest on ``service`` raise."""

    def boom(value):
        raise RuntimeError("detector exploded")

    service._streaming.push = boom


def boom_n_times(service, n):
    """Make the next ``n`` ingests raise, then recover."""
    original = service._streaming.push
    remaining = {"n": n}

    def flaky(value):
        if remaining["n"] > 0:
            remaining["n"] -= 1
            raise RuntimeError("transient detector fault")
        return original(value)

    service._streaming.push = flaky


# ----------------------------------------------------------------------
# Registration contract
# ----------------------------------------------------------------------
class TestAddKpi:
    def test_invalid_ids_rejected(self, template):
        fleet = FleetManager()
        clone = clone_service(template, "ok")
        for bad in ["", ".hidden", "a/b", "a\\b", "..", "x" * 200]:
            with pytest.raises(ValueError, match="invalid KPI id"):
                fleet.add_kpi(bad, service=clone)

    def test_unbootstrapped_service_rejected(self, template):
        fleet = FleetManager()
        bare = MonitoringService(configs=small_bank(template["ppw"]))
        with pytest.raises(ValueError, match="bootstrapped"):
            fleet.add_kpi("kpi-000", service=bare)

    def test_kpi_mismatch_rejected(self, template):
        fleet = FleetManager()
        with pytest.raises(ValueError, match="attribution"):
            fleet.add_kpi("kpi-001", service=clone_service(template, "kpi-000"))

    def test_duplicate_rejected(self, template):
        fleet = build_fleet(template, ["kpi-000"])
        with pytest.raises(ValueError, match="already managed"):
            fleet.add_kpi("kpi-000", service=clone_service(template, "kpi-000"))

    def test_bootstrap_series_renamed_to_kpi_id(self, fleet_kpi, template):
        series, _, split = fleet_kpi
        fleet = FleetManager(service_factory=service_factory(template))
        service = fleet.add_kpi("renamed", bootstrap=series.slice(0, split))
        assert service.kpi == "renamed"


# ----------------------------------------------------------------------
# Backpressure is counted, never silent
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_drop_newest_counted(self, template):
        fleet = build_fleet(
            template, ["kpi-000"], queue_depth=4, queue_policy="drop-newest"
        )
        accepted = fleet.offer_many("kpi-000", [float(i) for i in range(10)])
        assert accepted == 4
        status = fleet.status().kpis[0]
        assert status.queue_depth == 4
        assert status.dropped == {"drop-newest": 6}
        assert fleet.status().total_dropped == 6

    def test_drop_oldest_counted_and_keeps_freshest(self, template):
        fleet = build_fleet(
            template, ["kpi-000"], queue_depth=4, queue_policy="drop-oldest"
        )
        fleet.offer_many("kpi-000", [float(i) for i in range(10)])
        assert fleet.status().kpis[0].dropped == {"drop-oldest": 6}
        assert fleet._scheduler.queue("kpi-000").drain() == [
            6.0, 7.0, 8.0, 9.0,
        ]

    def test_block_policy_propagates(self, template):
        fleet = build_fleet(
            template, ["kpi-000"], queue_depth=2, queue_policy="block"
        )
        fleet.offer_many("kpi-000", [1.0, 2.0])
        with pytest.raises(BackpressureError):
            fleet.offer("kpi-000", 3.0)


# ----------------------------------------------------------------------
# Fault isolation
# ----------------------------------------------------------------------
class TestFaultIsolation:
    N_KPIS = 64
    LIVE_POINTS = 24

    def _run_fleet(self, template, live_values, faulty=None):
        ids = [f"kpi-{i:03d}" for i in range(self.N_KPIS)]
        fleet = build_fleet(
            template,
            ids,
            backoff_base=1,
            backoff_cap=4,
            max_retries=2,
        )
        if faulty is not None:
            always_boom(fleet.service(faulty))
        events = []
        for value in live_values:
            for kpi_id in ids:
                fleet.offer(kpi_id, float(value))
            events.extend(fleet.pump())
        events.extend(fleet.drain_all())
        return fleet, events

    def test_one_faulty_kpi_leaves_63_bit_identical(
        self, fleet_kpi, template
    ):
        series, _, split = fleet_kpi
        live = series.values[split:split + self.LIVE_POINTS]
        faulty = "kpi-005"

        clean_fleet, clean_events = self._run_fleet(template, live)
        faulty_fleet, faulty_events = self._run_fleet(
            template, live, faulty=faulty
        )

        clean_by_kpi = events_by_kpi(clean_events)
        faulty_by_kpi = events_by_kpi(faulty_events)
        for kpi_id in clean_fleet.kpi_ids:
            if kpi_id == faulty:
                continue
            # Bit-identical alert streams: same events, same order,
            # same scores (AlertEvent equality covers every field).
            assert faulty_by_kpi.get(kpi_id) == clean_by_kpi.get(kpi_id)
            assert faulty_fleet.state(kpi_id) in (ACTIVE, RECOVERED)
            assert (
                faulty_fleet.service(kpi_id).stats.points_ingested
                == len(live)
            )

        # The faulty KPI went quarantined -> degraded, visibly.
        assert faulty_fleet.state(faulty) == DEGRADED
        status = {k.kpi_id: k for k in faulty_fleet.status().kpis}[faulty]
        assert status.retries == 3  # max_retries=2 exhausted on the 3rd
        assert status.quarantines == 3
        assert status.dropped.get("error") == 3
        assert "exploded" in status.last_error
        assert faulty_by_kpi.get(faulty) is None

        # Degraded KPIs drop at offer time, counted under "degraded"
        # (offers made after the degradation mid-run already counted).
        before = status.dropped.get("degraded", 0)
        assert before > 0
        assert not faulty_fleet.offer(faulty, 1.0)
        assert faulty_fleet.status().states[DEGRADED] == 1
        dropped = {k.kpi_id: k.dropped for k in faulty_fleet.status().kpis}
        assert dropped[faulty].get("degraded") == before + 1

    def test_fleet_matches_standalone_service(self, fleet_kpi, template):
        """A fleet-managed KPI's alert stream equals the same service
        run standalone — the fleet layer adds zero detection drift."""
        series, _, split = fleet_kpi
        live = series.values[split:split + self.LIVE_POINTS]

        standalone = clone_service(template, "kpi-000")
        expected = []
        for value in live:
            expected.extend(standalone.ingest(float(value)))

        fleet = build_fleet(template, ["kpi-000"])
        fleet.offer_many("kpi-000", [float(v) for v in live])
        actual = fleet.drain_all()
        assert actual == expected

    def test_quarantine_backoff_and_recovery(self, fleet_kpi, template):
        series, _, split = fleet_kpi
        live = [float(v) for v in series.values[split:split + 8]]
        fleet = build_fleet(
            template,
            ["kpi-000"],
            batch_points=4,
            backoff_base=1,
            backoff_cap=8,
            max_retries=5,
        )
        boom_n_times(fleet.service("kpi-000"), 2)
        fleet.offer_many("kpi-000", live)

        assert fleet.pump() == []  # failure 1: quarantined, backoff 1
        assert fleet.state("kpi-000") == QUARANTINED
        handle_status = fleet.status().kpis[0]
        assert handle_status.retries == 1
        assert handle_status.backoff_remaining == 1

        assert fleet.pump() == []  # backoff tick
        fleet.pump()               # failure 2: backoff 2
        assert fleet.status().kpis[0].backoff_remaining == 2

        fleet.drain_all()          # backoff expires, retry succeeds
        assert fleet.state("kpi-000") == RECOVERED
        status = fleet.status().kpis[0]
        assert status.retries == 0
        assert status.dropped.get("error") == 2
        assert status.points_ingested == len(live) - 2

    def test_revive_restores_degraded_kpi(self, fleet_kpi, template):
        series, _, split = fleet_kpi
        fleet = build_fleet(
            template, ["kpi-000"], backoff_base=1, backoff_cap=2,
            max_retries=0,
        )
        always_boom(fleet.service("kpi-000"))
        fleet.offer("kpi-000", 1.0)
        fleet.drain_all()
        assert fleet.state("kpi-000") == DEGRADED

        fleet.revive("kpi-000")
        assert fleet.state("kpi-000") == ACTIVE
        # Heal the detector (swap in a fresh clone): points flow again.
        service = clone_service(template, "kpi-000")
        fleet._kpis["kpi-000"].service = service
        fleet.offer("kpi-000", float(series.values[split]))
        fleet.pump()
        assert service.stats.points_ingested == 1


# ----------------------------------------------------------------------
# Staggered retraining
# ----------------------------------------------------------------------
class TestRetrain:
    def test_waves_and_results(self, fleet_kpi, template):
        series, _, split = fleet_kpi
        live = [float(v) for v in series.values[split:split + 12]]
        ids = ["kpi-000", "kpi-001", "kpi-002"]
        fleet = build_fleet(template, ids)
        for kpi_id in ids:
            fleet.offer_many(kpi_id, live)
        fleet.drain_all()

        results = fleet.retrain()
        assert sorted(results) == ids
        for kpi_id in ids:
            assert isinstance(results[kpi_id], float)
            assert fleet.service(kpi_id).stats.retrain_rounds == 1
            assert fleet.service(kpi_id).pending_points == 0

        # Nothing pending -> nothing retrained.
        assert fleet.retrain() == {}

    def test_retrain_failure_quarantines_only_that_kpi(
        self, fleet_kpi, template
    ):
        series, _, split = fleet_kpi
        live = [float(v) for v in series.values[split:split + 6]]
        ids = ["kpi-000", "kpi-001"]
        fleet = build_fleet(template, ids)
        for kpi_id in ids:
            fleet.offer_many(kpi_id, live)
        fleet.drain_all()

        def broken_retrain():
            raise RuntimeError("retrain exploded")

        fleet.service("kpi-001").retrain = broken_retrain
        results = fleet.retrain()
        assert isinstance(results["kpi-000"], float)
        assert results["kpi-001"] is None
        assert fleet.state("kpi-000") == ACTIVE
        assert fleet.state("kpi-001") == QUARANTINED


# ----------------------------------------------------------------------
# Crash recovery: save / restore mid-run
# ----------------------------------------------------------------------
class TestSaveRestore:
    def test_restore_resumes_bit_identical(
        self, fleet_kpi, template, tmp_path
    ):
        series, _, split = fleet_kpi
        live = [float(v) for v in series.values[split:]]
        ids = ["kpi-000", "kpi-001", "kpi-002"]

        def run_prefix():
            fleet = build_fleet(template, ids, queue_depth=512)
            for kpi_id in ids:
                fleet.offer_many(kpi_id, live[:24])
            fleet.drain_all()
            # Leave points *queued but unpumped* across the crash.
            for kpi_id in ids:
                fleet.offer_many(kpi_id, live[24:30])
            return fleet

        def run_suffix(fleet):
            events = list(fleet.drain_all())
            for kpi_id in ids:
                fleet.offer_many(kpi_id, live[30:60])
            events.extend(fleet.drain_all())
            fleet.retrain()
            for kpi_id in ids:
                fleet.offer_many(kpi_id, live[60:90])
            events.extend(fleet.drain_all())
            return events

        original = run_prefix()
        fleet_dir = tmp_path / "fleet"
        original.save(fleet_dir)
        expected = run_suffix(original)

        # The same checkpoint in the manifest shape of fleets that still
        # had thread-pool options: restore must ignore the two keys.
        legacy_dir = tmp_path / "legacy"
        shutil.copytree(fleet_dir, legacy_dir)
        manifest_path = legacy_dir / "fleet.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"].update(
            max_concurrent_retrains=2, dispatch_workers=1
        )
        manifest_path.write_text(json.dumps(manifest, indent=2))

        for directory in (fleet_dir, legacy_dir):
            restored = FleetManager.restore(
                directory, service_factory=service_factory(template)
            )
            assert sorted(restored.kpi_ids) == ids
            actual = run_suffix(restored)

            # The remaining alert stream reproduces exactly — including
            # events from the points that were still queued at crash
            # time and everything after the post-restore retrain.
            assert actual == expected
            for kpi_id in ids:
                assert (
                    restored.service(kpi_id).stats.as_dict()
                    == original.service(kpi_id).stats.as_dict()
                )
                assert (
                    restored.service(kpi_id).cthld
                    == original.service(kpi_id).cthld
                )

    def test_save_is_a_pure_observer(self, fleet_kpi, template, tmp_path):
        series, _, split = fleet_kpi
        fleet = build_fleet(template, ["kpi-000"])
        fleet.offer_many(
            "kpi-000", [float(v) for v in series.values[split:split + 5]]
        )
        before = fleet._scheduler.depth("kpi-000")
        fleet.save(tmp_path / "fleet")
        assert fleet._scheduler.depth("kpi-000") == before
        events = fleet.drain_all()
        assert fleet.service("kpi-000").stats.points_ingested == 5

    def test_quarantine_state_survives_restore(
        self, fleet_kpi, template, tmp_path
    ):
        fleet = build_fleet(
            template, ["kpi-000", "kpi-001"], backoff_base=4,
            backoff_cap=8, max_retries=5,
        )
        always_boom(fleet.service("kpi-000"))
        fleet.offer("kpi-000", 1.0)
        fleet.pump()
        assert fleet.state("kpi-000") == QUARANTINED
        fleet.save(tmp_path / "fleet")

        restored = FleetManager.restore(
            tmp_path / "fleet", service_factory=service_factory(template)
        )
        assert restored.state("kpi-000") == QUARANTINED
        status = {k.kpi_id: k for k in restored.status().kpis}["kpi-000"]
        assert status.retries == 1
        assert status.backoff_remaining == 4
        assert status.dropped.get("error") == 1
        assert restored.state("kpi-001") == ACTIVE

    def test_manifest_version_checked(self, fleet_kpi, template, tmp_path):
        fleet = build_fleet(template, ["kpi-000"])
        fleet.save(tmp_path / "fleet")
        manifest_path = tmp_path / "fleet" / "fleet.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 999
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unsupported fleet format"):
            FleetManager.restore(
                tmp_path / "fleet",
                service_factory=service_factory(template),
            )


# ----------------------------------------------------------------------
# Rollups
# ----------------------------------------------------------------------
class TestRollups:
    def test_status_snapshot(self, fleet_kpi, template):
        series, _, split = fleet_kpi
        fleet = build_fleet(template, ["kpi-000", "kpi-001"])
        fleet.offer_many(
            "kpi-000", [float(v) for v in series.values[split:split + 6]]
        )
        fleet.drain_all()
        status = fleet.status()
        assert status.n_kpis == 2
        assert status.states[ACTIVE] == 2
        assert status.total_points_ingested == 6
        as_dict = status.as_dict()
        assert {k["kpi_id"] for k in as_dict["kpis"]} == {
            "kpi-000", "kpi-001",
        }
        rendered = status.render()
        assert "kpi-000" in rendered and "active" in rendered

    def test_metrics_snapshot_tags_every_sample(self, fleet_kpi, template):
        series, _, split = fleet_kpi
        fleet = build_fleet(template, ["kpi-000", "kpi-001"])
        fleet.offer_many(
            "kpi-000", [float(v) for v in series.values[split:split + 4]]
        )
        fleet.drain_all()
        snapshot = fleet.metrics_snapshot()
        by_name = {m["name"]: m for m in snapshot["metrics"]}
        ingested = by_name["repro_points_ingested_total"]
        samples = {
            s["labels"]["kpi"]: s["value"] for s in ingested["samples"]
        }
        assert samples == {"kpi-000": 4, "kpi-001": 0}

    def test_diagnosed_counts_roll_up_with_kpi_and_kind(
        self, fleet_kpi, template, tmp_path
    ):
        """Satellite of the diagnosis subsystem: per-KPI diagnosis
        counts surface in FleetStatus (DIAG column, kind totals), in
        the kpi-labelled metrics rollup, and survive save/restore."""
        from repro.diagnosis import fit_diagnoser

        series, _, split = fleet_kpi
        fleet = build_fleet(template, ["kpi-000", "kpi-001"], n_shards=1)
        diagnoser = fit_diagnoser(
            seed=0, n_estimators=8, weeks=1.0, repeats=1
        )
        for service in (fleet.service("kpi-000"), fleet.service("kpi-001")):
            service.diagnoser = diagnoser
        # The 100–160 live window straddles injected anomalies.
        fleet.offer_many(
            "kpi-000",
            [float(v) for v in series.values[split + 100:split + 160]],
        )
        fleet.drain_all()

        status = fleet.status()
        by_id = {k.kpi_id: k for k in status.kpis}
        assert by_id["kpi-000"].diagnosed_total > 0
        assert by_id["kpi-001"].diagnosed == {}
        assert status.total_alerts_diagnosed == \
            by_id["kpi-000"].diagnosed_total
        assert status.diagnosed_kinds == by_id["kpi-000"].diagnosed
        assert " DIAG" in status.render()
        rebuilt = FleetStatus.from_dict(status.as_dict())
        assert rebuilt.as_dict() == status.as_dict()

        snapshot = fleet.metrics_snapshot()
        by_name = {m["name"]: m for m in snapshot["metrics"]}
        samples = {
            (s["labels"]["kpi"], s["labels"]["kind"]): s["value"]
            for s in by_name["repro_alerts_diagnosed_total"]["samples"]
        }
        assert samples == {
            ("kpi-000", kind): count
            for kind, count in by_id["kpi-000"].diagnosed.items()
        }

        fleet.save(tmp_path / "fleet")
        restored = FleetManager.restore(
            tmp_path / "fleet", service_factory=service_factory(template)
        )
        restored_status = {
            k.kpi_id: k for k in restored.status().kpis
        }
        assert restored_status["kpi-000"].diagnosed == \
            by_id["kpi-000"].diagnosed
        assert (
            restored.service("kpi-000").diagnoser.to_dict()
            == diagnoser.to_dict()
        )

    def test_fleet_metrics_reach_global_provider(self, fleet_kpi, template):
        from repro import obs

        series, _, split = fleet_kpi
        provider = obs.ObservabilityProvider()
        previous = obs.set_provider(provider)
        try:
            fleet = build_fleet(
                template, ["kpi-000"], queue_depth=2,
                queue_policy="drop-newest",
            )
            fleet.offer_many(
                "kpi-000",
                [float(v) for v in series.values[split:split + 5]],
            )
            fleet.pump()
            snapshot = provider.snapshot()
            names = {m["name"] for m in snapshot["metrics"]}
            assert "repro_fleet_kpis" in names
            assert "repro_fleet_queue_depth" in names
            assert "repro_fleet_dropped_points_total" in names
        finally:
            obs.set_provider(previous)


# ----------------------------------------------------------------------
# CLI smoke
# ----------------------------------------------------------------------
class TestCli:
    def test_run_status_replay_roundtrip(self, tmp_path, capsys):
        from repro.fleet.cli import main
        from repro.timeseries import TimeSeries
        from repro.timeseries.io import write_csv

        fleet_dir = tmp_path / "fleet"
        code = main([
            "run", "--kpis", "2", "--weeks", "3",
            "--bootstrap-weeks", "2", "--trees", "10",
            "--save", str(fleet_dir),
            "--obs-out", str(tmp_path / "obs.json"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "kpi-000" in out and "2 KPIs" in out
        assert (fleet_dir / "fleet.json").exists()
        assert (fleet_dir / "kpis" / "kpi-000" / "service.json").exists()
        assert (tmp_path / "obs.json").exists()

        assert main(["status", str(fleet_dir)]) == 0
        assert "kpi-001" in capsys.readouterr().out

        tail = TimeSeries(
            values=np.linspace(100.0, 130.0, 24), interval=3600
        )
        csv_path = tmp_path / "kpi-000.csv"
        write_csv(tail, csv_path)
        assert main([
            "replay", str(fleet_dir), str(csv_path), "--trees", "10",
        ]) == 0
        assert "alert events" in capsys.readouterr().out

    def test_replay_unknown_kpi_rejected(self, tmp_path, capsys):
        from repro.fleet.cli import main
        from repro.timeseries import TimeSeries
        from repro.timeseries.io import write_csv

        fleet_dir = tmp_path / "fleet"
        assert main([
            "run", "--kpis", "1", "--weeks", "3",
            "--bootstrap-weeks", "2", "--trees", "10",
            "--save", str(fleet_dir),
        ]) == 0
        capsys.readouterr()
        stray = tmp_path / "not-a-kpi.csv"
        write_csv(
            TimeSeries(values=np.ones(4) * 100.0, interval=3600), stray
        )
        assert main(["replay", str(fleet_dir), str(stray)]) == 2
        assert "not in this fleet" in capsys.readouterr().err
