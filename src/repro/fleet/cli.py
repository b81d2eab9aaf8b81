"""The ``repro-fleet`` command: drive a multi-KPI fleet from a shell.

Three subcommands::

    repro-fleet run --kpis 8 --weeks 4 --bootstrap-weeks 2 --save fleet/
        # generate N synthetic KPIs, bootstrap each, stream the rest
        # through the fleet (pump + periodic retrains), print the
        # rollup table, optionally checkpoint the fleet directory

    repro-fleet run --csv pv.csv --csv srt.csv ...
        # the same loop over labelled CSVs (the file stem is the KPI id)

    repro-fleet status fleet/
        # summarize a saved fleet directory without loading the models

    repro-fleet replay fleet/ new_pv.csv ...
        # restore a fleet mid-run and stream new CSV points through it

``--obs-out`` writes the fleet's merged per-KPI metrics snapshot (every
sample tagged ``kpi=<id>``) as a JSON document the ``repro-obs`` CLI
can diff/render; the process-global provider additionally honours
``REPRO_OBS=1`` like every other entry point.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from ..core import MonitoringService
from ..ml import RandomForest
from ..obs import enable_from_env, write_snapshot
from ..timeseries import TimeSeries
from ..timeseries.io import read_csv
from .banks import small_bank
from .manager import FleetManager
from .status import DEGRADED, FleetStatus, status_document


def _service_factory(args, points_per_week: int):
    diagnoser = None
    if getattr(args, "diagnose", False):
        from ..diagnosis import default_diagnoser

        diagnoser = default_diagnoser()

    def build(kpi_id: str) -> MonitoringService:
        configs = (
            None if args.bank == "full" else small_bank(points_per_week)
        )
        return MonitoringService(
            configs=configs,
            classifier_factory=lambda: RandomForest(
                n_estimators=args.trees, seed=0
            ),
            min_duration_points=args.min_duration,
            diagnoser=diagnoser,
        )

    return build


def _build_fleet(args, points_per_week: int) -> FleetManager:
    return FleetManager(
        n_shards=args.shards,
        queue_depth=args.queue_depth,
        queue_policy=args.queue_policy,
        batch_points=args.batch_points,
        service_factory=_service_factory(args, points_per_week),
    )


def _generated_scenario(args) -> List[TimeSeries]:
    """``--kpis N``: N labelled synthetic KPIs with varied profiles."""
    from ..data import SeasonalProfile, generate_kpi, inject_anomalies

    series = []
    for index in range(args.kpis):
        generated = generate_kpi(
            weeks=args.weeks,
            interval=args.interval,
            profile=SeasonalProfile(
                base_level=100.0 * (1 + index % 5),
                daily_amplitude=0.4 + 0.05 * (index % 4),
                noise_scale=0.02,
                trend=0.0,
            ),
            seed=args.seed + index,
            name=f"kpi-{index:03d}",
        )
        injected = inject_anomalies(
            generated.series,
            target_fraction=args.anomaly_fraction,
            seed=args.seed + index,
        )
        series.append(injected.series)
    return series


def _csv_scenario(paths: List[str], interval: Optional[int]) -> List[TimeSeries]:
    series = []
    for path in paths:
        stem = Path(path).stem
        series.append(read_csv(path, interval=interval, name=stem))
    return series


def _stream(fleet: FleetManager, live: dict, args) -> int:
    """Offer every KPI's live points in lockstep chunks, pumping as we
    go; a fleet retrain fires every ``--retrain-every`` points."""
    n_events = 0
    offsets = {kpi_id: 0 for kpi_id in live}
    since_retrain = 0
    while any(
        offsets[kpi_id] < len(points) for kpi_id, points in live.items()
    ):
        for kpi_id, points in live.items():
            begin = offsets[kpi_id]
            chunk = points[begin:begin + args.batch_points]
            if len(chunk):
                fleet.offer_many(kpi_id, [float(v) for v in chunk])
                offsets[kpi_id] = begin + len(chunk)
        n_events += len(fleet.drain_all())
        since_retrain += args.batch_points
        if args.retrain_every and since_retrain >= args.retrain_every:
            since_retrain = 0
            fleet.retrain()
    return n_events


def _cmd_run(args) -> int:
    points_per_week = (7 * 24 * 3600) // args.interval
    if args.csv:
        series = _csv_scenario(args.csv, args.interval)
    elif args.kpis:
        series = _generated_scenario(args)
    else:
        print("run: pass --kpis N or --csv FILE", file=sys.stderr)
        return 2
    bootstrap_points = int(args.bootstrap_weeks * points_per_week)
    for one in series:
        if not one.is_labeled:
            print(f"{one.name}: series is unlabelled", file=sys.stderr)
            return 2
        if len(one) <= bootstrap_points:
            print(
                f"{one.name}: {len(one)} points, need more than the "
                f"{bootstrap_points}-point bootstrap",
                file=sys.stderr,
            )
            return 2

    fleet = _build_fleet(args, points_per_week)
    live = {}
    for one in series:
        fleet.add_kpi(one.name, bootstrap=one.slice(0, bootstrap_points))
        live[one.name] = one.slice(bootstrap_points, len(one)).values
    n_events = _stream(fleet, live, args)

    status = fleet.status()
    print(status.render())
    print(f"{n_events} alert events")
    if args.save:
        fleet.save(args.save)
        print(f"fleet checkpoint written to {args.save}")
    if args.obs_out:
        write_snapshot(fleet.metrics_snapshot(), args.obs_out)
        print(f"merged metrics snapshot written to {args.obs_out}")
    if args.json:
        print(json.dumps(status_document(status), indent=2))
    return 0


def _cmd_status(args) -> int:
    root = Path(args.directory)
    manifest_path = root / "fleet.json"
    if not manifest_path.exists():
        print(f"{root}: no fleet.json manifest", file=sys.stderr)
        return 2
    manifest = json.loads(manifest_path.read_text())
    if args.json:
        # The same serializer the live `run --json` path and the
        # repro-serve /status endpoint use — one schema, three surfaces.
        document = status_document(
            FleetStatus.from_manifest(manifest), source="manifest"
        )
        print(json.dumps(document, indent=2))
        return 0
    entries = manifest.get("kpis", [])
    print(
        f"fleet at {root}: {len(entries)} KPIs, "
        f"{manifest.get('cycles', 0)} pump cycles, "
        f"config {json.dumps(manifest.get('config', {}))}"
    )
    header = (
        f"{'KPI':<20} {'STATE':<12} {'QUEUED':>6} {'DROPPED':>8} "
        f"{'QUAR':>5} {'RETRIES':>7}  LAST ERROR"
    )
    print(header)
    print("-" * len(header))
    for entry in entries:
        dropped = sum(entry.get("dropped", {}).values())
        print(
            f"{entry['kpi_id']:<20} {entry['state']:<12} "
            f"{len(entry.get('queue', [])):>6} {dropped:>8} "
            f"{entry.get('quarantines', 0):>5} "
            f"{entry.get('retries', 0):>7}  "
            f"{entry.get('last_error') or '-'}"
        )
    degraded = [e["kpi_id"] for e in entries if e["state"] == DEGRADED]
    if degraded:
        print(f"degraded (needs revive): {', '.join(degraded)}")
    return 0


def _cmd_replay(args) -> int:
    points_per_week = (7 * 24 * 3600) // args.interval
    fleet = FleetManager.restore(
        args.directory,
        service_factory=_service_factory(args, points_per_week),
    )
    live = {}
    for path in args.csv:
        stem = Path(path).stem
        if stem not in fleet:
            print(
                f"{path}: KPI {stem!r} is not in this fleet "
                f"(have: {', '.join(fleet.kpi_ids)})",
                file=sys.stderr,
            )
            return 2
        live[stem] = read_csv(path, interval=args.interval, name=stem).values
    n_events = _stream(fleet, live, args)
    print(fleet.status().render())
    print(f"{n_events} alert events")
    if args.save:
        fleet.save(args.save)
        print(f"fleet checkpoint written to {args.save}")
    return 0


def _add_fleet_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--interval", type=int, default=3600,
                        help="sampling interval in seconds")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--queue-depth", type=int, default=1024)
    parser.add_argument("--queue-policy", default="drop-oldest",
                        choices=["drop-oldest", "drop-newest", "block"])
    parser.add_argument("--batch-points", type=int, default=64)
    parser.add_argument("--retrain-every", type=int, default=0,
                        help="retrain after this many streamed points "
                             "per KPI (0 = never)")
    parser.add_argument("--bank", choices=["small", "full"], default="small",
                        help="detector bank: the 7-config smoke bank or "
                             "the full Table 3 registry")
    parser.add_argument("--trees", type=int, default=15)
    parser.add_argument("--min-duration", type=int, default=1)
    parser.add_argument("--diagnose", action="store_true",
                        help="fit the anomaly-kind diagnoser and attach "
                             "a diagnosis to every closed alert")
    parser.add_argument("--save", default=None,
                        help="write a fleet checkpoint directory at the end")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fleet",
        description="multi-KPI fleet orchestration over Opprentice "
                    "monitoring services",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="bootstrap a fleet and stream points through it"
    )
    run.add_argument("--kpis", type=int, default=0,
                     help="generate this many synthetic KPIs")
    run.add_argument("--csv", action="append", default=[],
                     help="labelled KPI CSV (repeatable; stem = KPI id)")
    run.add_argument("--weeks", type=float, default=4.0,
                     help="generated scenario length")
    run.add_argument("--bootstrap-weeks", type=float, default=2.0,
                     help="labelled prefix used for bootstrap")
    run.add_argument("--anomaly-fraction", type=float, default=0.03)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--obs-out", default=None,
                     help="write the merged per-KPI metrics snapshot JSON")
    run.add_argument("--json", action="store_true",
                     help="also print the full status as JSON")
    _add_fleet_options(run)

    status = commands.add_parser(
        "status", help="summarize a saved fleet directory"
    )
    status.add_argument("directory", help="fleet checkpoint directory")
    status.add_argument(
        "--json", action="store_true",
        help="emit the shared status document (same schema as "
             "`run --json` and the repro-serve /status endpoint)",
    )

    replay = commands.add_parser(
        "replay", help="restore a fleet and stream new CSV points"
    )
    replay.add_argument("directory", help="fleet checkpoint directory")
    replay.add_argument("csv", nargs="+",
                        help="unlabelled KPI CSVs (stem = KPI id)")
    _add_fleet_options(replay)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    enable_from_env()
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "status":
        return _cmd_status(args)
    return _cmd_replay(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
