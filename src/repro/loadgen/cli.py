"""``repro-loadgen`` — soak the fleet and write an SLO-ready document.

Usage::

    repro-loadgen --kpis 8 --weeks 0.25 --out soak.json
    repro-loadgen --target http://127.0.0.1:8123 --kpis 8 --out replay.json
    repro-obs slo --targets slo/targets.toml --snapshot soak.json

Both forms run the same :class:`~repro.loadgen.SoakHarness` loop over
the configured simulated span. Without ``--target`` it drives an
in-process fleet; with ``--target`` the *same* deterministic scenario
is regenerated locally and streamed at a running ``repro-serve`` plane
over HTTP (one NDJSON batch per simulated tick), with optional
mid-stream fault drills (``--kill-shard`` SIGKILLs a shard process and
asserts the supervisor recovered it; ``--restart-shard`` exercises the
graceful path).

Either way the CLI enables observability unconditionally (a soak
without metrics would gate on nothing), prints a one-line summary, and
writes a checkpointed document ``repro-obs slo`` evaluates — the same
``slo/targets.toml`` gate judges both flavours. Exit codes: 0 on a
full clean run, 3 when the wall-clock budget cut it short
(``--max-wall-seconds``), 4 when a fault drill did not recover, 2 on
bad arguments or an unreachable/mismatched target.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..fleet.status import FleetStatus
from ..obs import enable
from .client import TargetError
from .harness import SoakConfig, SoakHarness


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-loadgen",
        description=(
            "Replay Table 1 synthetic profiles into a fleet over "
            "simulated weeks, with retraining waves and quarantine "
            "churn, and write kpi-tagged metrics checkpoints."
        ),
    )
    parser.add_argument(
        "--kpis", type=int, default=8, help="KPIs to manage (default 8)"
    )
    parser.add_argument(
        "--weeks", type=float, default=0.25,
        help="simulated stream length after bootstrap (default 0.25)",
    )
    parser.add_argument(
        "--bootstrap-weeks", type=float, default=1.0,
        help="labelled bootstrap history per KPI (default 1.0)",
    )
    parser.add_argument(
        "--profiles", nargs="+", default=["PV", "#SR", "SRT"],
        help="Table 1 profiles to cycle across KPIs",
    )
    parser.add_argument(
        "--dataset", default=None,
        help="draw KPIs from this repro-corpus dataset instead of "
             "the Table 1 profiles (see `repro-corpus list`)",
    )
    parser.add_argument(
        "--checkpoint-every", type=float, default=3600.0,
        help="simulated seconds between metrics checkpoints",
    )
    parser.add_argument(
        "--retrain-every", type=float, default=6 * 3600.0,
        help="simulated seconds between retrain waves (0 disables)",
    )
    parser.add_argument(
        "--fault-kpis", type=int, default=2,
        help="leading KPIs that fail every Nth ingest (default 2)",
    )
    parser.add_argument(
        "--fault-every", type=int, default=40,
        help="inject a fault every Nth ingest on fault KPIs",
    )
    parser.add_argument(
        "--points-per-second", type=float, default=0.0,
        help="real-time pacing; 0 streams as fast as possible",
    )
    parser.add_argument(
        "--max-wall-seconds", type=float, default=0.0,
        help="wall-clock budget; 0 is unbounded",
    )
    parser.add_argument(
        "--trees", type=int, default=10,
        help="random-forest size per KPI (default 10)",
    )
    parser.add_argument(
        "--diagnose", action="store_true",
        help="in-process soak: attach the anomaly-kind diagnoser so "
             "closed alerts carry a diagnosis",
    )
    parser.add_argument(
        "--seed-offset", type=int, default=0,
        help="shift every KPI's generation seed (replica soaks)",
    )
    parser.add_argument(
        "--out", default=None,
        help="write the checkpointed soak document (JSON) here",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the run summary as JSON instead of text",
    )
    replay = parser.add_argument_group(
        "networked replay (repro-serve target)"
    )
    replay.add_argument(
        "--target", default=None,
        help="replay the scenario at this repro-serve base URL "
             "(e.g. http://127.0.0.1:8123) instead of in-process",
    )
    replay.add_argument(
        "--kill-shard", type=int, default=-1,
        help="replay: SIGKILL this shard process mid-stream and "
             "assert the supervisor recovers it",
    )
    replay.add_argument(
        "--kill-after-batches", type=int, default=0,
        help="replay: inject the kill after this many batch posts",
    )
    replay.add_argument(
        "--restart-shard", type=int, default=-1,
        help="replay: gracefully restart this shard mid-stream "
             "(POST /shards/<i>/restart) instead of killing it",
    )
    replay.add_argument(
        "--restart-after-batches", type=int, default=0,
        help="replay: inject the graceful restart after this many "
             "batch posts",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = SoakConfig(
            n_kpis=args.kpis,
            weeks=args.weeks,
            bootstrap_weeks=args.bootstrap_weeks,
            profiles=tuple(args.profiles),
            dataset=args.dataset,
            checkpoint_every=args.checkpoint_every,
            retrain_every=args.retrain_every,
            fault_kpis=args.fault_kpis,
            fault_every=args.fault_every,
            points_per_second=args.points_per_second,
            max_wall_seconds=args.max_wall_seconds,
            trees=args.trees,
            diagnose=args.diagnose,
            seed_offset=args.seed_offset,
            target=args.target,
            kill_shard=args.kill_shard,
            kill_after_batches=args.kill_after_batches,
            restart_shard=args.restart_shard,
            restart_after_batches=args.restart_after_batches,
        )
        enable()
        result = SoakHarness(config).run()
    except (ValueError, TargetError) as error:
        print(f"repro-loadgen: {error}", file=sys.stderr)
        return 2
    document = result.document
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=None, sort_keys=True)
            handle.write("\n")
    if args.json:
        # The bulky parts live in --out.
        summary = {
            key: value
            for key, value in document.items()
            if key not in ("checkpoints", "alerts")
        }
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(FleetStatus.from_dict(document["fleet"]).render())
        drill = ""
        if result.recovered is not None:
            drill = (
                f", fault drill {'recovered' if result.recovered else 'NOT RECOVERED'}"
            )
        print(
            f"{document['mode']}: {result.points_offered} points "
            f"({result.accepted} accepted, {result.rejected} rejected) "
            f"over {result.sim_seconds / 3600.0:.1f} simulated hours in "
            f"{result.wall_seconds:.1f}s wall "
            f"({len(document['checkpoints'])} checkpoints, "
            f"{result.alerts_opened} alerts, "
            f"{result.quarantines} quarantines{drill})"
        )
        if args.out:
            print(f"{document['mode']} document written to {args.out}")
    if result.recovered is False:
        print(
            "repro-loadgen: fault drill did not recover the shard",
            file=sys.stderr,
        )
        return 4
    if not result.completed:
        print(
            "repro-loadgen: wall budget expired before the simulated "
            "span finished",
            file=sys.stderr,
        )
        return 3
    return 0


__all__ = ["build_parser", "main"]
