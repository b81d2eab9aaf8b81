#!/usr/bin/env python3
"""Deployed-path benchmark: HTTP ingest through a 2-shard ``repro-serve``.

    python3 benchmarks/deployed/run.py --workload durable-point --seed 0 \\
        --seconds 10 --trace 0 [--json OUT]

For each workload (or ``--workload all``) the benchmark generates the
scenario and its request plan from the seed, forks a plane process that
composes ``ShardSupervisor(n_shards=2)`` + ``ReproServer`` with the
workload's services, and drives it closed loop over keep-alive
``http.client`` connections from this single-threaded process, in
chunks separated by two set-up-only planes (``setup_s`` is the median
of the three set-ups). It checks the outputs from outside the program
(acks, ``/status`` counts, alert pairing, and for ``durable-point`` an
in-process twin fleet), prints every metric by name with its unit, and
prints one JSON result as its last line. ``--trace 1`` runs the
workload untraced and then again with per-layer timers (see
``waterfall.py``) and reports the per-layer metrics. Exit status: 0 all
checks passed, 1 a check failed, 2 the benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import http.client
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    print(f"{ROOT}: no src/repro to benchmark", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core.execution import get_fork_context  # noqa: E402
from repro.evaluation.confusion import precision_recall  # noqa: E402

from waterfall import (  # noqa: E402
    ClientRequest,
    Tracer,
    WaterfallError,
    analyse,
    instrumented,
)
from workloads import (  # noqa: E402
    SHARDS,
    WORKLOADS,
    Inputs,
    Request,
    Workload,
    build_inputs,
    plane_main,
    twin_fleet,
)

#: The gated metrics, by name and unit (BENCHMARK.json lists the same).
END_TO_END = {
    "setup_s": "s",
    "request_p50_ms": "ms",
    "points_per_s": "points/s",
    "rss_mb": "MB",
}
PER_LAYER = {
    "serve.server.self_ms": "ms",
    "serve.protocol.self_ms": "ms",
    "serve.shard.self_ms": "ms",
    "serve.checkpoint.ms_per_call": "ms",
    "serve.checkpoint.mb_per_call": "MB",
    "core.persistence.save_model_ms": "ms",
    "core.persistence.save_service_ms": "ms",
    "fleet.self_us_per_point": "us",
    "core.service.self_us_per_point": "us",
    "core.streaming.self_us_per_point": "us",
    "detectors.bank.self_us_per_point": "us",
    "detectors.window-bank.us_per_point": "us",
    "detectors.seasonal-residual.us_per_point": "us",
    "detectors.historical.us_per_point": "us",
    "detectors.solo.us_per_point": "us",
    "ml.imputer.us_per_point": "us",
    "ml.forest.vote_us_per_point": "us",
    "setup.diagnoser_fit_s": "s",
    "setup.bootstrap_s_per_kpi": "s",
    "core.feature_matrix.extract_s": "s",
    "setup.initial_checkpoint_s": "s",
    "serve.batches": "count",
    "fleet.points": "count",
    "coverage": "ratio",
    "trace_overhead": "ratio",
}
#: Reported where they apply, never gated: a gated metric must exist on
#: every workload (see README.md).
INFORMATIONAL = {
    "request_p90_ms": "ms",
    "failed_ratio": "ratio",
    "recall": "ratio",
    "precision": "ratio",
    "serve.fanout_skew_ms": "ms",
    "serve.checkpoint.ms_per_batch": "ms",
    "detectors.holt-winters.us_per_point": "us",
    "detectors.wavelet.us_per_point": "us",
    "diagnosis.ms_per_alert": "ms",
    "diagnosis.alerts": "count",
}
UNITS = {**END_TO_END, **PER_LAYER, **INFORMATIONAL}


def unit_of(name: str) -> str:
    """A metric's unit; per-family detector costs are all microseconds."""
    return UNITS.get(name) or ("us" if name.endswith("us_per_point") else "")


#: A p90 needs ten samples beyond it.
P90_MIN_SAMPLES = 100
#: Plane set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
SETUP_TIMEOUT_S = 150.0
REQUEST_TIMEOUT_S = 60.0
#: A plan is fixed work; a run stops sending once it has taken this
#: many times its calibrated length, so a pathologically slow machine
#: or build cannot push a run past its time limit.
DEADLINE_FACTOR = 3.0
WORK_DIR = ROOT / ".bench_work"


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not a failed check)."""


@dataclass
class Reply:
    request: Request
    status: int
    body: dict
    seconds: float


@dataclass
class Phase:
    """One plane lifetime: set up, drive the plan, check, stop."""

    setup_s: float = 0.0
    replies: List[Reply] = field(default_factory=list)
    wall_s: float = 0.0
    route: Dict[str, int] = field(default_factory=dict)
    status: dict = field(default_factory=dict)
    rss_mb: float = 0.0
    checkpoint_mb: float = 0.0
    request_seconds: Dict[str, List[float]] = field(default_factory=dict)
    twin_events: Optional[List[tuple]] = None
    truncated: bool = False
    failures: List[str] = field(default_factory=list)
    layers: Optional[dict] = None


# ----------------------------------------------------------------------
# Plane lifecycle and the closed-loop client
# ----------------------------------------------------------------------
def _vm_hwm_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for pid {pid}")


def _running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _wait_gone(pids: Sequence[int], timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while any(_running(pid) for pid in pids):
        if time.monotonic() > deadline:
            raise BenchmarkError(f"processes {list(pids)} did not exit")
        time.sleep(0.05)


def _receive(conn, what: str) -> dict:
    """The plane's next message, or a :class:`BenchmarkError`."""
    try:
        if not conn.poll(SETUP_TIMEOUT_S):
            raise BenchmarkError(f"plane did not {what} in time")
        message = conn.recv()
    except EOFError as error:
        raise BenchmarkError(f"plane exited during {what}") from error
    if "error" in message:
        raise BenchmarkError(f"plane failed during {what}:\n{message['error']}")
    return message


def _directory_mb(path: Path) -> float:
    return sum(
        item.stat().st_size for item in path.rglob("*") if item.is_file()
    ) / 1e6


def _drive(
    port: int,
    plan: Sequence[Request],
    deadline_s: float,
    pauses: Sequence[Callable[[], None]],
    phase: Phase,
) -> None:
    """Send ``plan`` closed loop in ``len(pauses) + 1`` equal chunks, a
    connection each, running the next pause between two chunks.
    ``wall_s`` and the deadline count the chunks only."""
    cuts = [round(i * len(plan) / (len(pauses) + 1))
            for i in range(len(pauses) + 2)]
    for chunk, (first, end) in enumerate(zip(cuts, cuts[1:])):
        if chunk:
            pauses[chunk - 1]()
        connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            began = time.perf_counter()
            for request in plan[first:end]:
                sent = time.perf_counter()
                connection.request(
                    "POST", request.path, body=request.body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                raw = response.read()
                done = time.perf_counter()
                phase.replies.append(Reply(
                    request, response.status, json.loads(raw), done - sent
                ))
                if phase.wall_s + done - began > deadline_s:
                    phase.truncated = len(phase.replies) < len(plan)
                    break
            phase.wall_s += time.perf_counter() - began
            if phase.truncated or chunk == len(pauses):
                connection.request("GET", "/status")
                phase.status = json.loads(connection.getresponse().read())
                return
        finally:
            connection.close()


def run_phase(
    inputs: Inputs,
    traced: bool,
    deadline_s: float,
    drive: bool = True,
    pauses: Sequence[Callable[[], None]] = (),
) -> Phase:
    """Start a plane, drive the plan through it (unless ``drive`` is
    false, which times the set-up alone), stop it. The plane idles
    during each of ``pauses`` (see :func:`_drive`)."""
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="deployed-", dir=WORK_DIR))
    phase = Phase()
    try:
        _run_plane(inputs, traced, deadline_s, drive, pauses, workdir, phase)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return phase


def _run_plane(
    inputs: Inputs,
    traced: bool,
    deadline_s: float,
    drive: bool,
    pauses: Sequence[Callable[[], None]],
    workdir: Path,
    phase: Phase,
) -> None:
    trace_dir = workdir / "trace"
    trace_dir.mkdir()
    tracer = Tracer(trace_dir if traced else None)
    context = get_fork_context()
    parent_end, child_end = context.Pipe()
    process = context.Process(
        target=plane_main,
        args=(child_end, inputs, workdir / "shards", tracer),
        name="deployed-plane",
    )
    sys.stdout.flush()  # a forked child must not re-flush our buffer
    with instrumented(tracer) if traced else contextlib.nullcontext():
        began = time.perf_counter()
        process.start()
    child_end.close()
    shard_pids: List[int] = []
    stopping = False
    try:
        ready = _receive(parent_end, "start")
        phase.setup_s = time.perf_counter() - began
        phase.route = ready["route"]
        shard_pids = ready["shard_pids"]
        twin_dir = workdir / "twin"
        if drive:
            _serve(inputs, ready, deadline_s, pauses, workdir, twin_dir,
                   phase)
        parent_end.send("stop")
        stopping = True
        phase.request_seconds = _receive(parent_end, "stop")["request_seconds"]
    finally:
        if not stopping:  # the plane reads it once it is up
            with contextlib.suppress(OSError):
                parent_end.send("stop")
        process.join(timeout=SETUP_TIMEOUT_S)
        if process.is_alive():
            process.kill()
            process.join()
        parent_end.close()
        _wait_gone(shard_pids, SETUP_TIMEOUT_S)
    if drive and inputs.workload.twin:
        phase.twin_events = _twin_events(inputs, phase, twin_dir)
    if drive and traced:
        phase.layers = _layers(inputs, phase, trace_dir)


def _serve(
    inputs: Inputs,
    ready: dict,
    deadline_s: float,
    pauses: Sequence[Callable[[], None]],
    workdir: Path,
    twin_dir: Path,
    phase: Phase,
) -> None:
    """Drive the plan through a plane that is up, then read its memory
    and checkpoint sizes."""
    if inputs.workload.twin:
        for shard in range(SHARDS):
            shutil.copytree(
                workdir / "shards" / f"shard-{shard}" / "live",
                twin_dir / f"shard-{shard}",
            )
    _drive(ready["port"], inputs.plan, deadline_s, pauses, phase)
    phase.rss_mb = sum(
        _vm_hwm_mb(pid)
        for pid in [ready["pid"]]
        + [row["pid"] for row in phase.status["shards"]]
    )
    phase.checkpoint_mb = statistics.fmean(
        _directory_mb(workdir / "shards" / f"shard-{shard}" / "live")
        for shard in range(SHARDS)
    )


# ----------------------------------------------------------------------
# Correctness, from outside the program
# ----------------------------------------------------------------------
def _event_key(event: dict) -> tuple:
    return (
        event["kpi"], event["kind"], event["begin_index"],
        event["end_index"], event["diagnosis"],
    )


def _twin_events(inputs: Inputs, phase: Phase, twin_dir: Path) -> List[tuple]:
    """Replay the acknowledged points, untimed, through fleets restored
    from each shard's initial checkpoint."""
    twins = {
        shard: twin_fleet(twin_dir / f"shard-{shard}", inputs.workload,
                          inputs.kpis)
        for shard in range(SHARDS)
    }
    events = []
    for reply in phase.replies:
        for kpi, value in reply.request.points:
            fleet = twins[phase.route[kpi]]
            fleet.offer(kpi, value)
            events += [
                (event.kpi, event.kind, event.begin_index, event.end_index,
                 event.diagnosis)
                for event in fleet.drain_all()
            ]
    return events


def client_events(phase: Phase) -> List[tuple]:
    """Every alert event the client saw, in arrival order."""
    return [
        _event_key(event)
        for reply in phase.replies
        if reply.status == 200
        for event in reply.body["events"]
    ]


@dataclass
class Ledger:
    """The client's account of a phase, replayed from its replies."""

    sent: Dict[str, int]
    acked: int
    opened: Dict[str, int]
    #: Per KPI, the points (absolute index) inside an alert run.
    covered: Dict[str, np.ndarray]
    failures: List[str]


def ledger(inputs: Inputs, phase: Phase) -> Ledger:
    by_id = {kpi.kpi_id: kpi for kpi in inputs.kpis}
    book = Ledger(
        sent=dict.fromkeys(by_id, 0), acked=0, opened=dict.fromkeys(by_id, 0),
        covered={
            kpi: np.zeros(len(item.series), dtype=bool)
            for kpi, item in by_id.items()
        },
        failures=[],
    )
    open_runs: Dict[str, int] = {}  # KPI -> begin of its open alert run

    def close(kpi: str, end: int) -> None:
        book.covered[kpi][open_runs.pop(kpi):end] = True

    for reply in phase.replies:
        request = reply.request
        if reply.status != 200:
            book.failures.append(
                f"{request.path} answered {reply.status}: {reply.body}"
            )
        else:
            book.acked += reply.body["accepted"]
            for kpi, _ in request.points:
                book.sent[kpi] += 1
            for event in reply.body["events"]:
                kpi = event["kpi"]
                if event["kind"] == "opened" and kpi not in open_runs:
                    book.opened[kpi] += 1
                    open_runs[kpi] = event["begin_index"]
                elif event["kind"] == "closed" and (
                    open_runs.get(kpi) == event["begin_index"]
                ):
                    close(kpi, event["end_index"])
                else:
                    book.failures.append(f"alert event out of order: {event}")
    for kpi in list(open_runs):
        close(kpi, by_id[kpi].bootstrap_points + book.sent[kpi])
    return book


def check(inputs: Inputs, phase: Phase) -> List[str]:
    """Every failed correctness check, as a message."""
    book = ledger(inputs, phase)
    failures = phase.failures + book.failures
    offered = sum(book.sent.values())
    if book.acked != offered:
        failures.append(f"{book.acked} points acknowledged of {offered} sent")
    for row in phase.status.get("fleet", {}).get("kpis", []):
        kpi = row["kpi_id"]
        if row["points_ingested"] != book.sent.get(kpi):
            failures.append(
                f"{kpi}: /status ingested {row['points_ingested']}, "
                f"client sent {book.sent.get(kpi)}"
            )
        if row["alerts_opened"] != book.opened.get(kpi):
            failures.append(
                f"{kpi}: /status opened {row['alerts_opened']} alerts, "
                f"client saw {book.opened.get(kpi)}"
            )
    if phase.twin_events is not None and (
        phase.twin_events != client_events(phase)
    ):
        failures.append("in-process twin fleet saw different alert events")
    return failures


def accuracy(inputs: Inputs, phase: Phase) -> Dict[str, float]:
    """Recall and precision of the points alert runs covered, against
    the scenario's ground truth over the live span sent."""
    book = ledger(inputs, phase)
    predicted, labels = [], []
    for item in inputs.kpis:
        begin = item.bootstrap_points
        live = slice(begin, begin + book.sent[item.kpi_id])
        predicted.append(book.covered[item.kpi_id][live])
        labels.append(item.series.labels[live].astype(bool))
    recall, precision = precision_recall(
        np.concatenate(predicted), np.concatenate(labels)
    )
    return {"recall": float(recall), "precision": float(precision)}


def events_digest(phase: Phase) -> str:
    payload = json.dumps(client_events(phase)).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _p50_ms(replies: Sequence[Reply]) -> float:
    return 1e3 * statistics.median(reply.seconds for reply in replies)


def end_to_end(inputs: Inputs, phase: Phase) -> Dict[str, float]:
    replies = phase.replies
    points = sum(len(reply.request.points) for reply in replies)
    acked = sum(
        reply.body["accepted"] for reply in replies if reply.status == 200
    )
    metrics = {
        "request_p50_ms": _p50_ms(replies),
        "points_per_s": acked / phase.wall_s,
        "rss_mb": phase.rss_mb,
        "failed_ratio": (points - acked) / points,
        **accuracy(inputs, phase),
    }
    if len(replies) >= P90_MIN_SAMPLES:
        metrics["request_p90_ms"] = 1e3 * statistics.quantiles(
            [reply.seconds for reply in replies], n=10
        )[8]
    return metrics


def _layers(inputs: Inputs, phase: Phase, trace_dir: Path) -> dict:
    requests = [
        ClientRequest(
            reply.seconds,
            _shard_points(reply.request, phase.route),
        )
        for reply in phase.replies
    ]
    endpoint = phase.replies[0].request.path
    total, count = phase.request_seconds[endpoint]
    try:
        layers = analyse(trace_dir, requests, total / count)
    except WaterfallError as error:
        phase.failures.append(f"waterfall does not join up: {error}")
        return {}
    layers["metrics"]["serve.checkpoint.mb_per_call"] = phase.checkpoint_mb
    sent = sum(sum(r.shard_points.values()) for r in requests)
    batches = sum(len(r.shard_points) for r in requests)
    if layers["metrics"]["fleet.points"] != sent:
        phase.failures.append(
            f"waterfall counted {layers['metrics']['fleet.points']:.0f} "
            f"points, client sent {sent}"
        )
    if layers["metrics"]["serve.batches"] != batches:
        phase.failures.append(
            f"waterfall counted {layers['metrics']['serve.batches']:.0f} "
            f"shard batches, client caused {batches}"
        )
    return layers


def _shard_points(request: Request, route: Dict[str, int]) -> Dict[int, int]:
    counts: Dict[int, int] = {}
    for kpi, _ in request.points:
        counts[route[kpi]] = counts.get(route[kpi], 0) + 1
    return counts


# ----------------------------------------------------------------------
# One workload run
# ----------------------------------------------------------------------
@dataclass
class Result:
    workload: str
    seed: int
    traced: bool
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    info: Dict[str, object]
    failures: List[str]

    def result_line(self) -> dict:
        names = PER_LAYER if self.traced else END_TO_END
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": names[name]}
                for name in names
                if name in self.metrics
            },
        }


def _operations(phase: Phase) -> tuple:
    attempted = failed = 0
    for reply in phase.replies:
        size = len(reply.request.points)
        attempted += size
        if reply.status != 200:
            failed += size
        else:
            failed += size - reply.body["accepted"]
    return attempted, failed


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    units: Optional[int] = None,
) -> Result:
    """Run one workload (untraced, then traced when ``trace``).

    An untraced run sends its plan in ``SETUPS`` chunks and, between
    two chunks, starts and stops another plane without driving it, so
    the timed requests spread over a wider window of the machine's
    drifting speed at no extra cost. ``setup_s`` is the median over
    those planes and the driven one. ``units`` overrides the plan size
    ``workload.units(seconds)``.
    """
    inputs = build_inputs(
        workload, seed, workload.units(seconds) if units is None else units
    )
    deadline_s = DEADLINE_FACTOR * seconds
    setups: List[Phase] = []

    def set_up_another() -> None:
        setups.append(run_phase(
            inputs, traced=False, deadline_s=deadline_s, drive=False
        ))

    phases = [run_phase(
        inputs, traced=False, deadline_s=deadline_s,
        pauses=[] if trace else [set_up_another] * (SETUPS - 1),
    )]
    if trace:
        phases.append(run_phase(inputs, traced=True, deadline_s=deadline_s))
    failures = []
    for phase in phases:
        failures += check(inputs, phase)
    measured = phases[0]
    setup_times = [phase.setup_s for phase in [measured] + setups]
    metrics = {
        "setup_s": statistics.median(setup_times),
        **end_to_end(inputs, measured),
    }
    info: Dict[str, object] = {
        "setup_s_each": " ".join(f"{s:.3f}" for s in setup_times),
        "requests_planned": len(inputs.plan),
        "requests_sent": len(measured.replies),
        "truncated": measured.truncated,
        "points": sum(len(r.request.points) for r in measured.replies),
        "wall_s": measured.wall_s,
        "events": len(client_events(measured)),
        "events_digest": events_digest(measured),
    }
    if trace:
        traced = phases[1]
        if traced.layers:
            metrics.update(traced.layers["metrics"])
            metrics["trace_overhead"] = (
                _p50_ms(traced.replies) / metrics["request_p50_ms"]
            )
            info["waterfall_ms"] = traced.layers["waterfall_ms"]
            info["round_trip_ms"] = traced.layers["round_trip_ms"]
        if events_digest(traced) != info["events_digest"]:
            failures.append("traced run saw different alert events")
    gated = PER_LAYER if trace else END_TO_END
    failures += [f"{name} was not measured" for name in gated
                 if name not in metrics]
    counts = [_operations(phase) for phase in phases]
    attempted = sum(a for a, _ in counts)
    failed = sum(f for _, f in counts)
    return Result(
        workload=workload.name, seed=seed, traced=trace,
        correct=not failures, attempted=attempted, failed=failed,
        metrics=metrics, info=info, failures=failures,
    )


def render(result: Result) -> str:
    """Human-readable report: every metric by name with its unit."""
    mode = "traced" if result.traced else "untraced"
    lines = [
        f"deployed/{result.workload} seed={result.seed} ({mode}): "
        + ("all checks passed" if result.correct else "CHECKS FAILED"),
    ]
    lines += [f"  check failed: {failure}" for failure in result.failures]
    for key, value in result.info.items():
        if not isinstance(value, dict):
            lines.append(f"  {key:<42} {value}")
    for name, value in result.metrics.items():
        lines.append(f"  {name:<42} {value:>14.6g} {unit_of(name)}")
    waterfall = result.info.get("waterfall_ms")
    if waterfall:
        round_trip = result.info["round_trip_ms"]
        lines.append(
            f"  waterfall, ms per ingest request on the critical path "
            f"(round trip {round_trip:.3f} ms):"
        )
        rows = sorted(waterfall.items(), key=lambda kv: -kv[1])
        rows.append(
            ("(outside the plane's timer)", round_trip - sum(waterfall.values()))
        )
        for layer, ms in rows:
            lines.append(
                f"    {layer:<40} {ms:>10.4f} ms {100 * ms / round_trip:6.2f}%"
            )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="plan size, in seconds of calibrated traffic")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--json", dest="json_out", default=None,
                        help="also write every result here")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    try:
        result = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
        )
    except BenchmarkError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2
    print(render(result), flush=True)
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(vars(result), indent=2))
    print(json.dumps(result.result_line()), flush=True)
    return 0 if result.correct else 1


def _run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a process of its own as single-workload
    runs are: a forked plane counts its parent's pages in ``rss_mb``, so
    one workload's leftovers must not be in the next one's parent."""
    lines, documents, status = {}, [], 0
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as scratch:
        for name in WORKLOADS:
            out = Path(scratch) / f"{name}.json"
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--json", str(out)],
                stdout=subprocess.PIPE, text=True,
            )
            *report, last = done.stdout.splitlines() or [""]
            print("\n".join(report), flush=True)
            if done.returncode not in (0, 1):
                return done.returncode
            status = max(status, done.returncode)
            lines[name] = json.loads(last)
            documents.append(json.loads(out.read_text()))
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(documents, indent=2))
    print(json.dumps({
        "correct": all(line["correct"] for line in lines.values()),
        "attempted": sum(line["attempted"] for line in lines.values()),
        "failed": sum(line["failed"] for line in lines.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, line in lines.items()
            for metric, value in line["metrics"].items()
        },
    }), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
