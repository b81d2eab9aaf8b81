"""Per-layer timing of the deployed path, from outside the program.

:func:`instrumented` wraps the public callables each layer exposes
(``ShardSupervisor.offer_batch``, ``FleetManager.offer``,
``MonitoringService.ingest``, ``StreamingDetector.push``, every
``FamilyStream.update``, ``atomic_checkpoint``, ...) with timers that
record into a :class:`Tracer`. The wrappers are installed in the
benchmark's process before the plane forks, so the plane and its shards
inherit them; each of those processes activates the tracer, keeps its
spans in memory (name, start, end, parent, attributes) and writes them
under the run's trace directory when it exits. Nothing is registered
with ``repro.obs``.

:func:`analyse` joins the three processes' spans: the plane's
``offer_batch`` calls to a shard and that shard's request handlers pair
up by ordinal (a shard serves its batches in order), and each client
request takes the next pair of every shard it touched. A layer's self
time is its span minus its timed children; the critical path of a
request runs through the shard whose ``offer_batch`` returned last.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

import repro.fleet.manager as fleet_manager_module
import repro.serve.shard as shard_module
import repro.serve.supervisor as supervisor_module
from repro.core.feature_matrix import FeatureExtractor
from repro.core.service import MonitoringService
from repro.core.streaming import StreamingDetector
from repro.detectors.base import (
    FamilyEvaluator,
    FamilyStream,
    SoloEvaluator,
    StreamBank,
)
from repro.diagnosis.classifier import AnomalyDiagnoser
from repro.fleet.manager import FleetManager
from repro.ml.forest import RandomForest
from repro.ml.preprocessing import Imputer
from repro.serve.supervisor import ShardSupervisor

#: Shard-side request handler: from the request frame being decoded
#: to the reply frame being encoded.
HANDLER = "serve.shard"
OFFER = "serve.offer_batch"
CHECKPOINT = "serve.checkpoint"


class _Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, parent: Optional["_Span"], attrs: dict):
        self.name = name
        self.parent = parent
        self.attrs = attrs
        self.start = time.perf_counter()
        self.end = self.start


class Tracer:
    """The spans of one process, written out when the process exits.

    A tracer built without a ``directory`` never records: the wrappers
    pass straight through, which is what untraced runs use.
    """

    def __init__(self, directory: Optional[Path] = None):
        self.directory = directory
        self.active = False
        self._role = ""
        self._spans: List[_Span] = []
        self._local = threading.local()
        #: FamilyStream -> family name, filled as the banks build them.
        self.family_of: "weakref.WeakKeyDictionary[FamilyStream, str]" = (
            weakref.WeakKeyDictionary()
        )

    def start(self, role: str) -> None:
        """Begin recording in this (freshly forked) process; drops any
        spans inherited from the parent."""
        if self.directory is None:
            return
        self._role = role
        self._spans = []
        self._local = threading.local()
        self.active = True

    def _stack(self) -> List[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **attrs: Any) -> _Span:
        stack = self._stack()
        span = _Span(name, stack[-1] if stack else None, attrs)
        self._spans.append(span)
        stack.append(span)
        return span

    def close(self, span: _Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    @contextmanager
    def measure(self, name: str, **attrs: Any) -> Iterator[None]:
        if not self.active:
            yield
            return
        opened = self.open(name, **attrs)
        try:
            yield
        finally:
            self.close(opened)

    def dump(self) -> None:
        """Write this process's spans to ``<directory>/<role>.json``."""
        if not self.active:
            return
        self.active = False
        index = {id(span): i for i, span in enumerate(self._spans)}
        rows = [
            [
                span.name, span.start, span.end,
                index.get(id(span.parent), -1), span.attrs,
            ]
            for span in self._spans
        ]
        path = self.directory / f"{self._role}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(rows))
        os.replace(tmp, path)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _timed(tracer: Tracer, fn: Callable, label: Callable) -> Callable:
    """``fn`` inside a span named (with attributes) by ``label(args)``."""

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        name, attrs = label(args)
        span = tracer.open(name, **attrs)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)

    return timed


def _named(name: str) -> Callable:
    return lambda args: (name, {})


def _family_name(evaluator: FamilyEvaluator) -> str:
    if isinstance(evaluator, SoloEvaluator):
        return "solo"
    return evaluator.configs[0].detector.family()[0]


def _subclasses_defining(base: type, attr: str) -> List[type]:
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        if attr in vars(cls):
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def _patches(tracer: Tracer) -> List[tuple]:
    """``(owner, attribute, replacement factory)`` for every layer."""
    layers = [
        (ShardSupervisor, "offer_batch",
         lambda args: (OFFER, {"shard": args[1]})),
        (FleetManager, "offer", _named("fleet.offer")),
        (FleetManager, "drain_all", _named("fleet.drain_all")),
        (FleetManager, "save", _named("fleet.save")),
        (MonitoringService, "ingest", _named("core.service")),
        (MonitoringService, "bootstrap", _named("setup.bootstrap")),
        (StreamingDetector, "push", _named("core.streaming")),
        (StreamBank, "extract_point", _named("detectors.bank")),
        (Imputer, "transform", _named("ml.imputer")),
        (RandomForest, "predict_proba", _named("ml.forest.vote")),
        (AnomalyDiagnoser, "diagnose", _named("diagnosis")),
        (FeatureExtractor, "extract", _named("core.feature_matrix.extract")),
        # Module-level names are wrapped where their caller looks them up.
        (shard_module, "atomic_checkpoint", _named(CHECKPOINT)),
        (fleet_manager_module, "save_model",
         _named("core.persistence.save_model")),
        (fleet_manager_module, "save_service_checkpoint",
         _named("core.persistence.save_service")),
    ]
    layers += [
        (cls, "update", lambda args: (
            "detectors." + tracer.family_of.get(args[0], "unattributed"), {}
        ))
        for cls in _subclasses_defining(FamilyStream, "update")
    ]
    patches = [
        (owner, attr, functools.partial(_timed, tracer, label=label))
        for owner, attr, label in layers
    ]

    def attributing(make_stream: Callable) -> Callable:
        @functools.wraps(make_stream)
        def wrapper(self):
            stream = make_stream(self)
            tracer.family_of[stream] = _family_name(self)
            return stream

        return wrapper

    patches += [
        (cls, "make_stream", attributing)
        for cls in _subclasses_defining(FamilyEvaluator, "make_stream")
    ]

    def receiving(recv: Callable) -> Callable:
        @functools.wraps(recv)
        def wrapper(sock):
            message = recv(sock)
            if tracer.active:
                tracer.open(HANDLER, op=message.get("op"))
            return message

        return wrapper

    def replying(send: Callable) -> Callable:
        @functools.wraps(send)
        def wrapper(sock, message):
            stack = tracer._stack() if tracer.active else []
            if stack and stack[-1].name == HANDLER:
                tracer.close(stack[-1])
            return send(sock, message)

        return wrapper

    def shard_process(main: Callable) -> Callable:
        @functools.wraps(main)
        def wrapper(conn, parent_end, spec):
            tracer.start(f"shard-{spec.index}")
            try:
                return main(conn, parent_end, spec)
            finally:
                tracer.dump()

        return wrapper

    patches += [
        (shard_module, "recv_message", receiving),
        (shard_module, "send_message", replying),
        (supervisor_module, "shard_worker_main", shard_process),
    ]
    return patches


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[Tracer]:
    """Install every layer wrapper for the duration of the block (the
    processes forked inside it keep them)."""
    originals = []
    try:
        for owner, attr, wrap in _patches(tracer):
            original = vars(owner)[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
@dataclass
class Span:
    name: str
    start: float
    end: float
    attrs: dict
    children: List["Span"] = field(default_factory=list)
    parent: Optional["Span"] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()


def load_roots(path: Path) -> List[Span]:
    """The root spans of one process's dump, children attached."""
    rows = json.loads(Path(path).read_text())
    spans = [Span(name, start, end, attrs) for name, start, end, _, attrs in rows]
    roots = []
    for span, (_, _, _, parent, _) in zip(spans, rows):
        if parent < 0:
            roots.append(span)
        else:
            span.parent = spans[parent]
            spans[parent].children.append(span)
    return roots


#: Span name -> waterfall layer, where the two differ.
_LAYER = {
    "fleet.offer": "fleet",
    "fleet.drain_all": "fleet",
    "fleet.save": CHECKPOINT,
}
#: Layers that only count under ``StreamingDetector.push``; elsewhere
#: (the diagnoser's forests, cThld cross-validation, fitting) their
#: time belongs to the caller.
_PUSH_ONLY = {"ml.imputer", "ml.forest.vote"}


def _layer(span: Span) -> Optional[str]:
    if span.name in _PUSH_ONLY and (
        span.parent is None or span.parent.name != "core.streaming"
    ):
        return None
    return _LAYER.get(span.name, span.name)


def _timed_children(span: Span) -> Iterator[Span]:
    for child in span.children:
        if _layer(child) is None:
            yield from _timed_children(child)
        else:
            yield child


def self_times(root: Span) -> Dict[str, float]:
    """Seconds of self time per layer in ``root``'s subtree."""
    totals: Dict[str, float] = {}
    pending = [root]
    while pending:
        span = pending.pop()
        children = list(_timed_children(span))
        layer = _layer(span)
        if layer is not None:
            own = span.seconds - sum(child.seconds for child in children)
            totals[layer] = totals.get(layer, 0.0) + own
        pending.extend(children)
    return totals


def _inclusive(roots: Sequence[Span], name: str) -> List[float]:
    return [
        span.seconds
        for root in roots
        for span in root.walk()
        if span.name == name
    ]


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


@dataclass
class ClientRequest:
    """What the client knows about one ingest request."""

    seconds: float
    #: points this request carried to each shard it touched
    shard_points: Dict[int, int]


class WaterfallError(ValueError):
    """The three processes' spans do not join up."""


def analyse(
    trace_dir: Path,
    requests: Sequence[ClientRequest],
    plane_request_seconds: float,
) -> Dict[str, Any]:
    """Per-layer metrics and the per-request waterfall of a traced run.

    ``requests`` are the timed phase's ingest requests in send order;
    ``plane_request_seconds`` is the plane's own mean handling time for
    them (its ``repro_serve_request_seconds`` histogram), which bounds
    the server's share of the round trip from inside.
    """
    plane = load_roots(trace_dir / "plane.json")
    shards = sorted(trace_dir.glob("shard-*.json"))
    if not shards:
        raise WaterfallError(f"no shard spans under {trace_dir}")
    offers: Dict[int, List[Span]] = {}
    for root in plane:
        if root.name == OFFER:
            offers.setdefault(root.attrs["shard"], []).append(root)
    handlers: Dict[int, List[Span]] = {}
    setup: List[Span] = []
    initial_checkpoints: List[float] = []
    everything: List[Span] = []
    for path in shards:
        index = int(path.stem.split("-")[1])
        roots = load_roots(path)
        everything += roots
        # Everything a shard does before its first request handler is
        # its start-up: bootstrap, then the initial checkpoint.
        first = next(
            (i for i, root in enumerate(roots) if root.name == HANDLER),
            len(roots),
        )
        setup += roots[:first]
        initial_checkpoints += _inclusive(roots[:first], CHECKPOINT)[:1]
        handlers[index] = [
            root for root in roots[first:]
            if root.name == HANDLER and root.attrs["op"] == "offer_batch"
        ]

    for shard in set(offers) | set(handlers):
        if len(offers.get(shard, [])) != len(handlers.get(shard, [])):
            raise WaterfallError(
                f"shard {shard}: {len(offers.get(shard, []))} offer_batch "
                f"calls but {len(handlers.get(shard, []))} shard handlers"
            )
    cursor = {shard: 0 for shard in offers}
    per_request: List[Dict[str, float]] = []
    skews: List[float] = []
    crit_offer: List[float] = []
    points = 0
    totals: Dict[str, float] = {}
    for request in requests:
        pairs = []
        for shard in sorted(request.shard_points):
            position = cursor.get(shard, 0)
            if position >= len(offers.get(shard, [])):
                raise WaterfallError(f"request without a shard-{shard} batch")
            pairs.append(
                (offers[shard][position], handlers[shard][position])
            )
            cursor[shard] = position + 1
            points += request.shard_points[shard]
        for offer, handler in pairs:
            for layer, seconds in self_times(handler).items():
                totals[layer] = totals.get(layer, 0.0) + seconds
        offer, handler = max(pairs, key=lambda pair: pair[0].end)
        crit_offer.append(offer.seconds)
        row = self_times(handler)
        row["serve.protocol"] = offer.seconds - handler.seconds
        per_request.append(row)
        if len(pairs) > 1:
            durations = [pair[0].seconds for pair in pairs]
            skews.append(max(durations) - min(durations))
    if not per_request:
        raise WaterfallError("no ingest requests to attribute")

    # Mean ms per request along the critical path.
    layers = sorted({layer for row in per_request for layer in row})
    waterfall = {
        layer: 1e3 * _mean([row.get(layer, 0.0) for row in per_request])
        for layer in layers
    }
    waterfall["serve.server"] = 1e3 * (
        plane_request_seconds - _mean(crit_offer)
    )
    round_trip_ms = 1e3 * _mean([request.seconds for request in requests])
    coverage = sum(waterfall.values()) / round_trip_ms

    handled = [span for spans in handlers.values() for span in spans]
    checkpoints = _inclusive(everything, CHECKPOINT)
    metrics: Dict[str, float] = {
        "serve.server.self_ms": waterfall["serve.server"],
        "serve.protocol.self_ms": waterfall["serve.protocol"],
        "serve.shard.self_ms": waterfall.get(HANDLER, 0.0),
        "serve.checkpoint.ms_per_call": 1e3 * _mean(checkpoints),
        "serve.checkpoint.ms_per_batch":
            1e3 * sum(_inclusive(handled, CHECKPOINT)) / len(handled),
        "core.persistence.save_model_ms": 1e3 * _mean(
            _inclusive(everything, "core.persistence.save_model")
        ),
        "core.persistence.save_service_ms": 1e3 * _mean(
            _inclusive(everything, "core.persistence.save_service")
        ),
        "serve.batches": float(len(handled)),
        "fleet.points": float(len(_inclusive(handled, "fleet.offer"))),
        "coverage": coverage,
    }
    for layer, seconds in sorted(totals.items()):
        if layer in ("fleet", "core.service", "core.streaming",
                     "detectors.bank"):
            metrics[f"{layer}.self_us_per_point"] = 1e6 * seconds / points
        elif layer.startswith("detectors.") or layer == "ml.imputer":
            metrics[f"{layer}.us_per_point"] = 1e6 * seconds / points
        elif layer == "ml.forest.vote":
            metrics["ml.forest.vote_us_per_point"] = 1e6 * seconds / points
    if skews:
        metrics["serve.fanout_skew_ms"] = 1e3 * _mean(skews)
    diagnoses = _inclusive(handled, "diagnosis")
    metrics["diagnosis.alerts"] = float(len(diagnoses))
    if diagnoses:
        metrics["diagnosis.ms_per_alert"] = 1e3 * _mean(diagnoses)
    metrics.update(
        {
            "setup.diagnoser_fit_s":
                _mean(_inclusive(plane, "setup.diagnoser_fit")),
            "setup.bootstrap_s_per_kpi":
                _mean(_inclusive(setup, "setup.bootstrap")),
            "core.feature_matrix.extract_s":
                _mean(_inclusive(setup, "core.feature_matrix.extract")),
            "setup.initial_checkpoint_s": _mean(initial_checkpoints),
        }
    )
    return {
        "metrics": metrics,
        "waterfall_ms": waterfall,
        "round_trip_ms": round_trip_ms,
        "requests": len(per_request),
    }


__all__ = [
    "ClientRequest",
    "Span",
    "Tracer",
    "WaterfallError",
    "analyse",
    "instrumented",
    "load_roots",
    "self_times",
]
