"""The process-global, swappable observability provider.

Instrumentation call sites across the pipeline do::

    obs = get_provider()
    with obs.span("service.retrain", kpi=name):
        ...
    obs.counter("repro_retrain_rounds_total").inc()

By default :func:`get_provider` returns the shared
:data:`NULL_PROVIDER` — a true no-op whose metric handles, spans and
timers are preallocated singletons that do nothing (no clock reads, no
allocation), so the instrumented hot paths cost one global lookup and a
couple of no-op calls when observability is disabled. :func:`enable`
swaps in a live :class:`ObservabilityProvider` (registry + tracer +
event log); :func:`disable` restores the no-op.

The provider is process-global on purpose: the pipeline's hot paths
(detector streams, the forest) are plain functions without a context
object to thread through, exactly like production metric facades
(``prometheus_client``'s default registry, OpenTelemetry's global
tracer provider).
"""

from __future__ import annotations

import os
import time
from typing import Optional

from .events import EventLog
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .tracing import SpanRecord, Tracer

#: Environment variable that, when set to a non-empty value, makes
#: :func:`enable_from_env` install a live provider (used by the
#: benchmark harness and CI).
OBS_ENV_VAR = "REPRO_OBS"


class _NullCounter:
    """Does nothing; reports zero."""

    __slots__ = ()
    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        return None

    @property
    def value(self) -> float:
        return 0.0


class _NullGauge:
    __slots__ = ()
    kind = "gauge"

    def set(self, value: float) -> None:
        return None

    def inc(self, amount: float = 1.0) -> None:
        return None

    def dec(self, amount: float = 1.0) -> None:
        return None

    @property
    def value(self) -> float:
        return 0.0


class _NullHistogram:
    __slots__ = ()
    kind = "histogram"

    def observe(self, value: float) -> None:
        return None

    @property
    def sum(self) -> float:
        return 0.0

    @property
    def count(self) -> int:
        return 0


class _NullSpan:
    """Shared no-op span/timer: reusable, reentrant, records nothing."""

    __slots__ = ()

    def set(self, key: str, value: object) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()
_NULL_SPAN = _NullSpan()


class NullProvider:
    """The disabled-observability provider: every handle is a no-op."""

    enabled = False

    def counter(self, name: str, help_text: str = "", **labels) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, help_text: str = "", **labels) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str, help_text: str = "",
                  buckets=None, **labels) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def span(self, name: str, **meta) -> _NullSpan:
        return _NULL_SPAN

    def timer(self, name: str, help_text: str = "", **labels) -> _NullSpan:
        return _NULL_SPAN

    def emit(self, kind: str, **fields) -> None:
        return None

    def snapshot(self) -> dict:
        return {"version": 1, "metrics": []}


class _Timer:
    """Times a block into a histogram (only built by live providers)."""

    __slots__ = ("_histogram", "_begin")

    def __init__(self, histogram: Histogram):
        self._histogram = histogram
        self._begin = 0.0

    def __enter__(self) -> "_Timer":
        self._begin = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._histogram.observe(time.perf_counter() - self._begin)
        return False


#: Histogram fed automatically by every finished span, labelled by span
#: name — the "per-stage latency" metric of docs/observability.md.
SPAN_SECONDS_METRIC = "repro_span_seconds"


class ObservabilityProvider:
    """A live provider: metrics + tracing + events, wired together.

    Every finished span also observes into the
    ``repro_span_seconds{span=<name>}`` histogram, so enabling tracing
    automatically yields per-stage latency distributions in the
    Prometheus export without double instrumentation.
    """

    enabled = True

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        events: Optional[EventLog] = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.events = events if events is not None else EventLog()
        if self.tracer.on_finish is None:
            self.tracer.on_finish = self._record_span

    def _record_span(self, record: SpanRecord) -> None:
        self.registry.histogram(
            SPAN_SECONDS_METRIC,
            "Wall time per traced pipeline stage",
            span=record.name,
        ).observe(record.duration)

    # ------------------------------------------------------------------
    def counter(self, name: str, help_text: str = "", **labels) -> Counter:
        return self.registry.counter(name, help_text, **labels)

    def gauge(self, name: str, help_text: str = "", **labels) -> Gauge:
        return self.registry.gauge(name, help_text, **labels)

    def histogram(self, name: str, help_text: str = "",
                  buckets=None, **labels) -> Histogram:
        return self.registry.histogram(name, help_text, buckets, **labels)

    def span(self, name: str, **meta):
        return self.tracer.span(name, **meta)

    def timer(self, name: str, help_text: str = "", **labels) -> _Timer:
        return _Timer(self.registry.histogram(name, help_text, **labels))

    def emit(self, kind: str, **fields) -> None:
        self.events.emit(kind, **fields)

    def snapshot(self) -> dict:
        return self.registry.snapshot()


NULL_PROVIDER = NullProvider()

_provider = NULL_PROVIDER


def get_provider():
    """The active provider (the shared no-op unless :func:`enable` or
    :func:`set_provider` installed a live one)."""
    return _provider


def set_provider(provider):
    """Install ``provider`` globally; returns the previous provider."""
    global _provider  # repro: disable=worker-reachability — the designed provider swap (the one sanctioned global); a shard installs its fresh provider once at start, and it holds telemetry only, which no checkpoint promises to restore
    previous = _provider
    _provider = provider
    return previous


def enable(provider: Optional[ObservabilityProvider] = None) -> ObservabilityProvider:
    """Switch observability on; returns the (new) live provider.

    Idempotent: if a live provider is already installed and none is
    passed, it is kept.
    """
    current = get_provider()
    if provider is None:
        if isinstance(current, ObservabilityProvider):
            return current
        provider = ObservabilityProvider()
    set_provider(provider)
    return provider


def disable():
    """Restore the no-op provider; returns the provider that was active."""
    return set_provider(NULL_PROVIDER)


def is_enabled() -> bool:
    return bool(get_provider().enabled)


def enable_from_env() -> bool:
    """Enable observability when ``$REPRO_OBS`` is set (non-empty).

    Returns whether a live provider is active afterwards. This is the
    hook the benchmark harness and CI use to flip metrics on without
    code changes.
    """
    if os.environ.get(OBS_ENV_VAR, ""):
        enable()
    return is_enabled()


__all__ = [
    "OBS_ENV_VAR",
    "SPAN_SECONDS_METRIC",
    "NullProvider",
    "ObservabilityProvider",
    "NULL_PROVIDER",
    "get_provider",
    "set_provider",
    "enable",
    "disable",
    "is_enabled",
    "enable_from_env",
]
