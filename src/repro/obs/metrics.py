"""Metric primitives: counters, gauges and fixed-bucket histograms.

The §5.8 practicality argument is quantitative — per-point feature
extraction ~0.15 s, classification < 0.0001 s, retraining < 5 min — so
the repro needs first-class runtime accounting. This module is the
storage layer: a :class:`MetricsRegistry` holds metric *families*
(name + kind + help) whose children are distinguished by label sets,
Prometheus-style. Everything is stdlib-only and thread-safe (the serve
plane records from its request threads).

Naming follows the Prometheus conventions: ``repro_*_total`` counters,
``repro_*_seconds`` histograms with the fixed
:data:`DEFAULT_LATENCY_BUCKETS` (1 µs .. 10 min), and plain gauges.
"""

from __future__ import annotations

import bisect
import re
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Fixed latency buckets in seconds, spanning classification (~µs),
#: per-point feature extraction (~ms-0.1 s) and retraining (~s-min) so
#: one bucket layout serves every stage of the pipeline.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 0.025, 0.1, 0.5, 1.0, 5.0, 30.0,
    120.0, 600.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricError(ValueError):
    """Invalid metric name, label, kind clash, or observation."""


class Counter:
    """A monotonically increasing count (events, points, alerts)."""

    kind = "counter"

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    def _set_total(self, value: float) -> None:
        # Backing store for ServiceStats' attribute-compatible setters;
        # not part of the public counter contract (counters only go up).
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (cThld, bank size, queue depth)."""

    kind = "gauge"

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket distribution (latencies in seconds).

    Buckets are upper bounds; an implicit ``+Inf`` bucket catches the
    rest. ``counts`` are per-bucket (non-cumulative); exporters derive
    the cumulative Prometheus form.
    """

    kind = "histogram"

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise MetricError(
                f"histogram buckets must be distinct and ascending: {bounds}"
            )
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # + the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def counts(self) -> List[int]:
        with self._lock:
            return list(self._counts)

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def cumulative(self) -> List[Tuple[str, int]]:
        """``(upper_bound_label, cumulative_count)`` pairs, ``+Inf`` last."""
        counts = self.counts
        pairs: List[Tuple[str, int]] = []
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            pairs.append((format_bound(bound), running))
        pairs.append(("+Inf", running + counts[-1]))
        return pairs


def format_bound(bound: float) -> str:
    """A stable short rendering for bucket upper bounds (``0.001``)."""
    text = f"{bound:g}"
    return text


def estimate_percentile(
    bounds: Sequence[float], cumulative: Sequence[float], q: float
) -> Optional[float]:
    """Prometheus-style percentile estimate from cumulative buckets.

    ``bounds`` are the finite ascending upper bounds; ``cumulative`` has
    one extra trailing entry for the implicit ``+Inf`` bucket, so
    ``cumulative[-1]`` is the total observation count. The estimate
    interpolates linearly inside the bucket the rank falls in (lower
    edge 0 for the first bucket, matching ``histogram_quantile``); a
    rank landing in the overflow bucket returns the highest finite
    bound, the standard conservative convention. Returns None for an
    empty histogram.

    This is the single quantile implementation shared by the SLO engine
    (`repro.obs.slo`), the ``repro-obs dump``/``diff`` percentile
    columns and the fleet status rollup.
    """
    if not 0.0 <= q <= 1.0:
        raise MetricError(f"quantile must be in [0, 1], got {q}")
    if len(cumulative) != len(bounds) + 1:
        raise MetricError(
            f"cumulative counts must cover every bound plus +Inf: "
            f"{len(bounds)} bounds, {len(cumulative)} counts"
        )
    total = cumulative[-1]
    if total <= 0:
        return None
    rank = q * total
    index = bisect.bisect_left(cumulative, rank)
    if index >= len(bounds):
        return float(bounds[-1])
    previous = cumulative[index - 1] if index else 0
    in_bucket = cumulative[index] - previous
    upper = bounds[index]
    if in_bucket <= 0:
        return float(upper)
    lower = bounds[index - 1] if index else min(0.0, upper)
    fraction = (rank - previous) / in_bucket
    return float(lower + (upper - lower) * fraction)


def estimate_cdf(
    bounds: Sequence[float], cumulative: Sequence[float], value: float
) -> Optional[float]:
    """Estimated fraction of observations <= ``value`` (interpolated).

    The inverse view of :func:`estimate_percentile`, used by the SLO
    engine to turn a latency histogram into an error ratio ("what
    fraction of requests exceeded the target?"). A ``value`` at or
    beyond the highest finite bound returns the known fraction below
    that bound — overflow observations are counted as violations, the
    conservative choice for a compliance gate. Returns None for an
    empty histogram.
    """
    if len(cumulative) != len(bounds) + 1:
        raise MetricError(
            f"cumulative counts must cover every bound plus +Inf: "
            f"{len(bounds)} bounds, {len(cumulative)} counts"
        )
    total = cumulative[-1]
    if total <= 0:
        return None
    index = bisect.bisect_left(bounds, value)
    if index >= len(bounds):
        return float(cumulative[-2] / total)
    previous = cumulative[index - 1] if index else 0
    in_bucket = cumulative[index] - previous
    upper = bounds[index]
    lower = bounds[index - 1] if index else min(0.0, upper)
    if in_bucket <= 0 or upper == lower:
        return float(previous / total)
    fraction = max(0.0, min(1.0, (value - lower) / (upper - lower)))
    return float((previous + in_bucket * fraction) / total)


class _Family:
    """One metric name: shared kind/help, children per label set."""

    def __init__(self, name: str, kind: str, help_text: str,
                 buckets: Optional[Tuple[float, ...]] = None):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.buckets = buckets
        self.children: Dict[Tuple[Tuple[str, str], ...], object] = {}


def _label_key(labels: Mapping[str, object]) -> Tuple[Tuple[str, str], ...]:
    for key in labels:
        if not _LABEL_RE.match(key):
            raise MetricError(f"invalid label name {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Thread-safe home for every metric family of one process/service.

    >>> registry = MetricsRegistry()
    >>> registry.counter("repro_points_ingested_total", "Points seen").inc()
    >>> registry.histogram("repro_ingest_seconds").observe(0.002)
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _child(self, name: str, kind: str, help_text: str,
               labels: Mapping[str, object],
               buckets: Optional[Sequence[float]] = None) -> object:
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(
                    name, kind, help_text,
                    tuple(buckets) if buckets is not None else None,
                )
                self._families[name] = family
            elif family.kind != kind:
                raise MetricError(
                    f"metric {name!r} already registered as {family.kind}, "
                    f"not {kind}"
                )
            if help_text and not family.help:
                family.help = help_text
            child = family.children.get(key)
            if child is None:
                if kind == "counter":
                    child = Counter()
                elif kind == "gauge":
                    child = Gauge()
                else:
                    child = Histogram(family.buckets or DEFAULT_LATENCY_BUCKETS)
                family.children[key] = child
            return child

    def counter(self, name: str, help_text: str = "", **labels) -> Counter:
        child = self._child(name, "counter", help_text, labels)
        assert isinstance(child, Counter)
        return child

    def gauge(self, name: str, help_text: str = "", **labels) -> Gauge:
        child = self._child(name, "gauge", help_text, labels)
        assert isinstance(child, Gauge)
        return child

    def histogram(self, name: str, help_text: str = "",
                  buckets: Optional[Sequence[float]] = None,
                  **labels) -> Histogram:
        child = self._child(name, "histogram", help_text, labels, buckets)
        assert isinstance(child, Histogram)
        return child

    # ------------------------------------------------------------------
    def families(self) -> Iterable[_Family]:
        with self._lock:
            return list(self._families.values())

    def snapshot(self) -> dict:
        """A JSON-able dump of every family and child (see exporters)."""
        metrics = []
        for family in self.families():
            samples = []
            for key, child in sorted(family.children.items()):
                labels = dict(key)
                if isinstance(child, Histogram):
                    samples.append({
                        "labels": labels,
                        "buckets": [
                            [label, count] for label, count in child.cumulative()
                        ],
                        "sum": child.sum,
                        "count": child.count,
                    })
                else:
                    assert isinstance(child, (Counter, Gauge))
                    samples.append({"labels": labels, "value": child.value})
            metrics.append({
                "name": family.name,
                "kind": family.kind,
                "help": family.help,
                "samples": samples,
            })
        metrics.sort(key=lambda m: m["name"])
        return {"version": 1, "metrics": metrics}

    def clear(self) -> None:
        with self._lock:
            self._families.clear()


__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "MetricError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "format_bound",
    "estimate_percentile",
    "estimate_cdf",
]
