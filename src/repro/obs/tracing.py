"""Span-based tracing for the Opprentice pipeline.

A *span* is one timed stage with metadata::

    with tracer.span("feature_matrix.extract", kpi="PV") as span:
        matrix = extractor.extract(series)
        span.set("n_points", matrix.n_points)

Spans nest (parent tracking is per-thread, so spans opened on the serve
plane's request threads attach to their own thread's stack) and
finished spans are kept in a bounded buffer for in-process inspection —
the §5.8 latency-ordering test reads per-span wall times directly.

Span names form a dotted taxonomy (``feature_matrix.extract``,
``train.fit``, ``classify.score_features``, ``service.retrain``, ...);
see ``docs/observability.md`` for the catalogue.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: Default cap on retained finished spans; older records are dropped
#: (``Tracer.dropped`` counts them) so long streaming runs stay bounded.
DEFAULT_MAX_SPANS = 10_000


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: wall time plus metadata."""

    name: str
    duration: float  # seconds
    span_id: int
    parent_id: Optional[int]
    depth: int
    meta: Dict[str, object] = field(default_factory=dict)


class Span:
    """An in-flight span; use as a context manager (re-entry is not
    supported — ask the tracer for a fresh span per stage)."""

    __slots__ = ("_tracer", "name", "meta", "_begin", "span_id", "parent_id",
                 "depth")

    def __init__(self, tracer: "Tracer", name: str, meta: Dict[str, object]):
        self._tracer = tracer
        self.name = name
        self.meta = meta
        self._begin = 0.0
        self.span_id = -1
        self.parent_id: Optional[int] = None
        self.depth = 0

    def set(self, key: str, value: object) -> None:
        """Attach metadata discovered mid-span."""
        self.meta[key] = value

    def __enter__(self) -> "Span":
        self._tracer._open(self)
        self._begin = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._begin
        self._tracer._close(self, duration)
        return False


class Tracer:
    """Creates spans and retains their finished records.

    Parameters
    ----------
    max_spans:
        Bound on the finished-record buffer (oldest dropped first).
    on_finish:
        Optional callback invoked with every :class:`SpanRecord`; the
        observability provider uses it to feed the per-span latency
        histogram so traces and metrics stay consistent.
    """

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS,
                 on_finish: Optional[Callable[[SpanRecord], None]] = None):
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.max_spans = max_spans
        self.on_finish = on_finish
        self._records: List[SpanRecord] = []
        self._dropped = 0
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------
    def span(self, name: str, **meta) -> Span:
        return Span(self, name, dict(meta))

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _open(self, span: Span) -> None:
        stack = self._stack()
        with self._lock:
            span.span_id = self._next_id
            self._next_id += 1
        span.parent_id = stack[-1].span_id if stack else None
        span.depth = len(stack)
        stack.append(span)

    def _close(self, span: Span, duration: float) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        record = SpanRecord(
            name=span.name,
            duration=duration,
            span_id=span.span_id,
            parent_id=span.parent_id,
            depth=span.depth,
            meta=dict(span.meta),
        )
        with self._lock:
            self._records.append(record)
            if len(self._records) > self.max_spans:
                overflow = len(self._records) - self.max_spans
                del self._records[:overflow]
                self._dropped += overflow
        if self.on_finish is not None:
            self.on_finish(record)

    # ------------------------------------------------------------------
    @property
    def finished(self) -> List[SpanRecord]:
        with self._lock:
            return list(self._records)

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def find(self, name: str) -> List[SpanRecord]:
        return [r for r in self.finished if r.name == name]

    def durations(self, name: str) -> List[float]:
        return [r.duration for r in self.find(name)]

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._dropped = 0


__all__ = [
    "DEFAULT_MAX_SPANS",
    "Span",
    "SpanRecord",
    "Tracer",
]
