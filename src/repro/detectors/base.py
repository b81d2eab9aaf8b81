"""The unified detector model of §4.3.1.

Every basic detector follows::

    data point --(detector with parameters)--> severity --(sThld)--> {1, 0}

In Opprentice detectors never apply the sThld themselves — a *detector
configuration* (detector + sampled parameters) is a feature extractor
whose output severity becomes one column of the learning feature matrix.

Two execution modes are provided:

* :meth:`Detector.severities` — vectorised batch computation over a whole
  series. This is what training and the moving-window evaluation use.
* :meth:`Detector.stream` — an online stream processing one point at a
  time, as required by §4.3.2 ("once a data point arrives, its severity
  should be calculated by the detectors without waiting for any
  subsequent data"). Batch and stream must agree point-for-point; the
  test suite enforces this for every registered configuration.

Both modes are **causal**: the severity of point *t* depends only on
points ``0..t``. Points inside a detector's warm-up window (§4.3.2) get
``NaN`` severity and are skipped during detection.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..timeseries import TimeSeries

ParamValue = Union[int, float, str]

#: A detector's family membership: ``(builder name, subgroup key)``.
#: Configurations sharing the same family key are fused into one
#: :class:`FamilyEvaluator` pass; ``None`` means "no family" (the
#: configuration runs solo).
FamilyKey = Tuple[str, Hashable]

#: Extra points kept beyond the warm-up window by the generic bounded
#: buffer, so boundary effects (e.g. a window that straddles the oldest
#: retained point) never reach the newest severity.
STREAM_BUFFER_SLACK = 16


class DetectorError(ValueError):
    """Raised for invalid detector parameters or inputs."""


_FLOAT_ONLY = frozenset({float})


def _encode_state(value: Any) -> Any:
    """Encode one stream attribute into JSON-serializable form.

    Numpy arrays and deques carry a kind tag so :func:`_decode_state`
    can rebuild them exactly (including a deque's ``maxlen``); plain
    scalars, strings, None and lists pass through. NaN is a legal float
    here — severity buffers legitimately contain NaN — and survives the
    round trip via JSON's (non-strict) NaN token.
    """
    if isinstance(value, np.ndarray):
        return {"__kind__": "ndarray", "values": value.tolist()}
    if isinstance(value, deque):
        # Severity and value rings hold nothing but floats; copy those
        # in one pass instead of walking every item.
        if set(map(type, value)) <= _FLOAT_ONLY:
            values = list(value)
        else:
            values = [_encode_state(item) for item in value]
        return {"__kind__": "deque", "maxlen": value.maxlen, "values": values}
    if isinstance(value, tuple):
        return {
            "__kind__": "tuple",
            "values": [_encode_state(item) for item in value],
        }
    if isinstance(value, list):
        return [_encode_state(item) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"cannot checkpoint attribute of type {type(value).__name__}; "
        "the stream must override snapshot()/restore()"
    )


def _decode_state(value: Any) -> Any:
    """Inverse of :func:`_encode_state`."""
    if isinstance(value, dict):
        kind = value.get("__kind__")
        if kind == "ndarray":
            return np.asarray(value["values"], dtype=np.float64)
        if kind == "deque":
            return deque(
                (_decode_state(item) for item in value["values"]),
                maxlen=value["maxlen"],
            )
        if kind == "tuple":
            return tuple(_decode_state(item) for item in value["values"])
        raise ValueError(f"unknown checkpoint state kind {kind!r}")
    if isinstance(value, list):
        return [_decode_state(item) for item in value]
    return value


class SeverityStream(abc.ABC):
    """Online severity computation: one :meth:`update` per data point.

    Streams are *checkpointable*: :meth:`snapshot` captures the mutable
    state as a JSON-serializable dict and :meth:`restore` rebuilds it on
    a fresh stream of the same configuration, so a long-running service
    can resume warm streams without replaying history. The generic
    implementations walk ``__dict__``, skipping wiring (the owning
    :class:`Detector`, bound methods/closures) and anything listed in
    ``_snapshot_skip``; streams holding state the encoder cannot handle
    override both methods (see ``_ARIMAStream``).
    """

    #: Attribute names the generic snapshot must not serialize.
    _snapshot_skip: Tuple[str, ...] = ()

    @abc.abstractmethod
    def update(self, value: float) -> float:
        """Consume the next point and return its severity (NaN while the
        detector is warming up or the value is missing)."""

    def snapshot(self) -> Dict[str, Any]:
        """The stream's mutable state as a JSON-serializable dict."""
        state: Dict[str, Any] = {}
        for key, value in self.__dict__.items():
            if key in self._snapshot_skip:
                continue
            if isinstance(value, Detector) or callable(value):
                continue
            state[key] = _encode_state(value)
        return state

    def restore(self, state: Mapping[str, Any]) -> "SeverityStream":
        """Load a :meth:`snapshot` into this (fresh) stream and return it.

        The stream must have been built by the *same* detector
        configuration that produced the snapshot; this is enforced at
        the :class:`~repro.core.StreamingDetector` level via feature
        names, not per stream.
        """
        for key, value in state.items():
            setattr(self, key, _decode_state(value))
        return self

    def buffered_points(self) -> int:
        """Number of buffered points held in container state — the
        quantity the ``repro_stream_buffer_points`` gauge aggregates.
        Bounded streams keep this flat no matter how long they run."""
        total = 0
        for value in self.__dict__.values():
            if isinstance(value, (list, deque, np.ndarray)):
                total += len(value)
        return total


class Detector(abc.ABC):
    """A basic anomaly detector acting as a severity (feature) extractor.

    Subclasses set :attr:`kind` (the Table 3 detector name) and define
    the parameters in their constructor. ``params()`` must return the
    constructor arguments so a configuration has a stable feature name.
    """

    #: Human-readable detector family name (e.g. "simple MA").
    kind: str = "detector"

    @abc.abstractmethod
    def params(self) -> Dict[str, ParamValue]:
        """The sampled parameter values identifying this configuration."""

    @abc.abstractmethod
    def warmup(self) -> int:
        """Number of leading points whose severity is undefined (NaN)."""

    @abc.abstractmethod
    def severities(self, series: TimeSeries) -> np.ndarray:
        """Severity of every point of ``series`` (vectorised, causal)."""

    def stream(self) -> SeverityStream:
        """An online stream for this configuration.

        The default implementation re-runs the batch computation on a
        buffer bounded by :meth:`stream_memory`, so the per-point cost
        is O(memory), not O(points seen). Detectors with cheap
        recurrences override this with a true O(1)-per-point stream.
        """
        return _BufferedStream(self)

    def stream_memory(self) -> Optional[int]:
        """Trailing points sufficient to reproduce the batch severity of
        the newest point, or ``None`` when no finite window suffices.

        The default — the warm-up window plus slack — is correct for
        every *window-bounded* detector (the severity of point ``t``
        depends only on points ``t - warmup() .. t``). Detectors whose
        severity depends on the whole prefix (exponential smoothing,
        cumulative statistics, models fitted on the prefix) must either
        override :meth:`stream` with a true recurrence (all registered
        ones do) or return ``None``, which makes :class:`_BufferedStream`
        fall back to an unbounded buffer rather than silently break the
        stream == batch invariant.
        """
        return self.warmup() + max(self.warmup(), STREAM_BUFFER_SLACK)

    def family(self) -> Optional[FamilyKey]:
        """Fusion family of this detector, or ``None`` to run solo.

        Configurations whose detectors report the same ``(builder,
        subgroup)`` key are handed together to the registered
        :class:`FamilyEvaluator` builder (see
        :func:`register_family_builder`), which computes all their
        severity columns in one fused pass sharing window sums,
        seasonal gathers, or smoothing sweeps. The contract is strict:
        the fused columns must be bit-identical to calling each
        config's :meth:`severities` on its own.
        """
        return None

    # ------------------------------------------------------------------
    @property
    def feature_name(self) -> str:
        """Stable identifier, e.g. ``"ewma(alpha=0.3)"``."""
        params = self.params()
        if not params:
            return self.kind
        inner = ",".join(f"{k}={params[k]}" for k in sorted(params))
        return f"{self.kind}({inner})"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.feature_name}>"

    # ------------------------------------------------------------------
    # Shared helpers for subclasses
    # ------------------------------------------------------------------
    @staticmethod
    def _validate(series: TimeSeries) -> np.ndarray:
        values = np.asarray(series.values, dtype=np.float64)
        if values.ndim != 1:
            raise DetectorError(f"expected 1-D values, got {values.shape}")
        return values


class _BufferedStream(SeverityStream):
    """Generic stream: recompute the batch severities on a buffer.

    A ``max_history`` cap — ``detector.stream_memory()``, floored at
    ``warmup() + 1`` so the newest point is always past the warm-up —
    bounds the buffer, making the per-point cost O(max_history) instead
    of O(points seen). Results match the batch mode for every detector
    whose memory is window-bounded; detectors with unbounded memory
    report ``stream_memory() is None`` and keep the full buffer.
    """

    def __init__(self, detector: Detector, interval: int = 60):
        self._detector = detector
        self._interval = interval
        cap = detector.stream_memory()
        if cap is not None:
            cap = max(int(cap), detector.warmup() + 1)
        self._max_history = cap
        self._values: Union[List[float], deque] = (
            deque(maxlen=cap) if cap is not None else []
        )

    @property
    def max_history(self) -> Optional[int]:
        """The buffer cap (``None`` = unbounded)."""
        return self._max_history

    def update(self, value: float) -> float:
        self._values.append(float(value))
        series = TimeSeries(
            values=np.asarray(self._values), interval=self._interval
        )
        return float(self._detector.severities(series)[-1])


@dataclass(frozen=True)
class DetectorConfig:
    """One of the 133 configurations: a detector bound to its feature
    column index in the feature matrix."""

    index: int
    detector: Detector

    @property
    def name(self) -> str:
        return self.detector.feature_name


def prefix_sums(values: np.ndarray) -> np.ndarray:
    """Zero-prefixed cumulative sum, the shared building block of the
    clean-data :func:`rolling_mean` path. A family evaluator computes
    this once per series and hands it to every window size."""
    return np.cumsum(np.concatenate([[0.0], values]))


def rolling_mean(
    values: np.ndarray,
    window: int,
    *,
    cumsum: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Causal rolling mean of the *previous* ``window`` points.

    ``out[t]`` is the mean of ``values[t-window : t]`` — the current
    point is excluded, so prediction-based detectors stay causal. The
    first ``window`` entries are NaN. A missing (NaN) point makes only
    the windows that contain it NaN; it does not poison the rest of the
    series (dirty-data handling, §6).

    ``cumsum`` may carry :func:`prefix_sums` of ``values`` precomputed
    by a fused family pass; it is only consulted on the clean-data
    branch, where it is bit-identical to recomputing it here.
    """
    if window <= 0:
        raise DetectorError(f"window must be positive, got {window}")
    n = len(values)
    out = np.full(n, np.nan)
    if n <= window:
        return out
    if np.isfinite(values).all():
        # Fast cumulative-sum path for clean data.
        if cumsum is None:
            cumsum = prefix_sums(values)
        out[window:] = (cumsum[window:-1] - cumsum[:-window - 1]) / window
    else:
        windows = np.lib.stride_tricks.sliding_window_view(values, window)
        out[window:] = windows[:-1].mean(axis=1)
    return out


def rolling_std(values: np.ndarray, window: int) -> np.ndarray:
    """Causal rolling standard deviation of the previous ``window``
    points (current point excluded), NaN during warm-up. NaN points
    invalidate only the windows containing them.

    The clean-data fast path centres the series on its global mean
    before taking cumulative sums: ``sum(x**2)`` of raw values near 1e8
    reaches 1e16 per point, where float64 spacing (~1) wipes out the
    entire variance of a modest-spread window — the uncentred formula
    returned stds that were wrong or clamped to zero. Variance is
    shift-invariant, so centring changes nothing mathematically while
    keeping the summed squares on the order of the spread, not the
    offset.
    """
    if window <= 1:
        raise DetectorError(f"window must be > 1 for std, got {window}")
    n = len(values)
    out = np.full(n, np.nan)
    if n <= window:
        return out
    if np.isfinite(values).all():
        centered = values - values.mean()
        cumsum = np.cumsum(np.concatenate([[0.0], centered]))
        cumsq = np.cumsum(np.concatenate([[0.0], centered * centered]))
        total = cumsum[window:-1] - cumsum[:-window - 1]
        total_sq = cumsq[window:-1] - cumsq[:-window - 1]
        variance = np.maximum(total_sq / window - (total / window) ** 2, 0.0)
        out[window:] = np.sqrt(variance)
    else:
        windows = np.lib.stride_tricks.sliding_window_view(values, window)
        out[window:] = windows[:-1].std(axis=1)
    return out


def phase_view(values: np.ndarray, period: int) -> np.ndarray:
    """Reshape a series into an (occurrence, phase) matrix, padding the
    final partial period with NaN. Used by seasonal detectors that
    compare each point with the same phase in previous periods."""
    if period <= 0:
        raise DetectorError(f"period must be positive, got {period}")
    n = len(values)
    n_rows = -(-n // period)
    padded = np.full(n_rows * period, np.nan)
    padded[:n] = values
    return padded.reshape(n_rows, period)


def nan_row_stat(
    stat: Callable[..., np.ndarray], matrix: np.ndarray
) -> np.ndarray:
    """``stat(matrix, axis=1)`` for a nan-aware ``stat`` (``np.nanmean``,
    ``np.nanmedian``), with NaN for rows holding no observed value.

    numpy warns on such all-NaN rows; leaving them out of the reduction
    keeps the process-global warning filters untouched. Each row is
    reduced on its own, so every value equals the plain call's bit for
    bit, and runs of observed rows are passed as slices, so a
    sliding-window view is never copied. Callers still guard
    ``invalid`` under ``np.errstate`` (e.g. ``inf - inf`` in a row).
    """
    observed = ~np.isnan(matrix).all(axis=1)
    if observed.all():
        return stat(matrix, axis=1)
    out = np.full(len(matrix), np.nan)
    edges = np.flatnonzero(
        np.diff(observed.astype(np.int8), prepend=0, append=0)
    )
    for begin, end in zip(edges[::2], edges[1::2]):
        out[begin:end] = stat(matrix[begin:end], axis=1)
    return out


def build_configs(detectors: Iterable[Detector]) -> List[DetectorConfig]:
    """Assign stable feature-column indices to a detector list."""
    return [DetectorConfig(i, d) for i, d in enumerate(detectors)]


# ----------------------------------------------------------------------
# Family-fused evaluation (the §5.8 hot-path contract)
# ----------------------------------------------------------------------
class FamilyStream(abc.ABC):
    """Online counterpart of :class:`FamilyEvaluator`: one
    :meth:`update` per point returns the severity of *every* config in
    the family, and checkpoints decompose into the same per-config
    dicts the individual :class:`SeverityStream` classes produce, so
    the :class:`~repro.core.StreamingDetector` checkpoint format is
    unchanged."""

    @abc.abstractmethod
    def update(self, value: float) -> np.ndarray:
        """Severity of the new point for each config, in family order."""

    @abc.abstractmethod
    def snapshots(self) -> List[Dict[str, Any]]:
        """Per-config checkpoint dicts, in family order. Each dict must
        be loadable by the config's own solo stream (and vice versa)."""

    @abc.abstractmethod
    def restore(self, states: Sequence[Mapping[str, Any]]) -> "FamilyStream":
        """Load per-config snapshots (family order) into this fresh
        stream and return it."""

    def buffered_points(self) -> int:
        """Buffered container state, aggregated across the family."""
        total = 0
        for value in self.__dict__.values():
            if isinstance(value, (list, deque, np.ndarray)):
                total += len(value)
        return total


class PerConfigStreams(FamilyStream):
    """Default family stream: one solo :class:`SeverityStream` per
    config, advanced in lockstep. Used whenever a family has no fused
    streaming recurrence."""

    def __init__(self, streams: Sequence[SeverityStream]):
        self._streams = list(streams)

    def update(self, value: float) -> np.ndarray:
        return np.array(
            [stream.update(value) for stream in self._streams],
            dtype=np.float64,
        )

    def snapshots(self) -> List[Dict[str, Any]]:
        return [stream.snapshot() for stream in self._streams]

    def restore(self, states: Sequence[Mapping[str, Any]]) -> "PerConfigStreams":
        if len(states) != len(self._streams):
            raise DetectorError(
                f"expected {len(self._streams)} stream states, got {len(states)}"
            )
        for stream, state in zip(self._streams, states):
            stream.restore(state)
        return self

    def buffered_points(self) -> int:
        return sum(stream.buffered_points() for stream in self._streams)


class FamilyEvaluator(abc.ABC):
    """Fused severity computation for a group of sibling configs.

    One :meth:`evaluate` call produces the severity columns of every
    config in the family from a single pass over the series, sharing
    whatever intermediate the family's detectors recompute per config
    in solo mode (window prefix sums, seasonal history gathers, the
    Holt-Winters state sweep). Instances must be picklable — the
    process backend ships them to pool workers.
    """

    #: Display name used for observability labels (span/timer
    #: ``detector=`` tags) when the family runs as one task.
    kind: str = "family"

    def __init__(self, configs: Sequence[DetectorConfig]):
        self.configs: Tuple[DetectorConfig, ...] = tuple(configs)
        if not self.configs:
            raise DetectorError("a family evaluator needs at least one config")

    @property
    def indices(self) -> Tuple[int, ...]:
        """Feature-matrix column index of each config, family order."""
        return tuple(config.index for config in self.configs)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(config.name for config in self.configs)

    @abc.abstractmethod
    def evaluate(self, series: TimeSeries) -> np.ndarray:
        """``(n_points, n_configs)`` severity matrix, columns in family
        order — bit-identical to stacking each config's solo
        :meth:`Detector.severities`."""

    def make_stream(self) -> FamilyStream:
        """Online streams for the family; the default advances each
        config's solo stream."""
        return PerConfigStreams(
            [config.detector.stream() for config in self.configs]
        )


class SoloEvaluator(FamilyEvaluator):
    """Wraps a single config that has no family (or whose family has no
    registered builder) in the :class:`FamilyEvaluator` contract."""

    def __init__(self, config: DetectorConfig):
        super().__init__([config])
        self.kind = config.detector.kind

    def evaluate(self, series: TimeSeries) -> np.ndarray:
        return self.configs[0].detector.severities(series).reshape(-1, 1)


#: Registered family builders: name -> callable(configs) -> evaluator.
#: Detector modules register theirs at import time via
#: :func:`register_family_builder`, which keeps this module free of
#: circular imports.
_FAMILY_BUILDERS: Dict[
    str, Callable[[Sequence[DetectorConfig]], FamilyEvaluator]
] = {}


def register_family_builder(
    name: str,
) -> Callable[
    [Callable[[Sequence[DetectorConfig]], FamilyEvaluator]],
    Callable[[Sequence[DetectorConfig]], FamilyEvaluator],
]:
    """Class/function decorator registering a family evaluator builder
    under ``name`` (the first element of :meth:`Detector.family`)."""

    def decorate(builder):
        if name in _FAMILY_BUILDERS:
            raise DetectorError(f"family builder {name!r} already registered")
        _FAMILY_BUILDERS[name] = builder
        return builder

    return decorate


def build_family_evaluators(
    configs: Sequence[DetectorConfig],
) -> List[FamilyEvaluator]:
    """Group a config bank into fused family evaluators.

    Configs sharing a :meth:`Detector.family` key collapse into one
    evaluator (placed at the first member's position); configs with no
    family — or a family with no registered builder — become
    :class:`SoloEvaluator`s. Every config appears in exactly one
    returned evaluator.
    """
    grouped: Dict[FamilyKey, List[DetectorConfig]] = {}
    order: List[Tuple[str, Any]] = []
    for config in configs:
        key = config.detector.family()
        if key is not None and key[0] in _FAMILY_BUILDERS:
            if key not in grouped:
                grouped[key] = []
                order.append(("family", key))
            grouped[key].append(config)
        else:
            order.append(("solo", config))
    evaluators: List[FamilyEvaluator] = []
    for tag, item in order:
        if tag == "solo":
            evaluators.append(SoloEvaluator(item))
        else:
            evaluators.append(_FAMILY_BUILDERS[item[0]](grouped[item]))
    return evaluators


class StreamBank:
    """Warm per-point extraction over a whole configuration bank.

    Builds the family evaluators for the bank once, keeps one
    :class:`FamilyStream` per family, and maps each family's outputs
    back to the bank's column order, so :meth:`extract_point` fills a
    full feature row with one fused update per family (§4.3.2: the
    severity of a new point is computed the moment it arrives).
    Checkpoints stay per-config — :meth:`snapshots` returns one dict
    per bank position, interchangeable with the solo streams'.
    """

    def __init__(self, configs: Sequence[DetectorConfig]):
        self._configs: Tuple[DetectorConfig, ...] = tuple(configs)
        self._evaluators = build_family_evaluators(self._configs)
        position = {id(config): i for i, config in enumerate(self._configs)}
        self._positions: List[np.ndarray] = [
            np.array(
                [position[id(config)] for config in evaluator.configs],
                dtype=np.intp,
            )
            for evaluator in self._evaluators
        ]
        self._streams: List[FamilyStream] = [
            evaluator.make_stream() for evaluator in self._evaluators
        ]

    def __len__(self) -> int:
        return len(self._configs)

    @property
    def configs(self) -> Tuple[DetectorConfig, ...]:
        return self._configs

    def extract_point(self, value: float) -> np.ndarray:
        """Severity row for the new point, in bank (column) order."""
        row = np.empty(len(self._configs), dtype=np.float64)
        for stream, positions in zip(self._streams, self._positions):
            row[positions] = stream.update(value)
        return row

    def snapshots(self) -> List[Dict[str, Any]]:
        """Per-config checkpoint dicts, in bank order."""
        states: List[Optional[Dict[str, Any]]] = [None] * len(self._configs)
        for stream, positions in zip(self._streams, self._positions):
            for pos, state in zip(positions, stream.snapshots()):
                states[pos] = state
        return states  # type: ignore[return-value]

    def restore(self, states: Sequence[Mapping[str, Any]]) -> "StreamBank":
        """Load per-config snapshots (bank order) into fresh streams."""
        if len(states) != len(self._configs):
            raise DetectorError(
                f"expected {len(self._configs)} stream states, got {len(states)}"
            )
        for stream, positions in zip(self._streams, self._positions):
            stream.restore([states[pos] for pos in positions])
        return self

    def buffered_points(self) -> int:
        return sum(stream.buffered_points() for stream in self._streams)
