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
  subsequent data"). Batch and stream agree bit for bit: each window
  statistic has one formulation, the reduction of one trailing window
  (:func:`rolling_mean`, :func:`rolling_std`, :func:`warmup_magnitude`),
  and ±inf is a missing point where values enter (``_validate``,
  :meth:`StreamBank.extract_point`; a detector's own stream takes
  finite values or NaN). The tests enforce this for every config.

Both modes are **causal**: the severity of point *t* depends only on
points ``0..t``. Points inside a detector's warm-up window (§4.3.2) get
``NaN`` severity and are skipped during detection.

Configurations of one family (:meth:`Detector.family`) run together: a
:class:`FamilyEvaluator` computes all their columns in one batch pass
and its :class:`FamilyStream` advances all of them per point, with one
checkpoint entry per family. Every Table 3 family's stream keeps its
recent values once (one ring for the family, not one per config), and
a :class:`FamilyDetector` takes both modes from its family, run over
that one config. Only solo detectors (:class:`SoloEvaluator`) stream
through their own :meth:`Detector.stream`. The nan-aware row kernels
(:func:`row_nanmean`, :func:`row_nanmedian`, :func:`row_nanstd`) equal
numpy's ``nan*`` reductions bit for bit, cost as little on one row as
on many, and return NaN for a row with no observed value without
warning.
"""

from __future__ import annotations

import abc
import math
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


class _StreamState:
    """Generic checkpointing shared by :class:`SeverityStream` and
    :class:`FamilyStream`.

    :meth:`snapshot` captures the mutable state as a JSON-serializable
    dict and :meth:`restore` rebuilds it on a fresh stream of the same
    configuration, so a long-running service can resume warm streams
    without replaying history. The generic implementations walk
    ``__dict__``, skipping wiring (the owning :class:`Detector` or
    :class:`FamilyEvaluator`, bound methods/closures) and anything
    listed in ``_snapshot_skip``; streams holding state the encoder
    cannot handle override both methods (see ``_ARIMAStream``).
    """

    #: Attribute names the generic snapshot must not serialize.
    _snapshot_skip: Tuple[str, ...] = ()

    def snapshot(self) -> Dict[str, Any]:
        """The stream's mutable state as a JSON-serializable dict; a
        stream this one drives is stored as its own :meth:`snapshot`."""
        state: Dict[str, Any] = {}
        for key, value in self.__dict__.items():
            if key in self._snapshot_skip:
                continue
            if isinstance(value, (Detector, FamilyEvaluator)) or callable(value):
                continue
            if isinstance(value, _StreamState):
                state[key] = value.snapshot()
            else:
                state[key] = _encode_state(value)
        return state

    def restore(self, state: Mapping[str, Any]):
        """Load a :meth:`snapshot` into this (fresh) stream and return it.

        The stream must have been built by the *same* configuration that
        produced the snapshot; this is enforced at the
        :class:`~repro.core.StreamingDetector` level via feature names,
        not per stream.
        """
        for key, value in state.items():
            driven = self.__dict__.get(key)
            if isinstance(driven, _StreamState):
                driven.restore(value)
            else:
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
            elif isinstance(value, _StreamState):
                total += value.buffered_points()
        return total


class SeverityStream(_StreamState, abc.ABC):
    """Online severity computation: one :meth:`update` per data point.

    Streams are *checkpointable* (:meth:`snapshot`/:meth:`restore`, see
    :class:`_StreamState`).
    """

    @abc.abstractmethod
    def update(self, value: float) -> float:
        """Consume the next point and return its severity (NaN while the
        detector is warming up or the value is missing)."""


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
        """The values as float64, ±inf as a missing point (NaN)."""
        values = np.asarray(series.values, dtype=np.float64)
        if values.ndim != 1:
            raise DetectorError(f"expected 1-D values, got {values.shape}")
        infinite = np.isinf(values)
        if infinite.any():
            values = np.where(infinite, np.nan, values)
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


#: Most window elements :func:`rolling_std` reduces per call: 512 KB of
#: temporaries fit a core's L2 cache (1 << 20 was 25% slower at w=10,080).
ROLLING_CHUNK_ELEMENTS = 1 << 16


def rolling_mean(values: np.ndarray, window: int) -> np.ndarray:
    """Causal rolling mean of the *previous* ``window`` points.

    ``out[t]`` is the mean of ``values[t-window : t]`` — the current
    point is excluded, so prediction-based detectors stay causal. The
    first ``window`` entries are NaN. A missing (NaN) point makes only
    the windows that contain it NaN; it does not poison the rest of the
    series (dirty-data handling, §6). Each window is reduced on its own,
    as a stream reduces its trailing window.
    """
    if window <= 0:
        raise DetectorError(f"window must be positive, got {window}")
    n = len(values)
    out = np.full(n, np.nan)
    if n <= window:
        return out
    windows = np.lib.stride_tricks.sliding_window_view(values, window)
    out[window:] = windows[:-1].mean(axis=1)
    return out


def rolling_std(values: np.ndarray, window: int) -> np.ndarray:
    """Causal rolling standard deviation of the previous ``window``
    points (current point excluded), NaN during warm-up. NaN points
    invalidate only the windows containing them.

    ``out[t]`` is ``np.std(values[t-window : t])``, a stream's formula:
    each window is centred on its own mean, so a large offset cannot
    cancel the variance. O(n·window), in bounded chunks.
    """
    if window <= 1:
        raise DetectorError(f"window must be > 1 for std, got {window}")
    n = len(values)
    out = np.full(n, np.nan)
    if n <= window:
        return out
    windows = np.lib.stride_tricks.sliding_window_view(values, window)[:-1]
    rows = max(1, ROLLING_CHUNK_ELEMENTS // window)
    for begin in range(0, len(windows), rows):
        chunk = windows[begin:begin + rows]
        out[window + begin:window + begin + len(chunk)] = chunk.std(axis=1)
    return out


#: Least scale floor. A warm-up prefix of near-zero (e.g. subnormal)
#: magnitude would otherwise give a floor so small that dividing an
#: ordinary deviation by it overflows to inf.
MIN_SCALE_FLOOR = 1e-12


def scale_floor(magnitude: float) -> float:
    """The floor under a detector's scale estimate, so a constant
    history does not give infinite severities: 1e-6 of the warm-up
    prefix's mean absolute value, at least :data:`MIN_SCALE_FLOOR`.

    ``magnitude`` comes from the warm-up prefix only, so severities stay
    causal; it is NaN (or 0) for a prefix without observed values, which
    gives :data:`MIN_SCALE_FLOOR`. Batch and stream modes both call this.
    """
    if not np.isfinite(magnitude):
        return MIN_SCALE_FLOOR
    return max(1e-6 * float(magnitude), MIN_SCALE_FLOOR)


def warmup_magnitude(prefix: np.ndarray) -> float:
    """Mean |value| of a warm-up prefix's observed points (0.0 if none),
    summed in arrival order like a stream's running ``total += abs(v)``:
    ``np.cumsum`` is sequential, while ``mean`` sums pairwise and builtin
    ``sum`` is compensated on Python >= 3.12."""
    finite = np.abs(prefix[np.isfinite(prefix)])
    if not len(finite):
        return 0.0
    return float(np.cumsum(finite)[-1]) / len(finite)


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


def row_nanmean(matrix: np.ndarray) -> np.ndarray:
    """``np.nanmean(matrix, axis=-1)`` bit for bit, with NaN and no
    warning for a row holding no observed value.

    The sum and count are numpy's own (one reduction per row over a
    copy with the NaN cells zeroed), so a one-row matrix gives exactly
    the row of a many-row one. A 1-D vector reduces to a scalar, like
    ``np.nanmean``.
    """
    mask = np.isnan(matrix)
    count = np.add.reduce(~mask, axis=-1, dtype=np.intp)
    total = np.add.reduce(np.where(mask, 0.0, matrix), axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        return total / count


def row_nanstd(matrix: np.ndarray) -> np.ndarray:
    """``np.nanstd(matrix, axis=-1)`` bit for bit (numpy's two-pass
    ``nanvar``, then the square root), NaN and no warning for a row
    holding no observed value."""
    mask = np.isnan(matrix)
    count = np.add.reduce(~mask, axis=-1, dtype=np.intp, keepdims=True)
    filled = np.where(mask, 0.0, matrix)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.add.reduce(filled, axis=-1, keepdims=True) / count
        deviation = np.where(mask, 0.0, filled - mean)
        squares = np.add.reduce(deviation * deviation, axis=-1)
        return np.sqrt(squares / count[..., 0])


def row_nanmedian(matrix: np.ndarray) -> np.ndarray:
    """``np.nanmedian(matrix, axis=1)`` of a 2-D matrix bit for bit, NaN
    and no warning for a row holding no observed value.

    Sorting a row puts its NaN last, so its ``count`` observed values
    lead; the median is ``(lo + hi) / 2`` of the two middle ones (the
    one middle value twice for an odd count), as numpy computes it. An
    empty row reads its last cell, a NaN. Callers guard ``invalid``
    (``-inf + inf`` in a row) under ``np.errstate``.
    """
    ordered = np.sort(matrix, axis=1)
    count = np.add.reduce(~np.isnan(matrix), axis=1, dtype=np.intp)
    rows = np.arange(len(matrix))
    return (ordered[rows, (count - 1) // 2] + ordered[rows, count // 2]) / 2


def same_phase_history(
    values: np.ndarray, n_lags: int, lag: int
) -> np.ndarray:
    """``history[i, k]`` = the value ``(k + 1) * lag`` points before
    point ``n_lags * lag + i``: the same phase in each of the previous
    ``n_lags`` periods (weeks for TSD, days for historical)."""
    indices = np.arange(n_lags * lag, len(values))
    offsets = np.arange(1, n_lags + 1) * lag
    return values[indices[:, np.newaxis] - offsets[np.newaxis, :]]


def build_configs(detectors: Iterable[Detector]) -> List[DetectorConfig]:
    """Assign stable feature-column indices to a detector list."""
    return [DetectorConfig(i, d) for i, d in enumerate(detectors)]


# ----------------------------------------------------------------------
# Family-fused evaluation (the §5.8 hot-path contract)
# ----------------------------------------------------------------------
class FamilyStream(_StreamState, abc.ABC):
    """Online counterpart of :class:`FamilyEvaluator`: one
    :meth:`update` per point returns the severity of *every* config in
    the family. A family checkpoints as one state
    (:meth:`snapshot`/:meth:`restore`), so state the configs share —
    a ring of raw values, the warm-up buffer — is stored once."""

    @abc.abstractmethod
    def update(self, value: float) -> np.ndarray:
        """Severity of the new point for each config, in family order."""


class FamilyMemberStream(SeverityStream):
    """A one-config :class:`FamilyStream` seen as a
    :class:`SeverityStream`: the per-detector stream of a detector whose
    family stream is its only online formulation."""

    def __init__(self, family: FamilyStream):
        self._family = family

    def update(self, value: float) -> float:
        return float(self._family.update(value)[0])


class FamilyEvaluator(abc.ABC):
    """Fused severity computation for a group of sibling configs.

    One :meth:`evaluate` call produces the severity columns of every
    config in the family from a single pass over the series, sharing
    whatever intermediate the family's detectors recompute per config
    in solo mode (one-slot differences, seasonal history gathers, the
    Holt-Winters state sweep).
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

    @abc.abstractmethod
    def make_stream(self) -> FamilyStream:
        """The family's online stream, one :meth:`evaluate` row a point."""


class SoloEvaluator(FamilyEvaluator):
    """Wraps a single config that has no family (or whose family has no
    registered builder) in the :class:`FamilyEvaluator` contract."""

    def __init__(self, config: DetectorConfig):
        super().__init__([config])
        self.kind = config.detector.kind

    def evaluate(self, series: TimeSeries) -> np.ndarray:
        return self.configs[0].detector.severities(series).reshape(-1, 1)

    def make_stream(self) -> FamilyStream:
        return _SoloStream(self.configs[0].detector.stream())


class _SoloStream(FamilyStream):
    """A solo config's own :class:`SeverityStream` as a one-member
    family stream."""

    def __init__(self, stream: SeverityStream):
        self._stream = stream

    def update(self, value: float) -> np.ndarray:
        return np.array([self._stream.update(value)], dtype=np.float64)


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


def solo_family(detector: Detector) -> FamilyEvaluator:
    """The registered family evaluator over this one detector — for a
    detector whose family evaluator is its only formulation, the batch
    and online modes of the detector on its own."""
    builder = _FAMILY_BUILDERS[detector.family()[0]]
    return builder([DetectorConfig(0, detector)])


class FamilyDetector(Detector):
    """A detector whose registered family evaluator is its only
    formulation: batch severities and the online stream of one config
    are its family's, run over that config alone, so a solo detector
    and the fused bank share one copy of the math."""

    @abc.abstractmethod
    def family(self) -> FamilyKey:
        """The family key; its builder must be registered."""

    def severities(self, series: TimeSeries) -> np.ndarray:
        return solo_family(self).evaluate(series)[:, 0]

    def stream(self) -> SeverityStream:
        return FamilyMemberStream(solo_family(self).make_stream())


# ----------------------------------------------------------------------
# Same-phase families: TSD / TSD MAD and historical average / MAD
# ----------------------------------------------------------------------
class SamePhaseDetector(FamilyDetector):
    """Scores each point against its *same-phase history*: the values
    ``lag`` points apart over the previous ``n_lags`` periods (the same
    time of week for TSD, the same time of day for historical).

    Subclasses define ``lag``, ``n_lags`` and :meth:`_score_columns`;
    the family's :class:`SamePhaseEvaluator` scores both modes with the
    same kernel.
    """

    lag: int
    n_lags: int

    def warmup(self) -> int:
        return self.n_lags * self.lag

    def _prefix_state(self, prefix: np.ndarray) -> Optional[float]:
        """A statistic of the warm-up prefix ``values[:warmup()]`` that
        scoring needs (the historical scale floor), or None."""
        return None

    @abc.abstractmethod
    def _score_columns(
        self, tail: np.ndarray, history: np.ndarray, state: Optional[float]
    ) -> np.ndarray:
        """Severity of each post-warm-up point of ``tail`` given its
        same-phase ``history`` row and the :meth:`_prefix_state`."""


class SamePhaseEvaluator(FamilyEvaluator):
    """Fused pass over a same-phase family: one history gather and one
    prefix statistic per window size feed every config of that size.
    Its stream (:class:`SamePhaseStream`) scores each point with the
    same :meth:`_score` on a one-row history."""

    def __init__(self, configs: Sequence[DetectorConfig]):
        super().__init__(configs)
        lags = {config.detector.lag for config in self.configs}
        if len(lags) != 1:
            raise DetectorError(
                f"{self.kind} family spans several lags: {sorted(lags)}"
            )
        self.lag: int = lags.pop()
        by_window: Dict[int, List[int]] = {}
        for j, config in enumerate(self.configs):
            by_window.setdefault(config.detector.n_lags, []).append(j)
        #: ``(n_lags, family columns)`` per window size, ascending.
        self.windows: List[Tuple[int, List[int]]] = sorted(by_window.items())

    def evaluate(self, series: TimeSeries) -> np.ndarray:
        values = Detector._validate(series)
        n = len(values)
        out = np.full((n, len(self.configs)), np.nan)
        for n_lags, columns in self.windows:
            start = n_lags * self.lag
            if n <= start:
                break
            history = same_phase_history(values, n_lags, self.lag)
            state = self._prefix_state(columns, values[:start])
            self._score(out[start:], columns, values[start:], history, state)
        return out

    def _prefix_state(
        self, columns: Sequence[int], prefix: np.ndarray
    ) -> Optional[float]:
        return self.configs[columns[0]].detector._prefix_state(prefix)

    def _score(
        self,
        out: np.ndarray,
        columns: Sequence[int],
        tail: np.ndarray,
        history: np.ndarray,
        state: Optional[float],
    ) -> None:
        for j in columns:
            out[:, j] = self.configs[j].detector._score_columns(
                tail, history, state
            )

    def make_stream(self) -> FamilyStream:
        return SamePhaseStream(self)


class SamePhaseStream(FamilyStream):
    """Online counterpart of :class:`SamePhaseEvaluator`.

    One ring of raw values, sized for the family's largest window,
    serves every config. Each point gathers its same-phase history for
    the largest window from the ring, in :func:`same_phase_history`'s
    offset order, so a smaller window's one-row history is its leading
    columns; the batch kernel scores it. A window's prefix statistic is
    taken from the ring's prefix when its warm-up completes. So each
    row equals the batch matrix row bit for bit.
    """

    _snapshot_skip = ("_offsets",)

    def __init__(self, evaluator: SamePhaseEvaluator):
        self._evaluator = evaluator
        largest = evaluator.windows[-1][0]
        self._offsets = np.arange(1, largest + 1) * evaluator.lag
        self._ring = np.full(largest * evaluator.lag, np.nan)
        self._count = 0
        #: Prefix statistic per window size, set once it is warm.
        self._states: List[Optional[float]] = [None] * len(evaluator.windows)

    def update(self, value: float) -> np.ndarray:
        evaluator = self._evaluator
        out = np.full((1, len(evaluator.configs)), np.nan)
        size = len(self._ring)
        position = self._count % size
        if self._count >= evaluator.windows[0][0] * evaluator.lag:
            tail = np.array([value], dtype=np.float64)
            history = self._ring[(position - self._offsets) % size]
            for g, (n_lags, columns) in enumerate(evaluator.windows):
                start = n_lags * evaluator.lag
                if self._count < start:
                    break
                if self._count == start:
                    self._states[g] = evaluator._prefix_state(
                        columns, self._ring[:start]
                    )
                evaluator._score(
                    out,
                    columns,
                    tail,
                    history[np.newaxis, :n_lags],
                    self._states[g],
                )
        self._ring[position] = value
        self._count += 1
        return out[0]

    def buffered_points(self) -> int:
        return len(self._ring)


class StreamBank:
    """Warm per-point extraction over a whole configuration bank.

    Builds the family evaluators for the bank once, keeps one
    :class:`FamilyStream` per family, and maps each family's outputs
    back to the bank's column order, so :meth:`extract_point` fills a
    full feature row with one fused update per family (§4.3.2: the
    severity of a new point is computed the moment it arrives).
    Checkpoints hold one state per family stream, in evaluator order.
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
        """Severity row for the new point, in bank (column) order; ±inf
        is a missing point, as in :meth:`Detector._validate`."""
        value = float(value)
        if math.isinf(value):
            value = math.nan
        row = np.empty(len(self._configs), dtype=np.float64)
        for stream, positions in zip(self._streams, self._positions):
            row[positions] = stream.update(value)
        return row

    def snapshot(self) -> List[Dict[str, Any]]:
        """One checkpoint state per family stream, in evaluator order."""
        return [stream.snapshot() for stream in self._streams]

    def restore(self, states: Sequence[Mapping[str, Any]]) -> "StreamBank":
        """Load a :meth:`snapshot` into this bank's fresh streams."""
        if len(states) != len(self._streams):
            raise DetectorError(
                f"expected {len(self._streams)} family stream states, "
                f"got {len(states)}"
            )
        for stream, state in zip(self._streams, states):
            stream.restore(state)
        return self

    def buffered_points(self) -> int:
        return sum(stream.buffered_points() for stream in self._streams)
