"""Pluggable execution backends for feature extraction (§5.8).

The paper's per-point detection cost is dominated by running the
14-detector / 133-configuration bank, and §5.8 notes that "all the
detectors can run in parallel". This module turns that observation into
an explicit execution layer: the bank is first compiled into fused
:class:`~repro.detectors.base.FamilyEvaluator` units (see
:func:`repro.detectors.build_family_evaluators` — sibling configurations
share their window sums, seasonal gathers and smoothing sweeps), then an
:class:`ExecutionBackend` decides *where* the evaluators run:

* ``serial`` — one evaluator after another in the calling thread;
* ``thread`` — a :class:`~concurrent.futures.ThreadPoolExecutor`; real
  speed-ups only for detectors that release the GIL (SVD, the seasonal
  matrices), the pure-Python ones serialize;
* ``process`` — a *persistent* :class:`~concurrent.futures.ProcessPoolExecutor`
  fed through :mod:`multiprocessing.shared_memory`: the pool is forked
  once and reused across ``run_tasks`` calls, each call publishes the
  input series into a fresh shared segment that workers attach by name
  (and cache until the name changes), and only the per-configuration
  float64 severity columns travel back. ``close()`` — or garbage
  collection, via ``weakref.finalize`` — releases the pool and segment;
  a crashed worker triggers one pool re-fork and the undelivered
  evaluators are resubmitted.

Whatever the backend, results are assembled into the feature matrix by
each evaluator's registry indices, so the matrix is bit-identical across
all three backends (the test suite enforces this for the full Table 3
bank). Code reachable from the worker entry points must not mutate
module-level state — mutations would be invisible to the parent and
make results depend on worker scheduling; the ``worker-reachability``
lint rule enforces this statically by walking the project call graph
from ``_process_worker_run`` / ``_process_worker_attach``.
"""

from __future__ import annotations

import abc
import os
import weakref
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..detectors.base import FamilyEvaluator
from ..obs import get_provider
from ..timeseries import TimeSeries

BACKEND_NAMES = ("serial", "thread", "process")


def get_fork_context():
    """The ``fork`` multiprocessing context (or the platform default
    where fork is unavailable).

    Shared by the persistent extraction pool below and the serve
    plane's :class:`~repro.serve.ShardSupervisor`: forked children
    inherit the parent's memory copy-on-write, so a bootstrapped
    template service (or a compiled detector bank) crosses into the
    worker for free instead of being pickled.
    """
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def resolve_workers(workers: int) -> int:
    """Validate and resolve a worker count.

    ``0`` means "auto": one worker per available CPU. Negative counts
    are rejected (they used to fall through to the serial path
    silently).
    """
    if workers < 0:
        raise ValueError(
            f"workers must be >= 0 (0 = one per CPU), got {workers}"
        )
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def _run_task_instrumented(
    evaluator: FamilyEvaluator, series: TimeSeries, backend: str
) -> np.ndarray:
    """Run one evaluator under the standard observability envelope,
    returning its columns as float64.

    In process-backend workers the global provider is the no-op, so the
    span/timer cost nothing there; the parent's ``feature_matrix.extract``
    span still records the overall wall time.
    """
    obs = get_provider()
    with obs.span(
        "extract.config",
        backend=backend,
        detector=evaluator.kind,
        n_columns=len(evaluator.configs),
    ):
        with obs.timer(
            "repro_detector_severities_seconds",
            "Severity extraction per detector configuration batch",
            detector=evaluator.kind,
        ):
            return np.asarray(evaluator.evaluate(series), dtype=np.float64)


TaskResult = Tuple[FamilyEvaluator, np.ndarray]


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
class ExecutionBackend(abc.ABC):
    """Strategy deciding where family evaluators execute."""

    name: str = "backend"

    def __init__(self, workers: int = 1):
        self.workers = resolve_workers(workers)

    @abc.abstractmethod
    def run_tasks(
        self, evaluators: Sequence[FamilyEvaluator], series: TimeSeries
    ) -> Iterator[TaskResult]:
        """Yield ``(evaluator, columns)`` pairs in any completion order."""

    def close(self) -> None:
        """Release any long-lived resources (pools, shared memory).

        A no-op for the stateless backends; the process backend holds a
        persistent pool and segment across ``run_tasks`` calls and
        frees them here (or on garbage collection)."""


class SerialBackend(ExecutionBackend):
    """Run every evaluator in the calling thread, registry order."""

    name = "serial"

    def run_tasks(
        self, evaluators: Sequence[FamilyEvaluator], series: TimeSeries
    ) -> Iterator[TaskResult]:
        for evaluator in evaluators:
            yield evaluator, _run_task_instrumented(evaluator, series, self.name)


class ThreadBackend(ExecutionBackend):
    """Fan evaluators out over a thread pool (GIL-releasing detectors only
    actually overlap; this is the pre-existing behaviour)."""

    name = "thread"

    def run_tasks(
        self, evaluators: Sequence[FamilyEvaluator], series: TimeSeries
    ) -> Iterator[TaskResult]:
        if self.workers <= 1 or len(evaluators) <= 1:
            yield from SerialBackend(1).run_tasks(evaluators, series)
            return
        from concurrent.futures import ThreadPoolExecutor

        def run(evaluator: FamilyEvaluator) -> TaskResult:
            return evaluator, _run_task_instrumented(evaluator, series, self.name)

        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            yield from pool.map(run, evaluators)


# -- process backend ---------------------------------------------------
# Worker-global read-only series, attached (and cached) per shared-
# memory segment name: the persistent pool outlives any one series, so
# each submission carries the segment metadata and the worker swaps its
# mapping only when the name changes.
_worker_series: Optional[TimeSeries] = None
_worker_shm = None
_worker_segment: Optional[str] = None

#: Segment metadata shipped with every evaluator submission:
#: ``(shm_name, n_points, interval, start, name)``.
SeriesMeta = Tuple[str, int, int, int, str]


def _process_worker_attach(  # repro: disable=worker-reachability — caches the worker-local shared-memory mapping, swapped only when the parent publishes a new segment; invisible-to-parent by design
    shm_name: str, n_points: int, interval: int, start: int, name: str
) -> TimeSeries:
    from multiprocessing import shared_memory

    global _worker_series, _worker_shm, _worker_segment
    if _worker_segment != shm_name:
        if _worker_shm is not None:
            # The parent already unlinked the old segment when it
            # published the new one; closing the last mapping frees it.
            _worker_shm.close()
        # Forked workers share the parent's resource tracker, whose
        # registry is a set: attaching re-registers the same segment
        # name as a no-op, and the parent's unlink() unregisters it
        # exactly once — no extra bookkeeping needed here.
        _worker_shm = shared_memory.SharedMemory(name=shm_name)
        _worker_segment = shm_name
        values = np.ndarray(
            (n_points,), dtype=np.float64, buffer=_worker_shm.buf
        )
        values.flags.writeable = False
        _worker_series = TimeSeries(
            values=values, interval=interval, start=start, name=name
        )
    return _worker_series


def _process_worker_run(meta: SeriesMeta, evaluator: FamilyEvaluator) -> TaskResult:
    series = _process_worker_attach(*meta)
    return evaluator, _run_task_instrumented(evaluator, series, "process")


class _PoolResources:
    """The process backend's long-lived resources, held in a separate
    object so a ``weakref.finalize`` on the backend can release them
    without keeping the backend itself alive."""

    def __init__(self) -> None:
        self.pool = None
        self.shm = None

    def drop_shm(self) -> None:
        if self.shm is not None:
            shm, self.shm = self.shm, None
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def drop_pool(self) -> None:
        if self.pool is not None:
            pool, self.pool = self.pool, None
            pool.shutdown(wait=False, cancel_futures=True)

    def release(self) -> None:
        self.drop_pool()
        self.drop_shm()


class ProcessBackend(ExecutionBackend):
    """Fan evaluators out over a persistent process pool via shared memory.

    The pool is forked on first use and *reused across ``run_tasks``
    calls* — repeated extractions (the fleet loop, retraining) no
    longer pay a fork per call. Each call publishes the series into a
    fresh shared-memory segment (unlinking the previous one); workers
    attach by segment name and cache the mapping until the name
    changes, so the values cross the process boundary exactly once per
    series and each result crosses back as one float64 column block.

    Lifecycle: :meth:`close` shuts the pool down and unlinks the
    segment; a ``weakref.finalize`` does the same at garbage collection
    so an abandoned backend — or an abandoned ``run_tasks`` generator —
    never orphans the segment. If a worker dies mid-flight
    (``BrokenProcessPool``), the pool is re-forked once and the
    not-yet-delivered evaluators are resubmitted.
    """

    name = "process"

    def __init__(self, workers: int = 1):
        super().__init__(workers)
        self._resources: Optional[_PoolResources] = None
        self._finalizer = None

    def _ensure_resources(self) -> _PoolResources:
        if self._finalizer is None or not self._finalizer.alive:
            self._resources = _PoolResources()
            self._finalizer = weakref.finalize(self, self._resources.release)
        return self._resources

    def _ensure_pool(self):
        resources = self._ensure_resources()
        if resources.pool is None:
            from concurrent.futures import ProcessPoolExecutor

            resources.pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=get_fork_context()
            )
        return resources.pool

    def _publish_series(self, series: TimeSeries) -> SeriesMeta:
        """Copy the series into a fresh shared segment (replacing the
        previous call's) and return the metadata workers attach with."""
        from multiprocessing import shared_memory

        resources = self._ensure_resources()
        values = np.ascontiguousarray(series.values, dtype=np.float64)
        resources.drop_shm()
        shm = shared_memory.SharedMemory(create=True, size=max(values.nbytes, 1))
        np.ndarray(values.shape, dtype=np.float64, buffer=shm.buf)[:] = values
        resources.shm = shm
        return (shm.name, len(series), series.interval, series.start, series.name)

    def close(self) -> None:
        if self._finalizer is not None:
            self._finalizer()

    def run_tasks(
        self, evaluators: Sequence[FamilyEvaluator], series: TimeSeries
    ) -> Iterator[TaskResult]:
        if self.workers <= 1 or len(evaluators) <= 1 or len(series) == 0:
            yield from SerialBackend(1).run_tasks(evaluators, series)
            return
        from concurrent.futures.process import BrokenProcessPool

        meta = self._publish_series(series)
        pending: List[FamilyEvaluator] = list(evaluators)
        refork_budget = 1
        while pending:
            pool = self._ensure_pool()
            futures = [
                pool.submit(_process_worker_run, meta, evaluator)
                for evaluator in pending
            ]
            try:
                for offset, future in enumerate(futures):
                    try:
                        evaluator, columns = future.result()
                    except BrokenProcessPool:
                        # A worker died. Re-fork once and resubmit the
                        # evaluators whose results were not delivered yet.
                        if refork_budget <= 0:
                            raise
                        refork_budget -= 1
                        self._ensure_resources().drop_pool()
                        pending = pending[offset:]
                        break
                    yield evaluator, columns
                else:
                    pending = []
            finally:
                # Runs on normal exit, evaluator exceptions, *and* early
                # generator disposal: never leave the persistent pool
                # grinding through work nobody will collect. The shared
                # segment itself stays owned by the backend — close()
                # or the GC finalizer unlinks it — so an abandoned
                # generator cannot orphan it either.
                for future in futures:
                    future.cancel()


_BACKENDS = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "process": ProcessBackend,
}

BackendSpec = Union[str, ExecutionBackend, None]


def resolve_backend(backend: BackendSpec, workers: int = 1) -> ExecutionBackend:
    """Turn a backend spec into a backend instance.

    ``None`` keeps the historical behaviour: serial for one worker, the
    thread pool when more are requested. A string selects by name; an
    :class:`ExecutionBackend` instance is returned unchanged (its own
    worker count wins).
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    effective = resolve_workers(workers)
    if backend is None:
        backend = "thread" if effective > 1 else "serial"
    try:
        cls = _BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown execution backend {backend!r}; "
            f"expected one of {sorted(_BACKENDS)}"
        ) from None
    return cls(workers=effective)
