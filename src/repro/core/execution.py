"""Pluggable execution backends for feature extraction (§5.8).

The paper's per-point detection cost is dominated by running the
14-detector / 133-configuration bank, and §5.8 notes that "all the
detectors can run in parallel". This module turns that observation into
an explicit execution layer: the extraction work is first compiled into
:class:`ExtractionTask` units (one fused :class:`FamilyTask` per
detector family — see :func:`repro.detectors.build_family_evaluators` —
so sibling configurations share their window sums, seasonal gathers and
smoothing sweeps), then an :class:`ExecutionBackend` decides *where*
the tasks run:

* ``serial`` — one task after another in the calling thread;
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
  a crashed worker triggers one pool re-fork and the undelivered tasks
  are resubmitted.

Whatever the backend, results are assembled into the feature matrix by
each task's registry indices, so the matrix is bit-identical across all
three backends (the test suite enforces this for the full Table 3
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
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..detectors import DetectorConfig
from ..detectors.base import FamilyEvaluator, build_family_evaluators
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


# ----------------------------------------------------------------------
# Task model
# ----------------------------------------------------------------------
class ExtractionTask(abc.ABC):
    """One unit of extraction work filling one or more matrix columns."""

    #: Feature-matrix column indices this task fills, in output order.
    indices: Tuple[int, ...]
    #: Feature names of those columns (cache keys derive from these).
    names: Tuple[str, ...]
    #: Detector family, for the per-task latency histogram label.
    kind: str

    @abc.abstractmethod
    def run(self, series: TimeSeries) -> np.ndarray:
        """Severity columns of shape ``(len(series), len(indices))``."""


@dataclass(frozen=True)
class FamilyTask(ExtractionTask):
    """One fused pass over a detector family's configurations."""

    evaluator: FamilyEvaluator

    @property
    def indices(self) -> Tuple[int, ...]:
        return self.evaluator.indices

    @property
    def names(self) -> Tuple[str, ...]:
        return self.evaluator.names

    @property
    def kind(self) -> str:
        return self.evaluator.kind

    def run(self, series: TimeSeries) -> np.ndarray:
        return np.asarray(self.evaluator.evaluate(series), dtype=np.float64)


def build_tasks(configs: Sequence[DetectorConfig]) -> List[ExtractionTask]:
    """Compile a configuration bank into extraction tasks.

    Configurations are grouped by detector family (window bank,
    seasonal residuals, historical grids, the Holt-Winters sweep,
    wavelet bands) into one fused :class:`FamilyTask` each; a config
    with no family becomes a single-config task. The grouping also
    works on arbitrary *subsets* of a bank — the cache layer compiles
    tasks only for the columns it misses.
    """
    return [
        FamilyTask(evaluator=evaluator)
        for evaluator in build_family_evaluators(configs)
    ]


def _run_task_instrumented(
    task: ExtractionTask, series: TimeSeries, backend: str
) -> np.ndarray:
    """Run one task under the standard observability envelope.

    In process-backend workers the global provider is the no-op, so the
    span/timer cost nothing there; the parent's ``feature_matrix.extract``
    span still records the overall wall time.
    """
    obs = get_provider()
    with obs.span(
        "extract.config",
        backend=backend,
        detector=task.kind,
        n_columns=len(task.indices),
    ):
        with obs.timer(
            "repro_detector_severities_seconds",
            "Severity extraction per detector configuration batch",
            detector=task.kind,
        ):
            return task.run(series)


TaskResult = Tuple[ExtractionTask, np.ndarray]


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
class ExecutionBackend(abc.ABC):
    """Strategy deciding where extraction tasks execute."""

    name: str = "backend"

    def __init__(self, workers: int = 1):
        self.workers = resolve_workers(workers)

    @abc.abstractmethod
    def run_tasks(
        self, tasks: Sequence[ExtractionTask], series: TimeSeries
    ) -> Iterator[TaskResult]:
        """Yield ``(task, columns)`` pairs in any completion order."""

    def close(self) -> None:
        """Release any long-lived resources (pools, shared memory).

        A no-op for the stateless backends; the process backend holds a
        persistent pool and segment across ``run_tasks`` calls and
        frees them here (or on garbage collection)."""


class SerialBackend(ExecutionBackend):
    """Run every task in the calling thread, registry order."""

    name = "serial"

    def run_tasks(
        self, tasks: Sequence[ExtractionTask], series: TimeSeries
    ) -> Iterator[TaskResult]:
        for task in tasks:
            yield task, _run_task_instrumented(task, series, self.name)


class ThreadBackend(ExecutionBackend):
    """Fan tasks out over a thread pool (GIL-releasing detectors only
    actually overlap; this is the pre-existing behaviour)."""

    name = "thread"

    def run_tasks(
        self, tasks: Sequence[ExtractionTask], series: TimeSeries
    ) -> Iterator[TaskResult]:
        if self.workers <= 1 or len(tasks) <= 1:
            yield from SerialBackend(1).run_tasks(tasks, series)
            return
        from concurrent.futures import ThreadPoolExecutor

        def run(task: ExtractionTask) -> TaskResult:
            return task, _run_task_instrumented(task, series, self.name)

        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            yield from pool.map(run, tasks)


# -- process backend ---------------------------------------------------
# Worker-global read-only series, attached (and cached) per shared-
# memory segment name: the persistent pool outlives any one series, so
# each task carries the segment metadata and the worker swaps its
# mapping only when the name changes.
_worker_series: Optional[TimeSeries] = None
_worker_shm = None
_worker_segment: Optional[str] = None

#: Segment metadata shipped with every task submission:
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


def _process_worker_run(
    meta: SeriesMeta, task: ExtractionTask
) -> Tuple[ExtractionTask, np.ndarray]:
    series = _process_worker_attach(*meta)
    return task, _run_task_instrumented(task, series, "process")


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
    """Fan tasks out over a persistent process pool via shared memory.

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
    not-yet-delivered tasks are resubmitted.
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
        self, tasks: Sequence[ExtractionTask], series: TimeSeries
    ) -> Iterator[TaskResult]:
        if self.workers <= 1 or len(tasks) <= 1 or len(series) == 0:
            yield from SerialBackend(1).run_tasks(tasks, series)
            return
        from concurrent.futures.process import BrokenProcessPool

        meta = self._publish_series(series)
        pending: List[ExtractionTask] = list(tasks)
        refork_budget = 1
        while pending:
            pool = self._ensure_pool()
            futures = [
                pool.submit(_process_worker_run, meta, task)
                for task in pending
            ]
            try:
                for offset, future in enumerate(futures):
                    try:
                        task, columns = future.result()
                    except BrokenProcessPool:
                        # A worker died. Re-fork once and resubmit the
                        # tasks whose results were not delivered yet.
                        if refork_budget <= 0:
                            raise
                        refork_budget -= 1
                        self._ensure_resources().drop_pool()
                        pending = pending[offset:]
                        break
                    yield task, columns
                else:
                    pending = []
            finally:
                # Runs on normal exit, task exceptions, *and* early
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
