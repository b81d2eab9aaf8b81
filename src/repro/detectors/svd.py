"""SVD-based detector [7] (Mahimkar et al., CoNEXT 2011).

The trailing ``row * column`` points are arranged into a matrix whose
``column`` rows are consecutive segments of length ``row``. Normal
behaviour is low-rank (segments resemble each other); the rank-1
truncated SVD captures it, and the reconstruction residual at the
current (newest) point is the severity.

Table 3 samples ``row = 10, 20, 30, 40, 50`` points and ``column = 3,
5, 7`` — 15 configurations. §6 notes SVD "can generate anomaly features
only using recent data. Thus, they can quickly get rid of the
contamination of dirty data": the memory is exactly ``row * column``
points.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..timeseries import TimeSeries
from .base import (
    Detector,
    DetectorConfig,
    DetectorError,
    FamilyDetector,
    FamilyEvaluator,
    FamilyKey,
    FamilyStream,
    ParamValue,
    register_family_builder,
)

#: Table 3 grids.
SVD_ROWS = (10, 20, 30, 40, 50)
SVD_COLUMNS = (3, 5, 7)

#: Most window values the batch stacks for one ``eigh`` call (8 MB).
#: Stacking every window of a column count at once raised peak traced memory
#: from 152 to 587 MB on four weeks of 1-minute PV.
SVD_CHUNK_ELEMENTS = 1 << 20


def _rank1_residuals(stacks: Sequence[np.ndarray]) -> np.ndarray:
    """|newest element − rank-1 reconstruction| for stacks of window
    matrices that share a column count, via the (tiny) column-space
    Gram matrix, with one ``eigh`` call for all of them.

    For a window matrix M (column × row) with top singular triple
    (s1, u1, v1), the rank-1 reconstruction of the last element is
    ``s1 * u1[-1] * v1[-1]``. Since ``s1 * v1 = Mᵀ u1``, that equals
    ``u1[-1] * (u1 · M[:, -1])`` — so the residual needs only the top
    eigenvector of ``G = M Mᵀ`` (column × column, ≤ 7×7 here) instead
    of a full row-sized SVD. No square root is taken and the sign
    ambiguity of u1 cancels in the product. On the Table 3 grid this is
    ~3x faster than batched ``np.linalg.svd`` and agrees to ~1e-14
    relative (the eigh of M Mᵀ squares the condition number, which is
    harmless at rank-1-dominated traffic windows).

    Each window's bits do not depend on its stack or its neighbours:
    each Gram matrix is its own stack's product, LAPACK decomposes each
    matrix of the stacked ``eigh`` on its own, and ``u1`` is a strided
    view, so ``einsum`` sums each dot product in order.
    """
    grams = np.concatenate([m @ m.transpose(0, 2, 1) for m in stacks])
    _, vectors = np.linalg.eigh(grams)
    u1 = vectors[:, :, -1]
    last = np.concatenate([m[:, :, -1] for m in stacks])
    newest = np.concatenate([m[:, -1, -1] for m in stacks])
    return np.abs(newest - u1[:, -1] * np.einsum("ij,ij->i", u1, last))


class SVDDetector(FamilyDetector):
    """Severity = |current value - its rank-1 SVD reconstruction|."""

    kind = "svd"

    def __init__(self, row: int, column: int):
        if row <= 1:
            raise DetectorError(f"row must be > 1, got {row}")
        if column <= 1:
            raise DetectorError(f"column must be > 1, got {column}")
        self.row = row
        self.column = column

    def params(self) -> Dict[str, ParamValue]:
        return {"row": self.row, "column": self.column}

    @property
    def span(self) -> int:
        """Points in one window."""
        return self.row * self.column

    def warmup(self) -> int:
        return self.span - 1

    def family(self) -> FamilyKey:
        # Every (row, column) config reads the same trailing values.
        return ("svd", None)

    def _finite_windows(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The index of the newest point of every all-finite trailing
        window, and those windows as (column × row) matrices."""
        span = self.span
        if len(values) < span:
            return np.empty(0, dtype=np.intp), np.empty((0, self.column, self.row))
        # Missing points before each index: a window is all-finite
        # when the count does not grow across it.
        missing = np.concatenate(([0], np.cumsum(~np.isfinite(values))))
        finite = missing[span:] == missing[:-span]
        windows = np.lib.stride_tricks.sliding_window_view(values, span)
        matrices = windows.reshape(-1, self.column, self.row)
        return np.flatnonzero(finite) + span - 1, matrices[finite]

    def _severities_slow(self, values: np.ndarray) -> np.ndarray:
        """Per-window fallback used if a stacked eigh fails to converge."""
        n = len(values)
        span = self.span
        out = np.full(n, np.nan)
        for t in range(span - 1, n):
            window = values[t - span + 1: t + 1]
            if not np.isfinite(window).all():
                continue
            matrix = window.reshape(self.column, self.row)
            try:
                out[t] = _rank1_residuals([matrix[np.newaxis]])[0]
            except np.linalg.LinAlgError:
                continue
        return out


@register_family_builder("svd")
class SVDBankEvaluator(FamilyEvaluator):
    """The SVD grid over one validated series: the windows of every
    config that shares a column count go through one ``eigh`` call, in
    batch and in the stream."""

    kind = "svd"

    def __init__(self, configs: Sequence[DetectorConfig]):
        super().__init__(configs)
        by_column: Dict[int, List[Tuple[int, int, int]]] = {}
        for j, config in enumerate(self.configs):
            detector = config.detector
            by_column.setdefault(detector.column, []).append(
                (detector.span, detector.row, j)
            )
        #: ``(column count, [(span, row, family column), ...])`` per
        #: column count, ascending by span.
        self.groups: List[Tuple[int, List[Tuple[int, int, int]]]] = [
            (column, sorted(members)) for column, members in sorted(by_column.items())
        ]
        self.memory = max(config.detector.span for config in self.configs)

    def evaluate(self, series: TimeSeries) -> np.ndarray:
        values = Detector._validate(series)
        n = len(values)
        out = np.full((n, len(self.configs)), np.nan)
        for _, members in self.groups:
            step = max(1, SVD_CHUNK_ELEMENTS // sum(span for span, _, _ in members))
            for begin in range(0, n, step):
                self._evaluate_points(values, out, members, begin, begin + step)
        return out

    def _evaluate_points(
        self,
        values: np.ndarray,
        out: np.ndarray,
        members: Sequence[Tuple[int, int, int]],
        begin: int,
        end: int,
    ) -> None:
        """One column count's severities of points ``begin..end - 1``,
        with one ``eigh`` call for all of its configs' windows."""
        firsts = [max(begin - span + 1, 0) for span, _, _ in members]
        points, stacks = [], []
        for (_, _, j), first in zip(members, firsts):
            found, matrices = self.configs[j].detector._finite_windows(
                values[first:end]
            )
            points.append(found + first)
            stacks.append(matrices)
        if not any(len(found) for found in points):
            return
        try:
            residuals = _rank1_residuals(stacks)
        except np.linalg.LinAlgError:
            # Extremely rare non-convergence: one window at a time.
            for (_, _, j), first in zip(members, firsts):
                slow = self.configs[j].detector._severities_slow(values[first:end])
                out[begin:end, j] = slow[begin - first:]
            return
        done = 0
        for (_, _, j), found in zip(members, points):
            out[found, j] = residuals[done:done + len(found)]
            done += len(found)

    def make_stream(self) -> FamilyStream:
        return _SVDBankStream(self)


class _SVDBankStream(FamilyStream):
    """The bank's tail of the largest window serves every config, and
    the stream keeps no state — the §6 property that SVD "can generate
    anomaly features only using recent data". Each config whose window
    holds no non-finite value (NaN padding included) reshapes its part
    of the tail, and the configs of one column count share one batch
    kernel call, so stream and batch stay bit-identical."""

    def __init__(self, evaluator: SVDBankEvaluator):
        self._evaluator = evaluator

    def update(self, value: float) -> np.ndarray:
        recent = self.values.tail(self._evaluator.memory)
        # Trailing values after the newest non-finite one.
        bad = np.flatnonzero(~np.isfinite(recent))
        clean = len(recent) - 1 - bad[-1] if len(bad) else len(recent)
        out = np.full(len(self._evaluator.configs), np.nan)
        for column, members in self._evaluator.groups:
            ready = [j for span, _, j in members if span <= clean]
            if not ready:
                continue
            stacks = [
                recent[-span:].reshape(1, column, row)
                for span, row, _ in members[:len(ready)]
            ]
            try:
                out[ready] = _rank1_residuals(stacks)
            except np.linalg.LinAlgError:
                for j, matrix in zip(ready, stacks):
                    try:
                        out[j] = _rank1_residuals([matrix])[0]
                    except np.linalg.LinAlgError:
                        continue
        return out
