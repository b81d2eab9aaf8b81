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

from collections import deque
from typing import Dict

import numpy as np

from ..timeseries import TimeSeries
from .base import (
    Detector,
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


def _rank1_residuals(matrices: np.ndarray) -> np.ndarray:
    """|newest element − rank-1 reconstruction| for a stack of window
    matrices, via the (tiny) column-space Gram matrix.

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
    """
    gram = matrices @ matrices.transpose(0, 2, 1)
    _, vectors = np.linalg.eigh(gram)
    u1 = vectors[:, :, -1]
    approx = u1[:, -1] * np.einsum("ij,ij->i", u1, matrices[:, :, -1])
    return np.abs(matrices[:, -1, -1] - approx)


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

    def warmup(self) -> int:
        return self.row * self.column - 1

    def family(self) -> FamilyKey:
        # Every (row, column) config reads the same trailing values.
        return ("svd", None)

    def _column(self, values: np.ndarray) -> np.ndarray:
        """Severities over a whole series: the rank-1 residual of every
        all-finite trailing window, in one batched kernel call."""
        n = len(values)
        span = self.row * self.column
        out = np.full(n, np.nan)
        if n < span:
            return out

        windows = np.lib.stride_tricks.sliding_window_view(values, span)
        matrices = windows.reshape(-1, self.column, self.row)
        finite = np.isfinite(matrices).all(axis=(1, 2))
        out_idx = np.arange(span - 1, n)

        if finite.any():
            try:
                out[out_idx[finite]] = _rank1_residuals(matrices[finite])
            except np.linalg.LinAlgError:
                # Extremely rare non-convergence: fall back per-window.
                return self._severities_slow(values)
        return out

    def _severities_slow(self, values: np.ndarray) -> np.ndarray:
        """Per-window fallback used if the batched eigh fails to converge."""
        n = len(values)
        span = self.row * self.column
        out = np.full(n, np.nan)
        for t in range(span - 1, n):
            window = values[t - span + 1: t + 1]
            if not np.isfinite(window).all():
                continue
            matrix = window.reshape(self.column, self.row)
            try:
                out[t] = _rank1_residuals(matrix[np.newaxis])[0]
            except np.linalg.LinAlgError:
                continue
        return out


@register_family_builder("svd")
class SVDBankEvaluator(FamilyEvaluator):
    """The SVD grid: each config's windows run the batched kernel on
    their own (the window shapes differ), over one validated series."""

    kind = "svd"

    def evaluate(self, series: TimeSeries) -> np.ndarray:
        values = Detector._validate(series)
        out = np.full((len(values), len(self.configs)), np.nan)
        for j, config in enumerate(self.configs):
            out[:, j] = config.detector._column(values)
        return out

    def make_stream(self) -> FamilyStream:
        return _SVDBankStream(self)


class _SVDBankStream(FamilyStream):
    """One ring of the largest window serves every config — the §6
    property that SVD "can generate anomaly features only using recent
    data". Each config runs the batch kernel on its own contiguous tail,
    so stream and batch stay bit-identical."""

    def __init__(self, evaluator: SVDBankEvaluator):
        self._evaluator = evaluator
        largest = max(c.detector.warmup() for c in evaluator.configs) + 1
        self._ring: deque = deque(maxlen=largest)

    def update(self, value: float) -> np.ndarray:
        self._ring.append(float(value))
        recent = np.asarray(self._ring)
        # Trailing values after the newest non-finite one.
        bad = np.flatnonzero(~np.isfinite(recent))
        clean = len(recent) - 1 - bad[-1] if len(bad) else len(recent)
        configs = self._evaluator.configs
        out = np.full(len(configs), np.nan)
        for j, config in enumerate(configs):
            detector = config.detector
            span = detector.row * detector.column
            if clean < span:
                continue
            matrix = recent[-span:].reshape(detector.column, detector.row)
            try:
                out[j] = _rank1_residuals(matrix[np.newaxis])[0]
            except np.linalg.LinAlgError:
                continue
        return out
