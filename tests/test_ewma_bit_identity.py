"""Batch EWMA severities are pinned bit for bit.

``EWMA.severities`` runs its recursion as a plain Python loop in the
state form of a first-order IIR filter (``y = a*v + carry``,
``carry = (1-a)*y``, seeded with ``carry = (1-a)*v[0]``). That form is
exactly what ``scipy.signal.lfilter`` computes, so every forest trained
on these columns is unchanged. Two checks hold it there: an exact
comparison against ``lfilter`` wherever scipy is installed, and a sha256
of the severities over the same corpus, which runs without scipy. The
per-point stream is held to the same output, bit for bit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.detectors import EWMA
from repro.timeseries import TimeSeries

# The five Table 3 smoothing factors.
ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9)

# sha256 of the batch severities over ``_corpus()`` for every alpha,
# recorded from the lfilter-based implementation this loop replaced.
SEVERITIES_SHA256 = (
    "933f6418581c234ddf5d7151ce2208c45ebb7336336a03411d8be1d43832ca87"
)


def _corpus() -> list[np.ndarray]:
    """240 seeded series: random walks with NaN runs, leading NaNs,
    all-NaN input and lengths 0 and 1, plus hand-picked edge cases."""
    series = [
        np.array([]),
        np.array([3.0]),
        np.array([np.nan]),
        np.full(12, np.nan),
        np.array([np.nan, np.nan, 4.0]),
        np.array([np.nan, 1.0, np.nan, np.nan, 2.5, np.nan]),
    ]
    for seed in range(234):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([0, 1, 2, 3, int(rng.integers(4, 600))],
                           p=[0.02, 0.03, 0.05, 0.05, 0.85]))
        values = rng.normal(0.0, 1.0, n).cumsum() * 10.0 ** rng.uniform(-3, 6)
        values += rng.uniform(-1e3, 1e3)
        if n and seed % 3 == 0:
            # A few NaN runs of random length anywhere in the series.
            for _ in range(int(rng.integers(1, 5))):
                start = int(rng.integers(0, n))
                values[start: start + int(rng.integers(1, 40))] = np.nan
        if n and seed % 7 == 0:
            values[: int(rng.integers(1, n + 1))] = np.nan
        if n and seed % 29 == 0:
            values[:] = np.nan
        series.append(values)
    return series


def _severities(alpha: float, values: np.ndarray) -> np.ndarray:
    return EWMA(alpha).severities(TimeSeries(values=values, interval=60))


def _lfilter_reference(alpha: float, values: np.ndarray) -> np.ndarray:
    """The scipy formulation the batch loop replaced, kept verbatim."""
    from scipy.signal import lfilter

    n = len(values)
    out = np.full(n, np.nan)
    if n < 2:
        return out
    filled = values
    missing = ~np.isfinite(values)
    if missing.any():
        filled = values.copy()
        idx = np.where(missing, 0, np.arange(n))
        np.maximum.accumulate(idx, out=idx)
        filled = filled[idx]
        leading = np.isnan(filled)
        if leading.all():
            return out
        if leading.any():
            filled[leading] = filled[~leading][0]
    zi = np.array([(1.0 - alpha) * filled[0]])
    smoothed, _ = lfilter([alpha], [1.0, -(1.0 - alpha)], filled, zi=zi)
    out[1:] = np.abs(values[1:] - smoothed[:-1])
    if missing.any():
        first_finite = int(np.flatnonzero(~missing)[0])
        out[: first_finite + 1] = np.nan
    return out


def test_corpus_covers_the_edge_cases():
    corpus = _corpus()
    assert len(corpus) >= 200
    assert any(len(v) == 0 for v in corpus)
    assert any(len(v) == 1 for v in corpus)
    assert any(len(v) > 1 and np.isnan(v).all() for v in corpus)
    assert any(
        len(v) > 1 and np.isnan(v[0]) and not np.isnan(v).all()
        for v in corpus
    )
    # An interior NaN run: missing points after the first observation.
    assert any(
        np.isnan(v[int(np.flatnonzero(~np.isnan(v))[0]):]).any()
        for v in corpus
        if (~np.isnan(v)).any()
    )


@pytest.mark.parametrize("alpha", ALPHAS)
def test_batch_equals_lfilter_exactly(alpha):
    pytest.importorskip("scipy")
    for values in _corpus():
        got = _severities(alpha, values)
        want = _lfilter_reference(alpha, values)
        assert np.array_equal(got, want, equal_nan=True), (alpha, len(values))


def test_severities_digest_is_pinned():
    digest = hashlib.sha256()
    for alpha in ALPHAS:
        for values in _corpus():
            out = _severities(alpha, values)
            digest.update(len(out).to_bytes(8, "little"))
            # One NaN bit pattern, whatever sign or payload arithmetic left.
            digest.update(np.where(np.isnan(out), np.nan, out).tobytes())
    assert digest.hexdigest() == SEVERITIES_SHA256


@pytest.mark.parametrize("alpha", ALPHAS)
def test_stream_equals_batch_exactly(alpha):
    for values in _corpus():
        stream = EWMA(alpha).stream()
        streamed = np.array([stream.update(v) for v in values])
        batch = _severities(alpha, values)
        assert np.array_equal(streamed, batch, equal_nan=True), (
            alpha, len(values)
        )
