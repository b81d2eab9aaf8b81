"""Fused family extraction: equivalence and streams.

Three code paths produce severities — the fused per-family batch pass
(:func:`repro.detectors.build_family_evaluators`), the per-config
serial path (``Detector.severities``), and the incremental per-point
path (:class:`repro.detectors.StreamBank`). The contract under test:

* fused == per-config serial, *bit for bit*, including NaN masks, over
  the full 133-configuration bank on clean, dirty (§6) and hostile
  (±inf) data;
* incremental == batch, bit for bit, for every config of the bank and
  of the extended detectors on the same data: each window statistic
  has one formulation, the per-window reduction the streams compute,
  and an infinite value is a missing point in both modes;
* the full bank's stream rows are pinned by digest, clean and dirty;
* a bank checkpoint holds one state per family, and every family whose
  state keeps raw values (seasonal-residual, historical, the window
  bank, SVD and wavelet) holds one ring of them;
* the nan-aware row kernels equal numpy's ``nan*`` reductions bit for
  bit, and a one-row call equals the row of a many-row call;
* ``rolling_std`` centres each window on its own mean, so it survives
  large offsets, and a NaN leaves the windows without it unchanged.
"""

import hashlib
import json
import warnings

import numpy as np
import pytest

from repro.detectors import (
    StreamBank,
    build_configs,
    build_family_evaluators,
    configs_for,
    default_detectors,
    extended_detectors,
    rolling_std,
)
from repro.detectors import base
from repro.detectors.base import row_nanmean, row_nanmedian, row_nanstd
from repro.timeseries import TimeSeries

#: sha256 of the full bank's ``StreamBank`` rows over ``hourly_kpi``,
#: clean and :func:`dirty` (NaN cells canonicalised).
STREAM_ROWS_SHA256 = {
    "clean": "e07e79bf0bd5a068cb8c9ebae8a436d920b39250ed0a28c77b44970f654c0ba4",
    "dirty": "94e55fb5475d7078b4ae26549c0959ab9963b78e2f3fbe72371e3940430a506b",
}


def dirty(series: TimeSeries) -> TimeSeries:
    """The series with injected NaN runs (a lost point, a short gap,
    and a long outage) — the §6 dirty-data shapes."""
    values = series.values.copy()
    values[200] = np.nan
    values[50:55] = np.nan
    values[400:412] = np.nan
    return TimeSeries(
        values=values,
        interval=series.interval,
        start=series.start,
        name=series.name,
    )


def hostile(series: TimeSeries) -> TimeSeries:
    """:func:`dirty` plus one +inf and one -inf, both inside ARIMA's
    fit prefix: values a library caller can pass in, which both modes
    treat as missing points."""
    values = dirty(series).values.copy()
    values[30] = np.inf
    values[300] = -np.inf
    return TimeSeries(
        values=values,
        interval=series.interval,
        start=series.start,
        name=series.name,
    )


def serial_reference(series: TimeSeries, configs) -> np.ndarray:
    """The per-config ground truth: every detector run on its own."""
    matrix = np.full((len(series), len(configs)), np.nan)
    for config in configs:
        matrix[:, config.index] = config.detector.severities(series)
    return matrix


class TestFusedEquivalence:
    """fused family pass == per-config serial, bit for bit."""

    @pytest.mark.parametrize(
        "make", [lambda s: s, dirty, hostile], ids=["clean", "dirty", "hostile"]
    )
    def test_full_bank_bit_identical(self, hourly_kpi, make):
        series = make(hourly_kpi)
        configs = configs_for(series)
        assert len(configs) == 133
        reference = serial_reference(series, configs)
        for evaluator in build_family_evaluators(configs):
            columns = np.asarray(evaluator.evaluate(series))
            assert columns.shape == (len(series), len(evaluator.configs))
            for j, config in enumerate(evaluator.configs):
                np.testing.assert_array_equal(
                    columns[:, j],
                    reference[:, config.index],
                    err_msg=f"fused != serial for {config.name}",
                )

    def test_families_actually_fuse(self, hourly_kpi):
        """The bank must compile to far fewer evaluators than configs —
        otherwise the fusion layer silently degenerated to solo runs."""
        configs = configs_for(hourly_kpi)
        evaluators = build_family_evaluators(configs)
        assert len(evaluators) < len(configs) / 2
        kinds = {e.kind for e in evaluators}
        assert {"window-bank", "holt-winters"} <= kinds

    def test_subset_grouping_covers_exactly_the_subset(self, hourly_kpi):
        """Grouping works on arbitrary subsets of a bank."""
        configs = configs_for(hourly_kpi)
        subset = configs[::7]
        evaluators = build_family_evaluators(subset)
        indices = sorted(i for e in evaluators for i in e.indices)
        assert indices == sorted(c.index for c in subset)


class TestIncrementalEquivalence:
    """StreamBank per-point rows == the fused batch matrix."""

    @pytest.mark.parametrize(
        "make", [lambda s: s, dirty, hostile], ids=["clean", "dirty", "hostile"]
    )
    def test_stream_bank_matches_batch(self, hourly_kpi, make):
        """The Table 3 bank plus the extended detectors."""
        series = make(hourly_kpi)
        configs = build_configs(
            default_detectors(series.interval)
            + extended_detectors(series.interval)
        )
        reference = serial_reference(series, configs)

        bank = StreamBank(configs)
        rows = np.vstack([bank.extract_point(v) for v in series.values])
        assert rows.shape == reference.shape
        # Every family, bit for bit, NaN masks included: warm-up windows
        # and missing points invalidate exactly the same cells.
        for config in configs:
            np.testing.assert_array_equal(
                rows[:, config.index],
                reference[:, config.index],
                err_msg=f"stream != batch for {config.name}",
            )

    @pytest.mark.parametrize(
        "make,expected",
        [
            (lambda s: s, STREAM_ROWS_SHA256["clean"]),
            (dirty, STREAM_ROWS_SHA256["dirty"]),
        ],
        ids=["clean", "dirty"],
    )
    def test_stream_rows_digest_is_pinned(self, hourly_kpi, make, expected):
        """The full bank's stream rows are pinned bit for bit, so a
        change to how a family streams cannot move a single severity."""
        series = make(hourly_kpi)
        bank = StreamBank(configs_for(series))
        rows = np.vstack([bank.extract_point(v) for v in series.values])
        canonical = np.where(np.isnan(rows), np.nan, rows)
        assert hashlib.sha256(canonical.tobytes()).hexdigest() == expected

    def test_bank_checkpoints_are_per_family(self, hourly_kpi):
        """A fused bank snapshot holds one state per family stream and
        restores, through JSON, into a fresh bank mid-stream."""
        configs = configs_for(hourly_kpi)
        bank = StreamBank(configs)
        half = len(hourly_kpi) // 2
        for value in hourly_kpi.values[:half]:
            bank.extract_point(value)
        states = json.loads(json.dumps(bank.snapshot()))
        assert len(states) == len(build_family_evaluators(configs))
        assert all(isinstance(state, dict) for state in states)

        restored = StreamBank(configs)
        restored.restore(states)
        for value in hourly_kpi.values[half:]:
            np.testing.assert_array_equal(
                restored.extract_point(value), bank.extract_point(value)
            )

    def test_same_phase_families_store_one_ring(self, hourly_kpi):
        """Every family whose state keeps raw values holds one ring of
        them, sized for the family's largest window: seasonal-residual,
        historical, the window bank and SVD. Wavelet's raw ring spans
        two of its largest Haar scale, and it keeps one ring of details
        per band, sized for the band's longest normalisation window."""
        configs = configs_for(hourly_kpi)
        bank = StreamBank(configs)
        for value in hourly_kpi.values:
            bank.extract_point(value)
        evaluators = build_family_evaluators(configs)
        states = dict(zip((e.kind for e in evaluators), bank.snapshot()))

        def rings(kind):
            return {
                key: len(value["values"])
                for key, value in states[kind].items()
                if isinstance(value, dict)
                and value.get("__kind__") in ("ndarray", "deque")
            }

        def detectors(kind):
            evaluator = next(e for e in evaluators if e.kind == kind)
            return [config.detector for config in evaluator.configs]

        for kind in ("seasonal-residual", "historical"):
            largest = max(d.warmup() for d in detectors(kind))
            assert rings(kind) == {"_ring": largest}, kind
        largest = max(getattr(d, "window", 0) for d in detectors("window-bank"))
        assert rings("window-bank") == {"_ring": largest + 1}
        largest = max(d.row * d.column for d in detectors("svd"))
        assert rings("svd") == {"_ring": largest}

        wavelets = detectors("wavelet")
        assert rings("wavelet") == {"_values": 2 * max(d.scale for d in wavelets)}
        longest = {}
        for d in wavelets:
            longest[d.band] = max(longest.get(d.band, 0), d.norm_window)
        details = states["wavelet"]["_details"]
        assert [len(ring["values"]) for ring in details] == [
            longest[band] for band in sorted(longest)
        ]


class TestRowKernels:
    """The nan-aware row kernels against numpy's own reductions."""

    KERNELS = [
        (row_nanmean, np.nanmean),
        (row_nanmedian, np.nanmedian),
        (row_nanstd, np.nanstd),
    ]

    @pytest.mark.parametrize("kernel,reference", KERNELS, ids=lambda f: f.__name__)
    def test_equals_numpy_and_one_row_equals_batch_row(self, kernel, reference):
        rng = np.random.default_rng(7)
        for _ in range(60):
            shape = (int(rng.integers(1, 400)), int(rng.integers(1, 40)))
            scale = rng.choice([1e-3, 1.0, 1e8], size=shape)
            matrix = rng.normal(size=shape) * scale
            matrix[rng.random(shape) < rng.random() * 0.6] = np.nan
            matrix[rng.random(shape[0]) < 0.1] = np.nan  # all-NaN rows
            with warnings.catch_warnings():
                # numpy warns on the all-NaN rows; the kernels must not.
                warnings.simplefilter("ignore", RuntimeWarning)
                expected = reference(matrix, axis=1)
            batch = kernel(matrix)
            np.testing.assert_array_equal(batch, expected)
            for i in rng.choice(shape[0], size=min(shape[0], 5), replace=False):
                np.testing.assert_array_equal(kernel(matrix[i:i + 1]), batch[i:i + 1])

    def test_all_nan_rows_are_nan(self):
        matrix = np.full((3, 4), np.nan)
        for kernel, _ in self.KERNELS:
            assert np.isnan(kernel(matrix)).all()

    def test_mean_of_a_vector_equals_nanmean(self):
        rng = np.random.default_rng(3)
        for length in (1, 7, 8, 129, 8193, 50400):
            values = np.abs(rng.normal(size=length))
            values[rng.random(length) < 0.1] = np.nan
            assert row_nanmean(values) == np.nanmean(values)


class TestRollingStdOffsets:
    """Offset robustness of the one ``rolling_std`` formulation: each
    window is centred on its own mean, so an offset where an uncentred
    sum-of-squares formula lost the entire variance leaves the spread
    intact, and a NaN changes only the windows that contain it."""

    @pytest.mark.parametrize("offset", [0.0, 1e4, 1e6, 1e8, 1e9])
    @pytest.mark.parametrize("window", [5, 24])
    def test_fast_path_matches_strided_fallback(self, rng, offset, window):
        """(Named for the two formulations the one kernel replaced.) The
        clean series and a copy with a NaN in its first window agree bit
        for bit on every window without the NaN, each window is
        ``np.std`` of its values, and the spread survives the offset."""
        noise = rng.normal(0.0, 3.0, size=400)
        values = offset + noise
        clean = rolling_std(values, window)
        assert np.isnan(clean[:window]).all()
        assert np.isfinite(clean[window:]).all()
        for t in (window, 200, 399):
            assert clean[t] == np.std(values[t - window:t])

        dirty_values = values.copy()
        dirty_values[0] = np.nan
        dirty_out = rolling_std(dirty_values, window)
        assert np.isnan(dirty_out[window])
        start = window + 1  # first window untouched by the NaN
        np.testing.assert_array_equal(dirty_out[start:], clean[start:])

        # The spread is ~3.0; a cancelled variance would collapse the
        # std toward 0. Adding the offset rounds the noise to its ulp
        # (0.12 at 1e9), so the comparison with the bare noise allows
        # that much.
        np.testing.assert_allclose(
            clean[window:], rolling_std(noise, window)[window:], rtol=0, atol=0.1
        )
        assert clean[window:].mean() > 1.0

    def test_chunking_does_not_change_a_bit(self, rng, monkeypatch):
        values = rng.normal(0.0, 3.0, size=500)
        whole = rolling_std(values, 24)
        monkeypatch.setattr(base, "ROLLING_CHUNK_ELEMENTS", 100)
        np.testing.assert_array_equal(rolling_std(values, 24), whole)

    def test_zero_variance_is_exactly_zero(self):
        values = np.full(50, 1e9)
        out = rolling_std(values, 10)
        np.testing.assert_array_equal(out[10:], 0.0)
        assert np.isnan(out[:10]).all()
