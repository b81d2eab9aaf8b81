"""Per-ack checkpoint cost vs points pending since the last fit.

A shard at checkpoint cadence 1 writes every KPI's ``model.json`` and
``service.json`` before it acknowledges a batch. The service checkpoint
holds only the service's inputs; the training matrix and the pending
severity rows and scores are derived on restore (one batch extraction
of history + pending, one forest vote). So the per-ack save must stay
flat while points pile up between weekly retrains, and the file must
grow by about one JSON number per pending point. A checkpoint that
embedded one 133-column severity row per pending point grew ~35x in
save time from 0 to 2,016 pending points.

Full Table 3 bank and the default 50-tree forest on SRT, bootstrapped
on two weeks. Restore cost is reported too: it now includes the batch
extraction.
"""

import time

import numpy as np

from repro.core import (
    MonitoringService,
    load_model,
    load_service_checkpoint,
    save_model,
    save_service_checkpoint,
)
from repro.data import make_srt

from _common import print_header, write_metrics_snapshot

BOOTSTRAP_WEEKS = 2
PENDING = (0, 168, 672, 2016)
SAVES = 7


def _median_seconds(action, repeats: int = SAVES) -> float:
    samples = []
    for _ in range(repeats):
        began = time.perf_counter()
        action()
        samples.append(time.perf_counter() - began)
    return float(np.median(samples))


def test_checkpoint_cost_flat_in_pending_points(tmp_path):
    series = make_srt(weeks=BOOTSTRAP_WEEKS + 12).series
    split = BOOTSTRAP_WEEKS * series.points_per_week
    service = MonitoringService(min_duration_points=2)
    service.bootstrap(series.slice(0, split))
    model_path = tmp_path / "model.json"
    service_path = tmp_path / "service.json"

    rows = []
    position = split
    for pending in PENDING:
        for value in series.values[position:split + pending]:
            service.ingest(float(value))
        position = split + pending
        model_s = _median_seconds(
            lambda: save_model(service.opprentice, model_path)
        )
        service_s = _median_seconds(
            lambda: save_service_checkpoint(service, service_path)
        )

        def restore():
            clone = MonitoringService(min_duration_points=2)
            load_model(model_path, opprentice=clone.opprentice)
            load_service_checkpoint(service_path, clone)

        restore_s = _median_seconds(restore, repeats=1)
        rows.append(
            (pending, model_s, service_s, service_path.stat().st_size,
             restore_s)
        )

    print_header("Checkpoint scaling: per-ack save vs pending points")
    print(
        f"{'pending':>7} {'model_ms':>9} {'service_ms':>10} "
        f"{'service_kb':>10} {'restore_s':>9}"
    )
    for pending, model_s, service_s, size, restore_s in rows:
        print(
            f"{pending:>7} {1e3 * model_s:>9.2f} {1e3 * service_s:>10.2f} "
            f"{size / 1e3:>10.1f} {restore_s:>9.3f}"
        )

    first, last = rows[0], rows[-1]
    # Flat within noise: embedding the severity rows made this ~35x.
    assert last[2] < 3.0 * first[2] + 0.005, rows
    # ~20 B of pending value per point plus the stream rings that are
    # still filling after a two-week bootstrap; a severity row per
    # point was ~2.5 kB.
    per_point = (last[3] - first[3]) / (last[0] - first[0])
    print(f"service.json grew {per_point:.1f} B per pending point")
    assert per_point < 100, rows

    write_metrics_snapshot("checkpoint_scaling")
