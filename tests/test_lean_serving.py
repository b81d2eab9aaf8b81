"""The serving process runs on numpy alone: scipy is never imported.

A fresh interpreter blocks every ``scipy`` import with a
``sys.meta_path`` finder, then does what a ``repro-serve`` shard does
over its life: import the serving modules, bootstrap a full-config
service (Table 3 bank, default forest, default diagnoser), ingest,
retrain, checkpoint and restore. Any scipy import on that path fails the
child with ``ImportError``; a lazily imported one that slipped past the
finder would still show up in ``sys.modules``, which the child checks
last.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = textwrap.dedent(
    """
    import importlib.abc
    import sys
    import tempfile
    from pathlib import Path


    class BlockScipy(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ModuleNotFoundError(f"blocked import of {name}")
            return None


    sys.meta_path.insert(0, BlockScipy())

    import repro.core
    import repro.fleet.manager
    import repro.serve.server
    from repro.core import (
        MonitoringService,
        load_model,
        load_service_checkpoint,
        save_model,
        save_service_checkpoint,
    )
    from repro.data import make_kpi
    from repro.data.datasets import SRT_PROFILE
    from repro.diagnosis import default_diagnoser
    from repro.ml import LogisticRegression

    series = make_kpi(SRT_PROFILE, weeks=3).series
    split = 2 * series.points_per_week
    service = MonitoringService(diagnoser=default_diagnoser())
    service.bootstrap(series.slice(0, split))
    for value in series.values[split: split + 24]:
        service.ingest(float(value))
    service.retrain()
    for value in series.values[split + 24: split + 30]:
        service.ingest(float(value))

    with tempfile.TemporaryDirectory() as tmp:
        save_model(service.opprentice, Path(tmp) / "model.json")
        save_service_checkpoint(service, Path(tmp) / "service.json")
        clone = MonitoringService(diagnoser=default_diagnoser())
        load_model(Path(tmp) / "model.json", opprentice=clone.opprentice)
        load_service_checkpoint(Path(tmp) / "service.json", clone)
    assert clone.history_length == service.history_length
    for value in series.values[split + 30: split + 36]:
        assert clone.ingest(float(value)) == service.ingest(float(value))

    # The Fig 10 linear learners are the one scipy user, behind the
    # optional extra; without it their fit says which extra to install.
    try:
        LogisticRegression().fit([[0.0], [1.0]], [0, 1])
    except ImportError as exc:
        assert "repro[linear]" in str(exc), exc
    else:
        raise AssertionError("LogisticRegression.fit ran without scipy")

    loaded = sorted(
        name for name in sys.modules
        if name == "scipy" or name.startswith("scipy.")
    )
    assert not loaded, loaded
    print("lean ok")
    """
)


def test_serving_path_never_imports_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    run = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.strip().endswith("lean ok")
