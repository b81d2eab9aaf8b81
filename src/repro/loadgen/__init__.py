"""Sustained-load generation for the Opprentice fleet.

§5.8's runtime numbers are one-shot measurements; the ROADMAP's
north-star asks whether they *hold* under sustained multi-KPI load —
retraining rounds, quarantine churn, backpressure drops — over
simulated weeks. This package is the harness that finds out:

* :class:`SoakHarness` — the one soak loop: replays a deterministic
  scenario on a simulated clock, drives periodic label + retrain
  rounds, and records kpi-tagged metrics snapshots at simulated-time
  checkpoints. It drives one of two targets:

  * :class:`FleetTarget` — an in-process
    :class:`~repro.fleet.FleetManager`, with optional
    :class:`FaultInjectingService` quarantine churn;
  * :class:`HttpTarget` — a running ``repro-serve`` plane
    (``repro-loadgen --target``), with optional shard kill /
    graceful-restart drills;
* :class:`ScenarioSpec` / :func:`build_scenario` — the deterministic
  scenario description the harness, the ``repro-serve`` shards and the
  HTTP replay all regenerate bit-identically from seeds;
* the ``repro-loadgen`` CLI (``python -m repro.loadgen``) — the
  entry point the CI ``slo-gate`` and ``networked-slo-gate`` jobs run;
  both document flavours feed ``repro-obs slo`` (see
  :mod:`repro.obs.slo`).
"""

from .client import HttpTarget, TargetError
from .harness import (
    DEFAULT_ALERT_DELAY_BUCKETS,
    FaultInjectingService,
    FleetTarget,
    InjectedFault,
    SoakConfig,
    SoakHarness,
    SoakResult,
)
from .scenario import (
    ScenarioKpi,
    ScenarioSpec,
    build_scenario,
    build_scenario_kpi,
    kpi_identifier,
)

__all__ = [
    "DEFAULT_ALERT_DELAY_BUCKETS",
    "FaultInjectingService",
    "FleetTarget",
    "InjectedFault",
    "SoakConfig",
    "SoakHarness",
    "SoakResult",
    "ScenarioKpi",
    "ScenarioSpec",
    "build_scenario",
    "build_scenario_kpi",
    "kpi_identifier",
    "HttpTarget",
    "TargetError",
]
