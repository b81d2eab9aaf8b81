"""Simple static threshold detector (Amazon CloudWatch alarms [24]).

The classic operator fallback: alarm whenever the KPI value crosses a
static threshold. In the unified severity model the severity *is* the
value itself, so sweeping the sThld reproduces exactly the family of
static-threshold alarms. This detector has no parameters — one
configuration (Table 3).

The paper finds it is the single best basic detector for #SR (whose
anomalies are upward spikes of a low-volume count) and nearly useless
for the strongly seasonal PV.
"""

from __future__ import annotations

from typing import Dict

from .base import FamilyDetector, FamilyKey, ParamValue


class SimpleThreshold(FamilyDetector):
    """Severity = the raw KPI value."""

    kind = "simple threshold"

    def params(self) -> Dict[str, ParamValue]:
        return {}

    def warmup(self) -> int:
        return 0

    def family(self) -> FamilyKey:
        # Rides in the moving-average window bank: its severity column
        # is the raw series, free once that pass has validated it.
        return ("window-bank", None)
