"""xGFabric core: the end-to-end orchestration fabric.

Wires every substrate into the paper's Figure 3 pipeline:

  weather stations (UNL, inside the private 5G network)
    -> CSPOT reliable appends over 5G + Internet to the UCSB repository
    -> Laminar change detection (three statistical tests + voting) on a
       30-minute duty cycle
    -> alert fetched at ND; the Pilot Controller (Eqs 1-4) sizes/acquires
       pilots on the batch cluster
    -> CFD case generated from the latest telemetry; OpenFOAM-substitute
       solve (real small-scale solver + calibrated paper-scale timing)
    -> digital twin compares predicted vs. measured interior airflow
    -> breach suspicion dispatches the Farm-NG robot to surveil the panel.

:class:`~repro.core.fabric.XGFabric` runs the whole loop on one simulation
engine; :mod:`repro.core.e2e` produces the section 4.4 accounting.
"""

from repro.core.config import FabricConfig
from repro.core.telemetry import TelemetryRecord
from repro.core.digital_twin import DigitalTwin, TwinComparison
from repro.core.fabric import CfdRunRecord, FabricMetrics, XGFabric
from repro.core.e2e import (
    E2EReport,
    FIG3_STAGES,
    analyze_end_to_end,
    fabric_latency_budget,
    fig3_slos,
)
from repro.core.scenario import Scenario, ScenarioResult
from repro.core.fabric_sharded import ShardedFabricScenario

__all__ = [
    "FabricConfig",
    "TelemetryRecord",
    "DigitalTwin",
    "TwinComparison",
    "XGFabric",
    "FabricMetrics",
    "CfdRunRecord",
    "E2EReport",
    "FIG3_STAGES",
    "analyze_end_to_end",
    "fabric_latency_budget",
    "fig3_slos",
    "Scenario",
    "ScenarioResult",
    "ShardedFabricScenario",
]
