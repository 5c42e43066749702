"""Resilience accounting: per-fault recovery and exactly-once auditing.

A chaos campaign ends with a :class:`ResilienceReport` -- the measured form
of the paper's delay-tolerance claim. Every number is derived from the
simulated run (fault outcomes from the campaign runner, delivery counts
from the CSPOT logs themselves), so two same-seed campaigns serialize to
byte-identical reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.core.telemetry import TelemetryRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.fabric import XGFabric


@dataclass
class FaultOutcome:
    """What happened to one injected fault.

    Attributes
    ----------
    name / layer:
        Identity of the injection (layer is one of ``radio``, ``core5g``,
        ``cspot``, ``hpc``, ``pilot``).
    injected_at_s / reverted_at_s:
        When the fault started and when its cause was removed (equal for
        instantaneous faults like a PDU-session drop).
    recovered_at_s:
        When the system was observed healthy again, or None if it never
        was before the run (or the recovery timeout) ended.
    detail:
        Injector-specific note (victims killed, windows scheduled...).
    recorder_dump:
        The :class:`~repro.obs.recorder.FlightRecorder` snapshot taken at
        injection time (``RecorderDump.to_dict()``), when the fabric has a
        recorder wired; the local trace context the incident happened in.
    """

    name: str
    layer: str
    injected_at_s: float
    reverted_at_s: float
    recovered_at_s: Optional[float] = None
    detail: str = ""
    recorder_dump: Optional[dict[str, Any]] = None

    @property
    def recovered(self) -> bool:
        return self.recovered_at_s is not None

    @property
    def recovery_s(self) -> Optional[float]:
        """Time from injection to observed health, or None."""
        if self.recovered_at_s is None:
            return None
        return self.recovered_at_s - self.injected_at_s

    def to_dict(self) -> dict[str, Any]:
        out = {
            "name": self.name,
            "layer": self.layer,
            "injected_at_s": self.injected_at_s,
            "reverted_at_s": self.reverted_at_s,
            "recovered_at_s": self.recovered_at_s,
            "recovery_s": self.recovery_s,
            "detail": self.detail,
        }
        if self.recorder_dump is not None:
            out["recorder_dump"] = self.recorder_dump
        return out


@dataclass
class DeliveryAudit:
    """Exactly-once verdict, computed from the logs, not the claim.

    ``unique_delivered`` counts distinct (station, timestamp) records in
    the UCSB telemetry logs; ``duplicates`` is everything beyond that;
    ``lost`` is how many *completed* sends never show up. A send still in
    flight at run end (committed server-side but unacknowledged) is not a
    completion and cannot be counted lost.
    """

    completed_sends: int = 0
    records_in_log: int = 0
    unique_delivered: int = 0
    duplicates: int = 0
    lost: int = 0
    per_station: dict[str, int] = field(default_factory=dict)

    @property
    def exactly_once(self) -> bool:
        return self.lost == 0 and self.duplicates == 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "completed_sends": self.completed_sends,
            "records_in_log": self.records_in_log,
            "unique_delivered": self.unique_delivered,
            "duplicates": self.duplicates,
            "lost": self.lost,
            "exactly_once": self.exactly_once,
            "per_station": dict(sorted(self.per_station.items())),
        }


def audit_delivery(fabric: "XGFabric") -> DeliveryAudit:
    """Audit the telemetry logs at UCSB against the fabric's send count."""
    audit = DeliveryAudit(completed_sends=fabric.metrics.telemetry_sent)
    unique_total = 0
    for station in fabric.farm.stations:
        log = fabric.hub.ucsb.get_log(f"telemetry.{station.station_id}")
        seen: set[tuple[str, float]] = set()
        entries = 0
        for entry in log.scan():
            rec = TelemetryRecord.from_bytes(entry.payload)
            seen.add((rec.station_id, rec.time_s))
            entries += 1
        audit.records_in_log += entries
        audit.duplicates += entries - len(seen)
        unique_total += len(seen)
        audit.per_station[station.station_id] = entries
    audit.unique_delivered = unique_total
    audit.lost = max(0, audit.completed_sends - unique_total)
    return audit


@dataclass
class ResilienceReport:
    """The campaign's deliverable: recovery per fault + delivery verdict.

    ``downtime_masked_s`` measures how much injected HPC downtime the
    pilot layer hid from the application: the summed duration of HPC-layer
    fault windows that overlap at least one *completed* CFD run.
    """

    seed: int
    duration_s: float
    faults: list[FaultOutcome] = field(default_factory=list)
    delivery: DeliveryAudit = field(default_factory=DeliveryAudit)
    cfd_runs: int = 0
    cfd_failures: int = 0
    change_alerts: int = 0
    downtime_masked_s: float = 0.0

    @property
    def exactly_once(self) -> bool:
        return self.delivery.exactly_once

    @property
    def all_recovered(self) -> bool:
        return all(f.recovered for f in self.faults)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "duration_s": self.duration_s,
            "faults": [f.to_dict() for f in self.faults],
            "delivery": self.delivery.to_dict(),
            "cfd_runs": self.cfd_runs,
            "cfd_failures": self.cfd_failures,
            "change_alerts": self.change_alerts,
            "downtime_masked_s": self.downtime_masked_s,
            "exactly_once": self.exactly_once,
            "all_recovered": self.all_recovered,
        }

    def to_json(self) -> str:
        """Deterministic serialization (sorted keys, no whitespace drift)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def masked_downtime_s(fabric: "XGFabric", faults: list[FaultOutcome]) -> float:
    """Summed HPC fault-window time overlapped by a completed CFD run."""
    masked = 0.0
    for fault in faults:
        if fault.layer != "hpc":
            continue
        start, end = fault.injected_at_s, fault.reverted_at_s
        if end <= start:
            continue
        for run in fabric.metrics.cfd_runs:
            run_start = run.trigger_time_s
            run_end = run.trigger_time_s + run.total_response_s
            if run_start < end and start < run_end:
                masked += end - start
                break
    return masked


def build_report(
    fabric: "XGFabric",
    duration_s: float,
    faults: list[FaultOutcome],
) -> ResilienceReport:
    """Assemble the full report for a finished run."""
    return ResilienceReport(
        seed=fabric.config.seed,
        duration_s=duration_s,
        faults=list(faults),
        delivery=audit_delivery(fabric),
        cfd_runs=len(fabric.metrics.cfd_runs),
        cfd_failures=fabric.metrics.cfd_failures,
        change_alerts=fabric.metrics.change_alerts,
        downtime_masked_s=masked_downtime_s(fabric, faults),
    )
