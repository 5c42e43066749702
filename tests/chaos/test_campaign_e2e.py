"""End-to-end resilience: the Fig. 3 pipeline under the standard campaign.

The acceptance scenario from the resilience work: run the full eventful
pipeline (regime shift + breach, change alerts, CFD triggers) while the
standard cross-layer campaign injects a CSPOT partition, a UE power loss,
and an HPC node failure mid-run. The pipeline must absorb all three with
zero lost and zero duplicate sensor records, and the report must carry a
recovery time for every fault.
"""

import hashlib
import json
import warnings

import pytest

from repro.chaos import (
    ChaosCampaign,
    CspotAckLossInjector,
    CspotPartitionInjector,
    UePowerLossInjector,
    run_campaign,
    standard_campaign,
)
from repro.chaos.policies import RESILIENT_POLICIES
from repro.core import FabricConfig, XGFabric
from repro.obs.trace import Tracer
from repro.sensors import BreachEvent
from repro.sensors.weather import RegimeShift

warnings.filterwarnings("ignore", category=RuntimeWarning)

DURATION_S = 8 * 3600.0


def eventful_fabric(seed=3, tracer=None, policies=RESILIENT_POLICIES):
    fab = XGFabric(
        FabricConfig(seed=seed, policies=policies),
        tracer=tracer if tracer is not None else Tracer(enabled=False),
    )
    fab.weather.add_shift(
        RegimeShift(at_time_s=2 * 3600.0, wind_delta_mps=2.5,
                    temperature_delta_k=-3.0)
    )
    fab.farm.breaches.add(BreachEvent(panel_index=0, at_time_s=4 * 3600.0,
                                 cause="bird-strike"))
    return fab


@pytest.fixture(scope="module")
def report():
    fab = eventful_fabric(tracer=Tracer())
    rep = run_campaign(fab, standard_campaign(DURATION_S), DURATION_S)
    return fab, rep


class TestStandardCampaign:
    def test_every_fault_fired_and_recovered(self, report):
        _, rep = report
        assert [f.layer for f in rep.faults] == ["cspot", "radio", "hpc"]
        for fault in rep.faults:
            assert fault.recovered, f"{fault.name} never recovered"
            assert fault.recovery_s is not None and fault.recovery_s > 0
            # Recovery can only be observed at/after the revert.
            assert fault.recovered_at_s >= fault.reverted_at_s

    def test_exactly_once_delivery_survives_the_campaign(self, report):
        _, rep = report
        assert rep.delivery.exactly_once
        assert rep.delivery.lost == 0
        assert rep.delivery.duplicates == 0
        # Every completed send is in the repository log exactly once.
        assert rep.delivery.unique_delivered == rep.delivery.completed_sends
        # 5 stations x one reading per 300 s for 8 h, minus in-flight tail.
        assert rep.delivery.completed_sends > 400

    def test_pipeline_still_detected_and_reacted(self, report):
        _, rep = report
        assert rep.change_alerts > 0
        assert rep.cfd_runs > 0
        assert rep.cfd_failures == 0  # retries absorbed the node failure

    def test_hpc_downtime_masked_by_pilots(self, report):
        _, rep = report
        # The 1 h node outage overlaps completed CFD runs: the pilot layer
        # masked (part of) the failure window.
        assert rep.downtime_masked_s >= 0.0

    def test_chaos_is_visible_through_observability(self, report):
        fab, rep = report
        spans = [s for s in fab.tracer.finished_spans()
                 if s.name == "chaos.fault"]
        assert len(spans) == len(rep.faults) == 3
        assert fab.tracer.metrics.counter("chaos.faults").total() == 3

    def test_report_serializes_deterministically(self, report):
        _, rep = report
        payload = json.loads(rep.to_json())
        assert payload["seed"] == 3
        assert payload["duration_s"] == DURATION_S
        assert len(payload["faults"]) == 3
        assert payload["delivery"]["exactly_once"] is True
        assert rep.to_json() == rep.to_json()

    def test_verdict_holds_without_tracing_attached(self):
        """The report must not depend on the tracer being on."""
        fab = eventful_fabric()
        rep = run_campaign(fab, standard_campaign(DURATION_S), DURATION_S)
        assert rep.delivery.exactly_once
        assert all(f.recovered for f in rep.faults)


class TestRetryPathDigest:
    """A literal digest of the reliable append's retry paths: seed 3 at the
    storm's 10 s cadence with ``RESILIENT_POLICIES``, for 2 h, under a
    ``unl->ucsb`` partition, an ack-loss window and a UE power loss. It
    pins every telemetry log entry (append time and payload) and the
    resilience report's canonical JSON, so a change to the partition,
    power-loss, ack-loss or dedup path of an append shows here, on the
    fast lane, and not only in the e2e storm digest."""

    GOLDEN = "7fd1ae45ebc9c25a0995f5cb862b3de72ccf6cffd38ea4e3bb519065102b1053"

    def test_digest_is_pinned(self):
        fab = XGFabric(
            FabricConfig(
                seed=3, telemetry_interval_s=10.0, policies=RESILIENT_POLICIES
            )
        )
        campaign = ChaosCampaign([
            CspotPartitionInjector(
                start_s=1800.0, duration_s=900.0, src="unl", dst="ucsb"
            ),
            CspotAckLossInjector(
                start_s=3000.0, duration_s=600.0, src="unl", dst="ucsb",
                ack_loss_prob=0.3,
            ),
            UePowerLossInjector(start_s=4500.0, duration_s=1200.0),
        ])
        rep = run_campaign(fab, campaign, 2 * 3600.0)
        assert rep.exactly_once and rep.all_recovered
        # Lost acks were retried and absorbed server-side.
        assert fab.hub.ucsb.dedup.hits > 0
        logs = {
            station.station_id: [
                [entry.appended_at, entry.payload.hex()]
                for entry in fab.hub.ucsb.get_log(
                    f"telemetry.{station.station_id}"
                ).scan()
            ]
            for station in fab.farm.stations
        }
        blob = json.dumps({"logs": logs, "report": rep.to_json()}, sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == self.GOLDEN


class TestCampaignGuards:
    def test_standard_campaign_needs_room(self):
        with pytest.raises(ValueError, match="6 h"):
            standard_campaign(3600.0)

    def test_double_attach_rejected(self):
        fab = eventful_fabric()
        campaign = ChaosCampaign([])
        campaign.attach(fab)
        with pytest.raises(RuntimeError, match="already attached"):
            campaign.attach(fab)

    def test_report_before_attach_rejected(self):
        with pytest.raises(RuntimeError, match="never attached"):
            ChaosCampaign([]).report(3600.0)
