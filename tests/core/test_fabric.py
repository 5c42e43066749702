"""Integration tests: the full xGFabric pipeline."""

import hashlib
import json
import warnings
from dataclasses import asdict

import pytest

from repro.core import FabricConfig, XGFabric, analyze_end_to_end
from repro.core.config import DUTY_CYCLE_S
from repro.cspot.log import WooF
from repro.sensors import BreachEvent
from repro.sensors.weather import RegimeShift

warnings.filterwarnings("ignore", category=RuntimeWarning)


def small_config(**overrides):
    base = dict(seed=7)
    base.update(overrides)
    return FabricConfig(**base)


@pytest.fixture(scope="module")
def quiet_run():
    """A 4-hour run with stationary weather (no alerts expected)."""
    fab = XGFabric(small_config())
    metrics = fab.run(4 * 3600.0)
    return fab, metrics


@pytest.fixture(scope="module")
def eventful_run():
    """An 8-hour run with a front passage and a breach."""
    fab = XGFabric(small_config(seed=3))
    fab.weather.add_shift(
        RegimeShift(at_time_s=2 * 3600.0, wind_delta_mps=2.5,
                    temperature_delta_k=-3.0)
    )
    fab.farm.breaches.add(BreachEvent(panel_index=0, at_time_s=4 * 3600.0,
                                 cause="bird-strike"))
    metrics = fab.run(8 * 3600.0)
    return fab, metrics


class TestTelemetryPath:
    def test_telemetry_flows_every_interval(self, quiet_run):
        fab, m = quiet_run
        # 4 h / 300 s: 47 batches x 5 stations (append latencies drift
        # each batch slightly later, so the 48th falls past the horizon).
        assert m.telemetry_sent == 47 * 5

    def test_latency_matches_table1(self, quiet_run):
        fab, m = quiet_run
        # UNL->UCSB over 5G+Internet: 101 +/- 17 ms in the paper.
        assert m.mean_telemetry_latency_s == pytest.approx(0.101, rel=0.15)

    def test_bytes_parked_in_ucsb_logs(self, quiet_run):
        fab, m = quiet_run
        log = fab.hub.ucsb.get_log("telemetry.cups-ext-0")
        assert log.last_seqno == 47

    def test_bytes_accounted_through_5g_core(self, quiet_run):
        fab, m = quiet_run
        assert fab.farm.radio is not None
        assert fab.farm.radio.core.total_uplink_bytes() == m.telemetry_bytes


class TestChangeDetection:
    def test_stationary_weather_rarely_alerts(self, quiet_run):
        fab, m = quiet_run
        assert m.duty_cycles == 8
        assert m.change_alerts <= 2  # noise-level false positives only

    def test_front_passage_triggers_alert_and_cfd(self, eventful_run):
        fab, m = eventful_run
        assert m.change_alerts >= 1
        assert len(m.cfd_runs) >= 1
        # CFD runs follow alerts (the ND poller fetches on its duty cycle).
        assert m.cfd_runs[0].trigger_time_s >= 1800.0

    def test_laminar_fired_for_each_evaluated_cycle(self, eventful_run):
        fab, m = eventful_run
        vote_node = fab.hub.detection.graph.get_node("vote")
        assert vote_node.firings >= m.change_alerts


class TestCfdArm:
    def test_run_records_are_consistent(self, eventful_run):
        fab, m = eventful_run
        for run in m.cfd_runs:
            assert run.cores == fab.hub.placement.cores_per_task == 64
            assert run.execution_s > 0
            assert run.total_response_s >= run.execution_s - 1e-6
            assert run.queue_wait_s >= 0
            assert run.validity_window_s == pytest.approx(
                DUTY_CYCLE_S - run.total_response_s
            )

    def test_execution_near_paper_anchor(self, eventful_run):
        fab, m = eventful_run
        # 64-core total time: 420.39 +/- 36.29 s in the paper.
        for run in m.cfd_runs:
            assert 250 < run.execution_s < 650

    def test_pilot_masks_queue_on_empty_cluster(self, eventful_run):
        fab, m = eventful_run
        assert all(r.queue_wait_s < 60.0 for r in m.cfd_runs)

    def test_twin_updated_after_first_run(self, eventful_run):
        fab, m = eventful_run
        assert fab.hub.twin.has_prediction

    def test_results_logged_at_nd(self, eventful_run):
        fab, m = eventful_run
        assert fab.hub.nd.get_log("cfd.results").last_seqno == len(m.cfd_runs)

    def test_results_returned_to_site_operator(self, eventful_run):
        # "These results can be returned to the site operator": each CFD
        # completion lands a summary in the UNL operator inbox via UCSB.
        fab, m = eventful_run
        inbox = fab.farm.unl.get_log("operator.inbox")
        assert inbox.last_seqno == len(m.cfd_runs)
        assert b"interior airflow refreshed" in inbox.get(1).payload
        # Return latency: ND->UCSB + UCSB->UNL reliable appends.
        assert len(m.operator_notification_latencies_s) == len(m.cfd_runs)
        for latency in m.operator_notification_latencies_s:
            assert 0.1 < latency < 1.0


class TestBreachLoop:
    def test_breach_detected_after_it_happens(self, eventful_run):
        fab, m = eventful_run
        suspected = [c for c in fab.hub.twin.comparisons if c.breach_suspected]
        post = [c for c in suspected if c.time_s >= 4 * 3600.0]
        assert post, "breach never suspected"
        # Detected within 3 telemetry intervals of the event.
        assert post[0].time_s - 4 * 3600.0 < 3 * 300.0 + 600.0

    def test_robot_dispatched_and_confirms(self, eventful_run):
        fab, m = eventful_run
        assert m.robot_reports, "robot never dispatched"
        assert m.confirmed_breaches >= 1
        confirmed = [r for r in m.robot_reports if r.breach_confirmed]
        assert confirmed[0].panel_index == 0  # the breached panel

    def test_confirmed_panel_not_redispatched(self, eventful_run):
        fab, m = eventful_run
        confirmations = [r for r in m.robot_reports if r.breach_confirmed]
        assert len(confirmations) == 1

    def test_robot_imagery_rides_the_5g_uplink(self, eventful_run):
        # "Robot-based sensing": surveil images are uplink traffic too.
        fab, m = eventful_run
        assert m.robot_upload_bytes == sum(
            r.images_taken * 2_000_000 for r in m.robot_reports
        )
        assert fab.farm.radio.core.total_uplink_bytes() == (
            m.telemetry_bytes + m.robot_upload_bytes
        )


class TestE2EReport:
    def test_report_matches_section_4_4(self, eventful_run):
        fab, m = eventful_run
        report = analyze_end_to_end(fab)
        # ~200 ms UNL -> ND transfer (101 + 92 from Table 1).
        assert report.transfer_unl_to_nd_s == pytest.approx(0.193, abs=0.02)
        # One simulation every ~7 minutes on 64 dedicated cores.
        assert 6 * 60 <= report.sustained_interval_s <= 8 * 60
        # Validity window: a substantial fraction of the 30-min duty cycle
        # (the paper derives >= 23 min less polling/queue overheads).
        assert report.min_validity_window_s >= 18 * 60
        assert report.meets_real_time_requirement
        assert report.cfd_runs == len(m.cfd_runs)
        assert len(report.rows()) == 7

    def test_report_without_runs_uses_model(self):
        fab = XGFabric(small_config(seed=21))
        fab.run(1800.0)  # too short for any alert
        report = analyze_end_to_end(fab)
        assert report.cfd_runs == 0
        assert report.min_validity_window_s > 0


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        def once():
            fab = XGFabric(small_config(seed=13))
            fab.weather.add_shift(RegimeShift(at_time_s=3600.0, wind_delta_mps=2.0))
            m = fab.run(3 * 3600.0)
            return (
                m.telemetry_sent, m.change_alerts, len(m.cfd_runs),
                tuple(round(v, 9) for v in m.telemetry_latencies_s[:5]),
            )

        assert once() == once()


class TestGoldenDigest:
    """A literal digest of a short eventful run: 4 h, seed 3, a front at
    1 h. It covers the repository's telemetry log payloads, the Laminar
    vote of every epoch, the CFD run records, and the telemetry and
    operator-notification latencies. Nothing downstream of solver floats
    (twin comparisons, robot reports) enters it: those can differ across
    numpy builds. The run is read only through ``weather``, ``run`` and
    ``metrics`` plus the appended bytes, so the digest pins the fabric's
    behaviour whatever its internal layout."""

    GOLDEN = "32ebcb8dbb0d613269771791434102f014abdc033a35538d7ded859e9230331c"

    def test_digest_is_pinned(self, monkeypatch):
        appended = []
        plain_append = WooF.append

        def recording_append(log, payload, now=0.0):
            if log.name.startswith("telemetry.") or (
                log.name == "lam.change-detect.alert"
            ):
                appended.append([log.name, now, payload.hex()])
            return plain_append(log, payload, now=now)

        monkeypatch.setattr(WooF, "append", recording_append)
        fab = XGFabric(FabricConfig(seed=3))
        fab.weather.add_shift(
            RegimeShift(at_time_s=3600.0, wind_delta_mps=2.5,
                        temperature_delta_k=-3.0)
        )
        m = fab.run(4 * 3600.0)
        assert m.cfd_runs, "the front must trigger at least one CFD run"
        blob = json.dumps(
            {
                "appends": appended,
                "cfd_runs": [asdict(r) for r in m.cfd_runs],
                "telemetry_latencies_s": m.telemetry_latencies_s,
                "operator_notification_latencies_s": (
                    m.operator_notification_latencies_s
                ),
            },
            sort_keys=True,
        )
        assert hashlib.sha256(blob.encode()).hexdigest() == self.GOLDEN


class TestConfigValidation:
    @pytest.mark.parametrize("field", [
        "telemetry_interval_s", "background_jobs_per_hour",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            FabricConfig(**{field: value})

    def test_rejects_negative_background_load(self):
        # The hub builds a load generator only for a positive rate, so a
        # negative one would otherwise run silently with no load at all.
        with pytest.raises(ValueError, match="background_jobs_per_hour"):
            FabricConfig(background_jobs_per_hour=-2.0)
