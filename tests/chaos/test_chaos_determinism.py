"""Determinism guards for chaos campaigns.

Two invariants, mirroring ``tests/obs/test_determinism.py``:

* Same seed, same campaign -> byte-identical :class:`ResilienceReport`
  JSON and byte-identical sim-clock trace exports. A campaign is part of
  the reproducible experiment, not an outside disturbance.
* A *disabled* (or empty) campaign attaches as a true no-op: the run is
  bit-identical to one with no campaign object at all. Chaos draws come
  from the dedicated ``"chaos"`` RNG stream, so merely wiring the
  subsystem in cannot perturb sensor noise, transport timing, or
  scheduling.
"""

import warnings

import pytest

from repro.chaos import (
    ChaosCampaign,
    randomized_campaign,
    run_campaign,
    standard_campaign,
)
from repro.chaos.policies import RESILIENT_POLICIES
from repro.core import FabricConfig, XGFabric
from repro.obs.export import spans_to_chrome_trace, spans_to_jsonl
from repro.obs.trace import Tracer
from repro.sensors import BreachEvent
from repro.sensors.weather import RegimeShift

warnings.filterwarnings("ignore", category=RuntimeWarning)

DURATION_S = 8 * 3600.0


def eventful_fabric(seed=3, policies=RESILIENT_POLICIES):
    fab = XGFabric(FabricConfig(seed=seed, policies=policies),
                   tracer=Tracer())
    fab.weather.add_shift(
        RegimeShift(at_time_s=2 * 3600.0, wind_delta_mps=2.5,
                    temperature_delta_k=-3.0)
    )
    fab.farm.breaches.add(BreachEvent(panel_index=0, at_time_s=4 * 3600.0,
                                 cause="bird-strike"))
    return fab


def campaign_run():
    fab = eventful_fabric()
    rep = run_campaign(fab, standard_campaign(DURATION_S), DURATION_S)
    return fab, rep


@pytest.fixture(scope="module")
def two_campaign_runs():
    return campaign_run(), campaign_run()


class TestSameSeedCampaignsAreIdentical:
    def test_reports_byte_identical(self, two_campaign_runs):
        (_, r1), (_, r2) = two_campaign_runs
        assert r1.to_json() == r2.to_json()

    def test_chrome_traces_byte_identical(self, two_campaign_runs):
        (f1, _), (f2, _) = two_campaign_runs
        assert (
            spans_to_chrome_trace(f1.tracer.finished_spans(), clock="sim")
            == spans_to_chrome_trace(f2.tracer.finished_spans(), clock="sim")
        )

    def test_jsonl_traces_byte_identical(self, two_campaign_runs):
        (f1, _), (f2, _) = two_campaign_runs
        assert (
            spans_to_jsonl(f1.tracer.finished_spans(), include_wall=False)
            == spans_to_jsonl(f2.tracer.finished_spans(), include_wall=False)
        )

    def test_different_seed_changes_the_report(self, two_campaign_runs):
        (_, r1), _ = two_campaign_runs
        fab = eventful_fabric(seed=11)
        other = run_campaign(fab, standard_campaign(DURATION_S), DURATION_S)
        assert other.to_json() != r1.to_json()

    def test_randomized_campaigns_replay_fault_for_fault(self):
        """Seeded random campaigns draw from the named "chaos" stream, so
        two same-seed fabrics get the same schedule."""
        fabs = [XGFabric(FabricConfig(seed=7)) for _ in range(2)]
        camps = [randomized_campaign(f, DURATION_S, n_faults=5) for f in fabs]
        a, b = ([(f.name, f.start_s, f.duration_s) for f in c.faults]
                for c in camps)
        assert a == b
        assert len({name for name, _, _ in a}) == 5  # distinct injections


class TestDisabledCampaignIsInvisible:
    """The acceptance bit-identity check: attaching a campaign that arms
    nothing produces the same trace bytes as never constructing one."""

    @pytest.fixture(scope="class")
    def baseline_jsonl(self):
        fab = eventful_fabric()
        fab.run(DURATION_S)
        return spans_to_jsonl(fab.tracer.finished_spans(),
                              include_wall=False)

    def test_empty_campaign_run_is_bit_identical(self, baseline_jsonl):
        fab = eventful_fabric()
        ChaosCampaign([]).attach(fab)
        fab.run(DURATION_S)
        assert (
            spans_to_jsonl(fab.tracer.finished_spans(), include_wall=False)
            == baseline_jsonl
        )

    def test_enabled_campaign_does_change_the_trace(self, baseline_jsonl):
        fab = eventful_fabric()
        run_campaign(fab, standard_campaign(DURATION_S), DURATION_S)
        assert (
            spans_to_jsonl(fab.tracer.finished_spans(), include_wall=False)
            != baseline_jsonl
        )


class TestStreamingStackDeterminism:
    """The full streaming telemetry stack under chaos: same seed ->
    byte-identical SLO alert timelines and flight-recorder dumps, and
    every injected fault carries at least one dump in the report."""

    @staticmethod
    def streaming_campaign_run(seed=3):
        from repro.core import fig3_slos
        from repro.obs import FlightRecorder, StreamAggregator

        fab = XGFabric(
            FabricConfig(seed=seed, policies=RESILIENT_POLICIES),
            tracer=Tracer(),
            slos=fig3_slos(),
            recorder=FlightRecorder(),
            stream=StreamAggregator(),
        )
        fab.weather.add_shift(
            RegimeShift(at_time_s=2 * 3600.0, wind_delta_mps=2.5,
                        temperature_delta_k=-3.0)
        )
        rep = run_campaign(fab, standard_campaign(DURATION_S), DURATION_S)
        return fab, rep

    @pytest.fixture(scope="class")
    def two_streaming_runs(self):
        return self.streaming_campaign_run(), self.streaming_campaign_run()

    def test_slo_timelines_byte_identical(self, two_streaming_runs):
        (f1, _), (f2, _) = two_streaming_runs
        assert f1.slo_engine.timeline()  # chaos must provoke alerts
        assert f1.slo_engine.timeline_json() == f2.slo_engine.timeline_json()

    def test_recorder_dumps_byte_identical(self, two_streaming_runs):
        (f1, _), (f2, _) = two_streaming_runs
        assert f1.recorder.dumps  # chaos must provoke dumps
        d1 = [d.to_jsonl() for d in f1.recorder.dumps]
        d2 = [d.to_jsonl() for d in f2.recorder.dumps]
        assert d1 == d2

    def test_stream_sketches_byte_identical(self, two_streaming_runs):
        (f1, _), (f2, _) = two_streaming_runs
        assert f1.stream.to_json() == f2.stream.to_json()

    def test_every_fault_carries_a_dump(self, two_streaming_runs):
        (_, rep), _ = two_streaming_runs
        assert rep.faults
        for outcome in rep.faults:
            dump = outcome.recorder_dump
            assert dump is not None, f"{outcome.name} has no recorder dump"
            assert dump["trigger"] == f"chaos:{outcome.name}"
            assert dump["spans"], f"{outcome.name} dump captured no spans"

    def test_dumps_embed_in_report_json(self, two_streaming_runs):
        (_, r1), (_, r2) = two_streaming_runs
        assert '"recorder_dump"' in r1.to_json()
        assert r1.to_json() == r2.to_json()

    def test_chaos_and_slo_triggers_interleave(self, two_streaming_runs):
        (f1, _), _ = two_streaming_runs
        triggers = [d.trigger for d in f1.recorder.dumps]
        assert any(t.startswith("chaos:") for t in triggers)
        assert any(t.startswith("slo:") for t in triggers)
        # seq numbers are the run's deterministic dump ordinals.
        assert [d.seq for d in f1.recorder.dumps] == list(
            range(1, len(triggers) + 1)
        )
