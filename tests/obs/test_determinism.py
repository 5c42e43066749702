"""Determinism guard: two same-seed traced runs export identical traces.

The sim-clock span record derives only from the engine clock, sequential
span ids, and sorted export ordering -- nothing wall-clock-dependent.
That invariant is what makes a trace diffable across PRs: any byte
difference between same-seed exports is a real behavior change.
"""

import warnings

import pytest

from repro.core import FabricConfig, XGFabric, fabric_latency_budget
from repro.obs.export import spans_to_chrome_trace, spans_to_jsonl
from repro.obs.trace import Tracer
from repro.sensors import BreachEvent
from repro.sensors.weather import RegimeShift

warnings.filterwarnings("ignore", category=RuntimeWarning)


def traced_eventful_run():
    """The Fig. 3 pipeline end to end: telemetry, alerts, CFD triggers."""
    fab = XGFabric(FabricConfig(seed=3), tracer=Tracer())
    fab.weather.add_shift(
        RegimeShift(at_time_s=2 * 3600.0, wind_delta_mps=2.5,
                    temperature_delta_k=-3.0)
    )
    fab.farm.breaches.add(BreachEvent(panel_index=0, at_time_s=4 * 3600.0,
                                 cause="bird-strike"))
    metrics = fab.run(8 * 3600.0)
    return fab, metrics


@pytest.fixture(scope="module")
def two_runs():
    return traced_eventful_run(), traced_eventful_run()


class TestTraceDeterminism:
    def test_runs_actually_exercised_the_pipeline(self, two_runs):
        (fab, m), _ = two_runs
        assert m.change_alerts > 0
        assert m.cfd_runs
        assert len(fab.tracer.finished_spans()) > 100

    def test_chrome_trace_byte_identical(self, two_runs):
        (fab1, _), (fab2, _) = two_runs
        t1 = spans_to_chrome_trace(fab1.tracer.finished_spans(), clock="sim")
        t2 = spans_to_chrome_trace(fab2.tracer.finished_spans(), clock="sim")
        assert t1 == t2

    def test_jsonl_byte_identical_without_wall_stamps(self, two_runs):
        (fab1, _), (fab2, _) = two_runs
        j1 = spans_to_jsonl(fab1.tracer.finished_spans(), include_wall=False)
        j2 = spans_to_jsonl(fab2.tracer.finished_spans(), include_wall=False)
        assert j1 == j2

    def test_latency_budget_identical(self, two_runs):
        (fab1, _), (fab2, _) = two_runs
        assert (fabric_latency_budget(fab1).to_dict()
                == fabric_latency_budget(fab2).to_dict())

    def test_different_seed_changes_the_trace(self, two_runs):
        (fab1, _), _ = two_runs
        other = XGFabric(FabricConfig(seed=11), tracer=Tracer())
        other.run(2 * 3600.0)
        assert (
            spans_to_jsonl(other.tracer.finished_spans(), include_wall=False)
            != spans_to_jsonl(fab1.tracer.finished_spans(), include_wall=False)
        )
