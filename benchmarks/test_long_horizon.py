"""Long-horizon operations: three days of continuous xGFabric service.

The prototype paper runs bounded experiments; a production deployment runs
for months. This benchmark drives 72 hours of continuous operation --
multiple front passages, two breaches on different walls, multi-site pilot
placement, background HPC load -- and checks the properties that only show
up at duration:

* no telemetry lost or duplicated across ~860 reporting cycles;
* the change detector keeps its false-alarm economy (alerts scale with
  actual fronts, not with runtime);
* every CFD refresh stays within the real-time envelope;
* both breaches detected, localized, and confirmed;
* the Laminar runtime's working state stays bounded (epoch pruning);
* observability memory stays bounded too: the run is traced with
  ``Tracer(max_spans=...)`` ring retention, so peak span memory is
  O(ring size) regardless of horizon (streaming sinks keep the exact
  aggregates).
"""

from repro.analysis import ComparisonTable
from repro.core import FabricConfig, Scenario
from repro.obs import Tracer

from benchmarks.conftest import run_once

HOURS = 72.0

#: Ring retention for the 72 h trace: far below the span count the run
#: produces, so the bounded-memory property is actually exercised.
SPAN_RING = 2048


def generate_long_run():
    scenario = (
        Scenario(
            hours=HOURS, seed=5,
            config=FabricConfig(multi_site=True, background_jobs_per_hour=1.0),
            tracer_factory=lambda: Tracer(max_spans=SPAN_RING),
        )
        .front_passage(at_hour=9.0, wind_delta_mps=2.5, temperature_delta_k=-3.0)
        .front_passage(at_hour=30.0, wind_delta_mps=-2.0, temperature_delta_k=2.0)
        .front_passage(at_hour=54.0, wind_delta_mps=3.0, temperature_delta_k=-4.0)
        .breach(panel=0, at_hour=20.0, cause="bird-strike")
        .breach(panel=3, at_hour=48.0, cause="fauna")
    )
    return scenario.run()


def test_72_hour_operations(benchmark):
    result = run_once(benchmark, generate_long_run)
    fabric, metrics = result.fabric, result.metrics

    table = ComparisonTable("72-hour continuous operation")
    table.add("telemetry reports", metrics.telemetry_sent)
    table.add("mean CSPOT latency (ms)", metrics.mean_telemetry_latency_s * 1e3,
              paper=101.0, unit="ms")
    table.add("duty cycles", metrics.duty_cycles)
    table.add("change alerts", metrics.change_alerts)
    table.add("CFD refreshes", len(metrics.cfd_runs))
    table.add("breaches confirmed", metrics.confirmed_breaches)
    table.add("robot missions", len(metrics.robot_reports))
    table.add("surveil imagery (MB)", metrics.robot_upload_bytes / 1e6)
    table.print()

    # Telemetry: exactly-once per station across the whole horizon.
    n_batches = metrics.telemetry_sent // 5
    for station in fabric.farm.stations:
        log = fabric.hub.ucsb.get_log(f"telemetry.{station.station_id}")
        assert log.last_seqno == n_batches

    # Change alerts stay economical: a handful per front, not per cycle.
    assert metrics.duty_cycles >= 140
    assert 3 <= metrics.change_alerts <= 0.35 * metrics.duty_cycles

    # Every refresh inside the real-time envelope.
    assert metrics.cfd_runs
    for run in metrics.cfd_runs:
        assert run.validity_window_s > 15 * 60

    # Both breaches confirmed at the right panels.
    confirmed_panels = {
        r.panel_index for r in metrics.robot_reports if r.breach_confirmed
    }
    assert confirmed_panels == {0, 3}

    # Multi-site placement was exercised.
    assert len(fabric.hub.placement.sites) == 3
    assert sum(fabric.hub.placement.placement_counts().values()) >= len(
        metrics.cfd_runs
    )

    # Return path delivered a summary for every refresh.
    inbox = fabric.farm.unl.get_log("operator.inbox")
    assert inbox.last_seqno == len(metrics.cfd_runs)

    # Span retention is O(ring size), not O(run length): the 72 h trace
    # created far more spans than the ring holds, the ring never grew
    # past its bound, and the eviction accounting is exact.
    tracer = fabric.tracer
    assert tracer.max_spans == SPAN_RING
    assert len(tracer.spans) <= SPAN_RING
    assert tracer.spans_created > 4 * SPAN_RING
    assert tracer.spans_dropped == tracer.spans_created - len(tracer.spans)
