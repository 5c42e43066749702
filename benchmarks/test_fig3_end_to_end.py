"""Figure 3: the end-to-end pipeline and its CFD output.

The paper's Figure 3 is two things at once: the architecture diagram of the
working end-to-end application, and a sample CFD output (airflow around the
farm, wind velocity as color). This benchmark runs the assembled fabric
through an eventful half-day -- a front passage that triggers the change
detector, then a screen breach -- and regenerates the figure's artifacts:

* every pipeline stage demonstrably executed (telemetry -> logs -> Laminar
  alert -> pilot -> CFD -> twin -> robot);
* the rasterized airflow slice (the PNG's data) written alongside a
  legacy-VTK file of the final CFD solution.

The run is traced (``repro.obs``), so the section 4.4 latency budget is
*measured* from recorded spans -- the critical-path table below the stage
counts -- and the full span record is exported to ``_artifacts`` as a
Perfetto-loadable trace (``fig3_trace.json``) plus JSONL and metrics
snapshots. The run also carries the streaming telemetry stack: online
quantile sketches (live p50/p95/p99 per stage), the section 4.4 SLOs
under burn-rate monitoring, and the always-on flight recorder.
"""

import os

import numpy as np
import pytest

from repro.analysis import ComparisonTable
from repro.cfd.postprocess import slice_raster, write_vtk_ascii
from repro.core import (
    FabricConfig,
    XGFabric,
    analyze_end_to_end,
    fabric_latency_budget,
    fig3_slos,
)
from repro.obs import FlightRecorder, StreamAggregator
from repro.obs.export import export_run
from repro.obs.trace import Tracer
from repro.sensors import BreachEvent
from repro.sensors.weather import RegimeShift

from benchmarks.conftest import run_once

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "_artifacts")


def _streaming_fabric(seed: int = 3) -> XGFabric:
    return XGFabric(
        FabricConfig(seed=seed),
        tracer=Tracer(),
        slos=fig3_slos(),
        recorder=FlightRecorder(),
        stream=StreamAggregator(),
    )


def generate_figure3(seed: int = 3):
    fabric = _streaming_fabric(seed)
    fabric.weather.add_shift(
        RegimeShift(at_time_s=2 * 3600.0, wind_delta_mps=2.5,
                    temperature_delta_k=-3.0)
    )
    fabric.farm.breaches.add(
        BreachEvent(panel_index=0, at_time_s=5 * 3600.0, cause="bird-strike")
    )
    metrics = fabric.run(10 * 3600.0)
    return fabric, metrics


def test_fig3_end_to_end_pipeline(benchmark):
    fabric, metrics = run_once(benchmark, generate_figure3)

    table = ComparisonTable("Figure 3: end-to-end pipeline stage counts")
    table.add("telemetry reports delivered", metrics.telemetry_sent)
    table.add("mean CSPOT latency (ms)", metrics.mean_telemetry_latency_s * 1e3,
              paper=101.0, unit="ms")
    table.add("Laminar duty cycles", metrics.duty_cycles)
    table.add("change alerts", metrics.change_alerts)
    table.add("CFD simulations", len(metrics.cfd_runs))
    table.add("breach suspicions", metrics.breach_suspicions)
    table.add("robot missions", len(metrics.robot_reports))
    table.add("breaches confirmed", metrics.confirmed_breaches)
    table.print()

    # Every stage of Fig. 3 must have executed.
    assert metrics.telemetry_sent > 100
    assert metrics.duty_cycles >= 10
    assert metrics.change_alerts >= 1
    assert len(metrics.cfd_runs) >= 1
    assert metrics.confirmed_breaches >= 1

    # The telemetry log at UCSB holds the parked data.
    ext_log = fabric.hub.ucsb.get_log("telemetry.cups-ext-0")
    assert ext_log.last_seqno == metrics.telemetry_sent // 5

    # Regenerate the figure's CFD output: a rasterized airflow slice plus
    # a ParaView-readable VTK file of the final solution.
    case = fabric.hub.twin._case
    assert case is not None
    fields = case.build_solver().solve().fields
    raster = slice_raster(fields, axis="z")
    assert raster.shape == (case.mesh.nx, case.mesh.ny)
    assert np.all(np.isfinite(raster)) and raster.max() > 0
    # The screen house is visible in the raster: interior slower than the
    # free stream around it.
    interior = raster[5:9, 5:9].mean()
    exterior = raster[0:2, :].mean()
    assert interior < exterior

    os.makedirs(OUTPUT_DIR, exist_ok=True)
    np.save(os.path.join(OUTPUT_DIR, "fig3_airflow_slice.npy"), raster)
    vtk_path = write_vtk_ascii(
        fields, os.path.join(OUTPUT_DIR, "fig3_cups_cfd.vtk"),
        title="xGFabric CUPS airflow",
    )
    assert os.path.getsize(vtk_path) > 1000

    # The measured Fig. 3 critical path, assembled from recorded spans:
    # radio TX -> CSPOT append -> Laminar fire -> alert fetch -> pilot
    # dispatch -> CFD solve -> operator notification.
    budget = fabric_latency_budget(fabric)
    for line in budget.rows():
        print(line)
    stages = {leg.span_name for leg in budget.legs}
    assert {"cspot.append", "laminar.epoch", "cspot.fetch",
            "pilot.dispatch", "cfd.sim", "fabric.notify"} <= stages
    # The CFD solve dominates the active path, as the paper reports.
    cfd_leg = next(l for l in budget.legs if l.span_name == "cfd.sim")
    assert cfd_leg.duration_s == max(l.duration_s for l in budget.legs)

    # The full observability record: Perfetto-loadable trace + JSONL +
    # metrics snapshot, alongside the figure artifacts.
    paths = export_run(fabric.tracer, OUTPUT_DIR, prefix="fig3")
    assert os.path.getsize(paths["trace"]) > 10_000

    # Live streaming telemetry: the online sketches agree with the span
    # record on the append tail, and a healthy run burns no budget.
    assert fabric.stream is not None and fabric.slo_engine is not None
    for line in fabric.stream.table():
        print(line)
    for line in fabric.slo_engine.table():
        print(line)
    sketch = fabric.stream.sketch("span:cspot.append")
    assert sketch.count == len(fabric.tracer.spans_named("cspot.append"))
    assert 0.0 < sketch.quantile(0.95) < 1.0
    summary = fabric.slo_engine.summary()
    assert summary["sensor-edge-append"]["compliance"] == 1.0
    assert not fabric.slo_engine.firing()

    # And the end-to-end report holds together -- with the transfer leg
    # now *measured* from spans, landing in the paper's ~200 ms regime
    # (101 ms 2-RTT append + ~46 ms alert fetch as simulated here).
    report = analyze_end_to_end(fabric)
    assert report.source == "traced"
    assert 0.08 < report.transfer_unl_to_nd_s < 0.3
    for line in report.rows():
        print(line)
    assert report.meets_real_time_requirement


@pytest.mark.smoke
def test_fig3_smoke_tiny_pipeline():
    """Smoke lane: the assembled fabric runs a short slice end to end.

    The slice carries the full streaming stack and one injected CSPOT
    partition, so the smoke artifacts CI uploads include the fig3
    observability record *and* at least one flight-recorder dump
    produced through the real chaos trigger path.
    """
    from repro.chaos import ChaosCampaign
    from repro.chaos.faults import CspotPartitionInjector

    fabric = _streaming_fabric(seed=3)
    campaign = ChaosCampaign([
        CspotPartitionInjector(start_s=1800.0, duration_s=300.0,
                               src="unl", dst="ucsb"),
    ]).attach(fabric)
    metrics = fabric.run(2 * 3600.0)
    assert metrics.telemetry_sent > 0
    assert fabric.tracer.finished_spans()

    # The partition produced a chaos-triggered dump (plus any SLO-breach
    # dumps the induced retries earned).
    assert fabric.recorder is not None
    assert any(d.trigger.startswith("chaos:") for d in fabric.recorder.dumps)
    assert campaign.outcomes and campaign.outcomes[0].recorder_dump

    # Export the observability record + recorder dumps for CI upload.
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    export_run(fabric.tracer, OUTPUT_DIR, prefix="fig3")
    for dump in fabric.recorder.dumps:
        dump.write(os.path.join(
            OUTPUT_DIR, f"fig3_recorder_{dump.seq:03d}.jsonl"
        ))
    assert os.path.getsize(
        os.path.join(OUTPUT_DIR, "fig3_recorder_001.jsonl")
    ) > 100
