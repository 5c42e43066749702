#!/usr/bin/env python3
"""A day at the CUPS facility: the full end-to-end scenario.

Simulates 24 hours of the assembled xGFabric pipeline:

* weather stations report every 5 minutes over the private 5G network;
* a cold front passes at 09:30 (wind +3 m/s, temperature -4 K) -- the
  Laminar change detector should notice and trigger a CFD refresh;
* a bird strike breaches the north screen wall at 14:00 -- the digital
  twin should flag the deviation and dispatch the Farm-NG robot;
* the section 4.4 end-to-end accounting is printed at the end.

Usage::

    python examples/digital_agriculture_day.py [--hours N] [--seed S]
"""

import argparse
import time
import warnings

from repro.core import FabricConfig, XGFabric, analyze_end_to_end
from repro.sensors import BreachEvent
from repro.sensors.weather import RegimeShift

warnings.filterwarnings("ignore", category=RuntimeWarning)


def hhmm(seconds: float) -> str:
    return f"{int(seconds // 3600):02d}:{int(seconds % 3600 // 60):02d}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hours", type=float, default=24.0)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    fabric = XGFabric(FabricConfig(seed=args.seed))
    fabric.weather.add_shift(RegimeShift(
        at_time_s=9.5 * 3600.0, wind_delta_mps=3.0, temperature_delta_k=-4.0,
    ))
    fabric.farm.breaches.add(BreachEvent(
        panel_index=3, at_time_s=14 * 3600.0, cause="bird-strike",
    ))

    print(f"Running {args.hours:.0f} simulated hours "
          f"(front at 09:30, breach of the north wall at 14:00)...")
    wall_start = time.perf_counter()
    metrics = fabric.run(args.hours * 3600.0)
    wall = time.perf_counter() - wall_start

    print(f"\n-- simulated {args.hours:.0f} h in {wall:.1f} s of wall clock --")
    print(f"telemetry: {metrics.telemetry_sent} reports, "
          f"{metrics.telemetry_bytes / 1024:.0f} KiB through the 5G core, "
          f"mean CSPOT latency {metrics.mean_telemetry_latency_s * 1e3:.0f} ms")
    print(f"change detection: {metrics.change_alerts} alerts "
          f"over {metrics.duty_cycles} duty cycles")

    print("\nCFD refreshes (trigger -> total response):")
    for run in metrics.cfd_runs:
        print(f"  {hhmm(run.trigger_time_s)}  queue {run.queue_wait_s:5.1f} s, "
              f"exec {run.execution_s:5.1f} s, "
              f"valid for {run.validity_window_s / 60:4.1f} min")

    print("\nBreach response:")
    first_suspicion = next(
        (c for c in fabric.hub.twin.comparisons if c.breach_suspected), None
    )
    if first_suspicion is not None:
        print(f"  first suspicion at {hhmm(first_suspicion.time_s)} "
              f"(panel {first_suspicion.suspect_panel_index}, "
              f"station {first_suspicion.suspect_station_id})")
    for report in metrics.robot_reports:
        verdict = "CONFIRMED" if report.breach_confirmed else "nothing found"
        print(f"  robot -> panel {report.panel_index}: dispatched "
              f"{hhmm(report.dispatched_at_s)}, arrived "
              f"{hhmm(report.arrived_at_s)} "
              f"({report.travel_time_s:.0f} s drive), {verdict}")
    if not metrics.robot_reports:
        print("  (robot never dispatched)")

    print("\nSection 4.4 end-to-end accounting:")
    for row in analyze_end_to_end(fabric).rows():
        print(f"  {row}")

    if fabric.hub.twin.has_prediction:
        from repro.cfd import render_ascii, slice_raster

        print("\nFinal CFD airflow slice at canopy height "
              "(|U|, darker = slower; the screen house is the calm block):")
        fields = fabric.hub.twin._case.build_solver().solve().fields
        print(render_ascii(slice_raster(fields, axis="z"), width=56))


if __name__ == "__main__":
    main()
