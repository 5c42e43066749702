#!/usr/bin/env python3
"""Breach-detection study: how fast, how reliable, how small a hole?

Sweeps breach severity (fraction of screen resistance lost) and measures,
over several random seeds each:

* detection delay (breach occurrence -> first twin suspicion);
* localization accuracy (was the suspected panel the damaged one?);
* robot confirmation rate;
* and, from breach-free control runs, the false-alarm rate.

This quantifies the paper's digital-twin proposal: "a deviation between
predicted and measured airflow can portend a possible screen breach and,
perhaps, an area of the structure where the breach may have occurred."

Usage::

    python examples/breach_detection_study.py [--seeds N]
"""

import argparse
import warnings

from repro.core import FabricConfig, XGFabric
from repro.sensors import BreachEvent
from repro.sensors.weather import RegimeShift

warnings.filterwarnings("ignore", category=RuntimeWarning)

BREACH_PANEL = 0
BREACH_AT_S = 4 * 3600.0
HORIZON_S = 8 * 3600.0


def run_scenario(seed: int, severity: float | None):
    """One 8-hour run; severity None = breach-free control."""
    fabric = XGFabric(FabricConfig(seed=seed))
    # A front passage guarantees at least one CFD refresh before the breach.
    fabric.weather.add_shift(
        RegimeShift(at_time_s=2 * 3600.0, wind_delta_mps=2.5,
                    temperature_delta_k=-3.0)
    )
    if severity is not None:
        fabric.farm.breaches.add(BreachEvent(
            panel_index=BREACH_PANEL, at_time_s=BREACH_AT_S,
            severity=severity, cause="study",
        ))
    metrics = fabric.run(HORIZON_S)
    post = [
        c for c in fabric.hub.twin.comparisons
        if c.breach_suspected and c.time_s >= BREACH_AT_S
    ]
    pre = [
        c for c in fabric.hub.twin.comparisons
        if c.breach_suspected and c.time_s < BREACH_AT_S
    ]
    detection_delay = (post[0].time_s - BREACH_AT_S) if post else None
    localized = bool(post) and post[0].suspect_panel_index == BREACH_PANEL
    return {
        "delay_s": detection_delay,
        "localized": localized,
        "confirmed": metrics.confirmed_breaches > 0,
        "false_suspicions": len(pre) if severity is not None else (
            len(pre) + len(post)
        ),
        "comparisons": len(fabric.hub.twin.comparisons),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    args = parser.parse_args()
    seeds = [3 + 10 * k for k in range(args.seeds)]

    print(f"{'severity':>9} {'detected':>9} {'median delay':>13} "
          f"{'right panel':>12} {'confirmed':>10}")
    for severity in (1.0, 0.75, 0.5, 0.3):
        outcomes = [run_scenario(seed, severity) for seed in seeds]
        detected = [o for o in outcomes if o["delay_s"] is not None]
        delays = sorted(o["delay_s"] for o in detected)
        median = delays[len(delays) // 2] / 60 if delays else float("nan")
        localized = sum(o["localized"] for o in outcomes)
        confirmed = sum(o["confirmed"] for o in outcomes)
        print(f"{severity:9.2f} {len(detected):6d}/{len(seeds)} "
              f"{median:10.1f} min {localized:9d}/{len(seeds)} "
              f"{confirmed:7d}/{len(seeds)}")

    controls = [run_scenario(seed + 1000, None) for seed in seeds]
    total_fp = sum(o["false_suspicions"] for o in controls)
    total_cmp = sum(o["comparisons"] for o in controls)
    print(f"\ncontrol runs (no breach): {total_fp} suspicious comparisons "
          f"out of {total_cmp} ({100 * total_fp / max(total_cmp, 1):.1f} % "
          f"false-alarm rate)")
    print("Full breaches are caught within minutes at the right panel; "
          "small tears hide in sensor noise -- the argument for the "
          "robot's camera pass.")


if __name__ == "__main__":
    main()
