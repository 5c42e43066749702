"""The four end-to-end workloads: build, run, reduce, check.

Each workload builds its subject from a seed (imports plus construction are
the measured set-up), runs it (the measured run), and reduces the result to
a small plain-data *outcome*. The outcome is what gets checked, digested and
counted, so a test can corrupt one field and watch its check fail.

Fabric workloads map the benchmark seed onto a pool of fabric seeds whose
8-hour weather triggers the same number of twin CFD solves
(``seed_pool.json``, regenerated by ``run.py pool``). The solve count
decides most of a fabric run's cost, and it swings from 2 to 6 between
arbitrary seeds; drawing from the pool keeps every seed's run the same
amount of work, so runs with different seeds stay comparable.

Each workload imports what it uses inside its own functions. The fabric
imports bring in ``scipy.stats`` (through ``repro.sensors``), which the
fleet workloads never use; importing it there would put fabric import
time and memory into the fleet's ``setup_s`` and ``peak_rss_mb``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from repro.core import XGFabric
    from repro.parallel import ShardedScaleScenario
    from repro.radio.population import UEPopulation

SEED_POOL = Path(__file__).with_name("seed_pool.json")
#: Fabric seed of the section 4.4 headline test. It is the default
#: benchmark seed, maps to itself in both fabric pools, and sets the CFD
#: solve count every pooled seed must match.
HEADLINE_SEED = 3
#: Fabric seeds per pool; ``seed mod POOL_SIZE`` picks one.
POOL_SIZE = 32

#: Both fabric workloads simulate the section 4.4 day.
FABRIC_HORIZON_S = 8 * 3600.0
#: 30x the paper's 300 s cadence. 8 h at 10 s is 2880 entries per station
#: log, inside its 4096-entry history; at 5 s the oldest entries would be
#: evicted and audit_delivery would report them lost.
STORM_INTERVAL_S = 10.0

FLEET_CELLS = 20
FLEET_UES_PER_CELL = 50_000
FLEET_HORIZON_S = 20.0
FLEET_WINDOW_S = 10.0
#: One uplink sample per UE per simulated second.
FLEET_SAMPLES_PER_UE = int(FLEET_HORIZON_S)

Outcome = dict[str, Any]


@dataclass(frozen=True)
class Workload:
    build: Callable[[int], Any]
    run: Callable[[Any], Any]
    outcome: Callable[[Any, Any], Outcome]
    check: Callable[[Outcome], list[str]]
    #: (attempted, failed) operations of a checked outcome.
    ops: Callable[[Outcome], tuple[int, int]]


def digest(outcome: Outcome) -> str:
    """SHA-256 of the outcome's canonical JSON (floats at full precision)."""
    blob = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def pooled_seed(workload: str, seed: int) -> int:
    """The fabric seed that benchmark ``seed`` runs: the pool is read as a
    ring that starts at the headline seed, so the headline seed maps to
    itself and the other seeds follow it in pool order."""
    seeds = json.loads(SEED_POOL.read_text())[workload]["seeds"]
    return int(seeds[(seeds.index(HEADLINE_SEED) + seed - HEADLINE_SEED) % len(seeds)])


def _require(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


# -- fabric workloads ---------------------------------------------------------


def build_fig3(fabric_seed: int) -> XGFabric:
    """The section 4.4 headline scenario: a front passes at 2 h."""
    from repro.core import FabricConfig, XGFabric
    from repro.sensors.weather import RegimeShift

    fabric = XGFabric(FabricConfig(seed=fabric_seed))
    fabric.weather.add_shift(
        RegimeShift(at_time_s=2 * 3600.0, wind_delta_mps=2.5, temperature_delta_k=-3.0)
    )
    return fabric


def build_storm(fabric_seed: int) -> XGFabric:
    from repro.chaos import RESILIENT_POLICIES
    from repro.core import FabricConfig, XGFabric

    return XGFabric(
        FabricConfig(
            seed=fabric_seed,
            telemetry_interval_s=STORM_INTERVAL_S,
            policies=RESILIENT_POLICIES,
        )
    )


def _fabric_ops(o: Outcome) -> tuple[int, int]:
    delivery = o["delivery"]
    attempted = o["telemetry_sent"] + o["cfd_runs"] + o["cfd_failures"]
    failed = delivery["lost"] + delivery["duplicates"] + o["cfd_failures"]
    return attempted, failed


def outcome_fig3(fabric: XGFabric, _metrics: Any) -> Outcome:
    from repro.chaos import audit_delivery
    from repro.core import analyze_end_to_end

    report = analyze_end_to_end(fabric)
    m = fabric.metrics
    return {
        "fabric_seed": fabric.config.seed,
        "e2e": asdict(report),
        "meets_real_time_requirement": report.meets_real_time_requirement,
        "delivery": audit_delivery(fabric).to_dict(),
        "telemetry_sent": m.telemetry_sent,
        "telemetry_latency_sum_s": math.fsum(m.telemetry_latencies_s),
        "cfd_runs": len(m.cfd_runs),
        "cfd_run_records": [asdict(r) for r in m.cfd_runs],
        "cfd_failures": m.cfd_failures,
        "breach_suspicions": m.breach_suspicions,
        "robot_reports": len(m.robot_reports),
    }


def check_fig3(o: Outcome) -> list[str]:
    e = o["e2e"]
    problems: list[str] = []
    _require(problems, e["telemetry_interval_s"] == 300.0,
             f"telemetry interval {e['telemetry_interval_s']} s, expected 300 s")
    _require(problems, abs(e["transfer_unl_to_nd_s"] - 0.2) < 0.03,
             f"UNL->ND transfer {e['transfer_unl_to_nd_s']:.3f} s, expected 0.2 +- 0.03 s")
    _require(problems, 6.0 <= e["sustained_interval_s"] / 60 <= 8.0,
             f"sustained cadence {e['sustained_interval_s'] / 60:.2f} min, expected 6-8 min")
    _require(problems, e["min_validity_window_s"] / 60 >= 18.0,
             f"min validity window {e['min_validity_window_s'] / 60:.1f} min, expected >= 18")
    _require(problems, o["meets_real_time_requirement"], "real-time requirement not met")
    _require(problems, o["cfd_runs"] >= 1, "no CFD run completed")
    _require(problems, o["delivery"]["exactly_once"], f"delivery not exactly-once: {o['delivery']}")
    return problems


def outcome_storm(fabric: XGFabric, report: Any) -> Outcome:
    resilience = report.to_dict()
    faults = resilience["faults"]
    return {
        "fabric_seed": fabric.config.seed,
        "resilience": resilience,
        "delivery": resilience["delivery"],
        "telemetry_sent": fabric.metrics.telemetry_sent,
        "mean_telemetry_latency_s": fabric.metrics.mean_telemetry_latency_s,
        "cfd_runs": report.cfd_runs,
        "cfd_failures": report.cfd_failures,
        "faults_recovered": sum(1 for f in faults if f["recovered_at_s"] is not None)
        / max(len(faults), 1),
    }


def check_storm(o: Outcome) -> list[str]:
    r = o["resilience"]
    problems: list[str] = []
    _require(problems, r["exactly_once"], f"delivery not exactly-once: {r['delivery']}")
    _require(problems, r["all_recovered"], "a fault never recovered")
    _require(problems, len(r["faults"]) == 3, f"{len(r['faults'])} faults injected, expected 3")
    latency = o["mean_telemetry_latency_s"]
    _require(problems, 0.15 <= latency <= 0.30,
             f"mean telemetry latency {latency:.3f} s, expected 0.15-0.30 s")
    return problems


# -- UE-fleet workloads -------------------------------------------------------


def fleet_population() -> UEPopulation:
    """About 1M UEs over 20 rural cells (ARA-style), not the 2-UE testbed."""
    from repro.radio.population import Distribution, RandomVariable, UEPopulation

    return UEPopulation(
        n_cells=FLEET_CELLS,
        ues_per_cell=RandomVariable(FLEET_UES_PER_CELL, Distribution.POISSON),
        network="5g-tdd",
        bandwidth_mhz=40,
    )


def _build_fleet(workers: int, executor: str) -> Callable[[int], ShardedScaleScenario]:
    def build(seed: int) -> ShardedScaleScenario:
        from repro.parallel import ShardedScaleScenario

        return ShardedScaleScenario(
            fleet_population(),
            seed=seed,
            horizon_s=FLEET_HORIZON_S,
            window_s=FLEET_WINDOW_S,
            workers=workers,
            executor=executor,
        )

    return build


def outcome_fleet(scenario: ShardedScaleScenario, report: Any) -> Outcome:
    per_window = FLEET_SAMPLES_PER_UE // scenario.n_windows
    complete = sum(
        1 for r in report.trace
        if r["kind"] == "window.sample" and r["samples"] == r["n_ues"] * per_window
    )
    # Worker count and executor stay out: serial and spawn must agree.
    return {
        "report_digest": report.digest,
        "n_cells": report.n_cells,
        "n_windows": report.n_windows,
        "total_ues": report.total_ues,
        "events_processed": report.events_processed,
        "samples_generated": report.samples_generated,
        "complete_cell_windows": complete,
    }


def check_fleet(o: Outcome) -> list[str]:
    problems: list[str] = []
    expected = o["total_ues"] * FLEET_SAMPLES_PER_UE
    _require(problems, o["samples_generated"] == expected,
             f"{o['samples_generated']} samples, expected {expected}")
    cell_windows = FLEET_CELLS * int(FLEET_HORIZON_S // FLEET_WINDOW_S)
    _require(problems, o["events_processed"] == cell_windows,
             f"{o['events_processed']} window events, expected {cell_windows}")
    return problems


def _fleet_ops(o: Outcome) -> tuple[int, int]:
    attempted = o["n_cells"] * o["n_windows"]
    return attempted, attempted - o["complete_cell_windows"]


def run_storm(fabric: XGFabric) -> Any:
    from repro.chaos import run_campaign, standard_campaign

    return run_campaign(fabric, standard_campaign(FABRIC_HORIZON_S), FABRIC_HORIZON_S)


WORKLOADS: dict[str, Workload] = {
    "fig3_8h": Workload(
        build=lambda seed: build_fig3(pooled_seed("fig3_8h", seed)),
        run=lambda fabric: fabric.run(FABRIC_HORIZON_S),
        outcome=outcome_fig3,
        check=check_fig3,
        ops=_fabric_ops,
    ),
    "telemetry_storm": Workload(
        build=lambda seed: build_storm(pooled_seed("telemetry_storm", seed)),
        run=run_storm,
        outcome=outcome_storm,
        check=check_storm,
        ops=_fabric_ops,
    ),
    "ue_fleet_serial": Workload(
        build=_build_fleet(1, "serial"),
        run=lambda scenario: scenario.run(),
        outcome=outcome_fleet,
        check=check_fleet,
        ops=_fleet_ops,
    ),
    "ue_fleet_spawn2": Workload(
        build=_build_fleet(2, "spawn"),
        run=lambda scenario: scenario.run(),
        outcome=outcome_fleet,
        check=check_fleet,
        ops=_fleet_ops,
    ),
}

#: Builders of the raw (unpooled) fabric seeds, for regenerating the pool.
FABRIC_BUILDERS: dict[str, Callable[[int], XGFabric]] = {
    "fig3_8h": build_fig3,
    "telemetry_storm": build_storm,
}
