#!/usr/bin/env python3
"""Quickstart: one tour through the xGFabric stack in ~30 seconds.

Runs each layer standalone:

1. bring up a private 5G network and measure a Raspberry Pi's uplink;
2. ship a telemetry payload through CSPOT over the calibrated
   5G+Internet path (the Table 1 measurement);
3. detect a statistical change in a telemetry stream (the Laminar
   program);
4. acquire HPC nodes through a pilot and run the screen-house CFD;
5. run the assembled fabric with tracing on and print the *measured*
   section 4.4 latency budget from the recorded spans.

Usage::

    python examples/quickstart.py
"""

import warnings

import numpy as np

warnings.filterwarnings("ignore", category=RuntimeWarning)


def step1_private_5g() -> None:
    print("== 1. Private 5G network ==")
    from repro.radio import NetworkDeployment

    rng = np.random.default_rng(1)
    network = NetworkDeployment.build("5g-tdd", 50)
    ue = network.add_ue("raspberry-pi")
    print(f"  UE {ue.ue_id} registered (IMSI {ue.sim.imsi}), "
          f"session on slice {ue.session.slice_name!r}")
    result = network.measure_uplink([ue], rng, n_samples=100)[ue.ue_id]
    print(f"  uplink @50 MHz TDD: {result.mean_mbps:.1f} +/- "
          f"{result.std_mbps:.1f} Mbps  (paper: 65.97)")


def step2_cspot() -> None:
    print("\n== 2. CSPOT reliable messaging ==")
    from repro.cspot import CSPOTNode, Transport
    from repro.cspot.latency import measure_path_latency
    from repro.cspot.paths import unl_ucsb_5g
    from repro.simkernel import Engine

    engine = Engine(seed=2)
    transport = Transport(engine)
    unl, ucsb = CSPOTNode(engine, "unl"), CSPOTNode(engine, "ucsb")
    ucsb.create_log("telemetry", element_size=1024)
    transport.connect("unl", "ucsb", unl_ucsb_5g())
    probe = measure_path_latency(engine, transport, unl, ucsb, "telemetry")
    print(f"  1KB append UNL->UCSB over 5G+Internet: "
          f"{probe.mean_ms:.0f} +/- {probe.std_ms:.0f} ms  (paper: 101 +/- 17)")
    print(f"  log at UCSB now holds {ucsb.get_log('telemetry').last_seqno} entries")


def step3_change_detection() -> None:
    print("\n== 3. Laminar change detection ==")
    from repro.cspot import CSPOTNode
    from repro.laminar import LaminarRuntime, build_change_detection_graph
    from repro.simkernel import Engine

    rng = np.random.default_rng(3)
    engine = Engine(seed=3)
    # 6-reading windows, three tests voted 2 of 3, on one CSPOT host.
    runtime = LaminarRuntime(
        engine, build_change_detection_graph(),
        hosts={"ucsb": CSPOTNode(engine, "ucsb")},
    )
    cycles = {
        "stationary wind": (rng.normal(3.0, 0.4, 6), rng.normal(3.0, 0.4, 6)),
        "front passage":   (rng.normal(5.5, 0.4, 6), rng.normal(3.0, 0.4, 6)),
    }
    for epoch, (label, (current, previous)) in enumerate(cycles.items()):
        runtime.submit(epoch, {"current": current, "previous": previous})
        engine.run(until=runtime.epoch_done(epoch))
        verdicts = {
            test: bool(runtime.value(f"{test}_different", epoch))
            for test in ("welch_t", "mann_whitney", "ks")
        }
        print(f"  {label + ':':17s}alert={bool(runtime.value('alert', epoch))} "
              + " ".join(f"{test}={v}" for test, v in verdicts.items()))


def step4_pilot_and_cfd() -> None:
    print("\n== 4. Pilot-acquired CFD on the HPC site ==")
    from repro.cfd import CfdPerformanceModel
    from repro.cfd.case import TelemetrySnapshot, case_from_telemetry
    from repro.cfd.solver import SolverConfig
    from repro.hpc import nd_crc
    from repro.pilot import Pilot, Task
    from repro.simkernel import Engine

    engine = Engine(seed=4)
    site = nd_crc(engine)
    model = CfdPerformanceModel()
    pilot = Pilot(engine, site, nodes=1, walltime_s=4 * 3600.0).submit()
    runtime = model.total_time(64)
    task = Task("cfd-demo", nodes=1, runtime_s=runtime)
    engine.run(until=pilot.run_task(task))
    print(f"  pilot on {site.name} ({site.batch_system.submit_command}): "
          f"64-core CFD took {runtime:.0f} s of node time  (paper: 420.39)")

    snapshot = TelemetrySnapshot(
        wind_speed_mps=3.4, wind_direction_deg=10.0,
        exterior_temperature_k=295.0, interior_temperature_k=297.5,
        relative_humidity=0.5,
    )
    case = case_from_telemetry(
        snapshot, config=SolverConfig(dt=0.1, n_steps=150, poisson_iterations=25)
    )
    fields = case.build_solver().solve().fields
    speed = fields.speed()
    interior = speed[6:22, 6:22, 0:3].mean()
    exterior = speed[1:3, :, 0:3].mean()
    print(f"  real solve ({case.mesh.n_cells} cells): interior "
          f"{interior:.2f} m/s vs exterior {exterior:.2f} m/s "
          f"(screen attenuation {interior / exterior:.2f})")


def step5_traced_fabric() -> None:
    print("\n== 5. Traced end-to-end run: the measured latency budget ==")
    from repro.core import FabricConfig, XGFabric, fabric_latency_budget
    from repro.obs.trace import Tracer
    from repro.sensors.weather import RegimeShift

    fabric = XGFabric(FabricConfig(seed=3), tracer=Tracer())
    fabric.weather.add_shift(
        RegimeShift(at_time_s=2 * 3600.0, wind_delta_mps=2.5,
                    temperature_delta_k=-3.0)
    )
    metrics = fabric.run(8 * 3600.0)
    print(f"  traced {fabric.tracer.events_observed} engine events into "
          f"{len(fabric.tracer.finished_spans())} spans "
          f"({metrics.change_alerts} alerts, {len(metrics.cfd_runs)} CFD runs)")
    for line in fabric_latency_budget(fabric).rows():
        print(f"  {line}")


if __name__ == "__main__":
    step1_private_5g()
    step2_cspot()
    step3_change_detection()
    step4_pilot_and_cfd()
    step5_traced_fabric()
    print("\nAll five layers up. Next: examples/digital_agriculture_day.py")
