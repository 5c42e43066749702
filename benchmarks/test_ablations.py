"""Ablation studies for the design choices DESIGN.md calls out.

Not figures from the paper, but quantitative backing for its design
arguments:

* **Backhaul ablation** (section 4.2's conclusion): running the telemetry
  path over private 5G vs. wired Internet changes CSPOT latency by ~6x
  but the end-to-end validity window by well under 1 % -- "the current
  production CUPS deployment ... could be replaced by a private 5G
  network without ill effect".
* **Transport-cache ablation**: the size-cache optimization halves message
  latency but its staleness failure costs a full retry round trip --
  quantifying why the prototype ships without it.
* **Scheduler ablation**: conservative backfill vs. strict FCFS on the
  same background load -- why real sites run backfill, and what the pilot
  sits on top of.
* **Duty-cycle ablation**: the 30-minute cycle against faster/slower
  alternatives -- validity window vs. HPC load trade-off.
"""

import numpy as np
import pytest

from repro.analysis import ComparisonTable
from repro.cfd import CfdPerformanceModel
from repro.cspot import CSPOTNode, Transport
from repro.cspot.latency import measure_path_latency
from repro.cspot.paths import testbed_paths as _paths
from repro.hpc import BackfillScheduler, FcfsScheduler, Job, nd_crc
from repro.simkernel import Engine

from benchmarks.conftest import run_once


def test_backhaul_ablation(benchmark):
    """5G vs wired telemetry backhaul: huge hop latency ratio, negligible
    end-to-end effect."""

    def run():
        latencies = {}
        for key in ("unl-ucsb-5g", "unl-ucsb-internet"):
            engine = Engine(seed=17)
            transport = Transport(engine)
            client, server = CSPOTNode(engine, "unl"), CSPOTNode(engine, "ucsb")
            server.create_log("telemetry", element_size=1024)
            transport.connect("unl", "ucsb", _paths()[key])
            latencies[key] = measure_path_latency(
                engine, transport, client, server, "telemetry"
            ).mean_ms
        return latencies

    latencies = run_once(benchmark, run)
    model = CfdPerformanceModel()
    duty_cycle_s = 1800.0
    validity = {
        key: duty_cycle_s - model.total_time(64) - ms / 1e3
        for key, ms in latencies.items()
    }

    table = ComparisonTable("Ablation: telemetry backhaul (5G vs wired)")
    table.add("5G+Internet append (ms)", latencies["unl-ucsb-5g"], unit="ms")
    table.add("wired append (ms)", latencies["unl-ucsb-internet"], unit="ms")
    table.add("5G validity window (min)", validity["unl-ucsb-5g"] / 60, unit="min")
    table.add("wired validity window (min)", validity["unl-ucsb-internet"] / 60,
              unit="min")
    table.print()

    # Hop latency differs ~6x; validity window by < 0.1 %.
    assert latencies["unl-ucsb-5g"] / latencies["unl-ucsb-internet"] > 4
    rel = abs(validity["unl-ucsb-5g"] - validity["unl-ucsb-internet"]) / validity[
        "unl-ucsb-internet"
    ]
    assert rel < 0.001


@pytest.mark.smoke
def test_transport_cache_ablation(benchmark):
    """Size cache: halves latency; staleness costs a retry."""

    def run():
        # Steady state with and without the cache.
        means = {}
        for cached in (False, True):
            engine = Engine(seed=23)
            transport = Transport(engine)
            client, server = CSPOTNode(engine, "ucsb"), CSPOTNode(engine, "nd")
            server.create_log("data", element_size=1024)
            transport.connect("ucsb", "nd", _paths()["ucsb-nd-internet"])
            means[cached] = measure_path_latency(
                engine, transport, client, server, "data", use_size_cache=cached
            ).mean_ms

        # Staleness: warm the cache, change the server-side element size,
        # time the next append (fail + invalidate + refetch).
        engine = Engine(seed=29)
        transport = Transport(engine)
        client, server = CSPOTNode(engine, "ucsb"), CSPOTNode(engine, "nd")
        server.create_log("data", element_size=1024)
        transport.connect("ucsb", "nd", _paths()["ucsb-nd-internet"])
        from repro.cspot import RemoteAppendClient, RetryPolicy

        appender = RemoteAppendClient(
            transport, client, server, "data", use_size_cache=True,
            policy=RetryPolicy(backoff_s=0.0),
        )
        engine.run(until=appender.append(b"warm"))
        del server.logs["data"]
        server.create_log("data", element_size=2048)
        start = engine.now
        engine.run(until=appender.append(b"after-resize"))
        stale_ms = (engine.now - start) * 1e3
        return means, stale_ms

    (means, stale_ms) = run_once(benchmark, run)

    table = ComparisonTable("Ablation: CSPOT size-cache optimization")
    table.add("uncached append (ms)", means[False], unit="ms")
    table.add("cached append (ms)", means[True], unit="ms")
    table.add("stale-cache append (ms)", stale_ms, unit="ms")
    table.print()

    assert means[True] < 0.6 * means[False]           # ~halves
    # Staleness costs the failed payload leg plus a full uncached retry.
    assert stale_ms > 1.2 * means[False]


def test_scheduler_ablation(benchmark):
    """Backfill vs FCFS under the same job stream."""

    def run_discipline(discipline):
        engine = Engine(seed=31)
        scheduler = BackfillScheduler() if discipline == "backfill" else FcfsScheduler()
        site = nd_crc(engine, total_nodes=8)
        site.cluster.scheduler = scheduler
        rng = np.random.default_rng(31)
        # A fixed, replayable stream of mixed-size jobs.
        for k in range(60):
            nodes = int(rng.integers(1, 7))
            runtime = float(rng.uniform(600.0, 4 * 3600.0))
            submit_at = float(rng.uniform(0.0, 12 * 3600.0))
            job = Job(name=f"j{k}", nodes=nodes, walltime_s=runtime,
                      runtime_s=runtime, user="bg")

            def submit(job=job):
                yield engine.schedule_at(max(submit_at, engine.now))
                site.submit(job)

            engine.process(submit())
        engine.run(until=48 * 3600.0)
        mean_wait, max_wait = site.cluster.queue_wait_stats()
        return mean_wait, max_wait

    def run():
        return {d: run_discipline(d) for d in ("backfill", "fcfs")}

    results = run_once(benchmark, run)

    table = ComparisonTable("Ablation: conservative backfill vs strict FCFS")
    for discipline, (mean_wait, max_wait) in results.items():
        table.add(f"{discipline}: mean wait (min)", mean_wait / 60, unit="min")
        table.add(f"{discipline}: max wait (min)", max_wait / 60, unit="min")
    table.print()

    # Backfill strictly helps mean wait on this stream.
    assert results["backfill"][0] < results["fcfs"][0]


def test_duty_cycle_ablation(benchmark):
    """The 30-minute duty cycle against alternatives: validity window vs
    simulations per day (HPC load)."""

    def run():
        model = CfdPerformanceModel()
        sim_time = model.total_time(64)
        rows = []
        for cycle_min in (10, 15, 30, 60):
            cycle_s = cycle_min * 60.0
            validity = cycle_s - sim_time
            sims_per_day = 24 * 60 / cycle_min
            node_hours = sims_per_day * sim_time / 3600.0
            rows.append((cycle_min, validity, sims_per_day, node_hours))
        return rows

    rows = run_once(benchmark, run)

    table = ComparisonTable("Ablation: change-detection duty cycle")
    for cycle_min, validity, sims, node_hours in rows:
        table.add(
            f"{cycle_min:2d} min cycle: validity (min)", validity / 60, unit="min"
        )
        table.add(
            f"{cycle_min:2d} min cycle: worst-case node-h/day", node_hours, unit="h"
        )
    table.print()

    by_cycle = {r[0]: r for r in rows}
    # 10-minute cycles leave <3 min of validity -- the simulation is stale
    # almost immediately; 30 minutes leaves the paper's ~23 minutes.
    assert by_cycle[10][1] / 60 < 4.0
    assert 22.0 < by_cycle[30][1] / 60 < 24.0
    # Halving the cycle doubles worst-case HPC load.
    assert by_cycle[15][3] == 2 * by_cycle[30][3]
