"""A sharded farm is the farm ``XGFabric`` runs: same readings, same votes.

The reference is a single-engine build of the same classes --
:class:`FarmSite` on farm 0's streams, :class:`Hub` with its own
processes -- whose uplink draws each transfer's latency the way a farm
shard does: from the farm uplink link and the ``shard.cell000.transfer``
stream, with the record stored in the hub's log when it arrives. The
subject is a 1-farm, 1-worker serial :class:`ShardedFabricScenario` with
the same seed, whose hub runs in the coordinator. The hub ingests each
record at exactly its send time plus its latency, so everything matches
exactly: read times, values, the hub log's append times and every duty
cycle's verdicts.
"""

import warnings

import pytest

from repro.core import FabricConfig, ShardedFabricScenario
from repro.core.fabric import FabricMetrics, FarmSite, Hub
from repro.core.fabric_sharded import farm_uplink
from repro.core.telemetry import TelemetryRecord
from repro.cspot.paths import ucsb_nd_internet, unl_ucsb_5g
from repro.cspot.transport import Transport
from repro.parallel import shard_stream
from repro.simkernel import Engine

SEED = 3
#: Six duty-cycle decisions: the first needs two full windows (1.5 h).
HORIZON_S = 4 * 3600.0


def reference_run():
    """FarmSite + Hub on one engine; returns (log entries by station, hub)."""
    config = FabricConfig(seed=SEED)
    engine = Engine(seed=SEED)
    metrics = FabricMetrics()
    transport = Transport(engine)
    farm = FarmSite(engine, metrics, cell=0)
    hub = Hub(engine, config, transport, metrics, farm)
    transport.connect("unl", "ucsb", unl_ucsb_5g())
    transport.connect("ucsb", "nd", ucsb_nd_internet())
    link = farm_uplink()
    transfer = engine.rng(shard_stream(0, "transfer"))

    def uplink(station, payload):
        arrived = engine.timeout(link.transfer_latency_s(transfer))
        log = f"telemetry.{station.station_id}"
        arrived.add_callback(lambda _e: hub.ucsb.local_append(log, payload))
        return arrived

    def telemetry():
        interval = config.telemetry_interval_s
        while engine.now + interval <= HORIZON_S:
            yield engine.timeout(interval)
            yield from farm.telemetry_round(uplink)

    engine.process(telemetry())
    hub.start(HORIZON_S)
    engine.run(until=HORIZON_S)
    entries = {
        s.station_id: list(hub.ucsb.get_log(f"telemetry.{s.station_id}").scan())
        for s in farm.stations
    }
    return entries, hub


@pytest.fixture(scope="module")
def runs():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # CFD spin-up
        reference = reference_run()
    sharded = ShardedFabricScenario(
        n_sites=1, seed=SEED, horizon_s=HORIZON_S
    ).run()
    return reference, sharded


def test_telemetry_values_agree_per_round(runs):
    (entries, _hub), report = runs
    ingested = {}
    for r in report.trace:
        if r["kind"] == "hub.ingest":
            ingested.setdefault(r["station"], []).append(r)
    assert ingested.keys() == entries.keys()
    for station, reference in entries.items():
        sharded = ingested[station]
        assert len(sharded) == len(reference) == report.n_windows - 1
        for entry, got in zip(reference, sharded):
            ref = TelemetryRecord.from_bytes(entry.payload)
            assert got["t"] == entry.appended_at
            assert (
                got["read_t"], got["wind_mps"], got["temperature_k"],
                got["humidity"],
            ) == (
                ref.time_s, ref.wind_speed_mps, ref.temperature_k,
                ref.relative_humidity,
            )


def test_every_duty_cycle_votes_identically(runs):
    (_entries, hub), report = runs
    detection = hub.detection
    reference = [
        detection.decision(epoch) for epoch in range(detection.epochs)
    ]
    sharded = [r for r in report.trace if r["kind"] == "hub.decision"]
    assert len(reference) == len(sharded) == report.decisions == 6
    for ref, got in zip(reference, sharded):
        assert (
            got["epoch"], got["welch_t"], got["mann_whitney"], got["ks"],
            got["alert"],
        ) == (ref.epoch, ref.welch_t, ref.mann_whitney, ref.ks, ref.alert)
    assert report.alerts >= 1, "the run must raise at least one alert"
    assert report.alerts == sum(ref.alert for ref in reference)
