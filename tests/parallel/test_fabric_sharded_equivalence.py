"""A sharded farm is the farm ``XGFabric`` runs: same readings, same votes.

The reference is a single-engine build of the same classes --
:class:`FarmSite` on farm 0's streams, :class:`Hub`, one transport with
reliable appends, the hub's own processes -- and the subject a 1-farm,
1-worker serial :class:`ShardedFabricScenario` with the same seed. The two
differ only in how a record reaches the hub: the reference draws its
append latencies from ``cspot.transport``, the sharded farm from its
``shard.cell000.transfer`` stream, and the bus moves deliveries to
barriers. So read times move by under a second, the telemetry values by a
hair (the weather and the instrument noise are the same draws), and the
Laminar verdicts not at all. Arrival times and latencies are not
compared.
"""

import warnings

import pytest

from repro.core import FabricConfig, ShardedFabricScenario
from repro.core.fabric import FabricMetrics, FarmSite, Hub
from repro.core.telemetry import TelemetryRecord
from repro.cspot.paths import ucsb_nd_internet, unl_ucsb_5g
from repro.cspot.transport import RemoteAppendClient, Transport
from repro.simkernel import Engine

SEED = 3
#: Six duty-cycle decisions: the first needs two full windows (1.5 h).
HORIZON_S = 4 * 3600.0
#: Values may differ by this much (m/s, K and fraction). Moving every read
#: time by up to 0.8 s moves them by at most ~1.4e-4.
VALUE_TOLERANCE = 1e-3


def reference_run():
    """FarmSite + Hub on one engine; returns (records by station, hub)."""
    config = FabricConfig(seed=SEED)
    engine = Engine(seed=SEED)
    metrics = FabricMetrics()
    transport = Transport(engine)
    farm = FarmSite(engine, metrics, cell=0)
    hub = Hub(engine, config, transport, metrics, farm)
    transport.connect("unl", "ucsb", unl_ucsb_5g())
    transport.connect("ucsb", "nd", ucsb_nd_internet())
    appenders = {
        s.station_id: RemoteAppendClient(
            transport, farm.unl, hub.ucsb, f"telemetry.{s.station_id}",
            policy=config.policies.append,
        )
        for s in farm.stations
    }

    def uplink(station, payload):
        return appenders[station.station_id].append(payload)

    def telemetry():
        interval = config.telemetry_interval_s
        while engine.now + interval <= HORIZON_S:
            yield engine.timeout(interval)
            yield from farm.telemetry_round(uplink)

    engine.process(telemetry())
    hub.start(HORIZON_S)
    engine.run(until=HORIZON_S)
    records = {
        s.station_id: [
            TelemetryRecord.from_bytes(e.payload)
            for e in hub.ucsb.get_log(f"telemetry.{s.station_id}").scan()
        ]
        for s in farm.stations
    }
    return records, hub


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
    (records, _hub), report = runs
    ingested = {}
    for r in report.trace:
        if r["kind"] == "hub.ingest":
            ingested.setdefault(r["station"], []).append(r)
    assert ingested.keys() == records.keys()
    for station, reference in records.items():
        sharded = ingested[station]
        assert len(sharded) == len(reference) == report.n_windows - 1
        for ref, got in zip(reference, sharded):
            assert got["read_t"] == pytest.approx(ref.time_s, abs=1.0)
            assert got["wind_mps"] == pytest.approx(
                ref.wind_speed_mps, abs=VALUE_TOLERANCE
            )
            assert got["temperature_k"] == pytest.approx(
                ref.temperature_k, abs=VALUE_TOLERANCE
            )
            assert got["humidity"] == pytest.approx(
                ref.relative_humidity, abs=VALUE_TOLERANCE
            )


def test_every_duty_cycle_votes_identically(runs):
    (_records, hub), report = runs
    detection = hub.detection
    reference = [
        detection.decision(epoch) for epoch in range(detection.epochs)
    ]
    sharded = [r for r in report.trace if r["kind"] == "hub.decision"]
    assert len(reference) == len(sharded) == report.decisions == 6
    for ref, got in zip(reference, sharded):
        assert (got["epoch"], got["welch_t"], got["mann_whitney"], got["ks"]) == (
            ref.epoch, ref.welch_t, ref.mann_whitney, ref.ks,
        )
        assert got["alert"] == ref.alert
    assert report.alerts >= 1, "the run must raise at least one alert"
    assert report.alerts == sum(ref.alert for ref in reference)
