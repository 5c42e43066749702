"""Fabric-level fault injection: the whole pipeline under network trouble.

Section 3.1's claim at system scope: "devices operating in remote locations
using 5G connectivity can be subject to frequent network interruption.
Because all program state is logged, programs can simply pause until
connectivity is restored."
"""

import warnings

import pytest

from repro.core import FabricConfig, XGFabric

warnings.filterwarnings("ignore", category=RuntimeWarning)


class TestFabricUnderPartition:
    @pytest.fixture(scope="class")
    def partitioned_run(self):
        fab = XGFabric(FabricConfig(seed=19))
        # The 5G backhaul drops for 25 minutes mid-run.
        path = fab.transport.path("unl", "ucsb")
        path.faults.add_partition(3600.0, 3600.0 + 1500.0)
        metrics = fab.run(3 * 3600.0)
        return fab, metrics

    def test_no_telemetry_lost(self, partitioned_run):
        fab, m = partitioned_run
        # Every station report eventually lands in its UCSB log, exactly once.
        log = fab.hub.ucsb.get_log("telemetry.cups-ext-0")
        assert log.last_seqno == m.telemetry_sent // 5

    def test_latency_spike_during_partition(self, partitioned_run):
        fab, m = partitioned_run
        # Some appends waited out the partition: their latency is minutes,
        # not the usual ~100 ms.
        assert max(m.telemetry_latencies_s) > 60.0
        # But the median stays at the calibrated path latency.
        latencies = sorted(m.telemetry_latencies_s)
        median = latencies[len(latencies) // 2]
        assert median < 0.3

    def test_telemetry_order_preserved(self, partitioned_run):
        fab, m = partitioned_run
        from repro.core.telemetry import TelemetryRecord

        log = fab.hub.ucsb.get_log("telemetry.cups-ext-0")
        times = [
            TelemetryRecord.from_bytes(e.payload).time_s for e in log.scan()
        ]
        assert times == sorted(times)

    def test_pipeline_continues_after_heal(self, partitioned_run):
        fab, m = partitioned_run
        # Duty cycles kept running (the detector lives at UCSB and reads
        # local logs); telemetry resumed after the heal.
        assert m.duty_cycles >= 5
        from repro.core.telemetry import TelemetryRecord

        log = fab.hub.ucsb.get_log("telemetry.cups-ext-0")
        last = TelemetryRecord.from_bytes(log.get(log.last_seqno).payload)
        assert last.time_s > 3600.0 + 1500.0  # post-heal reports arrived


class TestFabricUnderRepeatedOutages:
    def test_three_short_outages(self):
        fab = XGFabric(FabricConfig(seed=23))
        path = fab.transport.path("unl", "ucsb")
        for start in (1800.0, 5400.0, 9000.0):
            path.faults.add_partition(start, start + 300.0)
        m = fab.run(4 * 3600.0)
        log = fab.hub.ucsb.get_log("telemetry.cups-ext-0")
        # Exactly-once delivery across all outages.
        assert log.last_seqno == m.telemetry_sent // 5
        assert m.telemetry_sent > 0
