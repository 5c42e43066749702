"""Integration tests for CSPOT's delay-tolerance claims (section 3.1).

The paper leverages delay tolerance three ways: (1) network interruption,
(2) power loss with persistent logs, (3) masking batch-queue delay by
"parking" data in logs that compute nodes fetch "once the nodes become
active". Each is exercised end-to-end here.
"""

import pytest

from repro.cspot import (
    CSPOTNode,
    NetworkPath,
    RemoteAppendClient,
    RetryPolicy,
    Transport,
)
from repro.simkernel import Engine


def topology(engine):
    """UNL -> UCSB -> ND with realistic latencies."""
    transport = Transport(engine)
    unl = CSPOTNode(engine, "unl")
    ucsb = CSPOTNode(engine, "ucsb")
    nd = CSPOTNode(engine, "nd")
    ucsb.create_log("telemetry", element_size=128, history_size=1024)
    transport.connect("unl", "ucsb", NetworkPath("5g", one_way_ms=25.0))
    transport.connect("ucsb", "nd", NetworkPath("inet", one_way_ms=22.75))
    return transport, unl, ucsb, nd


class TestParkAndFetch:
    """Claim 3: batch-queued HPC nodes fetch parked data on activation."""

    def test_nd_fetches_backlog_after_batch_queue_delay(self):
        engine = Engine(seed=1)
        transport, unl, ucsb, nd = topology(engine)
        appender = RemoteAppendClient(transport, unl, ucsb, "telemetry")
        # ND's "compute node" sits in the batch queue (powered off) for
        # two hours while telemetry accumulates at UCSB.
        nd.power_off()

        def producer():
            for k in range(24):  # 2 h at 5-minute cadence
                yield engine.timeout(300.0)
                yield appender.append(f"reading-{k}".encode())

        def batch_start():
            yield engine.timeout(2 * 3600.0)
            nd.power_on()
            entries = yield transport.remote_fetch(nd, ucsb, "telemetry")
            return entries

        engine.process(producer())
        proc = engine.process(batch_start())
        entries = engine.run(until=proc)
        # Everything parked before activation arrives in order.
        assert len(entries) == 23  # the 24th append lands at t > 2 h
        assert [e.payload for e in entries[:3]] == [
            b"reading-0", b"reading-1", b"reading-2",
        ]

    def test_incremental_fetch_sees_only_new_entries(self):
        engine = Engine(seed=2)
        transport, unl, ucsb, nd = topology(engine)
        appender = RemoteAppendClient(transport, unl, ucsb, "telemetry")

        def body():
            yield appender.append(b"a")
            yield appender.append(b"b")
            first = yield transport.remote_fetch(nd, ucsb, "telemetry")
            yield appender.append(b"c")
            second = yield transport.remote_fetch(
                nd, ucsb, "telemetry", since_seqno=first[-1].seqno
            )
            return first, second

        first, second = engine.run(until=engine.process(body()))
        assert [e.payload for e in first] == [b"a", b"b"]
        assert [e.payload for e in second] == [b"c"]

    def test_fetch_from_down_server_fails_then_recovers(self):
        from repro.cspot import NodeDownError

        engine = Engine(seed=3)
        transport, unl, ucsb, nd = topology(engine)
        ucsb.get_log("telemetry").append(b"parked")
        ucsb.power_off()
        with pytest.raises(NodeDownError):
            engine.run(until=transport.remote_fetch(nd, ucsb, "telemetry"))
        ucsb.power_on()
        entries = engine.run(until=transport.remote_fetch(nd, ucsb, "telemetry"))
        assert [e.payload for e in entries] == [b"parked"]


class TestPowerLossDuringStream:
    """Claim 2: power loss =~ network interruption, via persistent logs."""

    def test_server_power_cycle_mid_stream_loses_nothing(self):
        engine = Engine(seed=4)
        transport, unl, ucsb, nd = topology(engine)
        appender = RemoteAppendClient(
            transport, unl, ucsb, "telemetry",
            policy=RetryPolicy(backoff_s=30.0),
        )

        def outage():
            yield engine.timeout(1000.0)
            ucsb.power_off()
            yield engine.timeout(900.0)  # 15-minute outage
            ucsb.power_on()

        def producer():
            for k in range(10):
                yield engine.timeout(300.0)
                yield appender.append(f"r{k}".encode())

        engine.process(outage())
        proc = engine.process(producer())
        engine.run(until=proc)
        log = ucsb.get_log("telemetry")
        # Exactly ten entries, in order, despite the outage window.
        assert log.last_seqno == 10
        assert [log.get(s).payload for s in range(1, 11)] == [
            f"r{k}".encode() for k in range(10)
        ]

    def test_stream_delayed_by_outage_duration(self):
        engine = Engine(seed=5)
        transport, unl, ucsb, nd = topology(engine)
        appender = RemoteAppendClient(
            transport, unl, ucsb, "telemetry",
            policy=RetryPolicy(backoff_s=10.0),
        )
        ucsb.power_off()

        def revive():
            yield engine.timeout(600.0)
            ucsb.power_on()

        engine.process(revive())
        proc = appender.append(b"x")
        engine.run(until=proc)
        assert engine.now >= 600.0
        assert appender.attempts > 1


class TestCombinedFaults:
    def test_partition_plus_power_loss_still_exactly_once(self):
        engine = Engine(seed=6)
        transport, unl, ucsb, nd = topology(engine)
        path = transport.path("unl", "ucsb")
        path.faults.add_partition(100.0, 400.0)
        # Ack loss on top: first two successful appends lose their acks.
        drops = iter([True, True])
        path.faults.drop_ack = lambda: next(drops, False)  # type: ignore[method-assign]

        def outage():
            yield engine.timeout(500.0)
            ucsb.power_off()
            yield engine.timeout(200.0)
            ucsb.power_on()

        engine.process(outage())
        appender = RemoteAppendClient(
            transport, unl, ucsb, "telemetry",
            policy=RetryPolicy(backoff_s=60.0),
        )

        def producer():
            for k in range(5):
                yield engine.timeout(120.0)
                yield appender.append(f"v{k}".encode())

        engine.run(until=engine.process(producer()))
        log = ucsb.get_log("telemetry")
        assert log.last_seqno == 5
        assert [e.payload for e in log.scan()] == [
            f"v{k}".encode() for k in range(5)
        ]
