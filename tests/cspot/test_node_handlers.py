"""Tests for CSPOT nodes, handlers and the power-loss lifecycle."""

import pytest

from repro.cspot import CSPOTNode, NodeDownError
from repro.simkernel import Engine


@pytest.fixture
def engine():
    return Engine(seed=1)


class TestNamespace:
    """The logs one node hosts (CSPOT's per-site namespace)."""

    def test_create_and_get(self, engine):
        node = CSPOTNode(engine, "unl")
        log = node.create_log("telemetry", element_size=128)
        assert node.get_log("telemetry") is log
        assert "telemetry" in node.logs
        assert sorted(node.logs) == ["telemetry"]

    def test_duplicate_create_rejected(self, engine):
        node = CSPOTNode(engine, "unl")
        node.create_log("x", element_size=8)
        with pytest.raises(ValueError, match="exists"):
            node.create_log("x", element_size=8)

    def test_get_missing(self, engine):
        with pytest.raises(KeyError, match="no log"):
            CSPOTNode(engine, "unl").get_log("ghost")


class TestHandlers:
    def test_handler_fires_per_append(self, engine):
        node = CSPOTNode(engine, "ucsb")
        node.create_log("data", element_size=16)
        fired = []
        node.register_handler("data", lambda n, log, e: fired.append(e.seqno))
        node.local_append("data", b"one")
        node.local_append("data", b"two")
        engine.run()
        assert fired == [1, 2]
        assert node.handler_invocations == 2

    def test_handler_runs_after_dispatch_delay(self, engine):
        node = CSPOTNode(engine, "ucsb", handler_delay_s=0.5)
        node.create_log("data", element_size=16)
        times = []
        node.register_handler("data", lambda n, log, e: times.append(engine.now))
        node.local_append("data", b"x")
        engine.run()
        assert times == [0.5]

    def test_multiple_handlers_fire_independently(self, engine):
        node = CSPOTNode(engine, "ucsb")
        node.create_log("data", element_size=16)
        a, b = [], []
        node.register_handler("data", lambda n, log, e: a.append(e.seqno))
        node.register_handler("data", lambda n, log, e: b.append(e.seqno))
        node.local_append("data", b"x")
        engine.run()
        assert a == [1] and b == [1]

    def test_handler_chaining_appends_to_other_log(self, engine):
        # The Laminar pattern: a handler on one log appends to another.
        node = CSPOTNode(engine, "ucsb")
        node.create_log("in", element_size=16)
        node.create_log("out", element_size=16)

        def forward(n, log, entry):
            n.local_append("out", entry.payload.upper())

        node.register_handler("in", forward)
        node.local_append("in", b"ping")
        engine.run()
        assert node.get_log("out").get(1).payload == b"PING"

    def test_handler_on_missing_log_rejected(self, engine):
        node = CSPOTNode(engine, "ucsb")
        with pytest.raises(KeyError):
            node.register_handler("ghost", lambda n, log, e: None)

    def test_handler_multi_event_sync_by_scanning(self, engine):
        # The paper: no multi-append triggers; handlers scan logs instead.
        node = CSPOTNode(engine, "ucsb")
        node.create_log("a", element_size=16)
        node.create_log("b", element_size=16)
        node.create_log("joined", element_size=16)

        def join_when_both(n, log, entry):
            # Fire the join only when both inputs have at least one entry.
            if n.get_log("a").last_seqno > 0 and n.get_log("b").last_seqno > 0:
                if n.get_log("joined").last_seqno == 0:
                    n.local_append("joined", b"both")

        node.register_handler("a", join_when_both)
        node.register_handler("b", join_when_both)
        node.local_append("a", b"x")
        engine.run()
        assert node.get_log("joined").last_seqno == 0
        node.local_append("b", b"y")
        engine.run()
        assert node.get_log("joined").last_seqno == 1


class TestPowerLoss:
    def test_power_off_blocks_operations(self, engine):
        node = CSPOTNode(engine, "pi")
        node.create_log("data", element_size=16)
        node.power_off()
        with pytest.raises(NodeDownError):
            node.local_append("data", b"x")
        with pytest.raises(NodeDownError):
            node.create_log("other", element_size=8)

    def test_state_survives_power_cycle(self, engine):
        node = CSPOTNode(engine, "pi")
        node.create_log("data", element_size=16)
        node.local_append("data", b"before")
        node.power_off()
        node.power_on()
        log = node.get_log("data")
        assert log.last_seqno == 1
        assert log.get(1).payload == b"before"
        assert node.local_append("data", b"after") == 2

    def test_pending_handler_dropped_by_power_loss(self, engine):
        node = CSPOTNode(engine, "pi", handler_delay_s=1.0)
        node.create_log("data", element_size=16)
        fired = []
        node.register_handler("data", lambda n, log, e: fired.append(e.seqno))
        node.local_append("data", b"x")
        node.power_off()  # before the 1 s dispatch delay elapses
        engine.run()
        assert fired == []

    def test_handlers_rearm_after_power_on(self, engine):
        node = CSPOTNode(engine, "pi")
        node.create_log("data", element_size=16)
        fired = []
        node.register_handler("data", lambda n, log, e: fired.append(e.seqno))
        node.power_off()
        node.power_on()
        node.local_append("data", b"x")
        engine.run()
        assert fired == [1]

    def test_handle_taken_before_power_cycle_stays_live(self, engine):
        # A power cycle keeps the node's log objects: a handle taken before
        # it and the node itself append to one log, with one seqno sequence.
        node = CSPOTNode(engine, "pi")
        node.create_log("x", element_size=8)
        handle = node.get_log("x")
        node.power_off()
        node.power_on()
        assert handle.append(b"first", now=engine.now) == 1
        assert node.local_append("x", b"second") == 2
        log = node.get_log("x")
        assert [e.payload for e in log.scan()] == [b"first", b"second"]

    def test_power_on_when_alive_is_noop(self, engine):
        node = CSPOTNode(engine, "pi")
        node.create_log("data", element_size=16)
        node.power_on()
        assert node.alive


class TestHandlerIsolation:
    def test_faulty_handler_does_not_kill_the_runtime(self, engine):
        node = CSPOTNode(engine, "ucsb")
        node.create_log("data", element_size=16)
        good = []

        def bad_handler(n, log, e):
            raise ValueError("handler bug")

        node.register_handler("data", bad_handler)
        node.register_handler("data", lambda n, log, e: good.append(e.seqno))
        node.local_append("data", b"x")
        node.local_append("data", b"y")
        engine.run()  # must not raise
        assert good == [1, 2]  # the healthy handler kept firing
        assert len(node.handler_errors) == 2
        t, log_name, exc = node.handler_errors[0]
        assert log_name == "data"
        assert isinstance(exc, ValueError)

    def test_handler_errors_counted_as_invocations(self, engine):
        node = CSPOTNode(engine, "ucsb")
        node.create_log("data", element_size=16)
        node.register_handler("data", lambda n, log, e: 1 / 0)
        node.local_append("data", b"x")
        engine.run()
        assert node.handler_invocations == 1
        assert len(node.handler_errors) == 1
