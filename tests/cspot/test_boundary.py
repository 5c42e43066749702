"""The CSPOT shard-boundary seam: envelopes, links, transport export."""

import math

import numpy as np
import pytest

from repro.core import ShardedFabricScenario
from repro.cspot import (
    CrossShardLink,
    CSPOTNode,
    FabricEnvelope,
    NetworkPath,
    ShardBoundary,
    Transport,
)
from repro.cspot.boundary import TRANSFER_LEGS
from repro.cspot.errors import AppendError
from repro.cspot.paths import TABLE1_ANCHORS, unl_ucsb_5g
from repro.simkernel import Engine

pytestmark = pytest.mark.filterwarnings("error")

#: Any link will do where the latency model is not under test.
LINK = CrossShardLink.from_path(unl_ucsb_5g())


def _envelope(**overrides):
    defaults = dict(
        send_t=1.0,
        src_cell=2,
        seq=0,
        dst_cell=0,
        log="fabric.telemetry",
        payload=b"x" * 16,
        latency_s=0.1,
    )
    defaults.update(overrides)
    return FabricEnvelope(**defaults)


class TestEnvelope:
    def test_key_mirrors_the_merge_total_order(self):
        envelope = _envelope()
        assert envelope.key == (1.0, 2, 0)
        assert envelope.arrival_t == pytest.approx(1.1)

    def test_delivery_key_requires_routing_first(self):
        envelope = _envelope()
        with pytest.raises(ValueError, match="deliver_t unassigned"):
            envelope.delivery_key
        stamped = envelope.stamped(1.5)
        assert stamped.delivery_key == (1.5, 2, 0)
        # stamped() is a copy: the original stays unrouted.
        assert envelope.deliver_t is None

    def test_stamping_before_send_time_rejected(self):
        with pytest.raises(ValueError, match="precedes send_t"):
            _envelope().stamped(0.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="cell"):
            _envelope(src_cell=-1)
        with pytest.raises(ValueError, match="seq"):
            _envelope(seq=-1)
        with pytest.raises(ValueError, match="latency"):
            _envelope(latency_s=0.0)
        with pytest.raises(ValueError, match="log"):
            _envelope(log="")


class TestCrossShardLink:
    def test_latency_is_four_legs_plus_append_cost(self):
        link = CrossShardLink.from_path(
            NetworkPath("flat", one_way_ms=25.0, jitter_ms=0.0),
            append_cost_s=0.05,
        )
        rng = np.random.default_rng(0)
        assert link.transfer_latency_s(rng) == pytest.approx(
            TRANSFER_LEGS * 0.025 + 0.05
        )

    def test_draws_are_reproducible_per_stream(self):
        a = [LINK.transfer_latency_s(np.random.default_rng(7)) for _ in "x"]
        b = [LINK.transfer_latency_s(np.random.default_rng(7)) for _ in "x"]
        assert a == b

    def test_default_link_matches_table1_5g_path(self):
        # The sharded fabric's farm uplink is the calibrated UNL->UCSB
        # 5G + Internet path: its 4-leg transfer reproduces Table 1's
        # 101 +/- 17 ms. Over 20,000 draws the sample mean and SD sit
        # within ~0.2 ms of the model's; 1.5 ms of tolerance still
        # rejects a link with half the jitter (SD ~8 ms).
        link = ShardedFabricScenario(n_sites=1).link
        rng = np.random.default_rng(0)
        draws_ms = 1e3 * np.array(
            [link.transfer_latency_s(rng) for _ in range(20_000)]
        )
        mean_ms, sd_ms = TABLE1_ANCHORS["unl-ucsb-5g"]
        assert draws_ms.mean() == pytest.approx(mean_ms, abs=1.5)
        assert draws_ms.std() == pytest.approx(sd_ms, abs=1.5)

    def test_validation(self):
        for bad in (
            dict(one_way_ms=0.0, jitter_ms=1.0),
            dict(one_way_ms=25.0, jitter_ms=-1.0),
            dict(one_way_ms=25.0, jitter_ms=1.0, append_cost_s=-1.0),
        ):
            with pytest.raises(ValueError):
                CrossShardLink(name="bad", **bad)

    @pytest.mark.parametrize(
        "field, value",
        [
            (field, value)
            for field in ("one_way_ms", "jitter_ms", "append_cost_s")
            for value in (math.nan, math.inf)
        ],
    )
    def test_non_finite_rejected(self, field, value):
        link = dict(one_way_ms=25.0, jitter_ms=1.0, append_cost_s=0.001)
        with pytest.raises(ValueError, match="finite"):
            CrossShardLink(name="bad", **{**link, field: value})


class TestShardBoundary:
    def test_export_assigns_monotonic_per_source_seq(self):
        boundary = ShardBoundary(LINK)
        rng = np.random.default_rng(0)
        keys = []
        for src in (1, 1, 2, 1):
            envelope = boundary.export(
                send_t=0.5,
                src_cell=src,
                dst_cell=0,
                log="fabric.telemetry",
                payload=b"p",
                rng=rng,
            )
            keys.append(envelope.key)
        assert keys == [(0.5, 1, 0), (0.5, 1, 1), (0.5, 2, 0), (0.5, 1, 2)]
        assert len(boundary) == 4
        assert boundary.exported == 4

    def test_drain_clears_and_preserves_order(self):
        boundary = ShardBoundary(LINK)
        rng = np.random.default_rng(0)
        for _ in range(3):
            boundary.export(
                send_t=1.0,
                src_cell=0,
                dst_cell=1,
                log="fabric.telemetry",
                payload=b"p",
                rng=rng,
            )
        drained = boundary.drain()
        assert [e.seq for e in drained] == [0, 1, 2]
        assert len(boundary) == 0
        assert boundary.drain() == ()
        # seq keeps counting across drains: the stream stays a total order.
        envelope = boundary.export(
            send_t=2.0,
            src_cell=0,
            dst_cell=1,
            log="fabric.telemetry",
            payload=b"p",
            rng=rng,
        )
        assert envelope.seq == 3


class TestTransportSeam:
    def test_export_append_requires_a_bound_boundary(self):
        engine = Engine(seed=0)
        transport = Transport(engine)
        with pytest.raises(AppendError, match="no boundary is bound"):
            transport.export_append(0, 1, "fabric.telemetry", b"p")

    def test_double_bind_rejected(self):
        engine = Engine(seed=0)
        transport = Transport(engine)
        transport.bind_boundary(ShardBoundary(LINK))
        with pytest.raises(AppendError, match="already bound"):
            transport.bind_boundary(ShardBoundary(LINK))

    def test_export_append_stamps_the_engine_clock(self):
        engine = Engine(seed=0)
        transport = Transport(engine)
        boundary = ShardBoundary(LINK)
        transport.bind_boundary(boundary)
        engine.drain_window(3.25)
        envelope = transport.export_append(2, 0, "fabric.telemetry", b"p")
        assert envelope.send_t == 3.25
        assert envelope.dst_cell == 0
        assert boundary.drain() == (envelope,)

    def test_export_append_draws_the_senders_transfer_stream(self):
        # The latency is a function of (seed, sending cell, draw index):
        # the same cell on another engine with the same seed draws the
        # same latency, whatever else that engine carries.
        latencies = []
        for other_cells in ((), (0, 1)):
            engine = Engine(seed=5)
            transport = Transport(engine)
            transport.bind_boundary(ShardBoundary(LINK))
            for cell in other_cells:
                transport.export_append(cell, 9, "fabric.telemetry", b"p")
            latencies.append(
                transport.export_append(2, 9, "fabric.telemetry", b"p").latency_s
            )
        assert latencies[0] == latencies[1]

    def test_local_appends_still_work_alongside_the_boundary(self):
        engine = Engine(seed=0)
        transport = Transport(engine)
        transport.bind_boundary(ShardBoundary(LINK))
        node = CSPOTNode(engine, "site000")
        node.create_log("telemetry", element_size=32, history_size=8)
        node.local_append("telemetry", b"local")
        log = node.logs["telemetry"]
        assert [entry.payload for entry in log.scan()] == [b"local"]
