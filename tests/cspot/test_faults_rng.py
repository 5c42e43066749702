"""RNG discipline for the CSPOT fault injector (the repro.lint REPRO201 fix).

The injector used to fall back to a private ``np.random.default_rng(0)``:
ack-loss sequences then ignored the campaign's master seed, so two
campaigns with different seeds replayed identical loss schedules. These
tests pin the fixed contract: registry-derived streams only, no silent
fallback.
"""

import numpy as np
import pytest

from repro.cspot.faults import FaultInjector
from repro.cspot.transport import NetworkPath, Transport
from repro.simkernel import Engine
from repro.simkernel.rng import RngRegistry
from repro.simkernel.streams import cspot_fault_stream

#: A declared fault-injector stream, standing in for any one path's.
FAULT_STREAM = cspot_fault_stream("farm", "hub")


def _drop_sequence(injector: FaultInjector, n: int = 64) -> list[bool]:
    return [injector.drop_ack() for _ in range(n)]


class TestRegistryDerivedInjectors:
    def test_same_master_seed_identical_schedules(self):
        """Two injectors from the same master seed draw identical schedules."""
        a = FaultInjector(
            ack_loss_prob=0.3, rng=RngRegistry(42).get(FAULT_STREAM)
        )
        b = FaultInjector(
            ack_loss_prob=0.3, rng=RngRegistry(42).get(FAULT_STREAM)
        )
        assert _drop_sequence(a) == _drop_sequence(b)

    def test_master_seed_controls_schedule(self):
        """Different master seeds give different ack-loss sequences.

        This is the regression: with the old silent ``default_rng(0)``
        fallback every injector drew the same sequence regardless of seed.
        """
        seqs = {
            tuple(
                _drop_sequence(
                    FaultInjector(
                        ack_loss_prob=0.5,
                        rng=RngRegistry(seed).get(FAULT_STREAM),
                    ),
                    n=128,
                )
            )
            for seed in (0, 1, 2, 3)
        }
        assert len(seqs) == 4

    def test_drop_ack_without_rng_raises(self):
        """No generator and a positive loss probability is a hard error."""
        injector = FaultInjector(ack_loss_prob=0.3)
        with pytest.raises(RuntimeError, match="no generator"):
            injector.drop_ack()

    def test_zero_prob_needs_no_rng(self):
        assert FaultInjector().drop_ack() is False

    def test_bind_rng_does_not_override_explicit_generator(self):
        explicit = np.random.default_rng(7)
        injector = FaultInjector(ack_loss_prob=0.4, rng=explicit)
        injector.bind_rng(np.random.default_rng(8))
        reference = np.random.default_rng(7)
        drops = _drop_sequence(injector, n=32)
        expected = [bool(reference.random() < 0.4) for _ in range(32)]
        assert drops == expected


class TestTransportBinding:
    def test_connect_binds_named_stream(self):
        """Transport.connect puts default-built injectors on a named stream."""
        engine = Engine(seed=11)
        transport = Transport(engine)
        path = NetworkPath("unl->ucsb", one_way_ms=4.0)
        transport.connect("unl", "ucsb", path)
        path.faults.ack_loss_prob = 0.5

        reference = RngRegistry(11).get("cspot.faults.unl-ucsb")
        expected = [bool(reference.random() < 0.5) for _ in range(64)]
        assert _drop_sequence(path.faults) == expected

    def test_connect_same_seed_same_draws(self):
        def build() -> FaultInjector:
            engine = Engine(seed=5)
            transport = Transport(engine)
            path = NetworkPath("a->b", one_way_ms=1.0)
            transport.connect("a", "b", path)
            path.faults.ack_loss_prob = 0.25
            return path.faults

        assert _drop_sequence(build()) == _drop_sequence(build())
