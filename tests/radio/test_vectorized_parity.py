"""Parity battery: vectorized radio path vs the scalar reference loops.

The contract is *bit identity*: for the same generator state, the
vectorized ``uplink_samples`` / ``downlink_samples`` must reproduce the
retired per-UE loops (kept in ``tests/radio/scalar_reference.py``)
sample-for-sample with ``np.array_equal`` -- not ``allclose``. Anything weaker would let the scale
path silently drift away from the calibrated model the paper anchors pin.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.radio.network import NetworkDeployment
from repro.radio.scheduler import (
    ProportionalFairScheduler,
    RoundRobinScheduler,
    UeDemand,
    round_robin_rounds,
)
from repro.radio.slicing import SliceConfig
from repro.obs.metrics import MetricsRegistry
from tests.radio.scalar_reference import (
    downlink_samples_scalar,
    uplink_samples_scalar,
)

#: (network flavour, bandwidth) pairs from the paper's grids, kept within
#: each front end's sampling ceiling.
FLAVOURS = [("4g-fdd", 20.0), ("5g-fdd", 20.0), ("5g-tdd", 40.0)]
#: 1-17 UEs share each flavour's PRB budget (100 or 106 PRBs), so every UE
#: holds PRBs every round. 130 exceeds every budget: each round grants one
#: PRB to a rotating subset and the rest get none. At 450, fewer than a
#: quarter of the (round, UE) pairs hold PRBs, so the kernel takes its
#: gather path -- the regime of a UE-fleet cell.
BATTERY_N = [1, 3, 17, 130, 450]
BATTERY_SEEDS = [0, 1, 2]


def _build(flavour: str, bandwidth: float, n_ues: int, **kwargs):
    net = NetworkDeployment.build(flavour, bandwidth_mhz=bandwidth, **kwargs)
    ues = [net.add_ue("raspberry-pi", ue_id=f"ue{j:03d}") for j in range(n_ues)]
    return net, ues


@pytest.mark.parametrize("flavour,bandwidth", FLAVOURS)
@pytest.mark.parametrize("n_ues", BATTERY_N)
@pytest.mark.parametrize("seed", BATTERY_SEEDS)
def test_uplink_bit_identical(flavour: str, bandwidth: float, n_ues: int, seed: int) -> None:
    net, _ = _build(flavour, bandwidth, n_ues)
    vec = net.gnb.uplink_samples(np.random.default_rng(seed), 23)
    net2, _ = _build(flavour, bandwidth, n_ues)
    ref = uplink_samples_scalar(net2.gnb, np.random.default_rng(seed), 23)
    assert vec.keys() == ref.keys()
    for ue_id in ref:
        assert np.array_equal(vec[ue_id], ref[ue_id]), ue_id


@pytest.mark.parametrize("flavour,bandwidth", FLAVOURS)
@pytest.mark.parametrize("n_ues", BATTERY_N)
@pytest.mark.parametrize("seed", BATTERY_SEEDS)
def test_downlink_bit_identical(flavour: str, bandwidth: float, n_ues: int, seed: int) -> None:
    net, _ = _build(flavour, bandwidth, n_ues)
    vec = net.gnb.downlink_samples(np.random.default_rng(seed), 23)
    net2, _ = _build(flavour, bandwidth, n_ues)
    ref = downlink_samples_scalar(net2.gnb, np.random.default_rng(seed), 23)
    for ue_id in ref:
        assert np.array_equal(vec[ue_id], ref[ue_id]), ue_id


@pytest.mark.parametrize("seed", BATTERY_SEEDS)
def test_sliced_cell_bit_identical(seed: int) -> None:
    """Slice partitioning: per-slice schedulers, column-block grants."""
    cfg = SliceConfig.complementary_pair(0.3)

    def build():
        net = NetworkDeployment.build("5g-tdd", bandwidth_mhz=40.0, slice_config=cfg)
        for j in range(4):
            net.add_ue(
                "raspberry-pi", ue_id=f"ue{j:03d}",
                slice_name="slice-a" if j % 2 == 0 else "slice-b",
            )
        return net

    vec = build().gnb.uplink_samples(np.random.default_rng(seed), 19)
    ref = uplink_samples_scalar(build().gnb, np.random.default_rng(seed), 19)
    for ue_id in ref:
        assert np.array_equal(vec[ue_id], ref[ue_id]), ue_id


@pytest.mark.parametrize("seed", BATTERY_SEEDS)
def test_proportional_fair_bit_identical(seed: int) -> None:
    """PF has no closed form: allocate_rounds falls back to the per-round
    loop, and the sampling kernel must still match the scalar path."""

    def build():
        return _build("5g-fdd", 20.0, 3, scheduler=ProportionalFairScheduler())[0]

    vec = build().gnb.uplink_samples(np.random.default_rng(seed), 23)
    ref = uplink_samples_scalar(build().gnb, np.random.default_rng(seed), 23)
    for ue_id in ref:
        assert np.array_equal(vec[ue_id], ref[ue_id]), ue_id


def test_metrics_bound_fallback_preserves_observations() -> None:
    """With metrics bound, the RR fast path must yield to the per-round
    loop so every round's utilization observation still lands."""
    net, _ = _build("5g-tdd", 40.0, 2)
    registry = MetricsRegistry()
    net.gnb.bind_metrics(registry)
    vec = net.gnb.uplink_samples(np.random.default_rng(1), 11)
    rounds = registry.counter("radio.sched.rounds").value(cell=net.gnb.name)
    assert rounds == 11

    net2, _ = _build("5g-tdd", 40.0, 2)
    ref = uplink_samples_scalar(net2.gnb, np.random.default_rng(1), 11)
    for ue_id in ref:
        assert np.array_equal(vec[ue_id], ref[ue_id]), ue_id


class TestRoundRobinClosedForm:
    """round_robin_rounds vs looping RoundRobinScheduler.allocate."""

    @pytest.mark.parametrize("n_ues", [1, 2, 3, 7, 16])
    @pytest.mark.parametrize("budget", [0, 1, 6, 51, 106, 273])
    def test_matches_allocate_loop(self, n_ues: int, budget: int) -> None:
        ids = [f"ue{j:02d}" for j in range(n_ues)]
        demands = [UeDemand(uid, prbs_wanted=budget) for uid in ids]

        loop_sched = RoundRobinScheduler()
        n_rounds = 9
        expected = np.zeros((n_rounds, n_ues), dtype=np.int64)
        for r in range(n_rounds):
            alloc = loop_sched.allocate(demands, budget)
            expected[r] = [alloc[uid] for uid in ids]

        fast_sched = RoundRobinScheduler()
        got = fast_sched.allocate_rounds(demands, budget, n_rounds)
        assert np.array_equal(got, expected)
        assert fast_sched._rotation == loop_sched._rotation

    def test_unsorted_ids_rotation(self) -> None:
        """Rotation walks sorted-ue_id order even when the demand list
        (and therefore column order) is shuffled."""
        ids = ["ue-c", "ue-a", "ue-b"]
        demands = [UeDemand(uid, prbs_wanted=10) for uid in ids]
        loop_sched = RoundRobinScheduler()
        expected = np.zeros((6, 3), dtype=np.int64)
        for r in range(6):
            alloc = loop_sched.allocate(demands, 10)
            expected[r] = [alloc[uid] for uid in ids]
        got = RoundRobinScheduler().allocate_rounds(demands, 10, 6)
        assert np.array_equal(got, expected)

    def test_non_saturating_falls_back(self) -> None:
        """Partial demands exercise the water-fill; the override must
        delegate to the bit-identical loop."""
        demands = [
            UeDemand("ue-a", prbs_wanted=5),
            UeDemand("ue-b", prbs_wanted=100),
        ]
        loop_sched = RoundRobinScheduler()
        expected = np.zeros((4, 2), dtype=np.int64)
        for r in range(4):
            alloc = loop_sched.allocate(demands, 50)
            expected[r] = [alloc["ue-a"], alloc["ue-b"]]
        got = RoundRobinScheduler().allocate_rounds(demands, 50, 4)
        assert np.array_equal(got, expected)

    def test_rotation_counter_semantics(self) -> None:
        # Evenly divisible budget: the remainder branch never runs, so the
        # rotation counter must not advance.
        grants, rot = round_robin_rounds(4, 8, 5, 0, np.arange(4, dtype=np.int64))
        assert rot == 0
        assert np.array_equal(grants, np.full((5, 4), 2))
        # With a remainder, it advances once per round.
        _, rot = round_robin_rounds(4, 9, 5, 2, np.arange(4, dtype=np.int64))
        assert rot == 7


@pytest.mark.slow
def test_ten_thousand_ue_smoke() -> None:
    """The vectorized path holds its invariants at 10k UEs (no scalar
    cross-check at this N -- the loop would dominate the suite's runtime;
    bit-identity is pinned at the battery sizes above)."""
    from repro.radio.gnb import GNodeB
    from repro.radio.population import UEPopulation, RandomVariable, Distribution
    from repro.simkernel.rng import RngRegistry

    pop = UEPopulation(
        n_cells=1,
        ues_per_cell=RandomVariable(10_000.0, Distribution.CONSTANT),
        network="5g-tdd",
        bandwidth_mhz=40.0,
    )
    cell = pop.realize_cells(RngRegistry(11), [0])[0]
    assert cell.n_ues == 10_000
    block = cell.uplink_matrix(np.random.default_rng(11), 5)
    assert block.shape == (10_000, 5)
    assert np.all(block >= 0.0)
    assert np.all(np.isfinite(block))
    # The PRB grid is conserved: per-round grants sum to the budget.
    grants = cell.grants_matrix(3)
    assert np.all(grants.sum(axis=1) == cell.carrier.n_prbs)
    # A 32-UE slice of the same population matches the object path exactly.
    small = pop.realize_cells(RngRegistry(11), [0])[0]
    ues = small.materialize(32)
    gnb = GNodeB("parity-10k", small.carrier, sdr=small.sdr)
    for ue in ues:
        gnb.attach(ue)
    sub = UEPopulation(
        n_cells=1,
        ues_per_cell=RandomVariable(32.0, Distribution.CONSTANT),
        network="5g-tdd",
        bandwidth_mhz=40.0,
    )
    # Same seed => the first 32 channel draws agree; compare object-path
    # samples against the population kernel run on those 32 columns.
    subcell = sub.realize_cells(RngRegistry(11), [0])[0]
    obj = gnb.uplink_samples(np.random.default_rng(7), 9)
    vec = subcell.uplink_matrix(np.random.default_rng(7), 9)
    for j in range(subcell.n_ues):
        assert np.array_equal(obj[ues[j].ue_id], vec[j])
