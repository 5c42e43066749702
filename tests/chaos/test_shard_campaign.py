"""Declarative shard-chaos campaigns: routing, reproducibility, bounds."""

import numpy as np
import pytest

from repro.chaos import ShardChaosCampaign
from repro.parallel import CellFault, LinkFault, ShardPlan

pytestmark = pytest.mark.filterwarnings("error")


def _campaign():
    return ShardChaosCampaign(
        faults=(
            CellFault(cell_index=0, window=1, derate=0.5),
            CellFault(cell_index=5, window=0, derate=0.25),
        ),
        link_faults=(LinkFault(cell_index=3, start_window=1, end_window=2),),
    )


class TestRouting:
    def test_faults_land_on_the_owning_worker(self):
        plan = ShardPlan.build(8, 4)  # blocks (0,1) (2,3) (4,5) (6,7)
        faults, link_faults = _campaign().routed(plan)
        assert [len(f) for f in faults] == [1, 0, 1, 0]
        assert faults[0][0].cell_index == 0
        assert faults[2][0].cell_index == 5
        assert [len(f) for f in link_faults] == [0, 1, 0, 0]
        assert link_faults[1][0].cell_index == 3

    def test_single_worker_gets_everything(self):
        plan = ShardPlan.build(8, 1)
        faults, link_faults = _campaign().routed(plan)
        assert len(faults[0]) == 2
        assert len(link_faults[0]) == 1

    def test_empty_campaign_routes_nothing(self):
        plan = ShardPlan.build(8, 2)
        faults, link_faults = ShardChaosCampaign().routed(plan)
        assert faults == ((), ())
        assert link_faults == ((), ())

    def test_n_faults_counts_both_kinds(self):
        assert _campaign().n_faults == 3
        assert ShardChaosCampaign().n_faults == 0


class TestSeveredLink:
    def test_classmethod_builds_one_link_fault(self):
        campaign = ShardChaosCampaign.severed_link(4, 2, 5)
        assert campaign.faults == ()
        assert campaign.link_faults == (LinkFault(4, 2, 5),)


class TestRandomized:
    def test_same_stream_same_campaign(self):
        a = ShardChaosCampaign.randomized(
            np.random.default_rng(42), n_cells=8, n_windows=6
        )
        b = ShardChaosCampaign.randomized(
            np.random.default_rng(42), n_cells=8, n_windows=6
        )
        assert a == b

    def test_different_stream_different_campaign(self):
        a = ShardChaosCampaign.randomized(
            np.random.default_rng(1), n_cells=8, n_windows=6
        )
        b = ShardChaosCampaign.randomized(
            np.random.default_rng(2), n_cells=8, n_windows=6
        )
        assert a != b

    def test_draws_respect_the_scenario_bounds(self):
        campaign = ShardChaosCampaign.randomized(
            np.random.default_rng(3),
            n_cells=4,
            n_windows=5,
            n_derates=10,
            n_severances=10,
            max_outage_windows=3,
        )
        for fault in campaign.faults:
            assert 0 <= fault.cell_index < 4
            assert 0 <= fault.window < 5
            assert 0.2 <= fault.derate <= 0.8
        for link_fault in campaign.link_faults:
            assert 0 <= link_fault.cell_index < 4
            assert 0 <= link_fault.start_window <= link_fault.end_window < 5

    def test_degenerate_parameters_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ShardChaosCampaign.randomized(rng, n_cells=0, n_windows=5)
        with pytest.raises(ValueError):
            ShardChaosCampaign.randomized(rng, n_cells=4, n_windows=0)
        with pytest.raises(ValueError):
            ShardChaosCampaign.randomized(
                rng, n_cells=4, n_windows=5, max_outage_windows=0
            )
