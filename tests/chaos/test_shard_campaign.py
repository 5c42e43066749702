"""Declarative shard-chaos campaigns: routing and construction."""

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
