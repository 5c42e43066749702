"""ShardPlan: partitioning, fault routing, and the barrier schedule."""

import pytest

from repro.parallel import CellFault, ShardPlan, shard_stream


class TestBuild:
    def test_even_split_is_contiguous(self):
        plan = ShardPlan.build(8, 4)
        assert plan.assignments == ((0, 1), (2, 3), (4, 5), (6, 7))

    def test_uneven_split_front_loads_remainder(self):
        plan = ShardPlan.build(7, 3)
        sizes = [len(cells) for cells in plan.assignments]
        assert sum(sizes) == 7
        assert max(sizes) - min(sizes) <= 1
        # Contiguous and complete.
        flat = [c for cells in plan.assignments for c in cells]
        assert flat == list(range(7))

    def test_single_worker_owns_everything(self):
        plan = ShardPlan.build(5, 1)
        assert plan.assignments == ((0, 1, 2, 3, 4),)

    def test_one_cell_per_worker(self):
        plan = ShardPlan.build(4, 4)
        assert plan.assignments == ((0,), (1,), (2,), (3,))

    def test_more_workers_than_cells_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ShardPlan.build(2, 3)

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            ShardPlan.build(2, 0)


class TestOwnership:
    def test_owner_of_maps_every_cell(self):
        plan = ShardPlan.build(10, 3)
        for worker, cells in enumerate(plan.assignments):
            for cell in cells:
                assert plan.owner_of(cell) == worker

    def test_owner_of_unknown_cell_raises(self):
        plan = ShardPlan.build(4, 2)
        with pytest.raises(ValueError):
            plan.owner_of(4)


class TestFaultRouting:
    def test_faults_route_to_owning_worker(self):
        plan = ShardPlan.build(6, 3)
        faults = (
            CellFault(cell_index=5, window=0),
            CellFault(cell_index=0, window=1),
            CellFault(cell_index=5, window=2),
        )
        routed = plan.route_faults(faults)
        assert len(routed) == 3
        assert [f.cell_index for f in routed[0]] == [0]
        assert routed[1] == ()
        # Per-worker order preserves submission order.
        assert [f.window for f in routed[2]] == [0, 2]

    def test_fault_on_unknown_cell_raises(self):
        plan = ShardPlan.build(2, 1)
        with pytest.raises(ValueError):
            plan.route_faults((CellFault(cell_index=7, window=0),))


class TestSyncWindows:
    def test_decoupled_shards_use_full_window(self):
        # Shards never receive, so nothing shortens the window: one
        # barrier per sampling window.
        plan = ShardPlan.build(4, 2)
        assert plan.barrier_times(40.0, 10.0) == (10.0, 20.0, 30.0, 40.0)

    def test_barrier_times_end_exactly_at_horizon(self):
        plan = ShardPlan.build(4, 2)
        barriers = plan.barrier_times(30.0, 10.0)
        assert barriers[-1] == 30.0
        assert list(barriers) == sorted(barriers)
        assert barriers == (10.0, 20.0, 30.0)

    def test_partial_last_window_ends_at_the_horizon(self):
        plan = ShardPlan.build(2, 2)
        assert plan.barrier_times(1.0, 0.25) == (0.25, 0.5, 0.75, 1.0)
        assert plan.barrier_times(1.0, 0.3) == (0.3, 0.6, 0.8999999999999999, 1.0)

    def test_nonpositive_window_rejected(self):
        plan = ShardPlan.build(2, 2)
        with pytest.raises(ValueError, match="window_s"):
            plan.barrier_times(10.0, 0.0)


class TestStreamNaming:
    def test_stream_names_keyed_by_cell_not_worker(self):
        assert shard_stream(3, "radio") == "shard.cell003.radio"
        assert shard_stream(42, "channel") == "shard.cell042.channel"

    def test_fault_validation(self):
        with pytest.raises(ValueError):
            CellFault(cell_index=-1, window=0)
        with pytest.raises(ValueError):
            CellFault(cell_index=0, window=-1)
        with pytest.raises(ValueError):
            CellFault(cell_index=0, window=0, derate=-0.5)
