"""Property suite for :class:`ShardPlan`: the partition's contract.

Hypothesis sweeps (n_cells, n_workers) pairs and fault sets; the plan
must always (1) assign every cell exactly once, (2) in contiguous
balanced blocks, (3) derive strictly increasing barrier times, one per
window and the horizon last, and (4) route faults totally -- every
fault to exactly the worker owning its cell.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import CellFault, LinkFault, ShardPlan


@st.composite
def plans(draw):
    n_cells = draw(st.integers(min_value=1, max_value=64))
    n_workers = draw(st.integers(min_value=1, max_value=n_cells))
    return ShardPlan.build(n_cells, n_workers)


@settings(max_examples=100, deadline=None)
@given(plan=plans())
def test_every_cell_assigned_exactly_once(plan):
    flat = [c for cells in plan.assignments for c in cells]
    assert sorted(flat) == list(range(plan.n_cells))
    assert len(flat) == len(set(flat))


@settings(max_examples=100, deadline=None)
@given(plan=plans())
def test_blocks_contiguous_and_balanced(plan):
    sizes = []
    for cells in plan.assignments:
        assert cells, "no worker may own zero cells"
        assert list(cells) == list(range(cells[0], cells[-1] + 1))
        sizes.append(len(cells))
    assert max(sizes) - min(sizes) <= 1
    # Blocks tile [0, n_cells) in worker order.
    for left, right in zip(plan.assignments, plan.assignments[1:]):
        assert right[0] == left[-1] + 1


@settings(max_examples=100, deadline=None)
@given(plan=plans())
def test_owner_of_agrees_with_assignments(plan):
    for w, cells in enumerate(plan.assignments):
        for c in cells:
            assert plan.owner_of(c) == w
    with pytest.raises(ValueError):
        plan.owner_of(plan.n_cells)
    with pytest.raises(ValueError):
        plan.owner_of(-1)


@settings(max_examples=100, deadline=None)
@given(
    plan=plans(),
    horizon_s=st.floats(min_value=0.5, max_value=500.0),
    window_s=st.floats(min_value=0.01, max_value=50.0),
)
def test_barriers_strictly_increase_to_the_horizon(plan, horizon_s, window_s):
    barriers = plan.barrier_times(horizon_s, window_s)
    assert barriers, "at least the horizon barrier must exist"
    assert barriers[-1] == horizon_s
    assert all(b2 > b1 for b1, b2 in zip(barriers, barriers[1:]))
    # Interior barriers sit on window multiples below the horizon.
    for k, barrier in enumerate(barriers[:-1], start=1):
        assert barrier == k * window_s
        assert barrier < horizon_s


@st.composite
def plans_with_faults(draw):
    plan = draw(plans())
    cells = st.integers(min_value=0, max_value=plan.n_cells - 1)
    faults = draw(
        st.lists(
            st.builds(
                CellFault,
                cell_index=cells,
                window=st.integers(min_value=0, max_value=5),
                derate=st.floats(min_value=0.0, max_value=1.0),
            ),
            max_size=12,
        )
    )
    link_faults = draw(
        st.lists(
            st.builds(
                lambda c, s, d: LinkFault(c, s, s + d),
                c=cells,
                s=st.integers(min_value=0, max_value=5),
                d=st.integers(min_value=0, max_value=5),
            ),
            max_size=12,
        )
    )
    return plan, faults, link_faults


@settings(max_examples=100, deadline=None)
@given(args=plans_with_faults())
def test_fault_routing_is_total_over_cells(args):
    plan, faults, link_faults = args
    for routed, declared in (
        (plan.route_faults(faults), faults),
        (plan.route_link_faults(link_faults), link_faults),
    ):
        assert len(routed) == plan.n_workers
        # Total: every declared fault appears on exactly one worker ...
        flat = [f for worker_faults in routed for f in worker_faults]
        assert sorted(map(id, flat)) == sorted(map(id, declared))
        # ... and that worker owns the faulted cell, in declaration order.
        for w, worker_faults in enumerate(routed):
            expected = [
                f for f in declared if plan.owner_of(f.cell_index) == w
            ]
            assert list(worker_faults) == expected


def test_build_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        ShardPlan.build(4, 0)
    with pytest.raises(ValueError):
        ShardPlan.build(4, 5)


def test_link_fault_validation_and_severance():
    fault = LinkFault(cell_index=2, start_window=1, end_window=3)
    assert not fault.severs(0)
    assert all(fault.severs(w) for w in (1, 2, 3))
    assert not fault.severs(4)
    with pytest.raises(ValueError):
        LinkFault(cell_index=-1, start_window=0, end_window=0)
    with pytest.raises(ValueError):
        LinkFault(cell_index=0, start_window=-1, end_window=0)
    with pytest.raises(ValueError):
        LinkFault(cell_index=0, start_window=3, end_window=2)
