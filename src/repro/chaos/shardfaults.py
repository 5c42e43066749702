"""Chaos campaigns over a *sharded* fabric: declarative, cell-routed.

The engine-attached injectors in :mod:`repro.chaos.faults` mutate one
live fabric; a sharded run has no single fabric object to mutate, so its
chaos surface is declarative instead: a :class:`ShardChaosCampaign` is a
set of :class:`~repro.parallel.plan.CellFault` (sensor derates) and
:class:`~repro.parallel.plan.LinkFault` (cross-shard CSPOT link
severances) that the coordinator routes to the workers owning the
faulted cells (:meth:`~repro.parallel.plan.ShardPlan.route_by_cell`).

Because every fault is keyed by ``(cell, window)`` -- never by worker --
a campaign's effect is worker-count-invariant by construction: severing
the link of a site that sits on a shard boundary produces the exact same
parked/sent/in-flight ledger whichever worker runs the site. The
determinism battery in ``tests/parallel/test_fabric_sharded_determinism.py``
pins this.

An empty campaign routes nothing at all (the bit-identical guarantee
mirroring :class:`~repro.chaos.campaign.ChaosCampaign`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.parallel.plan import CellFault, LinkFault, ShardPlan


@dataclass(frozen=True)
class ShardChaosCampaign:
    """Declarative faults for one sharded fabric run.

    Parameters
    ----------
    faults:
        Sensor-derate faults, each applied by the owning worker to the
        cell's own sample block.
    link_faults:
        Link severances, each applied by the worker owning the *sender*
        cell: transfers park locally while severed and flush in order at
        the first healthy window.
    """

    faults: tuple[CellFault, ...] = ()
    link_faults: tuple[LinkFault, ...] = ()

    @classmethod
    def severed_link(
        cls, cell_index: int, start_window: int, end_window: int
    ) -> "ShardChaosCampaign":
        """The canonical single-fault campaign: one site loses its uplink."""
        return cls(
            link_faults=(LinkFault(cell_index, start_window, end_window),)
        )

    def routed(
        self, plan: ShardPlan
    ) -> tuple[
        tuple[tuple[CellFault, ...], ...], tuple[tuple[LinkFault, ...], ...]
    ]:
        """Per-worker (faults, link_faults), routed by owning cell.

        Routing is total: every fault lands on exactly one worker.
        """
        return (
            plan.route_faults(self.faults),
            plan.route_link_faults(self.link_faults),
        )

    @property
    def n_faults(self) -> int:
        """Total faults the campaign will route."""
        return len(self.faults) + len(self.link_faults)
