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
parked/flushed/in-flight ledger whether the site shares a worker with
the hub or not. The determinism battery in
``tests/parallel/test_fabric_sharded_determinism.py`` pins this.

An empty campaign routes nothing at all (the bit-identical guarantee
mirroring :class:`~repro.chaos.campaign.ChaosCampaign`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    @classmethod
    def randomized(
        cls,
        rng: np.random.Generator,
        n_cells: int,
        n_windows: int,
        n_derates: int = 2,
        n_severances: int = 1,
        max_outage_windows: int = 3,
    ) -> "ShardChaosCampaign":
        """Draw a reproducible campaign from a caller-provided stream.

        The generator is passed in (never constructed here -- REPRO201)
        so campaigns drawn from an engine's named ``"chaos"`` stream are
        a function of the master seed alone. Windows are drawn so every
        severance both starts and ends inside the run.
        """
        if n_cells < 1:
            raise ValueError(f"n_cells must be >= 1: {n_cells}")
        if n_windows < 1:
            raise ValueError(f"n_windows must be >= 1: {n_windows}")
        if max_outage_windows < 1:
            raise ValueError(
                f"max_outage_windows must be >= 1: {max_outage_windows}"
            )
        faults = tuple(
            CellFault(
                cell_index=int(rng.integers(0, n_cells)),
                window=int(rng.integers(0, n_windows)),
                derate=float(rng.uniform(0.2, 0.8)),
            )
            for _ in range(n_derates)
        )
        link_faults = []
        for _ in range(n_severances):
            start = int(rng.integers(0, n_windows))
            length = int(rng.integers(1, max_outage_windows + 1))
            end = min(start + length - 1, n_windows - 1)
            link_faults.append(
                LinkFault(
                    cell_index=int(rng.integers(0, n_cells)),
                    start_window=start,
                    end_window=end,
                )
            )
        return cls(faults=faults, link_faults=tuple(link_faults))

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
