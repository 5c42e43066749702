"""Multi-site pilot placement.

Section 4.3: "Future deployments of xGFabric will make use of varying HPC
sites in order to exploit the changing availability and performance of
different facilities." This module builds that deployment: a
:class:`MultiSitePilotController` that estimates each facility's current
responsiveness and places pilots on the best one, failing over when a
site's queue deepens or its pilots expire.

Site scoring is deliberately simple and observable: expected response =
estimated queue delay (from the site's recent queue-wait statistics and
instantaneous free capacity) + the task's modeled runtime on that site's
node shape. No oracle knowledge -- only what a real controller could poll
from ``squeue``/``qstat``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cfd.perfmodel import CfdPerformanceModel
from repro.hpc.site import HpcSite
from repro.obs.trace import Tracer
from repro.pilot.controller import PilotController
from repro.pilot.pilot import Pilot
from repro.simkernel import Engine


@dataclass(frozen=True)
class SiteScore:
    """One facility's estimated responsiveness for the next task."""

    site_name: str
    free_nodes: int
    est_queue_delay_s: float
    est_runtime_s: float

    @property
    def est_response_s(self) -> float:
        return self.est_queue_delay_s + self.est_runtime_s


class MultiSitePilotController:
    """Places pilots across one or more facilities.

    Parameters
    ----------
    engine:
        Shared simulation engine (all sites must live on it).
    sites:
        Candidate facilities. The first is the home site, where
        :meth:`bootstrap` places the paper's initial pilot.
    cores_per_task:
        Core count the CFD task wants (64 in the paper).
    threshold_bytes / walltime_factor:
        Passed through to each site's per-site controller (Eqs 1-4 still
        govern sizing within a site).
    tracer:
        Passed through to each per-site controller, which records its
        decisions and submissions.
    """

    def __init__(
        self,
        engine: Engine,
        sites: dict[str, HpcSite],
        cores_per_task: int = 64,
        threshold_bytes: float = 2.0e6,
        walltime_factor: float = 8.0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if not sites:
            raise ValueError("need at least one site")
        if cores_per_task < 1:
            raise ValueError("cores_per_task must be >= 1")
        self.engine = engine
        self.sites = dict(sites)
        self.cores_per_task = cores_per_task
        self._models = {
            name: CfdPerformanceModel(cores_per_node=site.cluster.cores_per_node)
            for name, site in sites.items()
        }
        self._controllers = {
            name: PilotController(
                engine,
                site,
                threshold_bytes=threshold_bytes,
                task_runtime_estimate_s=self._models[name].total_time(
                    cores_per_task
                ),
                walltime_factor=walltime_factor,
                tracer=tracer,
            )
            for name, site in sites.items()
        }
        self.placements: list[tuple[float, str]] = []

    # -- scoring ----------------------------------------------------------------

    def nodes_for_task(self, site: HpcSite) -> int:
        return max(
            1, -(-self.cores_per_task // site.cluster.cores_per_node)
        )

    def score(self, name: str) -> SiteScore:
        """Estimate a site's response time for the next task."""
        site = self.sites[name]
        nodes_needed = self.nodes_for_task(site)
        free = site.cluster.free_nodes
        mean_wait, _ = site.cluster.queue_wait_stats()
        controller = self._controllers[name]
        if controller.best_pilot_for(nodes_needed) is not None:
            est_delay = 0.0  # a warm pilot answers immediately
        elif free >= nodes_needed and not site.cluster.pending_jobs:
            est_delay = 0.0  # empty machine: a fresh pilot starts at once
        else:
            # No free capacity: recent queue behaviour is the best estimate.
            est_delay = max(mean_wait, 300.0)
        runtime = self._models[name].total_time(
            self.cores_per_task, nodes=nodes_needed
        )
        return SiteScore(
            site_name=name,
            free_nodes=free,
            est_queue_delay_s=est_delay,
            est_runtime_s=runtime,
        )

    def rank_sites(self) -> list[SiteScore]:
        """All sites, best (lowest estimated response) first."""
        scores = [self.score(name) for name in self.sites]
        return sorted(scores, key=lambda s: (s.est_response_s, s.site_name))

    # -- placement ---------------------------------------------------------------

    def acquire_pilot(self, data_size_bytes: float) -> tuple[str, Pilot]:
        """Pick the best site, run its Eq (1)-(4) controller, return the
        pilot to submit the task to."""
        best = self.rank_sites()[0]
        controller = self._controllers[best.site_name]
        controller.retire_finished()
        controller.on_data(data_size_bytes)
        nodes_needed = self.nodes_for_task(self.sites[best.site_name])
        pilot = controller.best_pilot_for(nodes_needed)
        if pilot is None:
            pilot = controller.pilots[-1]
        self.placements.append((self.engine.now, best.site_name))
        return best.site_name, pilot

    def bootstrap(self) -> Pilot:
        """Submit the paper's initial single-node pilot at the home site."""
        return next(iter(self._controllers.values())).bootstrap()

    def retire_finished(self) -> int:
        """Drop terminal pilots at every site; returns the count dropped."""
        return sum(c.retire_finished() for c in self._controllers.values())

    def nodes_available(self) -> int:
        """Eq (2) summed over every site."""
        return sum(c.nodes_available() for c in self._controllers.values())

    def pilots(self) -> list[Pilot]:
        """Every site's tracked pilots, site by site."""
        return [p for c in self._controllers.values() for p in c.pilots]

    def controller_for(self, name: str) -> PilotController:
        try:
            return self._controllers[name]
        except KeyError:
            raise KeyError(
                f"unknown site {name!r}; have {sorted(self._controllers)}"
            ) from None

    def placement_counts(self) -> dict[str, int]:
        counts = {name: 0 for name in self.sites}
        for _, name in self.placements:
            counts[name] += 1
        return counts
