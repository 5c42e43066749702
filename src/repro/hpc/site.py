"""HPC sites: cluster + batch-system skin + module environment + load.

A site wraps a :class:`~repro.hpc.cluster.Cluster` with the two things that
differ across the paper's facilities: the batch system dialect (UGE's
``qsub`` vs. Slurm's ``sbatch``) and the software-module environment.
:class:`QueueLoadGenerator` injects synthetic background jobs to produce the
queue-delay regimes of section 4.4 ("the queueing delay at Notre Dame varied
from zero to 24 hours at various points, and other facilities were no
different").
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Generator

from repro.hpc.cluster import Cluster
from repro.hpc.job import Job
from repro.hpc.modules import ModuleSystem, RenderStrategy, resolve_render_environment
from repro.simkernel import Engine
from repro.simkernel.streams import hpc_background_load_stream


class BatchSystem(Enum):
    """Batch scheduler families seen across the three sites."""

    UGE = "uge"      # Univa/Altair Grid Engine (ND CRC; qsub)
    SLURM = "slurm"  # Anvil, Stampede3 (sbatch)

    @property
    def submit_command(self) -> str:
        return {"uge": "qsub", "slurm": "sbatch"}[self.value]


@dataclass
class HpcSite:
    """One facility."""

    name: str
    cluster: Cluster
    batch_system: BatchSystem
    modules: ModuleSystem

    @property
    def engine(self) -> Engine:
        return self.cluster.engine

    def submit(self, job: Job) -> Job:
        """Submit through the site's batch system (dialect is cosmetic --
        the point of the portability layer is that xGFabric code above this
        line never needs to know which dialect it is)."""
        return self.cluster.submit(job)

    def render_strategy(self) -> RenderStrategy:
        """How this site rasterizes OpenFOAM's VTK output (section 4.3)."""
        return resolve_render_environment(self.modules)

    def setup_environment(self) -> list[str]:
        """Load the simulation's software stack; returns loaded module keys.

        Raises :class:`~repro.hpc.modules.ModuleError` when a site lacks a
        requirement -- the check the paper's per-site scripts perform.
        """
        self.modules.purge()
        self.modules.load("openfoam")
        self.modules.load("paraview")
        self.modules.load("miniconda")
        return self.modules.loaded()


class QueueLoadGenerator:
    """Synthetic background load producing realistic queue delays.

    Jobs arrive as a Poisson process; node counts and runtimes are drawn so
    that offered load can be swept from "empty queue" (zero delay) to
    saturation (daylong delays).

    Parameters
    ----------
    site:
        Target site.
    arrival_rate_per_hour:
        Mean background-job arrival rate.
    mean_job_nodes / mean_job_hours:
        Job size and duration distribution means (geometric / exponential).

    The arrival stream is keyed by *site name*
    (``hpc.background-load.<site>``): generators for different sites on
    one engine draw from independent streams, so adding a second site's
    load never perturbs the first site's schedule.
    """

    def __init__(
        self,
        site: HpcSite,
        arrival_rate_per_hour: float,
        mean_job_nodes: float = 4.0,
        mean_job_hours: float = 3.0,
    ) -> None:
        if arrival_rate_per_hour < 0:
            raise ValueError("negative arrival rate")
        if mean_job_nodes < 1.0 or mean_job_hours <= 0:
            raise ValueError("job size/duration means out of range")
        self.site = site
        self.arrival_rate_per_hour = arrival_rate_per_hour
        self.mean_job_nodes = mean_job_nodes
        self.mean_job_hours = mean_job_hours
        self._rng = site.engine.rng(hpc_background_load_stream(site.name))
        self._count = 0

    def offered_load(self) -> float:
        """Expected fraction of cluster capacity the load consumes."""
        node_hours_per_hour = (
            self.arrival_rate_per_hour * self.mean_job_nodes * self.mean_job_hours
        )
        return node_hours_per_hour / self.site.cluster.total_nodes

    def start(self, duration_s: float) -> None:
        """Begin injecting jobs for ``duration_s`` of simulated time."""
        if self.arrival_rate_per_hour == 0:
            return
        self.site.engine.process(
            self._body(duration_s), name=f"bg-load:{self.site.name}"
        )

    def _body(self, duration_s: float) -> Generator:
        engine = self.site.engine
        end = engine.now + duration_s
        rate_per_s = self.arrival_rate_per_hour / 3600.0
        while engine.now < end:
            gap = float(self._rng.exponential(1.0 / rate_per_s))
            yield engine.timeout(gap)
            if engine.now >= end:
                break
            nodes = min(
                int(self._rng.geometric(1.0 / self.mean_job_nodes)),
                self.site.cluster.total_nodes,
            )
            runtime = float(self._rng.exponential(self.mean_job_hours * 3600.0))
            runtime = max(runtime, 60.0)
            walltime = min(runtime * 1.3 + 600.0, self.site.cluster.max_walltime_s)
            runtime = min(runtime, walltime)
            self._count += 1
            self.site.submit(
                Job(
                    name=f"bg-{self.site.name}-{self._count}",
                    nodes=nodes,
                    walltime_s=walltime,
                    runtime_s=runtime,
                    user="background",
                )
            )

    @property
    def jobs_injected(self) -> int:
        return self._count
