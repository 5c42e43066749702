"""HPC facility simulation: clusters, batch schedulers, sites.

Substitutes the paper's three facilities -- Notre Dame's Center for Research
Computing (UGE), Purdue's Anvil and TACC's Stampede3 (Slurm) -- with a
cluster model whose behaviours are the ones the evaluation depends on:

* batch queueing with FCFS + conservative backfill (queue delays "varied
  from zero to 24 hours", section 4.4);
* per-site software-module heterogeneity (OpenFOAM/ParaView versions and
  graphics stacks) driving the portability layer of section 4.3;
* node/core accounting that the pilot layer (:mod:`repro.pilot`) builds on.
"""

from repro.hpc.job import Job, JobState
from repro.hpc.schedulers import BackfillScheduler, FcfsScheduler, Scheduler
from repro.hpc.cluster import Cluster, SubmitError
from repro.hpc.modules import (
    ModuleError,
    ModuleSystem,
    RenderStrategy,
    SoftwareModule,
    resolve_render_environment,
)
from repro.hpc.site import BatchSystem, HpcSite, QueueLoadGenerator
from repro.hpc.sites import anvil, nd_crc, stampede3, all_sites

__all__ = [
    "Job",
    "JobState",
    "Scheduler",
    "FcfsScheduler",
    "BackfillScheduler",
    "Cluster",
    "SubmitError",
    "SoftwareModule",
    "ModuleSystem",
    "ModuleError",
    "RenderStrategy",
    "resolve_render_environment",
    "BatchSystem",
    "HpcSite",
    "QueueLoadGenerator",
    "nd_crc",
    "anvil",
    "stampede3",
    "all_sites",
]
