"""Calibrated CFD runtime model (Figure 7 + section 4.4).

The real testbed runs the full OpenFOAM case -- mesh generation, solve,
post-processing -- on 64-core cluster nodes; Figure 7 reports the
single-node speedup curve with a 64-core mean of **420.39 s** (SD 36.29 s,
10 runs per core count, whiskers +/- 2 SD). A laptop cannot impersonate
that hardware, so paper-scale timing comes from this model, calibrated to
the figure's anchor and shaped by the standard decomposition cost
structure:

    T(cores, nodes) = T_mesh + T_prepost(nodes) + T_solve(cores, nodes)

    T_solve = W / cores + c_intra * (min(cores, cpn) - 1)^0.6
                         + c_inter * (nodes - 1)^1.5 * cores^0.3

* ``T_mesh`` -- serial mesh generation (blockMesh/snappyHexMesh);
* ``T_prepost`` -- input-file generation + reconstruction/rendering;
  grows with node count (file distribution, reconstructPar across hosts),
  which is why the *total application* slows down on more than one node
  even though ``T_solve`` is fastest on 2 nodes (section 4.4);
* ``W`` -- the parallelizable solve work;
* the intra-node term is memory-bandwidth contention, the inter-node term
  interconnect halo traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.simkernel.streams import CFD_RUNTIME

if TYPE_CHECKING:
    from repro.simkernel.engine import Engine


def runtime_rng(engine: Engine) -> np.random.Generator:
    """The CFD runtime-sampling stream, drawn by its owning package.

    Callers composing a fabric pass this generator into
    :meth:`CfdPerformanceModel.sample_total_time` instead of naming the
    ``cfd.runtime`` stream themselves (the stream owner test flags
    foreign draws).
    """
    return engine.rng(CFD_RUNTIME)


#: Figure 7's 64-core anchor.
FIG7_ANCHOR_MEAN_S = 420.39
FIG7_ANCHOR_STD_S = 36.29


@dataclass(frozen=True)
class CfdPerformanceModel:
    """Runtime model for the full CFD application.

    Defaults are calibrated so ``total_time(64, 1) == 420.4 s`` and the
    relative run-to-run noise matches the paper's 36.29/420.39.
    """

    mesh_time_s: float = 120.0
    prepost_base_s: float = 60.0
    prepost_per_extra_node_s: float = 80.0
    solve_work_core_s: float = 8448.0
    intra_node_coeff: float = 9.0
    inter_node_coeff: float = 10.0
    cores_per_node: int = 64
    noise_cv: float = FIG7_ANCHOR_STD_S / FIG7_ANCHOR_MEAN_S

    def __post_init__(self) -> None:
        if self.cores_per_node < 1:
            raise ValueError("cores_per_node must be >= 1")
        for name in (
            "mesh_time_s", "prepost_base_s", "solve_work_core_s",
            "intra_node_coeff", "inter_node_coeff",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    # -- components -------------------------------------------------------------

    def solve_time(self, cores: int, nodes: int = 1) -> float:
        """OpenFOAM solver wall-clock (decomposed run only)."""
        self._check(cores, nodes)
        per_node = min(cores, self.cores_per_node)
        t = self.solve_work_core_s / cores
        t += self.intra_node_coeff * max(per_node - 1, 0) ** 0.6
        t += self.inter_node_coeff * max(nodes - 1, 0) ** 1.5 * cores**0.3
        return t

    def prepost_time(self, nodes: int = 1) -> float:
        """Serial input generation + output reconstruction/rendering."""
        if nodes < 1:
            raise ValueError("nodes must be >= 1")
        return self.prepost_base_s + self.prepost_per_extra_node_s * (nodes - 1)

    def total_time(self, cores: int, nodes: int = 1) -> float:
        """Full application wall-clock: mesh + solve + pre/post."""
        return self.mesh_time_s + self.solve_time(cores, nodes) + self.prepost_time(nodes)

    def sample_total_time(
        self, cores: int, rng: np.random.Generator, nodes: int = 1, n: int = 1
    ) -> np.ndarray:
        """Draw noisy run times (lognormal, CV matching the paper)."""
        mean = self.total_time(cores, nodes)
        sigma2 = np.log(1.0 + self.noise_cv**2)
        mu = np.log(mean) - 0.5 * sigma2
        return rng.lognormal(mu, np.sqrt(sigma2), size=n)

    def speedup(self, cores: int, nodes: int = 1) -> float:
        """Total-application speedup relative to one core."""
        return self.total_time(1, 1) / self.total_time(cores, nodes)

    def best_node_count_for_solver(self, max_nodes: int = 8) -> int:
        """Node count minimizing *solver* time at full nodes (paper: 2)."""
        times = {
            n: self.solve_time(n * self.cores_per_node, n)
            for n in range(1, max_nodes + 1)
        }
        return min(times, key=times.get)

    def best_node_count_for_application(self, max_nodes: int = 8) -> int:
        """Node count minimizing *total* time (paper: 1)."""
        times = {
            n: self.total_time(n * self.cores_per_node, n)
            for n in range(1, max_nodes + 1)
        }
        return min(times, key=times.get)

    def sustained_interval_s(self, cores: int = 64) -> float:
        """Back-to-back cadence on dedicated cores: "one simulation ...
        approximately every 7 minutes" on 64 cores."""
        return self.total_time(cores, 1)

    @staticmethod
    def _check(cores: int, nodes: int) -> None:
        if cores < 1:
            raise ValueError(f"cores must be >= 1: {cores}")
        if nodes < 1:
            raise ValueError(f"nodes must be >= 1: {nodes}")
        if cores < nodes:
            raise ValueError(f"{cores} cores cannot span {nodes} nodes")
