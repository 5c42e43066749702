"""Fabric configuration: the six values a caller sets.

:class:`FabricConfig` holds what runs actually vary. The paper's other
operating points have one definition each: where a component already
defaults to the paper's value (Laminar's 6-reading window, alpha = 0.05 and
2-of-3 vote; the station grid's 4 interior stations; the pilot placement's
64-core tasks, 2 MB node threshold and 8x walltime; the twin's residual
threshold and calibration rate), that default is it. The four with no
component default are named here:

* :data:`DUTY_CYCLE_S` -- Laminar's 30-minute duty cycle, which is also the
  validity horizon of a CFD result (sections 4.2 and 4.4);
* :data:`HPC_NODES` -- the ND CRC partition the pilots run on (section
  3.6; the paper gives no size, and the ``nd_crc`` preset defaults to 24);
* :data:`TWIN_SOLVER` -- the laptop-scale solve behind the CFD step of
  Fig. 3 that feeds the digital twin (section 4.4 times the 64-core run
  it stands in for);
* :data:`RADIO_BANDWIDTH_MHZ` -- the 40 MHz 5G TDD production cell the
  farm's gateway UE attaches to (section 4.1, Figs. 4 and 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cfd.mesh import StructuredMesh
from repro.cfd.solver import SolverConfig
from repro.chaos.policies import FabricPolicies

#: Laminar's change-detection cadence, and how long a CFD result stays valid.
DUTY_CYCLE_S = 1800.0

#: Nodes in the ND CRC partition the pilots and the background load share.
HPC_NODES = 8

#: 200 steps at dt=0.1 (20 s of flow) do *not* reach a quasi-steady
#: state on the twin mesh. KE plateaus early because the free stream
#: dominates it, long before the interior settles: on the four seed-3
#: ``fig3_8h`` solves, the interior station probes end 31-119% away
#: from their 1,600-step state, and stay within 5% of it only after
#: ~400-1,200 steps (measured in ROADMAP.md, item 2, which owns the
#: fix). The twin's per-station ratio calibration absorbs that bias.
#: The pressure solve is 5 fixed red-black SOR sweeps: its final
#: divergence is at or below that of the 40 Jacobi sweeps it replaced,
#: in 10 half-passes over half the cells each (docs/calibration.md).
TWIN_SOLVER = SolverConfig(dt=0.1, n_steps=200, poisson_iterations=5)

#: Carrier bandwidth of the farm's 5G TDD cell.
RADIO_BANDWIDTH_MHZ = 40.0


@dataclass(frozen=True)
class FabricConfig:
    """End-to-end configuration.

    Defaults follow the paper: weather stations report every 300 s, the
    HPC side carries no background load, and pilots go to ND CRC alone.
    """

    seed: int = 0
    telemetry_interval_s: float = 300.0
    background_jobs_per_hour: float = 0.0
    #: Place pilots across all three facilities (ND CRC, Anvil, Stampede3)
    #: instead of ND only -- the section 4.3 future-work deployment.
    multi_site: bool = False
    #: The twin's CFD mesh. It must resolve the structure interior
    #: vertically: with dz = 2.5 m the 9 m screen house spans ground cell
    #: + two interior layers + roof cell.
    twin_mesh: StructuredMesh = field(
        default_factory=lambda: StructuredMesh(14, 14, 12, lx=140.0, ly=140.0, lz=30.0)
    )
    #: Retry/timeout/backoff policies per layer (see
    #: :mod:`repro.chaos.policies`). The defaults reproduce the pre-policy
    #: constants exactly; chaos campaigns typically pass
    #: ``RESILIENT_POLICIES`` to add the pilot watchdog.
    policies: FabricPolicies = field(default_factory=FabricPolicies)

    def __post_init__(self) -> None:
        for name in ("telemetry_interval_s", "background_jobs_per_hour"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite: {value}")
        if self.telemetry_interval_s <= 0:
            raise ValueError(
                f"telemetry_interval_s must be positive: {self.telemetry_interval_s}"
            )
        if self.background_jobs_per_hour < 0:
            raise ValueError(
                f"background_jobs_per_hour must be >= 0: "
                f"{self.background_jobs_per_hour}"
            )
