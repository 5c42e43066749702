"""Fabric configuration with the paper's operating points as defaults."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cfd.mesh import StructuredMesh
from repro.cfd.solver import SolverConfig
from repro.chaos.policies import FabricPolicies


@dataclass(frozen=True)
class FabricConfig:
    """End-to-end configuration.

    Defaults follow the paper: weather stations report every 300 s; the
    Laminar change detector runs on a 30-minute duty cycle over 6-reading
    (30-minute) windows with 2-of-3 voting; CFD targets 64 cores where the
    full application takes ~420 s.
    """

    seed: int = 0
    # Sensor network.
    telemetry_interval_s: float = 300.0
    n_interior_stations: int = 4
    # Change detection.
    duty_cycle_s: float = 1800.0
    window_size: int = 6
    alpha: float = 0.05
    vote_threshold: int = 2
    #: Where the Laminar stages run ("unl" = inside the 5G network, "ucsb"
    #: = at the repository -- "in any combination"; the paper's study runs
    #: both at UCSB).
    test_host: str = "ucsb"
    vote_host: str = "ucsb"
    # HPC / pilot.
    hpc_nodes: int = 8
    cores_per_simulation: int = 64
    pilot_threshold_bytes: float = 2.0e6
    pilot_walltime_factor: float = 8.0
    background_jobs_per_hour: float = 0.0
    #: Place pilots across all three facilities (ND CRC, Anvil, Stampede3)
    #: instead of ND only -- the section 4.3 future-work deployment.
    multi_site: bool = False
    # Digital twin / CFD (laptop-scale solve driving the twin). The mesh
    # must resolve the structure interior vertically: with dz = 2.5 m the
    # 9 m screen house spans ground cell + two interior layers + roof cell.
    twin_mesh: StructuredMesh = field(
        default_factory=lambda: StructuredMesh(14, 14, 12, lx=140.0, ly=140.0, lz=30.0)
    )
    #: 200 steps at dt=0.1 (20 s of flow) do *not* reach a quasi-steady
    #: state on the twin mesh. KE plateaus early because the free stream
    #: dominates it, long before the interior settles: on the four seed-3
    #: ``fig3_8h`` solves, the interior station probes end 31-119% away
    #: from their 1,600-step state, and stay within 5% of it only after
    #: ~400-1,200 steps (measured in ROADMAP.md, item 2, which owns the
    #: fix). The twin's per-station ratio calibration absorbs that bias.
    #: The pressure solve is 5 fixed red-black SOR sweeps: its final
    #: divergence is at or below that of the 40 Jacobi sweeps it replaced,
    #: at under half the step cost.
    twin_solver: SolverConfig = field(
        default_factory=lambda: SolverConfig(
            dt=0.1, n_steps=200, poisson_iterations=5
        )
    )
    #: Breach residual threshold, ~3x the station wind-noise sigma so quiet
    #: operation rarely false-alarms while a full breach (~+0.35 x wind
    #: extra interior speed) clears it comfortably.
    residual_threshold_mps: float = 1.0
    calibration_alpha: float = 0.3
    # Radio (byte accounting through the production 5G network).
    include_radio: bool = True
    radio_bandwidth_mhz: float = 40.0
    #: Retry/timeout/backoff policies per layer (see
    #: :mod:`repro.chaos.policies`). The defaults reproduce the pre-policy
    #: constants exactly; chaos campaigns typically pass
    #: ``RESILIENT_POLICIES`` to add the pilot watchdog.
    policies: FabricPolicies = field(default_factory=FabricPolicies)

    def __post_init__(self) -> None:
        # alpha and calibration_alpha are range-checked below, which
        # already rejects NaN and infinity.
        for name in (
            "telemetry_interval_s", "duty_cycle_s", "pilot_threshold_bytes",
            "pilot_walltime_factor", "background_jobs_per_hour",
            "residual_threshold_mps", "radio_bandwidth_mhz",
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite: {value}")
        if self.telemetry_interval_s <= 0 or self.duty_cycle_s <= 0:
            raise ValueError("intervals must be positive")
        if self.window_size < 2:
            raise ValueError(f"window_size must be >= 2: {self.window_size}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha out of (0,1): {self.alpha}")
        if not 1 <= self.vote_threshold <= 3:
            raise ValueError(f"vote_threshold out of 1..3: {self.vote_threshold}")
        if self.cores_per_simulation < 1:
            raise ValueError("cores_per_simulation must be >= 1")
        if self.residual_threshold_mps <= 0:
            raise ValueError("residual threshold must be positive")
        if not 0.0 < self.calibration_alpha <= 1.0:
            raise ValueError("calibration_alpha out of (0,1]")

    @property
    def readings_needed(self) -> int:
        """Telemetry readings required before change detection can run."""
        return 2 * self.window_size
