"""Cross-layer fault injectors.

Each injector is one schedulable fault: the campaign runner calls
:meth:`~FaultInjection.inject` at ``start_s``, :meth:`~FaultInjection.revert`
after ``duration_s``, then polls :meth:`~FaultInjection.recovered` until the
layer is observably healthy again. Injectors mutate the fabric through its
public layer APIs only (partition schedules, node power switches, UE
detach/recover, cluster node failure), so the faults exercise exactly the
recovery paths a real deployment has.

Injector instances carry per-run state (saved channel models, progress
snapshots) -- build a fresh list per campaign run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.fabric import XGFabric
    from repro.cspot.node import CSPOTNode


@dataclass
class FaultInjection:
    """Base fault: a named, scheduled injection on one layer.

    Attributes
    ----------
    start_s / duration_s:
        When the fault begins and how long its cause persists. A zero
        duration is an instantaneous fault (e.g. a session drop) whose
        whole story is the recovery.
    """

    start_s: float
    duration_s: float = 0.0
    name: str = ""
    layer: str = "generic"

    def __post_init__(self) -> None:
        if not (0 <= self.start_s < math.inf and 0 <= self.duration_s < math.inf):
            raise ValueError(
                f"fault schedule must be non-negative and finite: "
                f"start={self.start_s}, duration={self.duration_s}"
            )
        if not self.name:
            self.name = f"{self.layer}@{self.start_s:.0f}s"

    def inject(self, fabric: "XGFabric") -> None:
        raise NotImplementedError

    def revert(self, fabric: "XGFabric") -> None:
        """Remove the fault's cause. Default: nothing to undo."""

    def recovered(self, fabric: "XGFabric") -> bool:
        """Is the layer observably healthy again? Default: yes at revert."""
        return True

    # -- shared progress probes ------------------------------------------------

    def _snapshot_telemetry(self, fabric: "XGFabric") -> None:
        self._telemetry_mark = fabric.metrics.telemetry_sent

    def _telemetry_progressed(self, fabric: "XGFabric") -> bool:
        return fabric.metrics.telemetry_sent > getattr(
            self, "_telemetry_mark", 0
        )

    @staticmethod
    def _pilots_on_offer(fabric: "XGFabric") -> bool:
        """Does the hub's pilot placement, at any site, offer capacity?"""
        placement = fabric.hub.placement
        placement.retire_finished()
        return placement.nodes_available() > 0


@dataclass
class CspotPartitionInjector(FaultInjection):
    """Partition a CSPOT network path for the fault window."""

    src: str = "unl"
    dst: str = "ucsb"
    layer: str = "cspot"

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("a partition needs a positive duration")
        if not self.name:
            self.name = f"partition:{self.src}-{self.dst}@{self.start_s:.0f}s"
        super().__post_init__()

    def inject(self, fabric: "XGFabric") -> None:
        path = fabric.transport.path(self.src, self.dst)
        path.faults.add_outage(fabric.engine.now, self.duration_s)

    def revert(self, fabric: "XGFabric") -> None:
        # The window expires on its own; recovery is observed, not forced.
        self._snapshot_telemetry(fabric)

    def recovered(self, fabric: "XGFabric") -> bool:
        if "unl" in (self.src, self.dst):
            # Telemetry rides this path: healthy means new records land.
            return self._telemetry_progressed(fabric)
        return True


@dataclass
class CspotAckLossInjector(FaultInjection):
    """Raise i.i.d. ack loss on a path for the fault window."""

    src: str = "unl"
    dst: str = "ucsb"
    ack_loss_prob: float = 0.3
    layer: str = "cspot"

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("ack loss needs a positive duration")
        if not self.name:
            self.name = f"ack-loss:{self.src}-{self.dst}@{self.start_s:.0f}s"
        super().__post_init__()

    def inject(self, fabric: "XGFabric") -> None:
        faults = fabric.transport.path(self.src, self.dst).faults
        self._saved_prob = faults.ack_loss_prob
        faults.ack_loss_prob = self.ack_loss_prob

    def revert(self, fabric: "XGFabric") -> None:
        fabric.transport.path(self.src, self.dst).faults.ack_loss_prob = (
            self._saved_prob
        )


@dataclass
class NodePowerLossInjector(FaultInjection):
    """Power-cycle a CSPOT node; storage survives, in-flight work dies."""

    node: str = "ucsb"
    layer: str = "cspot"

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("a power loss needs a positive duration")
        if not self.name:
            self.name = f"power-loss:{self.node}@{self.start_s:.0f}s"
        super().__post_init__()

    def _target(self, fabric: "XGFabric") -> "CSPOTNode":
        try:
            return {
                "unl": fabric.farm.unl,
                "ucsb": fabric.hub.ucsb,
                "nd": fabric.hub.nd,
            }[self.node]
        except KeyError:
            raise ValueError(f"unknown CSPOT node {self.node!r}") from None

    def inject(self, fabric: "XGFabric") -> None:
        self._target(fabric).power_off()

    def revert(self, fabric: "XGFabric") -> None:
        self._target(fabric).power_on()
        self._snapshot_telemetry(fabric)

    def recovered(self, fabric: "XGFabric") -> bool:
        node = self._target(fabric)
        if not node.alive:
            return False
        if self.node in ("unl", "ucsb"):
            return self._telemetry_progressed(fabric)
        return True


@dataclass
class RadioFadeInjector(FaultInjection):
    """Fade the gateway UE's channel (CQI drop + widened fast fading)."""

    cqi_drop: float = 4.0
    fading_scale: float = 2.0
    layer: str = "radio"

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("a fade needs a positive duration")
        if not self.name:
            self.name = f"link-fade@{self.start_s:.0f}s"
        super().__post_init__()
        self._saved = None

    def inject(self, fabric: "XGFabric") -> None:
        ue = fabric.farm.ue
        self._saved = ue.channel
        ue.channel = ue.channel.degraded(self.cqi_drop, self.fading_scale)

    def revert(self, fabric: "XGFabric") -> None:
        if self._saved is not None:
            fabric.farm.ue.channel = self._saved


@dataclass
class UePowerLossInjector(FaultInjection):
    """The gateway UE loses power: radio detach + the 5G leg goes dark.

    The UNL-UCSB path carries telemetry through this UE, so the injector
    partitions it for the window; on revert the UE walks the full
    re-attach pipeline (re-register, fresh PDU session, radio attach).
    """

    layer: str = "radio"

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("a UE power loss needs a positive duration")
        if not self.name:
            self.name = f"ue-power-loss@{self.start_s:.0f}s"
        super().__post_init__()

    def inject(self, fabric: "XGFabric") -> None:
        fabric.farm.radio.detach_ue(fabric.farm.ue)
        fabric.transport.path("unl", "ucsb").faults.add_outage(
            fabric.engine.now, self.duration_s
        )

    def revert(self, fabric: "XGFabric") -> None:
        fabric.farm.radio.recover_ue(fabric.farm.ue)
        self._snapshot_telemetry(fabric)

    def recovered(self, fabric: "XGFabric") -> bool:
        return fabric.farm.ue.attached and self._telemetry_progressed(fabric)


@dataclass
class PduSessionDropInjector(FaultInjection):
    """The core drops the UE's registration and PDU session mid-run.

    An instantaneous control-plane fault: the user plane rejects traffic
    until the UE re-registers (idempotent) and opens a fresh session.
    """

    layer: str = "core5g"

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"pdu-session-drop@{self.start_s:.0f}s"
        super().__post_init__()

    def inject(self, fabric: "XGFabric") -> None:
        core = fabric.farm.radio.core
        imsi = fabric.farm.ue.sim.imsi
        if core.is_registered(imsi):
            core.deregister(imsi)

    def revert(self, fabric: "XGFabric") -> None:
        fabric.farm.radio.recover_ue(fabric.farm.ue)

    def recovered(self, fabric: "XGFabric") -> bool:
        return fabric.farm.ue.attached


@dataclass
class HpcNodeFailureInjector(FaultInjection):
    """``n_nodes`` ND cluster nodes crash; jobs that no longer fit die."""

    n_nodes: int = 1
    layer: str = "hpc"

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("a node failure needs a positive repair window")
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1: {self.n_nodes}")
        if not self.name:
            self.name = f"hpc-node-failure:{self.n_nodes}@{self.start_s:.0f}s"
        super().__post_init__()
        self.killed_jobs: list[str] = []
        self._failed_n = 0

    def inject(self, fabric: "XGFabric") -> None:
        cluster = fabric.hub.site.cluster
        # Concurrent failures stack; at least one node must survive.
        self._failed_n = min(self.n_nodes, cluster.total_nodes - 1)
        if self._failed_n <= 0:
            return
        killed = cluster.fail_nodes(self._failed_n)
        self.killed_jobs = sorted(j.name for j in killed)

    def revert(self, fabric: "XGFabric") -> None:
        if self._failed_n > 0:
            fabric.hub.site.cluster.restore_nodes(self._failed_n)

    def recovered(self, fabric: "XGFabric") -> bool:
        return self._pilots_on_offer(fabric)


@dataclass
class PilotPreemptionInjector(FaultInjection):
    """Preempt the most capable live pilot at any site.

    The victim is the live pilot with the most nodes, the newest on a
    tie; its placeholder job is killed on its own site's cluster.
    """

    layer: str = "pilot"

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"pilot-preemption@{self.start_s:.0f}s"
        super().__post_init__()
        self.preempted: Optional[str] = None

    def inject(self, fabric: "XGFabric") -> None:
        from repro.pilot.pilot import PilotState

        live = [
            p
            for p in fabric.hub.placement.pilots()
            if p.state in (PilotState.SUBMITTED, PilotState.ACTIVE)
        ]
        if not live:
            return
        victim = max(live, key=lambda p: (p.nodes, p.submit_time or 0.0))
        self.preempted = victim.name
        if victim.job is not None and not victim.job.is_terminal:
            victim.site.cluster.fail(victim.job)

    def recovered(self, fabric: "XGFabric") -> bool:
        return self.preempted is None or self._pilots_on_offer(fabric)


@dataclass
class QueueStormInjector(FaultInjection):
    """Burst-submit background jobs, deepening the batch queue."""

    n_jobs: int = 8
    nodes_per_job: int = 2
    job_runtime_s: float = 1800.0
    layer: str = "hpc"

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1: {self.n_jobs}")
        if not self.name:
            self.name = f"queue-storm:{self.n_jobs}@{self.start_s:.0f}s"
        super().__post_init__()
        self.submitted: list[str] = []

    def inject(self, fabric: "XGFabric") -> None:
        from repro.hpc.job import Job

        cluster = fabric.hub.site.cluster
        nodes = min(self.nodes_per_job, cluster.total_nodes)
        for i in range(self.n_jobs):
            job = Job(
                name=f"storm-{int(self.start_s)}-{i}",
                nodes=nodes,
                walltime_s=self.job_runtime_s * 1.25,
                runtime_s=self.job_runtime_s,
                user="chaos-storm",
            )
            cluster.submit(job)
            self.submitted.append(job.name)

    def recovered(self, fabric: "XGFabric") -> bool:
        # The storm has passed when none of its jobs still occupy the queue.
        cluster = fabric.hub.site.cluster
        names = set(self.submitted)
        live = [
            j
            for j in cluster.pending_jobs + cluster.running_jobs
            if j.name in names
        ]
        return not live
