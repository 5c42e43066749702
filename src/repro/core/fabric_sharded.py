"""The sharded fabric scenario: multi-site xGFabric across workers.

:class:`ShardedFabricScenario` is the fabric counterpart of
:class:`repro.parallel.coordinator.ShardedScaleScenario`: instead of a
pure radio sampling workload it partitions a full multi-site xGFabric --
farm sites with sensors and CSPOT nodes reporting into one fabric hub --
across workers under the conservative window-barrier protocol, with
cross-shard CSPOT transfers carried as
:class:`~repro.cspot.boundary.FabricEnvelope` messages through the
coordinator's :class:`~repro.parallel.envelope.FabricBus`.

The sync quantum is bounded by
:data:`~repro.parallel.plan.CSPOT_TRANSFER_FLOOR_S` (the paper's ~200 ms
sensor->HPC transfer floor): no message can cross the 5G + backhaul path
faster than one quantum, so delivering at the next barrier is
conservatively correct and the merged
:class:`~repro.parallel.report.FabricParallelReport` is byte-identical
for any worker count and either executor -- including runs where a
:class:`~repro.chaos.shardfaults.ShardChaosCampaign` severs a
cross-shard CSPOT link mid-run (the determinism battery in
``tests/parallel/test_fabric_sharded_determinism.py`` pins all of it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.chaos.shardfaults import ShardChaosCampaign
from repro.cspot.boundary import CrossShardLink
from repro.parallel.coordinator import ShardedScenario
from repro.parallel.envelope import FabricBus
from repro.parallel.fabric_shard import FabricShardTask, SiteShardResult
from repro.parallel.merge import (
    merge_sketches,
    merge_slo_timelines,
    merge_streams,
)
from repro.parallel.plan import CSPOT_TRANSFER_FLOOR_S
from repro.parallel.report import FabricParallelReport


@dataclass(kw_only=True)
class ShardedFabricScenario(ShardedScenario):
    """A multi-site fabric with cross-shard CSPOT transfers, sharded.

    The shared parameters (seed, workers, executor, ...) are documented
    on :class:`~repro.parallel.coordinator.ShardedScenario`.

    Parameters
    ----------
    n_sites:
        Number of farm sites (cells); site ``hub_site`` doubles as the
        fabric repository every other site reports into.
    horizon_s / window_s:
        Sampling horizon (default 6 s) and per-site sampling window
        (default 2 s).
    interaction_delay_s:
        Minimum cross-shard interaction delay bounding the sync quantum;
        defaults to the CSPOT transfer floor. Must not exceed the
        fastest possible transfer of the configured link.
    campaign:
        Optional :class:`~repro.chaos.shardfaults.ShardChaosCampaign`;
        faults are routed to the workers owning the faulted cells.
    link:
        Latency model of the site->hub cross-shard path.
    """

    n_sites: int = 8
    hub_site: int = 0
    horizon_s: float = 6.0
    window_s: float = 2.0
    interaction_delay_s: Optional[float] = CSPOT_TRANSFER_FLOOR_S
    sensors_per_cell: int = 4
    transfer_budget_s: float = 1.0
    alert_threshold_mps: float = 1.5
    campaign: Optional[ShardChaosCampaign] = None
    link: CrossShardLink = field(default_factory=CrossShardLink)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 <= self.hub_site < self.n_sites:
            raise ValueError(
                f"hub site {self.hub_site} out of [0, {self.n_sites})"
            )

    def _n_cells(self) -> int:
        return self.n_sites

    def _tasks(self) -> list[FabricShardTask]:
        campaign = self.campaign or ShardChaosCampaign(enabled=False)
        faults, link_faults = campaign.routed(self.plan)
        return [
            FabricShardTask(
                n_cells=self.n_sites,
                seed=self.seed,
                horizon_s=self.horizon_s,
                window_s=self.window_s,
                cells=cells,
                hub_cell=self.hub_site,
                sensors_per_cell=self.sensors_per_cell,
                transfer_budget_s=self.transfer_budget_s,
                alert_threshold_mps=self.alert_threshold_mps,
                faults=faults[w],
                link_faults=link_faults[w],
                link=self.link,
                relative_error=self.relative_error,
            )
            for w, cells in enumerate(self.plan.assignments)
        ]

    # -- the run -----------------------------------------------------------------

    def run(self) -> FabricParallelReport:
        """Execute every shard, exchange envelopes, merge canonically."""
        bus = FabricBus(self.plan, self.horizon_s)
        results: list[SiteShardResult] = self._execute(self._tasks(), bus)
        delivered = sum(r.delivered for r in results)
        if delivered != bus.delivered:
            raise RuntimeError(
                f"transfer ledger mismatch: bus routed {bus.delivered} "
                f"envelopes but shards ingested {delivered}"
            )
        transfer_sketch = merge_sketches(
            (r.transfer_sketch for r in results), self.relative_error
        )
        ingest_sketch = merge_sketches(
            (r.ingest_sketch for r in results), self.relative_error
        )
        trace = merge_streams([r.records for r in results])
        slo = merge_slo_timelines([r.slo for r in results])
        return FabricParallelReport(
            n_sites=self.n_sites,
            hub_site=self.hub_site,
            sim_seconds=self.horizon_s,
            n_windows=self.n_windows,
            events_processed=sum(r.events for r in results),
            samples=sum(r.samples for r in results),
            local_appends=sum(r.local_appends for r in results),
            transfers_sent=sum(r.sent for r in results),
            transfers_delivered=delivered,
            transfers_in_flight=len(bus.in_flight),
            in_flight_bytes=bus.in_flight_bytes,
            parked_total=sum(r.parked_total for r in results),
            parked_remaining=sum(r.parked_remaining for r in results),
            alerts=sum(r.alerts for r in results),
            per_site_samples=tuple(r.samples for r in results),
            per_site_sent=tuple(r.sent for r in results),
            per_site_parked=tuple(r.parked_total for r in results),
            transfer_sketch=transfer_sketch.to_dict(),
            ingest_sketch=ingest_sketch.to_dict(),
            slo=tuple(slo),
            trace=tuple(trace),
        )
