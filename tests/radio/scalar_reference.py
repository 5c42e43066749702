"""The retired per-UE sampling loops, kept only as parity references.

``GNodeB.uplink_samples`` / ``downlink_samples`` run array-at-a-time; these
loops are the scalar originals they replaced. They consume the RNG stream
identically, so ``tests/radio/test_vectorized_parity.py`` can assert the
two paths are bit-identical at any N, and ``benchmarks/test_scale_perf.py``
times them as the ``radio_scalar`` baseline.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.radio.gnb import MULTI_UE_OVERHEAD, GNodeB
from repro.radio.scheduler import RoundRobinScheduler, UeDemand
from repro.radio.ue import UserEquipment


def uplink_samples_scalar(
    gnb: GNodeB,
    rng: np.random.Generator,
    n_samples: int,
    active_ue_ids: Optional[list[str]] = None,
) -> dict[str, np.ndarray]:
    """Retired per-UE uplink loop of :meth:`GNodeB.uplink_samples`."""
    active = gnb._active(active_ue_ids, n_samples)
    tech = gnb.carrier.technology
    duplex = gnb.carrier.duplex
    n_active = len(active)
    derate = gnb.sdr.derate(gnb.carrier.bandwidth_mhz, active_ues=n_active)
    jitter = gnb.sdr.jitter_scale(gnb.carrier.bandwidth_mhz, active_ues=n_active)
    multi_ue_eff = max(0.4, 1.0 - MULTI_UE_OVERHEAD * (n_active - 1))

    out = {ue.ue_id: np.empty(n_samples) for ue in active}
    for i in range(n_samples):
        grants = _grants_for_round(gnb, active)
        for ue in active:
            prbs = grants.get(ue.ue_id, 0)
            cqi = int(ue.channel.draw_cqi(rng, 1)[0])
            phy = (
                prbs
                * gnb.carrier.uplink_rate_per_prb(cqi)
                * derate
                * multi_ue_eff
                * ue.channel.gain
            )
            realized = min(
                phy * ue.combined_efficiency(tech, duplex),
                ue.uplink_cap_bps(tech, duplex),
            )
            fade = float(ue.channel.draw_fading(rng, 1, jitter_scale=jitter)[0])
            out[ue.ue_id][i] = max(realized * fade, 0.0)
    return out


def downlink_samples_scalar(
    gnb: GNodeB,
    rng: np.random.Generator,
    n_samples: int,
    active_ue_ids: Optional[list[str]] = None,
) -> dict[str, np.ndarray]:
    """Retired per-UE downlink loop; :func:`uplink_samples_scalar` with
    the duplex roles swapped."""
    active = gnb._active(active_ue_ids, n_samples)
    tech, duplex = gnb.carrier.technology, gnb.carrier.duplex
    n_active = len(active)
    derate = gnb.sdr.derate(gnb.carrier.bandwidth_mhz, active_ues=n_active)
    jitter = gnb.sdr.jitter_scale(gnb.carrier.bandwidth_mhz, active_ues=n_active)
    multi_ue_eff = max(0.4, 1.0 - MULTI_UE_OVERHEAD * (n_active - 1))
    dl_over_ul = gnb._dl_over_ul()
    out = {ue.ue_id: np.empty(n_samples) for ue in active}
    for i in range(n_samples):
        grants = _grants_for_round(gnb, active)
        for ue in active:
            prbs = grants.get(ue.ue_id, 0)
            cqi = int(ue.channel.draw_cqi(rng, 1)[0])
            phy = (
                prbs
                * gnb.carrier.uplink_rate_per_prb(cqi) * dl_over_ul
                * derate * multi_ue_eff * ue.channel.gain
            )
            # Downlink is gNB-transmitted: the UE-side uplink caps
            # (modem TX power, host USB) do not apply; reception
            # efficiency reuses the device/modem factors.
            realized = phy * ue.combined_efficiency(tech, duplex)
            fade = float(ue.channel.draw_fading(rng, 1, jitter_scale=jitter)[0])
            out[ue.ue_id][i] = max(realized * fade, 0.0)
    return out


def _grants_for_round(
    gnb: GNodeB, active: list[UserEquipment]
) -> dict[str, int]:
    """One scheduling round: slice partition, then per-slice scheduling."""
    total_prbs = gnb.carrier.n_prbs
    if gnb.slice_config is None:
        demands = [
            UeDemand(ue.ue_id, prbs_wanted=total_prbs, cqi=int(ue.channel.mean_cqi))
            for ue in active
        ]
        return gnb.scheduler.allocate(demands, total_prbs)

    partition = gnb.slice_config.partition_prbs(total_prbs)
    grants: dict[str, int] = {}
    by_slice: dict[str, list[UserEquipment]] = {}
    for ue in active:
        by_slice.setdefault(ue.slice_name or "default", []).append(ue)
    for slice_name, ues in by_slice.items():
        budget = partition[slice_name]
        sched = gnb._slice_schedulers.get(slice_name)
        if sched is None:
            sched = RoundRobinScheduler()
            if gnb.metrics is not None:
                sched.bind_metrics(gnb.metrics, cell=f"{gnb.name}/{slice_name}")
            gnb._slice_schedulers[slice_name] = sched
        demands = [
            UeDemand(ue.ue_id, prbs_wanted=budget, cqi=int(ue.channel.mean_cqi))
            for ue in ues
        ]
        grants.update(sched.allocate(demands, budget))
    return grants
