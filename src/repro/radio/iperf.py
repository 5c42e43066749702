"""iperf3-style uplink throughput measurement.

The paper's Figures 4-6 are built from "100 iperf3 uplink throughput
samples" per configuration. :func:`run_uplink_test` reproduces that
procedure against a simulated cell: it saturates the uplink from one or more
UEs, collects per-second samples, accounts the bytes through the 5G core's
user plane, and returns summary statistics in the same form the paper's
plotting notebook consumes (mean/std over samples, in Mbps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.radio.core5g import Core5G
from repro.radio.gnb import GNodeB
from repro.radio.ue import UserEquipment


@dataclass(frozen=True)
class IperfResult:
    """Summary of one UE's uplink test.

    Attributes mirror the fields of iperf3's JSON output that the paper's
    visualization notebook parses (bits per second, per-interval samples).
    """

    ue_id: str
    samples_bps: np.ndarray
    duration_s: float

    @property
    def mean_mbps(self) -> float:
        return float(np.mean(self.samples_bps)) / 1e6

    @property
    def std_mbps(self) -> float:
        return float(np.std(self.samples_bps, ddof=1)) / 1e6

    @property
    def total_bytes(self) -> int:
        return int(np.sum(self.samples_bps) / 8.0)

    def to_json_dict(self) -> dict[str, object]:
        """Shape-compatible subset of iperf3's ``--json`` output."""
        return {
            "start": {"test_start": {"duration": self.duration_s}},
            "intervals": [
                {"sum": {"bits_per_second": float(bps), "seconds": 1.0}}
                for bps in self.samples_bps
            ],
            "end": {
                "sum_sent": {
                    "bytes": self.total_bytes,
                    "bits_per_second": float(np.mean(self.samples_bps)),
                }
            },
        }


def run_uplink_test(
    gnb: GNodeB,
    core: Core5G,
    ues: list[UserEquipment],
    rng: np.random.Generator,
    n_samples: int = 100,
    metrics: Optional[MetricsRegistry] = None,
) -> dict[str, IperfResult]:
    """Run simultaneous saturating uplink tests from ``ues``.

    All listed UEs must be attached to ``gnb`` and hold active PDU sessions
    (the bytes are accounted through the core's UPF, as real iperf3 traffic
    would be). When ``metrics`` is given, each UE's per-second samples are
    recorded as a ``radio.ue_throughput_mbps`` series (the paper's
    Figures 4-6 raw data).
    """
    return _run_test(gnb, core, ues, rng, n_samples, direction="uplink",
                     metrics=metrics)


def run_downlink_test(
    gnb: GNodeB,
    core: Core5G,
    ues: list[UserEquipment],
    rng: np.random.Generator,
    n_samples: int = 100,
    metrics: Optional[MetricsRegistry] = None,
) -> dict[str, IperfResult]:
    """Run simultaneous saturating downlink tests toward ``ues``
    (``iperf3 -R``). Bytes are accounted as downlink through the UPF."""
    return _run_test(gnb, core, ues, rng, n_samples, direction="downlink",
                     metrics=metrics)


def _run_test(
    gnb: GNodeB,
    core: Core5G,
    ues: list[UserEquipment],
    rng: np.random.Generator,
    n_samples: int,
    direction: str,
    metrics: Optional[MetricsRegistry] = None,
) -> dict[str, IperfResult]:
    if not ues:
        raise ValueError("need at least one UE")
    for ue in ues:
        if not ue.attached:
            raise ValueError(f"UE {ue.ue_id} has no active PDU session")
    ue_ids = [ue.ue_id for ue in ues]
    if direction == "uplink":
        sample_map = gnb.uplink_samples(rng, n_samples, ue_ids)
    else:
        sample_map = gnb.downlink_samples(rng, n_samples, ue_ids)
    results: dict[str, IperfResult] = {}
    for ue in ues:
        samples = sample_map[ue.ue_id]
        result = IperfResult(
            ue_id=ue.ue_id, samples_bps=samples, duration_s=float(n_samples)
        )
        assert ue.session is not None
        if direction == "uplink":
            core.route_uplink(ue.session, result.total_bytes)
        else:
            core.route_downlink(ue.session, result.total_bytes)
        if metrics is not None:
            series = metrics.series(
                "radio.ue_throughput_mbps",
                help="per-second iperf-style throughput samples per UE",
            )
            series.extend(
                np.arange(len(samples), dtype=np.float64), samples / 1e6,
                cell=gnb.name, ue=ue.ue_id, direction=direction,
            )
            metrics.gauge(
                "radio.ue_mean_mbps", help="mean throughput of the last test"
            ).set(
                result.mean_mbps,
                cell=gnb.name, ue=ue.ue_id, direction=direction,
            )
        results[ue.ue_id] = result
    return results
