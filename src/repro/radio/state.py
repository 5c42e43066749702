"""Contiguous per-UE state arrays and the vectorized sampling kernel.

This is the million-UE hot path. Instead of walking Python ``UserEquipment``
objects per sample, the radio layer packs the per-UE quantities that the
throughput model reads -- channel operating point, fading width, link gain,
modem/host efficiency, uplink cap -- into parallel ``float64`` arrays
(struct-of-arrays layout, one contiguous vector per field), and computes a
whole ``(n_ues, n_samples)`` sample matrix with array-at-a-time numpy. A
zero PRB grant yields a sample of exactly ``+0.0``, so where few (round, UE)
pairs hold PRBs -- a fleet cell with far more UEs than PRBs -- only those
pairs are evaluated and scattered into a zeroed matrix.

Bit-identity contract (parity-tested in
``tests/radio/test_vectorized_parity.py``): the kernel consumes the *same*
RNG stream in the *same* order as the scalar per-UE loop. The scalar loop
draws, per sample and per UE, one ``rng.normal`` (CQI) then one
``rng.lognormal`` (fading); numpy implements both as
``loc + scale * standard_normal`` (and ``exp`` of that), filling requested
shapes sequentially from the bit stream. A single
``rng.standard_normal((n_samples, n_ues, 2))`` therefore yields exactly the
scalar draw sequence in C order, and applying ``loc + scale * z`` elementwise
reproduces the scalar results bit-for-bit. The draw stays full-size even
where grants are zero, so the stream advances exactly as the scalar loop's.
The arithmetic below multiplies factors in the same left-to-right order as
the scalar expressions so IEEE rounding agrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.radio.duplex import DuplexMode
from repro.radio.phy import CarrierConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.radio.ue import UserEquipment


#: Gathering one granted (round, UE) pair and scattering its sample back
#: costs about as much as evaluating four pairs in place (measured at 10 and
#: 50 rounds per call), so the kernel gathers only when fewer than a quarter
#: of the pairs hold PRBs.
_GATHER_COST = 4


def rate_per_prb_table(carrier: CarrierConfig) -> np.ndarray:
    """Uplink bits/s per PRB indexed by ``cqi - 1`` (CQI 1..15)."""
    return np.array(
        [carrier.uplink_rate_per_prb(cqi) for cqi in range(1, 16)], dtype=np.float64
    )


@dataclass
class UeStateArrays:
    """Struct-of-arrays snapshot of everything the sampler reads per UE.

    Index ``j`` of every array is UE ``j``: the row of the sample matrix
    and the column of the grant matrix. Identifiers stay with the caller
    (the attached UE objects, or ids a population makes on demand).

    Attributes
    ----------
    mean_cqi, cqi_sigma:
        Per-UE channel operating point (CQI draw parameters).
    fading_sigma:
        Sigma of the multiplicative lognormal fast-fading term.
    gain:
        Static per-UE link gain.
    combined_eff:
        Modem x host efficiency applied to the granted PHY rate.
    cap_bps:
        Hard uplink cap (``inf`` where uncapped). Downlink ignores it.
    """

    mean_cqi: np.ndarray
    cqi_sigma: np.ndarray
    fading_sigma: np.ndarray
    gain: np.ndarray
    combined_eff: np.ndarray
    cap_bps: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.mean_cqi)
        for field_name in (
            "mean_cqi", "cqi_sigma", "fading_sigma", "gain",
            "combined_eff", "cap_bps",
        ):
            arr = np.ascontiguousarray(getattr(self, field_name), dtype=np.float64)
            if arr.shape != (n,):
                raise ValueError(
                    f"UeStateArrays.{field_name}: expected shape ({n},), "
                    f"got {arr.shape}"
                )
            setattr(self, field_name, arr)
        if n and (self.mean_cqi.min() < 1.0 or self.mean_cqi.max() > 15.0):
            raise ValueError("mean_cqi out of the CQI ladder [1, 15]")
        if n and (self.cqi_sigma.min() < 0.0 or self.fading_sigma.min() < 0.0):
            raise ValueError("sigmas must be non-negative")
        if n and self.gain.min() <= 0.0:
            raise ValueError("gain must be positive")

    @property
    def n_ues(self) -> int:
        return len(self.mean_cqi)

    @classmethod
    def from_ues(
        cls,
        ues: Sequence["UserEquipment"],
        technology: str,
        duplex: DuplexMode,
    ) -> "UeStateArrays":
        """Pack attached UE objects into contiguous arrays (one pass)."""
        return cls(
            mean_cqi=np.array([ue.channel.mean_cqi for ue in ues]),
            cqi_sigma=np.array([ue.channel.cqi_sigma for ue in ues]),
            fading_sigma=np.array([ue.channel.fading_sigma for ue in ues]),
            gain=np.array([ue.channel.gain for ue in ues]),
            combined_eff=np.array(
                [ue.combined_efficiency(technology, duplex) for ue in ues]
            ),
            cap_bps=np.array([ue.uplink_cap_bps(technology, duplex) for ue in ues]),
        )

    @classmethod
    def broadcast(
        cls,
        mean_cqi: np.ndarray,
        gain: np.ndarray,
        cqi_sigma: float,
        fading_sigma: float,
        combined_eff: float,
        cap_bps: float,
    ) -> "UeStateArrays":
        """Build a population-sized state from per-UE draws plus shared
        device-class scalars (no ``UserEquipment`` objects involved)."""
        n = len(mean_cqi)
        return cls(
            mean_cqi=mean_cqi,
            cqi_sigma=np.full(n, float(cqi_sigma)),
            fading_sigma=np.full(n, float(fading_sigma)),
            gain=gain,
            combined_eff=np.full(n, float(combined_eff)),
            cap_bps=np.full(n, float(cap_bps)),
        )


def sample_throughput_matrix(
    state: UeStateArrays,
    grants: np.ndarray,
    z: np.ndarray,
    rate_per_prb: np.ndarray,
    derate: float,
    multi_ue_eff: float,
    jitter_scale: float,
    rate_scale: Optional[float] = None,
    apply_caps: bool = True,
) -> np.ndarray:
    """Vectorized per-second throughput samples for a whole cell.

    Parameters
    ----------
    state:
        Per-UE state arrays (``U`` UEs).
    grants:
        ``(S, U)`` integer PRB grants, one row per scheduling round.
    z:
        ``(S, U, 2)`` standard-normal draws; ``z[..., 0]`` feeds the CQI
        draw and ``z[..., 1]`` the fading draw, matching the scalar loop's
        per-UE interleaving of ``rng.normal`` then ``rng.lognormal``.
    rate_per_prb:
        15-entry CQI -> bits/s-per-PRB table (see :func:`rate_per_prb_table`).
    derate, multi_ue_eff, jitter_scale:
        Cell-wide SDR derate, multi-UE efficiency, and fading inflation.
    rate_scale:
        ``None`` for uplink; the downlink/uplink slot-ratio for downlink
        (applied at the same position in the product as the scalar path).
    apply_caps:
        Clamp to per-UE hard caps (uplink only; downlink is gNB-transmitted).

    Returns the C-contiguous ``(U, S)`` sample matrix (bits/s,
    non-negative): row ``j`` is UE ``j``'s samples in round order.
    """
    n_samples, n_ues = grants.shape
    if z.shape != (n_samples, n_ues, 2):
        raise ValueError(
            f"z shape {z.shape} != {(n_samples, n_ues, 2)} for grants {grants.shape}"
        )
    if n_ues != state.n_ues:
        raise ValueError(f"grants columns {n_ues} != state UEs {state.n_ues}")

    # A zero grant makes the PHY rate, and so the sample, exactly +0.0.
    # Where few pairs hold PRBs (a fleet cell with far more UEs than PRBs),
    # gather the granted pairs, evaluate only those, and scatter them into
    # a zeroed matrix. Otherwise evaluate the whole matrix in place, the
    # per-UE arrays broadcasting over rounds.
    whole = _GATHER_COST * np.count_nonzero(grants) >= grants.size
    at: slice | np.ndarray
    if whole:
        prbs, z_pairs, at = grants, z, slice(None)
    else:
        flat = np.flatnonzero(grants > 0)  # C order: by round, then UE
        rounds, ues = np.divmod(flat, n_ues)
        prbs = grants.ravel()[flat]
        z_pairs = z.reshape(-1, 2)[flat]
        at = ues

    # CQI draw: clip(rint(mean + sigma*z), 1, 15), exactly ChannelModel.draw_cqi.
    cqi = np.clip(
        np.rint(state.mean_cqi[at] + state.cqi_sigma[at] * z_pairs[..., 0]),
        1, 15,
    ).astype(np.int64)

    # PHY rate: prbs * rate(cqi) [* dl_over_ul] * derate * multi_ue_eff * gain,
    # multiplied left-to-right in the scalar expression's order.
    phy = prbs * rate_per_prb[cqi - 1]
    if rate_scale is not None:
        phy = phy * rate_scale
    phy = phy * derate
    phy = phy * multi_ue_eff
    phy = phy * state.gain[at]

    realized = phy * state.combined_eff[at]
    if apply_caps:
        realized = np.minimum(realized, state.cap_bps[at])

    # Mean-one lognormal fading: exp(-sigma^2/2 + sigma*z), sigma inflated
    # by the SDR jitter scale -- exactly ChannelModel.draw_fading.
    sigma = state.fading_sigma[at] * jitter_scale
    fade = np.exp(-0.5 * sigma * sigma + sigma * z_pairs[..., 1])

    samples = np.maximum(realized * fade, 0.0)
    if whole:
        return np.ascontiguousarray(samples.T)
    out = np.zeros(n_ues * n_samples)
    out[ues * n_samples + rounds] = samples
    return out.reshape(n_ues, n_samples)
