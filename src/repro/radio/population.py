"""Declarative UE populations: "50k UEs across 20 cells" without 50k objects.

The paper's testbed attaches a handful of hand-built ``UserEquipment``
objects; the scale path needs populations described *statistically* and
realized straight into the contiguous state arrays the vectorized sampler
consumes. The contract follows AsyncFlow's request-generator input
(``RVConfig``/``RqsGeneratorInput``): named distributions with validated
parameters, drawn from named RNG streams so population realization never
perturbs any other subsystem's randomness.

    pop = UEPopulation(
        n_cells=20,
        ues_per_cell=RandomVariable(2500.0, Distribution.POISSON),
        network="5g-tdd",
        bandwidth_mhz=40.0,
    )
    cells = pop.realize_cells(RngRegistry(seed), range(20))  # CellPopulations
    matrix = cells[0].uplink_matrix(rng, 30)     # (n_ues, 30) bits/s

Realization cost is O(total UEs) numpy draws; sampling cost is one
vectorized kernel call per cell. ``CellPopulation.materialize`` builds real
``UserEquipment`` objects for the first ``k`` UEs so parity tests can pin
the array path to the object path bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from repro.radio.channel import ChannelModel
from repro.radio.duplex import DuplexMode, TDD_UL_HEAVY
from repro.radio.phy import CarrierConfig
from repro.radio.presets import LTE_CHANNEL, NR_CHANNEL, SDR_4G, SDR_5G
from repro.radio.scheduler import round_robin_rounds
from repro.radio.sdr import SdrFrontEnd
from repro.radio.state import (
    UeStateArrays,
    rate_per_prb_table,
    sample_throughput_matrix,
)
from repro.radio.ue import UserEquipment
from repro.simkernel.rng import RngRegistry
from repro.simkernel.streams import (
    POPULATION_PREFIX,
    population_stream,
    shard_stream,
)

from repro.radio.gnb import MULTI_UE_OVERHEAD


class Distribution(str, Enum):
    """Canonical distribution names for population random variables.

    String-valued (AsyncFlow's ``Distribution`` idiom) so configs can say
    ``"poisson"`` and a typo raises instead of silently defaulting.
    """

    CONSTANT = "constant"
    POISSON = "poisson"
    NORMAL = "normal"
    LOG_NORMAL = "log_normal"
    EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class RandomVariable:
    """A validated distribution spec: ``RandomVariable(mean, distribution)``.

    Attributes
    ----------
    mean:
        Target mean of the drawn values.
    distribution:
        One of :class:`Distribution`.
    variance:
        Optional; defaults per family: ``normal`` -> ``mean`` (AsyncFlow's
        convention), ``log_normal`` -> ``mean``; ignored for ``poisson``
        (variance == mean by definition), ``exponential`` (``mean**2``) and
        ``constant`` (0).
    """

    mean: float
    distribution: Distribution = Distribution.POISSON
    variance: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.mean, (int, float)) or isinstance(self.mean, bool):
            raise TypeError(f"mean must be a number, got {self.mean!r}")
        object.__setattr__(self, "mean", float(self.mean))
        dist = Distribution(self.distribution)
        object.__setattr__(self, "distribution", dist)
        if dist in (
            Distribution.POISSON, Distribution.LOG_NORMAL, Distribution.EXPONENTIAL
        ) and self.mean <= 0:
            raise ValueError(f"{dist.value} mean must be positive: {self.mean}")
        if self.variance is not None and self.variance < 0:
            raise ValueError(f"variance must be non-negative: {self.variance}")
        if self.variance is None and dist in (
            Distribution.NORMAL, Distribution.LOG_NORMAL
        ):
            object.__setattr__(self, "variance", self.mean)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` values as float64 (counts included, for clipping)."""
        if n < 0:
            raise ValueError(f"negative sample count: {n}")
        if self.distribution is Distribution.CONSTANT:
            return np.full(n, self.mean)
        if self.distribution is Distribution.POISSON:
            return rng.poisson(self.mean, size=n).astype(np.float64)
        if self.distribution is Distribution.NORMAL:
            assert self.variance is not None
            return rng.normal(self.mean, np.sqrt(self.variance), size=n)
        if self.distribution is Distribution.EXPONENTIAL:
            return rng.exponential(self.mean, size=n)
        # Log-normal, parameterized by the target mean/variance of the
        # *resulting* distribution: sigma^2 = ln(1 + v/m^2), mu = ln m - sigma^2/2.
        assert self.variance is not None
        m, v = self.mean, self.variance
        sigma2 = float(np.log1p(v / (m * m)))
        mu = float(np.log(m)) - 0.5 * sigma2
        return np.exp(rng.normal(mu, np.sqrt(sigma2), size=n))


@dataclass
class CellPopulation:
    """One cell's worth of realized population state.

    Holds the packed :class:`UeStateArrays` plus the carrier/SDR scalars the
    sampler needs. No ``UserEquipment`` objects, and no UE id strings,
    exist unless :meth:`materialize` or :meth:`ue_ids` is called.
    """

    name: str
    carrier: CarrierConfig
    sdr: SdrFrontEnd
    state: UeStateArrays
    template: UserEquipment
    _rotation: int = 0
    _rate_table: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def n_ues(self) -> int:
        return self.state.n_ues

    def rate_table(self) -> np.ndarray:
        if self._rate_table is None:
            self._rate_table = rate_per_prb_table(self.carrier)
        return self._rate_table

    def ue_ids(self, k: Optional[int] = None) -> list[str]:
        """Ids of the first ``k`` UEs (default all), made on demand.

        ``<cell name>-ue<j>``, with ``j`` zero-padded to the cell's width,
        so sorted id order is column order.
        """
        k = self.n_ues if k is None else k
        if not 0 <= k <= self.n_ues:
            raise ValueError(f"k out of [0, {self.n_ues}]: {k}")
        width = len(str(max(self.n_ues - 1, 1)))
        return [f"{self.name}-ue{j:0{width}d}" for j in range(k)]

    def grants_matrix(self, n_rounds: int) -> np.ndarray:
        """Round-robin saturating grants, advancing the rotation counter.

        Sorted :meth:`ue_ids` order is column order, so the closed-form
        :func:`round_robin_rounds` applies directly -- no ``UeDemand``
        objects, no scheduler instance.
        """
        grants, self._rotation = round_robin_rounds(
            self.n_ues,
            self.carrier.n_prbs,
            n_rounds,
            self._rotation,
            np.arange(self.n_ues, dtype=np.int64),
        )
        return grants

    def uplink_matrix(
        self, rng: np.random.Generator, n_samples: int
    ) -> np.ndarray:
        """Vectorized per-second uplink samples, ``(n_ues, n_samples)`` bits/s.

        Bit-identical to attaching :meth:`materialize`'d UEs to a
        round-robin :class:`~repro.radio.gnb.GNodeB` and calling
        ``uplink_samples`` with the same generator (parity-tested).
        """
        if n_samples <= 0:
            raise ValueError(f"n_samples must be positive: {n_samples}")
        if self.n_ues == 0:
            raise ValueError(f"cell {self.name!r} has no UEs")
        n = self.n_ues
        derate = self.sdr.derate(self.carrier.bandwidth_mhz, active_ues=n)
        jitter = self.sdr.jitter_scale(self.carrier.bandwidth_mhz, active_ues=n)
        multi_ue_eff = max(0.4, 1.0 - MULTI_UE_OVERHEAD * (n - 1))
        grants = self.grants_matrix(n_samples)
        z = rng.standard_normal((n_samples, n, 2))
        return sample_throughput_matrix(
            self.state, grants, z, self.rate_table(),
            derate=derate, multi_ue_eff=multi_ue_eff, jitter_scale=jitter,
        )

    def materialize(self, k: Optional[int] = None) -> list[UserEquipment]:
        """Instantiate real ``UserEquipment`` for the first ``k`` UEs.

        For parity tests and for feeding small sub-populations into code
        that still wants objects (chaos injectors, core sessions). Each UE
        reuses the template's device/modem/SIM and carries its drawn
        per-UE channel.
        """
        out = []
        for j, ue_id in enumerate(self.ue_ids(k)):
            out.append(UserEquipment(
                ue_id=ue_id,
                device=self.template.device,
                modem=self.template.modem,
                sim=self.template.sim,
                channel=ChannelModel(
                    mean_cqi=float(self.state.mean_cqi[j]),
                    cqi_sigma=float(self.state.cqi_sigma[j]),
                    fading_sigma=float(self.state.fading_sigma[j]),
                    gain=float(self.state.gain[j]),
                ),
                unit_cap_bps=None,
            ))
        return out


@dataclass(frozen=True)
class UEPopulation:
    """A statistical description of a UE fleet across many cells.

    Attributes
    ----------
    n_cells:
        Number of cells to realize.
    ues_per_cell:
        Distribution of UE counts per cell (draws are rounded and clipped
        to at least 1).
    network:
        ``"4g-fdd"``, ``"5g-fdd"`` or ``"5g-tdd"`` -- the deployment
        flavours of :class:`~repro.radio.network.NetworkDeployment`.
    bandwidth_mhz:
        Carrier bandwidth, validated against the PRB tables.
    device_class:
        Device kit for every UE (``network.device_kit`` names).
    mean_cqi:
        Per-UE channel operating point distribution, clipped to [1, 15].
    gain_spread:
        Per-UE link-gain distribution (mean ~1; clipped to > 0).
    """

    n_cells: int = 1
    ues_per_cell: RandomVariable = field(
        default_factory=lambda: RandomVariable(100.0, Distribution.POISSON)
    )
    network: str = "5g-tdd"
    bandwidth_mhz: float = 40.0
    device_class: str = "raspberry-pi"
    mean_cqi: RandomVariable = field(
        default_factory=lambda: RandomVariable(10.0, Distribution.NORMAL, 0.25)
    )
    gain_spread: RandomVariable = field(
        default_factory=lambda: RandomVariable(1.0, Distribution.LOG_NORMAL, 0.0025)
    )

    def __post_init__(self) -> None:
        if self.n_cells <= 0:
            raise ValueError(f"n_cells must be positive: {self.n_cells}")
        key = self.network.lower()
        if key not in ("4g-fdd", "5g-fdd", "5g-tdd"):
            raise ValueError(
                f"unknown network {self.network!r}; valid: 4g-fdd, 5g-fdd, 5g-tdd"
            )
        # Validate carrier/SDR eagerly so misconfiguration fails at build.
        self._flavour()

    def _flavour(self) -> tuple[CarrierConfig, SdrFrontEnd, ChannelModel]:
        key = self.network.lower()
        if key == "4g-fdd":
            carrier = CarrierConfig("lte", self.bandwidth_mhz, DuplexMode.FDD)
            sdr, chan = SDR_4G, LTE_CHANNEL
        elif key == "5g-fdd":
            carrier = CarrierConfig("nr", self.bandwidth_mhz, DuplexMode.FDD)
            sdr, chan = SDR_5G, NR_CHANNEL
        else:
            carrier = CarrierConfig(
                "nr", self.bandwidth_mhz, DuplexMode.TDD, tdd_pattern=TDD_UL_HEAVY
            )
            sdr, chan = SDR_5G, NR_CHANNEL
        if not sdr.supports(self.bandwidth_mhz):
            raise ValueError(
                f"{sdr.name} cannot serve a {self.bandwidth_mhz} MHz carrier"
            )
        return carrier, sdr, chan

    def _template(self) -> UserEquipment:
        # Local import: network.py imports gnb/iperf; population must stay
        # importable from gnb's dependency layer.
        from repro.radio.network import device_kit
        from repro.radio.sim_cards import SimProvisioner

        carrier, _, chan = self._flavour()
        device, modem_4g, modem_5g = device_kit(self.device_class)
        modem = modem_4g if carrier.technology == "lte" else modem_5g
        sim = SimProvisioner(mnc="99").provision()
        return UserEquipment(
            ue_id="template", device=device, modem=modem, sim=sim, channel=chan
        )

    def cell_counts(self, rngs: RngRegistry) -> np.ndarray:
        """Per-cell UE counts from the ``population.cells`` stream.

        One vectorized draw covering every cell, so each
        :mod:`repro.parallel` worker computing only its owned cells sees
        the identical count vector from the same master seed.
        """
        return np.maximum(
            np.rint(
                self.ues_per_cell.sample(
                    rngs.get(population_stream(POPULATION_PREFIX, "cells")),
                    self.n_cells,
                )
            ).astype(np.int64),
            1,
        )

    def realize_cells(
        self,
        rngs: RngRegistry,
        cell_indices: Sequence[int],
        counts: Optional[np.ndarray] = None,
    ) -> list[CellPopulation]:
        """Realize the given cells, each from its own named streams.

        Cell ``c`` draws its per-UE operating points from
        ``shard.cell<ccc>.channel`` and its link gains from
        ``shard.cell<ccc>.gain`` -- streams keyed by the cell's stable
        index, never by which worker realizes it. A worker owning cells
        ``{3, 7}`` therefore realizes bit-identical state whether it
        shares the run with 0 or 7 other workers (the
        :mod:`repro.parallel` determinism invariant). ``counts`` defaults
        to :meth:`cell_counts`.
        """
        carrier, sdr, _ = self._flavour()
        template = self._template()
        chan = template.channel
        # Device-class scalars come from the template UE, so the array path
        # and the object path (CellPopulation.materialize) agree exactly.
        tech, duplex = carrier.technology, carrier.duplex
        combined_eff = template.combined_efficiency(tech, duplex)
        cap_bps = template.uplink_cap_bps(tech, duplex)
        if counts is None:
            counts = self.cell_counts(rngs)
        if len(counts) != self.n_cells:
            raise ValueError(
                f"counts has {len(counts)} entries for {self.n_cells} cells"
            )
        cells = []
        for c in cell_indices:
            c = int(c)
            if not 0 <= c < self.n_cells:
                raise ValueError(
                    f"cell index {c} out of [0, {self.n_cells})"
                )
            n = int(counts[c])
            chan_rng = rngs.get(shard_stream(c, "channel"))
            gain_rng = rngs.get(shard_stream(c, "gain"))
            state = UeStateArrays.broadcast(
                mean_cqi=np.clip(self.mean_cqi.sample(chan_rng, n), 1.0, 15.0),
                gain=np.maximum(self.gain_spread.sample(gain_rng, n), 1e-3),
                cqi_sigma=chan.cqi_sigma,
                fading_sigma=chan.fading_sigma,
                combined_eff=combined_eff,
                cap_bps=cap_bps,
            )
            cells.append(CellPopulation(
                name=f"cell{c:03d}",
                carrier=carrier,
                sdr=sdr,
                state=state,
                template=template,
            ))
        return cells

    @property
    def expected_total_ues(self) -> float:
        """Mean of the total UE count across cells (for sizing/reporting)."""
        return self.n_cells * max(self.ues_per_cell.mean, 1.0)
