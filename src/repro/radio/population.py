"""Declarative UE populations: "50k UEs across 20 cells" without 50k objects.

The paper's testbed attaches a handful of hand-built ``UserEquipment``
objects; the scale path needs populations described *statistically* and
realized straight into the state arrays the vectorized sampler consumes.
The contract follows AsyncFlow's request-generator input
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

Realization costs O(cells) and draws no UE: a cell draws a UE's operating
point the first time a call needs that UE, so a fleet cell whose
round-robin scheduler reaches 125 of its ~50k UEs in 20 rounds draws 125.
Sampling a window costs one vectorized kernel call per chunk of
scheduling rounds (one round in a fleet-sized cell, the whole window in a
small one). ``CellPopulation.materialize`` builds real ``UserEquipment``
objects for the first ``k`` UEs so parity tests can pin the array path to
the object path bit-for-bit.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from repro.radio.channel import ChannelModel
from repro.radio.duplex import DuplexMode, TDD_UL_HEAVY
from repro.radio.phy import CarrierConfig
from repro.radio.presets import LTE_CHANNEL, NR_CHANNEL, SDR_4G, SDR_5G
from repro.radio.scheduler import round_robin_plan, round_robin_rounds
from repro.radio.sdr import SdrFrontEnd
from repro.radio.state import (
    UeStateArrays,
    gather_pays,
    rate_per_prb_table,
    sample_pairs,
)
from repro.radio.ue import UserEquipment
from repro.simkernel.rng import RngRegistry
from repro.simkernel.streams import (
    POPULATION_PREFIX,
    population_stream,
    shard_stream,
)

from repro.radio.gnb import MULTI_UE_OVERHEAD

#: Most standard normals :meth:`CellPopulation.uplink_matrix` draws at once
#: (512 kB). Below it, per-round overhead outweighs the draw; above it, a
#: window-sized draw tensor dominates a fleet cell's memory.
_CHUNK_DRAWS = 1 << 16


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
        Target mean of the drawn values (finite).
    distribution:
        One of :class:`Distribution`.
    variance:
        Optional, finite and non-negative; defaults per family:
        ``normal`` -> ``mean`` (AsyncFlow's convention), ``log_normal`` ->
        ``mean``; ignored for ``poisson`` (variance == mean by definition),
        ``exponential`` (``mean**2``) and ``constant`` (0).
    """

    mean: float
    distribution: Distribution = Distribution.POISSON
    variance: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.mean, (int, float)) or isinstance(self.mean, bool):
            raise TypeError(f"mean must be a number, got {self.mean!r}")
        object.__setattr__(self, "mean", float(self.mean))
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite: {self.mean}")
        dist = Distribution(self.distribution)
        object.__setattr__(self, "distribution", dist)
        if dist in (
            Distribution.POISSON, Distribution.LOG_NORMAL, Distribution.EXPONENTIAL
        ) and self.mean <= 0:
            raise ValueError(f"{dist.value} mean must be positive: {self.mean}")
        if self.variance is None and dist in (
            Distribution.NORMAL, Distribution.LOG_NORMAL
        ):
            object.__setattr__(self, "variance", self.mean)
        # Checked after the default, so a normal whose mean is negative
        # needs an explicit variance.
        if self.variance is not None and not 0 <= self.variance < math.inf:
            raise ValueError(
                f"variance must be finite and non-negative: {self.variance}"
            )

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
    """One cell of a realized population.

    Holds the cell's UE count, the carrier/SDR scalars the sampler needs,
    and what it takes to draw each UE's operating point: the population's
    ``mean_cqi`` and ``gain_spread`` distributions and the cell's own
    ``channel`` and ``gain`` generators. A UE's ``mean_cqi`` and ``gain``
    are drawn the first time a call needs that UE, in UE order, so the
    cell holds only the prefix that calls have reached: in the gather
    branch of :meth:`uplink_matrix`, up to the largest rank granted a PRB;
    in the dense branch, in :attr:`state` and in :meth:`materialize`, as
    far as they read. A fleet cell's round-robin scheduler reaches
    ``rounds + PRB budget - 1`` UEs, 125 of ~50k in 20 rounds.

    numpy fills a draw one element after another, so drawing ``m`` values
    and then ``k - m`` more yields exactly one ``k``-value draw: the
    values are the bits an eager draw of every UE gives. The cell draws
    from its own generators, never from the registry's (see
    :meth:`UEPopulation.realize_cells`). No ``UserEquipment`` objects, and
    no UE id strings, exist unless :meth:`materialize` or :meth:`ue_ids`
    is called.
    """

    name: str
    carrier: CarrierConfig
    sdr: SdrFrontEnd
    template: UserEquipment
    n_ues: int
    mean_cqi: RandomVariable
    gain_spread: RandomVariable
    channel_rng: np.random.Generator = field(repr=False)
    gain_rng: np.random.Generator = field(repr=False)
    _rotation: int = 0
    _rate_table: Optional[np.ndarray] = field(default=None, repr=False)
    _device: dict[str, float] = field(init=False, repr=False)
    _drawn: UeStateArrays = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # Device-class values come from the template UE, so the array path
        # and the object path (materialize) agree exactly. The zero-UE
        # state range-checks them now, before any UE is drawn.
        tech, duplex = self.carrier.technology, self.carrier.duplex
        self._device = {
            "cqi_sigma": self.template.channel.cqi_sigma,
            "fading_sigma": self.template.channel.fading_sigma,
            "combined_eff": self.template.combined_efficiency(tech, duplex),
            "cap_bps": self.template.uplink_cap_bps(tech, duplex),
        }
        empty = np.empty(0)
        self._drawn = UeStateArrays.broadcast(
            mean_cqi=empty, gain=empty, **self._device
        )

    @property
    def state(self) -> UeStateArrays:
        """Every UE's state, drawing the UEs no call has reached yet."""
        return self._state_through(self.n_ues)

    def _state_through(self, k: int) -> UeStateArrays:
        """The state of at least the first ``k`` UEs, drawing those not
        drawn yet. The four device-class values stay stride-0 views."""
        drawn = self._drawn
        new = k - drawn.n_ues
        if new > 0:
            self._drawn = drawn = UeStateArrays.broadcast(
                mean_cqi=np.concatenate([
                    drawn.mean_cqi,
                    np.clip(self.mean_cqi.sample(self.channel_rng, new), 1.0, 15.0),
                ]),
                gain=np.concatenate([
                    drawn.gain,
                    np.maximum(self.gain_spread.sample(self.gain_rng, new), 1e-3),
                ]),
                **self._device,
            )
        return drawn

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
        objects, no scheduler instance. The dense ``(n_rounds, n_ues)``
        form of the grants :meth:`uplink_matrix` applies.
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

        Draws and evaluates a chunk of scheduling rounds at a time: at most
        ``_CHUNK_DRAWS`` standard normals, but at least one round, so a
        fleet cell runs one round at a time and a small cell its whole
        window at once. Each chunk's normals go into one reused buffer, in
        the order one ``(n_samples, n_ues, 2)`` draw would take them, and
        its granted samples go straight into the returned block. Neither
        that tensor nor a dense grant matrix is ever built.
        """
        if n_samples <= 0:
            raise ValueError(f"n_samples must be positive: {n_samples}")
        if self.n_ues == 0:
            raise ValueError(f"cell {self.name!r} has no UEs")
        n = self.n_ues
        derate = self.sdr.derate(self.carrier.bandwidth_mhz, active_ues=n)
        jitter = self.sdr.jitter_scale(self.carrier.bandwidth_mhz, active_ues=n)
        multi_ue_eff = max(0.4, 1.0 - MULTI_UE_OVERHEAD * (n - 1))
        rate_table = self.rate_table()
        # Round r grants every UE `base` PRBs, plus one to the columns in
        # extra[r] (sorted id order is column order, so ranks are columns).
        base, extra, self._rotation = round_robin_plan(
            n, self.carrier.n_prbs, n_samples, self._rotation
        )
        # With base == 0 a round grants exactly the extra[r] UEs, one PRB
        # each; where they are few, only they are evaluated.
        gather = base == 0 and gather_pays(extra.shape[1], n)
        # The gather branch reads only the UEs granted an extra PRB, ranks
        # that wrap mod n; the dense branch reads every UE.
        state = self._state_through(int(extra.max()) + 1 if gather else n)
        block = np.zeros((n, n_samples)) if gather else np.empty((n, n_samples))
        per_chunk = min(n_samples, max(1, _CHUNK_DRAWS // (2 * n)))
        z_buf = np.empty((per_chunk, n, 2))
        for r0 in range(0, n_samples, per_chunk):
            k = min(per_chunk, n_samples - r0)
            z = z_buf[:k]
            rng.standard_normal(out=z)
            rows, cols = np.arange(k)[:, None], extra[r0:r0 + k]
            if gather:
                block[cols, r0 + rows] = sample_pairs(
                    state, cols, 1, z[rows, cols], rate_table,
                    derate, multi_ue_eff, jitter,
                )
            else:
                prbs = np.full((k, n), base, dtype=np.int64)
                prbs[rows, cols] += 1
                block[:, r0:r0 + k] = sample_pairs(
                    state, slice(None), prbs, z, rate_table,
                    derate, multi_ue_eff, jitter,
                ).T
        return block

    def materialize(self, k: Optional[int] = None) -> list[UserEquipment]:
        """Instantiate real ``UserEquipment`` for the first ``k`` UEs.

        For parity tests and for feeding small sub-populations into code
        that still wants objects (chaos injectors, core sessions). Each UE
        reuses the template's device/modem/SIM and carries its drawn
        per-UE channel.
        """
        ids = self.ue_ids(k)
        state = self._state_through(len(ids))
        out = []
        for j, ue_id in enumerate(ids):
            out.append(UserEquipment(
                ue_id=ue_id,
                device=self.template.device,
                modem=self.template.modem,
                sim=self.template.sim,
                channel=ChannelModel(
                    mean_cqi=float(state.mean_cqi[j]),
                    cqi_sigma=float(state.cqi_sigma[j]),
                    fading_sigma=float(state.fading_sigma[j]),
                    gain=float(state.gain[j]),
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

        Realization draws no UE: it costs O(cells), and each cell draws a
        UE's operating point when a call first needs it. A cell draws
        from its own copies of the two generators as they stand at
        realization and never advances the registry's, so a cell's draws
        are a function of the registry and the cell index alone: two cells
        realized for one index from one registry hold the same values,
        whatever order they draw in. Bad device-class values are rejected
        here, not at a cell's first draw.
        """
        carrier, sdr, _ = self._flavour()
        template = self._template()
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
            cells.append(CellPopulation(
                name=f"cell{c:03d}",
                carrier=carrier,
                sdr=sdr,
                template=template,
                n_ues=int(counts[c]),
                mean_cqi=self.mean_cqi,
                gain_spread=self.gain_spread,
                channel_rng=copy.deepcopy(rngs.get(shard_stream(c, "channel"))),
                gain_rng=copy.deepcopy(rngs.get(shard_stream(c, "gain"))),
            ))
        return cells

    @property
    def expected_total_ues(self) -> float:
        """Mean of the total UE count across cells (for sizing/reporting)."""
        return self.n_cells * max(self.ues_per_cell.mean, 1.0)
