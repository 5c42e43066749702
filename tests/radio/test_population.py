"""Declarative UE populations: validation, determinism, object parity."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from repro.radio.gnb import GNodeB
from repro.radio.population import (
    CellPopulation,
    Distribution,
    RandomVariable,
    UEPopulation,
)
from repro.radio.state import UeStateArrays
from repro.radio.ue import UserEquipment
from repro.simkernel.rng import RngRegistry
from repro.simkernel.streams import shard_stream


class TestRandomVariable:
    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            RandomVariable(-1.0, Distribution.POISSON)
        with pytest.raises(ValueError):
            RandomVariable(0.0, Distribution.LOG_NORMAL)
        with pytest.raises(ValueError):
            RandomVariable(5.0, Distribution.NORMAL, variance=-0.1)
        with pytest.raises(ValueError):
            RandomVariable(5.0, "weibull")  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            RandomVariable("many")  # type: ignore[arg-type]
        for mean in (math.nan, math.inf, -math.inf):
            for dist in (Distribution.NORMAL, Distribution.CONSTANT):
                with pytest.raises(ValueError, match="mean must be finite"):
                    RandomVariable(mean, dist)
        with pytest.raises(ValueError, match="mean must be finite"):
            RandomVariable(math.inf, Distribution.POISSON)
        for variance in (math.nan, math.inf):
            with pytest.raises(ValueError, match="variance"):
                RandomVariable(5.0, Distribution.NORMAL, variance=variance)
        # A normal's variance defaults to its mean, which must then be >= 0.
        with pytest.raises(ValueError, match="variance"):
            RandomVariable(-4.0, Distribution.NORMAL)
        assert RandomVariable(-4.0, Distribution.NORMAL, variance=1.0).variance == 1.0

    def test_string_distribution_coerced(self) -> None:
        rv = RandomVariable(3.0, "poisson")  # type: ignore[arg-type]
        assert rv.distribution is Distribution.POISSON

    def test_default_variance(self) -> None:
        assert RandomVariable(4.0, Distribution.NORMAL).variance == 4.0
        assert RandomVariable(4.0, Distribution.LOG_NORMAL).variance == 4.0
        assert RandomVariable(4.0, Distribution.POISSON).variance is None

    @pytest.mark.parametrize("dist", list(Distribution))
    def test_sample_mean_converges(self, dist: Distribution) -> None:
        rv = RandomVariable(6.0, dist, variance=2.0 if "normal" in dist.value else None)
        draws = rv.sample(np.random.default_rng(0), 20_000)
        assert draws.shape == (20_000,)
        assert abs(float(draws.mean()) - 6.0) / 6.0 < 0.05

    def test_log_normal_variance_targeted(self) -> None:
        rv = RandomVariable(10.0, Distribution.LOG_NORMAL, variance=4.0)
        draws = rv.sample(np.random.default_rng(1), 200_000)
        assert abs(float(draws.var()) - 4.0) < 0.25

    def test_constant_is_exact(self) -> None:
        draws = RandomVariable(3.5, Distribution.CONSTANT).sample(
            np.random.default_rng(0), 7
        )
        assert np.array_equal(draws, np.full(7, 3.5))

    def test_negative_count_rejected(self) -> None:
        with pytest.raises(ValueError):
            RandomVariable(3.0, Distribution.POISSON).sample(
                np.random.default_rng(0), -1
            )


class TestUEPopulation:
    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            UEPopulation(n_cells=0)
        with pytest.raises(ValueError):
            UEPopulation(network="6g-xdd")
        with pytest.raises(ValueError):
            UEPopulation(network="5g-tdd", bandwidth_mhz=100.0)  # SDR ceiling

    def test_realize_is_deterministic(self) -> None:
        pop = UEPopulation(
            n_cells=3, ues_per_cell=RandomVariable(20.0, Distribution.POISSON)
        )
        a = pop.realize_cells(RngRegistry(42), range(3))
        b = pop.realize_cells(RngRegistry(42), range(3))
        assert [c.n_ues for c in a] == [c.n_ues for c in b]
        for ca, cb in zip(a, b):
            assert ca.ue_ids() == cb.ue_ids()
            assert np.array_equal(ca.state.mean_cqi, cb.state.mean_cqi)
            assert np.array_equal(ca.state.gain, cb.state.gain)

    def test_realize_isolated_from_other_streams(self) -> None:
        """Draining an unrelated named stream must not perturb realization."""
        pop = UEPopulation(n_cells=2)
        rngs = RngRegistry(7)
        rngs.get("sensors.weather").standard_normal(1000)
        a = pop.realize_cells(rngs, range(2))
        b = pop.realize_cells(RngRegistry(7), range(2))
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.state.mean_cqi, cb.state.mean_cqi)

    def test_cells_at_least_one_ue(self) -> None:
        pop = UEPopulation(
            n_cells=16, ues_per_cell=RandomVariable(0.1, Distribution.POISSON)
        )
        cells = pop.realize_cells(RngRegistry(0), range(16))
        assert all(c.n_ues >= 1 for c in cells)

    def test_ue_ids_sorted_order_is_column_order(self) -> None:
        cell = UEPopulation(
            n_cells=1, ues_per_cell=RandomVariable(120.0, Distribution.CONSTANT)
        ).realize_cells(RngRegistry(0), [0])[0]
        assert cell.ue_ids() == sorted(cell.ue_ids())

    def test_expected_total(self) -> None:
        pop = UEPopulation(n_cells=20, ues_per_cell=RandomVariable(2500.0))
        assert pop.expected_total_ues == 50_000.0


class TestCellPopulation:
    @pytest.fixture()
    def cell(self) -> CellPopulation:
        return UEPopulation(
            n_cells=1,
            ues_per_cell=RandomVariable(6.0, Distribution.CONSTANT),
            network="5g-tdd",
            bandwidth_mhz=40.0,
        ).realize_cells(RngRegistry(9), [0])[0]

    def test_grants_conserve_prbs(self, cell: CellPopulation) -> None:
        grants = cell.grants_matrix(8)
        assert grants.shape == (8, 6)
        assert np.all(grants.sum(axis=1) == cell.carrier.n_prbs)

    def test_rotation_advances_across_calls(self, cell: CellPopulation) -> None:
        a = cell.grants_matrix(3)
        b = cell.grants_matrix(3)
        # 106 PRBs over 6 UEs leaves a remainder, so consecutive windows
        # continue the rotation instead of restarting it.
        assert not np.array_equal(a, b)
        both = UEPopulation(
            n_cells=1,
            ues_per_cell=RandomVariable(6.0, Distribution.CONSTANT),
            network="5g-tdd",
            bandwidth_mhz=40.0,
        ).realize_cells(RngRegistry(9), [0])[0].grants_matrix(6)
        assert np.array_equal(np.vstack([a, b]), both)

    @pytest.mark.parametrize("n_ues", [6, 450, 7000])
    def test_uplink_matrix_parity_with_object_path(self, n_ues: int) -> None:
        """Two consecutive windows match the object path, so the rotation
        carries across calls. At 450 UEs, more than 4 x 106 PRBs, the
        population evaluates only the granted pairs, as a fleet cell does.
        At 7,000 UEs a draw chunk holds 4 rounds, so the 17- and 5-round
        windows also cross chunk boundaries."""
        cell = UEPopulation(
            n_cells=1,
            ues_per_cell=RandomVariable(float(n_ues), Distribution.CONSTANT),
            network="5g-tdd",
            bandwidth_mhz=40.0,
        ).realize_cells(RngRegistry(9), [0])[0]
        gnb = GNodeB("pop-parity", cell.carrier, sdr=cell.sdr)
        for ue in cell.materialize():
            gnb.attach(ue)
        obj_rng, vec_rng = np.random.default_rng(3), np.random.default_rng(3)
        for n_samples in (17, 5):
            obj = gnb.uplink_samples(obj_rng, n_samples)
            vec = cell.uplink_matrix(vec_rng, n_samples)
            assert vec.shape == (n_ues, n_samples)
            for j, uid in enumerate(cell.ue_ids()):
                assert np.array_equal(obj[uid], vec[j])

    @pytest.mark.parametrize("n_ues", [6, 450])
    def test_uplink_matrix_into_a_reused_block(self, n_ues: int) -> None:
        """Windows written into one dirty ``out`` equal fresh blocks; at
        450 UEs (the gather branch) an entry no UE was granted is zeroed,
        not left from the window before."""
        fresh, reused = (
            UEPopulation(
                n_cells=1,
                ues_per_cell=RandomVariable(float(n_ues), Distribution.CONSTANT),
                network="5g-tdd",
                bandwidth_mhz=40.0,
            ).realize_cells(RngRegistry(9), [0])[0]
            for _ in range(2)
        )
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        out = np.full((n_ues, 5), np.nan)
        for _ in range(2):
            assert reused.uplink_matrix(rng_b, 5, out) is out
            assert np.array_equal(fresh.uplink_matrix(rng_a, 5), out)

    def test_materialize_bounds(self, cell: CellPopulation) -> None:
        assert len(cell.materialize(0)) == 0
        assert len(cell.materialize()) == cell.n_ues
        with pytest.raises(ValueError):
            cell.materialize(cell.n_ues + 1)

    def test_sampling_input_validation(self, cell: CellPopulation) -> None:
        with pytest.raises(ValueError):
            cell.uplink_matrix(np.random.default_rng(0), 0)


def _valid_state_fields(n: int = 3) -> dict[str, np.ndarray]:
    return {
        "mean_cqi": np.full(n, 10.0),
        "cqi_sigma": np.full(n, 0.7),
        "fading_sigma": np.full(n, 0.06),
        "gain": np.ones(n),
        "combined_eff": np.full(n, 0.8),
        "cap_bps": np.full(n, math.inf),
    }


class TestUeStateArrays:
    @pytest.mark.parametrize(
        ("name", "value"),
        [(name, math.nan) for name in _valid_state_fields()]
        + [
            ("cqi_sigma", math.inf),
            ("fading_sigma", math.inf),
            ("gain", math.inf),
            ("combined_eff", math.inf),
            ("combined_eff", 0.0),
            ("combined_eff", -1.0),
            ("cap_bps", 0.0),
            ("cap_bps", -5.0),
            ("cap_bps", -math.inf),
        ],
    )
    def test_bad_value_rejected(self, name: str, value: float) -> None:
        fields = _valid_state_fields()
        fields[name][1] = value
        with pytest.raises(ValueError, match=f"UeStateArrays.{name} must be"):
            UeStateArrays(**fields)

    def test_broadcast_value_checked_in_place(self) -> None:
        with pytest.raises(ValueError, match="UeStateArrays.combined_eff"):
            UeStateArrays.broadcast(
                mean_cqi=np.full(4, 10.0), gain=np.ones(4), cqi_sigma=0.7,
                fading_sigma=0.06, combined_eff=math.nan, cap_bps=math.inf,
            )

    def test_broadcast_value_checked_with_no_ues(self) -> None:
        """A cell starts with zero UEs drawn; its device-class values are
        checked all the same."""
        with pytest.raises(ValueError, match="UeStateArrays.cap_bps"):
            UeStateArrays.broadcast(
                mean_cqi=np.empty(0), gain=np.empty(0), cqi_sigma=0.7,
                fading_sigma=0.06, combined_eff=0.8, cap_bps=-1.0,
            )

    def test_realize_rejects_a_bad_device_value(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        """Realization draws no UE, yet still rejects a bad device class."""
        monkeypatch.setattr(
            UserEquipment, "combined_efficiency", lambda *_: math.nan
        )
        with pytest.raises(ValueError, match="UeStateArrays.combined_eff"):
            UEPopulation(n_cells=2).realize_cells(RngRegistry(0), [1])


def _cells(
    n_ues: float, n_cells: int = 1, **fields: RandomVariable
) -> list[CellPopulation]:
    """Every cell of a 5g-tdd, 40 MHz population of ``n_ues`` UEs a cell."""
    return UEPopulation(
        n_cells=n_cells,
        ues_per_cell=RandomVariable(n_ues, Distribution.CONSTANT),
        network="5g-tdd",
        bandwidth_mhz=40.0,
        **fields,
    ).realize_cells(RngRegistry(3), range(n_cells))


def _assert_device_values_stride0(state: UeStateArrays) -> None:
    for name in ("cqi_sigma", "fading_sigma", "combined_eff", "cap_bps"):
        view = getattr(state, name)
        assert view.shape == (state.n_ues,)
        assert view.strides == (0,)
        assert not view.flags.writeable


class TestLazyDraws:
    """A cell draws a UE's operating point when a call first needs it, and
    gets the bytes an eager draw of every UE gives."""

    @pytest.mark.parametrize(
        ("n_ues", "windows", "drawn"),
        [
            # Gather branch, as in a fleet cell: 106 extra-PRB ranks a round.
            (5_000, (10, 10, 10), (115, 125, 135)),
            # Gather branch whose ranks wrap past n in the third window.
            (450, (100, 150, 120), (205, 355, 450)),
            # Just above the budget: ranks wrap at once, the dense branch.
            (130, (17, 5, 9), (130, 130, 130)),
            # Fewer UEs than PRBs: dense.
            (6, (17, 5, 9), (6, 6, 6)),
        ],
    )
    def test_lazy_cell_matches_a_forced_one(
        self, n_ues: int, windows: tuple[int, ...], drawn: tuple[int, ...]
    ) -> None:
        (lazy,), (forced,) = _cells(float(n_ues)), _cells(float(n_ues))
        assert forced.state.n_ues == n_ues  # draws every UE up front
        lazy_rng, forced_rng = np.random.default_rng(5), np.random.default_rng(5)
        for n_samples, n_drawn in zip(windows, drawn):
            block = lazy.uplink_matrix(lazy_rng, n_samples)
            assert block.tobytes() == forced.uplink_matrix(
                forced_rng, n_samples
            ).tobytes()
            assert lazy._drawn.n_ues == n_drawn
        assert lazy.state.mean_cqi.tobytes() == forced.state.mean_cqi.tobytes()
        assert lazy.state.gain.tobytes() == forced.state.gain.tobytes()

    @pytest.mark.parametrize("dist", list(Distribution))
    def test_draws_in_pieces_equal_one_draw(self, dist: Distribution) -> None:
        """numpy fills a draw one element after another, for every family."""
        spec = {
            "mean_cqi": RandomVariable(8.0, dist),
            "gain_spread": RandomVariable(1.0, dist),
        }
        (pieces,), (whole,) = _cells(300.0, **spec), _cells(300.0, **spec)
        assert len(pieces.materialize(7)) == 7
        assert len(pieces.materialize(120)) == 120
        assert pieces._drawn.n_ues == 120
        for name in ("mean_cqi", "gain"):
            assert (
                getattr(pieces.state, name).tobytes()
                == getattr(whole.state, name).tobytes()
            )

    def test_two_realizations_from_one_registry_hold_the_same_values(
        self,
    ) -> None:
        """A cell draws from its own copies of the registry's generators,
        so cells realized for one index never interleave their draws."""
        pop = UEPopulation(
            n_cells=2, ues_per_cell=RandomVariable(50.0, Distribution.CONSTANT)
        )
        rngs = RngRegistry(4)
        (a,), (b,) = pop.realize_cells(rngs, [1]), pop.realize_cells(rngs, [1])
        a.materialize(10)
        b.materialize(30)
        a.materialize(20)
        reference = pop.realize_cells(RngRegistry(4), [1])[0].state
        for cell in (a, b):
            assert np.array_equal(cell.state.mean_cqi, reference.mean_cqi)
            assert np.array_equal(cell.state.gain, reference.gain)
        # The registry's generators stay where realization found them.
        fresh = RngRegistry(4)
        for purpose in ("channel", "gain"):
            name = shard_stream(1, purpose)
            assert (
                rngs.get(name).bit_generator.state
                == fresh.get(name).bit_generator.state
            )


class TestFleetCellMemory:
    """A 50k-UE cell, the size of a ``ue_fleet_serial`` cell, holds each
    device-class value once, one scheduling round of draws at a time, and
    only the UEs its scheduler has reached."""

    @pytest.fixture(scope="class")
    def fleet_cell(self) -> CellPopulation:
        return _cells(50_000.0)[0]

    def test_device_class_values_are_stride0_views(
        self, fleet_cell: CellPopulation
    ) -> None:
        _assert_device_values_stride0(fleet_cell.state)
        assert fleet_cell.state.n_ues == 50_000

    def test_two_windows_draw_only_the_ues_they_reach(self) -> None:
        """Round-robin reaches rounds + 106 - 1 UEs: 125 after 20 rounds."""
        (cell,) = _cells(50_000.0)
        rng = np.random.default_rng(3)
        assert cell._drawn.n_ues == 0
        for n_drawn in (115, 125):
            cell.uplink_matrix(rng, 10)
            assert cell._drawn.n_ues == n_drawn
            _assert_device_values_stride0(cell._state_through(n_drawn))

    def test_realizing_twenty_cells_retains_under_1mb(self) -> None:
        """Realization draws no UE: 20 cells of 50k UEs, ~1M in all, hold
        less than a megabyte (16 MB when every UE was drawn up front)."""
        _cells(1.0)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            cells = _cells(50_000.0, n_cells=20)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(c.n_ues for c in cells) == 1_000_000
        assert retained < 1 << 20, retained

    def test_uplink_matrix_peak_below_twice_its_block(
        self, fleet_cell: CellPopulation
    ) -> None:
        rng = np.random.default_rng(3)
        tracemalloc.start()
        try:
            block = fleet_cell.uplink_matrix(rng, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block.shape == (50_000, 10)
        assert peak < 2 * block.nbytes, peak / block.nbytes
