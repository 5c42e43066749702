"""Declarative UE populations: validation, determinism, object parity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.radio.gnb import GNodeB
from repro.radio.population import (
    CellPopulation,
    Distribution,
    RandomVariable,
    UEPopulation,
)
from repro.simkernel.rng import RngRegistry


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

    def test_uplink_matrix_parity_with_object_path(self, cell: CellPopulation) -> None:
        ues = cell.materialize()
        gnb = GNodeB("pop-parity", cell.carrier, sdr=cell.sdr)
        for ue in ues:
            gnb.attach(ue)
        fresh = UEPopulation(
            n_cells=1,
            ues_per_cell=RandomVariable(6.0, Distribution.CONSTANT),
            network="5g-tdd",
            bandwidth_mhz=40.0,
        ).realize_cells(RngRegistry(9), [0])[0]
        obj = gnb.uplink_samples(np.random.default_rng(3), 17)
        vec = fresh.uplink_matrix(np.random.default_rng(3), 17)
        for j, uid in enumerate(fresh.ue_ids()):
            assert np.array_equal(obj[uid], vec[j])

    def test_materialize_bounds(self, cell: CellPopulation) -> None:
        assert len(cell.materialize(0)) == 0
        assert len(cell.materialize()) == cell.n_ues
        with pytest.raises(ValueError):
            cell.materialize(cell.n_ues + 1)

    def test_sampling_input_validation(self, cell: CellPopulation) -> None:
        with pytest.raises(ValueError):
            cell.uplink_matrix(np.random.default_rng(0), 0)
