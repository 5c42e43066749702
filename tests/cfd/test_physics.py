"""Physics sanity tests beyond the evaluation's needs.

Cheap qualitative checks that the solver behaves like air, not like a
random PDE: directional symmetry and thermal response.
"""

import warnings

import numpy as np
import pytest

from repro.cfd import (
    BoundaryConditions,
    ProjectionSolver,
    SolverConfig,
    WindInlet,
)
from repro.cfd.boundary import cups_screen_walls
from repro.cfd.mesh import default_mesh

warnings.filterwarnings("ignore", category=RuntimeWarning)


def solver_for(wind=3.0, direction=0.0, ground_dt=3.0, mesh=None, **cfg_kw):
    m = mesh if mesh is not None else default_mesh()
    bcs = BoundaryConditions(
        inlet=WindInlet(speed_mps=wind, direction_deg=direction),
        screens=cups_screen_walls(m),
        interior_temperature_k=295.15,
        ground_temperature_k=295.15 + ground_dt,
    )
    defaults = dict(dt=0.05, n_steps=120, poisson_iterations=25)
    defaults.update(cfg_kw)
    return ProjectionSolver(m, bcs, SolverConfig(**defaults))


class TestDirectionality:
    def test_spanwise_symmetry_with_aligned_wind(self):
        """Wind along +x through a y-symmetric domain: the mean flow field
        is y-mirror symmetric up to the wake's unsteadiness."""
        f = solver_for(direction=0.0).solve().fields
        speed = f.speed()
        mirrored = speed[:, ::-1, :]
        scale = max(float(speed.max()), 1e-9)
        asymmetry = float(np.abs(speed - mirrored).mean()) / scale
        assert asymmetry < 0.1

    def test_angled_wind_breaks_symmetry(self):
        f = solver_for(direction=30.0).solve().fields
        # A +30 degree wind drives positive spanwise flow overall.
        assert float(f.v.mean()) > 0.0

    @pytest.mark.slow
    def test_reversed_angle_reverses_v(self):
        plus = solver_for(direction=20.0).solve().fields
        minus = solver_for(direction=-20.0).solve().fields
        assert float(plus.v.mean()) > 0.0 > float(minus.v.mean())


class TestThermal:
    @pytest.mark.slow
    def test_hotter_ground_stronger_updraft(self):
        mild = solver_for(wind=0.5, ground_dt=2.0).solve().fields
        hot = solver_for(wind=0.5, ground_dt=15.0).solve().fields
        sel = np.s_[4:-4, 4:-4, 1:5]
        assert hot.w[sel].mean() > mild.w[sel].mean()

    @pytest.mark.slow
    def test_temperature_bounded_by_sources(self):
        """With an inlet at T_in and ground at T_g > T_in, the field stays
        within [min, max] of the boundary temperatures (maximum principle,
        up to the initial condition)."""
        s = solver_for(wind=3.0, ground_dt=5.0, n_steps=200)
        f = s.solve().fields
        t_min = min(s.bcs.inlet.temperature_k, 295.15)
        t_max = max(s.bcs.ground_temperature_k, 295.15)
        assert float(f.temperature.min()) >= t_min - 0.5
        assert float(f.temperature.max()) <= t_max + 0.5

    @pytest.mark.slow
    def test_warm_ground_heats_near_surface_air(self):
        f = solver_for(wind=2.0, ground_dt=8.0, n_steps=200).solve().fields
        near_ground = f.temperature[:, :, 1].mean()
        aloft = f.temperature[:, :, -2].mean()
        assert near_ground > aloft
