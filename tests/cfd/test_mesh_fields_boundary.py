"""Tests for mesh, fields and boundary conditions."""

import numpy as np
import pytest

from repro.cfd import BoundaryConditions, FlowFields, ScreenPanel, StructuredMesh, WindInlet
from repro.cfd.boundary import cups_screen_walls
from repro.cfd.mesh import default_mesh


class TestMesh:
    def test_shape_and_spacing(self):
        m = StructuredMesh(20, 10, 5, lx=100.0, ly=50.0, lz=10.0)
        assert m.shape == (20, 10, 5)
        assert m.n_cells == 1000
        assert m.dx == 5.0 and m.dy == 5.0 and m.dz == 2.0
        assert m.cell_volume == 50.0
        assert m.volume == 50000.0

    def test_cups_volume_scale(self):
        # The paper's structure is ~100,000 m^3: the default 100 m x 100 m x
        # 9 m enclosure, inside a domain with clearance for wind to divert.
        m = default_mesh()
        structure_volume = (m.lx - 40.0) * (m.ly - 40.0) * 9.0
        assert structure_volume == pytest.approx(90_000.0)
        assert m.volume > 3 * structure_volume

    def test_cell_centers(self):
        m = StructuredMesh(4, 4, 4, lx=4.0, ly=4.0, lz=4.0)
        x, _, _ = m.cell_centers()
        assert np.allclose(x, [0.5, 1.5, 2.5, 3.5])

    def test_locate(self):
        m = StructuredMesh(10, 10, 10, lx=10.0, ly=10.0, lz=10.0)
        assert m.locate(0.5, 5.5, 9.9) == (0, 5, 9)
        assert m.locate(10.0, 10.0, 10.0) == (9, 9, 9)  # boundary clamps
        with pytest.raises(ValueError):
            m.locate(-1.0, 0.0, 0.0)

    def test_refine(self):
        m = StructuredMesh(4, 4, 4)
        r = m.refine(2)
        assert r.shape == (8, 8, 8)
        assert r.lx == m.lx
        with pytest.raises(ValueError):
            m.refine(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            StructuredMesh(2, 4, 4)
        with pytest.raises(ValueError):
            StructuredMesh(4, 4, 4, lx=-1.0)

    @pytest.mark.parametrize("axis, value", [("nx", 3.5), ("ny", 4.0), ("nz", 12.0)])
    def test_cell_counts_must_be_integers(self, axis, value):
        counts = {"nx": 4, "ny": 4, "nz": 4}
        with pytest.raises(TypeError, match=f"{axis} must be an integer"):
            StructuredMesh(**{**counts, axis: value})
        assert StructuredMesh(**{**counts, axis: np.int64(5)}).n_cells == 80

    @pytest.mark.parametrize("extent", ["lx", "ly", "lz"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_extent(self, extent, value):
        with pytest.raises(ValueError, match=f"{extent} must be positive and finite"):
            StructuredMesh(4, 4, 4, **{extent: value})


class TestFields:
    def test_initialization(self):
        f = FlowFields(StructuredMesh(4, 4, 4))
        assert f.u.shape == (4, 4, 4)
        assert np.all(f.u == 0)
        f.initialize_uniform(u=2.0, temperature=300.0)
        assert np.all(f.u == 2.0)
        assert np.all(f.temperature == 300.0)

    def test_speed(self):
        f = FlowFields(StructuredMesh(3, 3, 3))
        f.initialize_uniform(u=3.0, v=4.0)
        assert np.allclose(f.speed(), 5.0)

    def test_copy_independent(self):
        f = FlowFields(StructuredMesh(3, 3, 3)).initialize_uniform(u=1.0)
        g = f.copy()
        g.u[0, 0, 0] = 99.0
        assert f.u[0, 0, 0] == 1.0
        assert not np.array_equal(f.u, g.u)
        h = f.copy()
        for name in ("u", "v", "w", "p", "temperature"):
            assert np.array_equal(getattr(h, name), getattr(f, name))
            assert getattr(h, name) is not getattr(f, name)

    def test_kinetic_energy(self):
        m = StructuredMesh(4, 4, 4, lx=4.0, ly=4.0, lz=4.0)
        f = FlowFields(m).initialize_uniform(u=2.0)
        # 0.5 * |U|^2 * volume = 0.5 * 4 * 64.
        assert f.kinetic_energy() == pytest.approx(128.0)


class TestWindInlet:
    def test_log_profile_monotone(self):
        inlet = WindInlet(speed_mps=3.0)
        z = np.array([0.5, 1.0, 2.0, 5.0, 9.0])
        profile = inlet.profile(z)
        assert np.all(np.diff(profile) > 0)
        assert profile[2] == pytest.approx(3.0)  # reference height

    def test_profile_clipped_at_roughness(self):
        inlet = WindInlet(speed_mps=3.0, roughness_length_m=0.1)
        assert inlet.profile(np.array([0.01]))[0] == 0.0

    def test_direction_components(self):
        cu, cv = WindInlet(3.0, direction_deg=90.0).components
        assert cu == pytest.approx(0.0, abs=1e-12)
        assert cv == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            WindInlet(speed_mps=-1.0)
        with pytest.raises(ValueError):
            WindInlet(speed_mps=1.0, roughness_length_m=3.0)


class TestScreenPanels:
    def test_mask_one_cell_thick(self):
        m = StructuredMesh(10, 10, 5, lx=100, ly=100, lz=10)
        panel = ScreenPanel("x", 10.0, 10.0, 90.0, 0.0, 9.0)
        mask = panel.mask(m)
        assert mask.any()
        occupied_x = np.unique(np.nonzero(mask)[0])
        assert len(occupied_x) == 1

    def test_y_axis_panel(self):
        m = StructuredMesh(10, 10, 5, lx=100, ly=100, lz=10)
        mask = ScreenPanel("y", 90.0, 10.0, 90.0, 0.0, 9.0).mask(m)
        occupied_y = np.unique(np.nonzero(mask)[1])
        assert len(occupied_y) == 1

    def test_breach_removes_resistance(self):
        m = default_mesh()
        walls = cups_screen_walls(m)
        bcs = BoundaryConditions(inlet=WindInlet(3.0), screens=walls)
        full = bcs.resistance_mask(m).sum()
        breached = bcs.breach_any(0).resistance_mask(m).sum()
        assert breached < full
        # Original object untouched (breach_any is a pure what-if).
        assert bcs.resistance_mask(m).sum() == full

    def test_breach_index_validation(self):
        m = default_mesh()
        bcs = BoundaryConditions(inlet=WindInlet(3.0), screens=cups_screen_walls(m))
        with pytest.raises(IndexError):
            bcs.breach_any(99)

    def test_cups_enclosure_complete(self):
        # Four walls plus the roof: the structure is fully screened.
        m = default_mesh()
        walls = cups_screen_walls(m)
        assert len(walls) == 5
        assert {w.axis for w in walls} == {"x", "y", "z"}

    def test_invalid_panel(self):
        with pytest.raises(ValueError):
            ScreenPanel("q", 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            ScreenPanel("x", 1.0, 5.0, 5.0)

    def test_roof_panel_masks_horizontal_plane(self):
        m = default_mesh()
        mask = ScreenPanel("z", 9.0, 20.0, 120.0, 20.0, 120.0).mask(m)
        occupied_z = np.unique(np.nonzero(mask)[2])
        assert len(occupied_z) == 1

    def test_inset_validation(self):
        with pytest.raises(ValueError):
            cups_screen_walls(default_mesh(), inset_m=90.0)
        with pytest.raises(ValueError):
            cups_screen_walls(default_mesh(), height_m=50.0)


class TestEnclosureClosure:
    @pytest.mark.parametrize("mesh", [
        StructuredMesh(14, 14, 12, lx=140.0, ly=140.0, lz=30.0),
        default_mesh(),
    ], ids=["coarse", "default"])
    def test_no_holes_in_perimeter_or_roof(self, mesh):
        """The enclosure must be airtight at cell resolution: a missing
        corner cell is a phantom breach (a bug this test caught)."""
        from repro.cfd.boundary import WindInlet

        bcs = BoundaryConditions(
            inlet=WindInlet(3.0), screens=cups_screen_walls(mesh)
        )
        rm = bcs.resistance_mask(mesh)
        i_lo, i_hi = int(20.0 / mesh.dx), int((mesh.lx - 20.0) / mesh.dx)
        j_lo, j_hi = int(20.0 / mesh.dy), int((mesh.ly - 20.0) / mesh.dy)
        k_roof = int(9.0 / mesh.dz)
        for k in range(k_roof):  # every level below the roof
            for j in range(j_lo, j_hi + 1):
                assert rm[i_lo, j, k] > 0, ("upwind wall hole", j, k)
                assert rm[i_hi, j, k] > 0, ("downwind wall hole", j, k)
            for i in range(i_lo, i_hi + 1):
                assert rm[i, j_lo, k] > 0, ("south wall hole", i, k)
                assert rm[i, j_hi, k] > 0, ("north wall hole", i, k)
        roof = rm[i_lo:i_hi + 1, j_lo:j_hi + 1, k_roof]
        assert (roof > 0).all(), "roof hole"
