"""Tests for case generation and post-processing."""

import os

import numpy as np
import pytest

from repro.cfd import (
    FlowFields,
    SolverConfig,
    case_from_telemetry,
    probe_at_points,
    residuals_against_measurements,
    slice_raster,
    write_vtk_ascii,
)
from repro.cfd.case import TelemetrySnapshot
from repro.cfd.mesh import StructuredMesh, default_mesh


def snapshot(**overrides):
    base = dict(
        wind_speed_mps=3.2,
        wind_direction_deg=15.0,
        exterior_temperature_k=295.0,
        interior_temperature_k=297.0,
        relative_humidity=0.55,
        timestamp_s=1000.0,
    )
    base.update(overrides)
    return TelemetrySnapshot(**base)


class TestTelemetrySnapshot:
    def test_valid(self):
        snap = snapshot()
        assert snap.wind_speed_mps == 3.2

    def test_validation(self):
        with pytest.raises(ValueError):
            snapshot(wind_speed_mps=-1.0)
        with pytest.raises(ValueError):
            snapshot(relative_humidity=1.5)
        with pytest.raises(ValueError):
            snapshot(exterior_temperature_k=100.0)


class TestCaseFromTelemetry:
    def test_inlet_from_telemetry(self):
        case = case_from_telemetry(snapshot())
        assert case.bcs.inlet.speed_mps == 3.2
        assert case.bcs.inlet.direction_deg == 15.0
        assert case.bcs.inlet.temperature_k == 295.0
        assert len(case.bcs.screens) == 5  # four walls + roof

    def test_humidity_modulates_ground_temperature(self):
        dry = case_from_telemetry(snapshot(relative_humidity=0.1))
        wet = case_from_telemetry(snapshot(relative_humidity=0.9))
        assert dry.bcs.ground_temperature_k > wet.bcs.ground_temperature_k

    def test_case_name_from_timestamp(self):
        case = case_from_telemetry(snapshot(timestamp_s=12345.0))
        assert case.name == "cups_structure_12345"

    def test_build_solver_runs(self):
        case = case_from_telemetry(
            snapshot(), config=SolverConfig(dt=0.05, n_steps=5, poisson_iterations=10)
        )
        result = case.build_solver().solve()
        assert result.steps_run == 5

    def test_write_case_directory(self, tmp_path):
        case = case_from_telemetry(snapshot())
        case_dir = case.write(str(tmp_path))
        for rel in ("system/controlDict", "system/blockMeshDict",
                    "system/decomposeParDict", "0/U", "0/T", "case.json"):
            assert os.path.exists(os.path.join(case_dir, rel)), rel
        control = open(os.path.join(case_dir, "system/controlDict")).read()
        assert "FoamFile" in control and "cupsFoam" in control

    def test_manifest_records_breaches(self, tmp_path):
        case = case_from_telemetry(snapshot())
        case.bcs = case.bcs.breach_any(2)
        case_dir = case.write(str(tmp_path))
        import json

        manifest = json.load(open(os.path.join(case_dir, "case.json")))
        assert manifest["breached_panels"] == [2]

    def test_input_size_positive_and_scales_with_mesh(self):
        small = case_from_telemetry(snapshot(), mesh=StructuredMesh(10, 10, 5))
        large = case_from_telemetry(snapshot(), mesh=StructuredMesh(40, 40, 10))
        assert 0 < small.input_size_bytes() < large.input_size_bytes()


class TestPostprocess:
    def _fields(self):
        f = FlowFields(default_mesh())
        f.u[:] = 2.0
        f.u[:, :, 0] = 0.0
        return f

    def test_slice_raster_shapes(self):
        f = self._fields()
        m = f.mesh
        assert slice_raster(f, "z").shape == (m.nx, m.ny)
        assert slice_raster(f, "y").shape == (m.nx, m.nz)
        assert slice_raster(f, "x").shape == (m.ny, m.nz)
        with pytest.raises(ValueError):
            slice_raster(f, "q")

    def test_slice_position(self):
        f = self._fields()
        ground = slice_raster(f, "z", position_m=0.1)
        canopy = slice_raster(f, "z", position_m=4.0)
        assert np.all(ground == 0.0)
        assert np.all(canopy == 2.0)

    def test_probe(self):
        f = self._fields()
        values = probe_at_points(f, [(50.0, 50.0, 5.0), (50.0, 50.0, 0.1)])
        assert values[0] == pytest.approx(2.0)
        assert values[1] == 0.0
        with pytest.raises(ValueError):
            probe_at_points(f, [])

    def test_residuals(self):
        f = self._fields()
        pts = [(50.0, 50.0, 5.0)]
        res = residuals_against_measurements(f, pts, [2.5])
        assert res[0] == pytest.approx(0.5)
        with pytest.raises(ValueError):
            residuals_against_measurements(f, pts, [1.0, 2.0])

    def test_vtk_output(self, tmp_path):
        f = FlowFields(StructuredMesh(4, 3, 3))
        f.u[:] = 1.0
        path = write_vtk_ascii(f, str(tmp_path / "out.vtk"))
        content = open(path).read()
        assert content.startswith("# vtk DataFile")
        assert "DIMENSIONS 4 3 3" in content
        assert "SCALARS speed double 1" in content
        assert "SCALARS temperature double 1" in content
        # One value per point per scalar.
        data_lines = [
            ln for ln in content.splitlines()
            if ln and ln[0].isdigit() or ln.startswith("-")
        ]
        assert len(data_lines) >= 2 * 4 * 3 * 3


class TestAsciiRender:
    def test_renders_rows_and_legend(self):
        from repro.cfd.postprocess import render_ascii

        raster = np.linspace(0.0, 5.0, 12).reshape(4, 3)
        art = render_ascii(raster, width=4)
        lines = art.splitlines()
        assert len(lines) == 4  # 3 rows + legend
        assert lines[-1].startswith("[min 0.00, max 5.00]")
        assert all(len(ln) == 4 for ln in lines[:-1])

    def test_constant_field(self):
        from repro.cfd.postprocess import render_ascii

        art = render_ascii(np.full((5, 2), 3.0))
        assert "[min 3.00, max 3.00]" in art

    def test_validation(self):
        from repro.cfd.postprocess import render_ascii

        with pytest.raises(ValueError):
            render_ascii(np.zeros((0, 0)))
        with pytest.raises(ValueError):
            render_ascii(np.zeros((4, 4)), width=1)
        with pytest.raises(ValueError):
            render_ascii(np.zeros(4))
