"""The digital twin: CFD prediction vs. measured interior conditions.

"We plan to structure the coupling of real-time sensor data with CFD as a
'digital twin' in which the true atmospheric conditions within the
structure are 'twinned' by the results of the CFD model ... a deviation
between predicted and measured airflow can portend a possible screen
breach and, perhaps, an area of the structure where the breach may have
occurred."

Mechanics:

* :meth:`DigitalTwin.update` stores a fresh CFD solution and probes the
  predicted wind speed at each interior station.
* Predictions scale linearly with the boundary wind between CFD refreshes
  (the flow is wind-driven, so interior |U| tracks the boundary |U|).
* Per-station *ratio* calibration ("back tested against historical data
  ... necessary to maintain model accuracy") absorbs the coarse model's
  attenuation error multiplicatively; it is re-seeded after every CFD
  refresh -- except for stations currently under suspicion, whose breach
  evidence must not be calibrated away.
* A calibrated residual above threshold for ``persistence`` consecutive
  comparisons (one per telemetry interval) flags the station's nearest
  panel; the persistence filter rejects single-reading instrument noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cfd.case import CfdCase
from repro.cfd.fields import FlowFields
from repro.cfd.postprocess import probe_at_points
from repro.sensors.station import StationReading, WeatherStation


@dataclass(frozen=True)
class TwinComparison:
    """Result of one measured-vs-predicted comparison."""

    time_s: float
    residuals_mps: dict[str, float]        # calibrated residual per station
    raw_residuals_mps: dict[str, float]    # against the uncalibrated model
    breach_suspected: bool
    suspect_panel_index: Optional[int]
    suspect_station_id: Optional[str]
    calibration_pass: bool = False


class DigitalTwin:
    """Holds the current CFD prediction and runs the residual test.

    Parameters
    ----------
    stations:
        Station list; only interior stations participate.
    probe_height_m:
        Height of the station anemometers.
    residual_threshold_mps:
        Calibrated-residual magnitude that counts as anomalous.
    calibration_alpha:
        EWMA weight for the continuous ratio calibration.
    persistence:
        Consecutive anomalous comparisons required to raise suspicion.
    """

    def __init__(
        self,
        stations: list[WeatherStation],
        probe_height_m: float = 3.0,
        residual_threshold_mps: float = 1.0,
        calibration_alpha: float = 0.3,
        persistence: int = 2,
    ) -> None:
        interior = [s for s in stations if s.interior]
        if not interior:
            raise ValueError("the twin needs at least one interior station")
        if residual_threshold_mps <= 0:
            raise ValueError("residual threshold must be positive")
        if not 0.0 < calibration_alpha <= 1.0:
            raise ValueError("calibration_alpha out of (0,1]")
        if persistence < 1:
            raise ValueError("persistence must be >= 1")
        self.stations = interior
        self.probe_height_m = probe_height_m
        self.residual_threshold_mps = residual_threshold_mps
        self.calibration_alpha = calibration_alpha
        self.persistence = persistence
        self._case: Optional[CfdCase] = None
        self._predicted_at_case_wind: dict[str, float] = {}
        self._case_wind_mps: float = 0.0
        self._ratio: dict[str, float] = {s.station_id: 1.0 for s in interior}
        self._streak: dict[str, int] = {s.station_id: 0 for s in interior}
        self._needs_seed = False
        self._seed_holdout: set[str] = set()
        self.comparisons: list[TwinComparison] = []

    @property
    def has_prediction(self) -> bool:
        return self._case is not None

    def update(self, case: CfdCase, fields: FlowFields) -> None:
        """Install a fresh CFD solution as the current twin state.

        Triggers a calibration pass on the next comparison; stations with
        an active anomaly streak are held out so the refresh cannot absorb
        a developing breach signature.
        """
        # Probe above the mesh's ground cell layer: the no-slip ground BC
        # zeroes the bottom cell, so an anemometer-height probe on a coarse
        # mesh must read the first resolved flow layer instead.
        height = max(self.probe_height_m, 1.5 * fields.mesh.dz)
        height = min(height, fields.mesh.lz - 0.5 * fields.mesh.dz)
        points = [
            (s.position_m[0], s.position_m[1], height) for s in self.stations
        ]
        probed = probe_at_points(fields, points)
        self._case = case
        self._case_wind_mps = max(case.bcs.inlet.speed_mps, 0.1)
        self._predicted_at_case_wind = {
            s.station_id: float(v) for s, v in zip(self.stations, probed)
        }
        self._needs_seed = True
        self._seed_holdout = {
            sid for sid, streak in self._streak.items() if streak > 0
        }

    def predict(
        self, station_id: str, boundary_wind_mps: float, calibrated: bool = True
    ) -> float:
        """Predicted interior speed at a station for the current wind."""
        if self._case is None:
            raise RuntimeError("twin has no CFD prediction yet")
        base = self._predicted_at_case_wind[station_id]
        raw = base * (max(boundary_wind_mps, 0.0) / self._case_wind_mps)
        return raw * self._ratio[station_id] if calibrated else raw

    def _seed(
        self, boundary_wind_mps: float, interior_readings: list[StationReading]
    ) -> None:
        for reading in interior_readings:
            if reading.station_id in self._seed_holdout:
                continue
            raw_pred = self.predict(
                reading.station_id, boundary_wind_mps, calibrated=False
            )
            if raw_pred > 1e-6:
                self._ratio[reading.station_id] = (
                    max(reading.wind_speed_mps, 0.0) / raw_pred
                )
        self._needs_seed = False
        self._seed_holdout = set()

    def compare(
        self,
        time_s: float,
        boundary_wind_mps: float,
        interior_readings: list[StationReading],
    ) -> TwinComparison:
        """Run the residual test against a set of interior readings.

        Quiet residuals feed the continuous ratio calibration; anomalous
        ones are *not* absorbed (a breach must not be calibrated away) and
        extend the station's anomaly streak.
        """
        if self._case is None:
            raise RuntimeError("twin has no CFD prediction yet")
        by_id = {s.station_id: s for s in self.stations}
        if self._needs_seed:
            holdout = set(self._seed_holdout)
            self._seed(boundary_wind_mps, interior_readings)
            if not holdout:
                comparison = TwinComparison(
                    time_s=time_s, residuals_mps={}, raw_residuals_mps={},
                    breach_suspected=False, suspect_panel_index=None,
                    suspect_station_id=None, calibration_pass=True,
                )
                self.comparisons.append(comparison)
                return comparison
            # Held-out stations still get judged below against their old
            # calibration, so a developing breach survives the refresh.
            interior_readings = [
                r for r in interior_readings if r.station_id in holdout
            ]

        raw: dict[str, float] = {}
        calibrated: dict[str, float] = {}
        for reading in interior_readings:
            if reading.station_id not in by_id:
                raise KeyError(f"unknown interior station {reading.station_id!r}")
            raw_pred = self.predict(
                reading.station_id, boundary_wind_mps, calibrated=False
            )
            cal_pred = self.predict(reading.station_id, boundary_wind_mps)
            raw[reading.station_id] = reading.wind_speed_mps - raw_pred
            adj = reading.wind_speed_mps - cal_pred
            calibrated[reading.station_id] = adj
            if abs(adj) <= self.residual_threshold_mps:
                self._streak[reading.station_id] = 0
                if raw_pred > 1e-6:
                    observed = max(reading.wind_speed_mps, 0.0) / raw_pred
                    self._ratio[reading.station_id] = (
                        (1 - self.calibration_alpha)
                        * self._ratio[reading.station_id]
                        + self.calibration_alpha * observed
                    )
            else:
                self._streak[reading.station_id] += 1

        suspect_id = None
        persistent = {
            sid: calibrated[sid]
            for sid in calibrated
            if self._streak[sid] >= self.persistence
        }
        if persistent:
            suspect_id = max(persistent, key=lambda sid: abs(persistent[sid]))
        suspect_panel = (
            by_id[suspect_id].nearest_panel_index if suspect_id is not None else None
        )
        comparison = TwinComparison(
            time_s=time_s,
            residuals_mps=calibrated,
            raw_residuals_mps=raw,
            breach_suspected=suspect_id is not None,
            suspect_panel_index=suspect_panel,
            suspect_station_id=suspect_id,
        )
        self.comparisons.append(comparison)
        return comparison
