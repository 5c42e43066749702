"""Weather stations: noisy samplers of the weather truth.

Commodity agricultural stations at fixed positions in and around the CUPS,
reporting every 5 minutes. Interior stations measure the *attenuated*
interior airflow; a nearby breach raises the local attenuation factor --
that is the signal the digital twin's residual test picks up. Measurement
noise is sized so that consecutive readings under stationary weather are
usually statistically indistinguishable (the paper's stated property).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.sensors.breach import BreachSchedule
from repro.sensors.weather import SyntheticWeather, WeatherState, clip
from repro.simkernel.streams import sensor_stream

if TYPE_CHECKING:
    from repro.simkernel.engine import Engine

#: The paper's reporting interval.
REPORT_INTERVAL_S = 300.0

#: Interior wind attenuation of an intact screen house (calibrated to the
#: CFD solver's interior/exterior ratio of ~0.5).
INTACT_ATTENUATION = 0.5
#: Attenuation near a fully breached panel: locally, air comes through.
BREACH_ATTENUATION = 0.85


@dataclass(frozen=True)
class StationReading:
    """One report from one station."""

    station_id: str
    time_s: float
    wind_speed_mps: float
    wind_direction_deg: float
    temperature_k: float
    relative_humidity: float
    interior: bool


class WeatherStation:
    """A station at a fixed position.

    Parameters
    ----------
    station_id:
        Identifier, e.g. ``"cups-int-3"``.
    position_m:
        (x, y) in domain coordinates.
    interior:
        Interior stations report attenuated wind and interior temperature.
    nearest_panel_index:
        For interior stations: the screen panel this station sits closest
        to; a breach of that panel shifts the station's local attenuation.
    wind_noise_sigma / temp_noise_sigma / humidity_noise_sigma:
        Instrument noise scales (commodity-station grade).
    """

    def __init__(
        self,
        station_id: str,
        position_m: tuple[float, float],
        interior: bool = False,
        nearest_panel_index: Optional[int] = None,
        wind_noise_sigma: float = 0.35,
        temp_noise_sigma: float = 0.4,
        humidity_noise_sigma: float = 0.03,
    ) -> None:
        if interior and nearest_panel_index is None:
            raise ValueError("interior stations need a nearest_panel_index")
        for label, sigma in (
            ("wind", wind_noise_sigma),
            ("temp", temp_noise_sigma),
            ("humidity", humidity_noise_sigma),
        ):
            if sigma < 0:
                raise ValueError(f"negative {label} noise sigma")
        self.station_id = station_id
        self.position_m = position_m
        self.interior = interior
        self.nearest_panel_index = nearest_panel_index
        self.wind_noise_sigma = wind_noise_sigma
        self.temp_noise_sigma = temp_noise_sigma
        self.humidity_noise_sigma = humidity_noise_sigma

    def true_local_wind(
        self, state: WeatherState, breaches: Optional[BreachSchedule] = None
    ) -> float:
        """Noise-free local wind at the station."""
        if not self.interior:
            return state.wind_speed_mps
        attenuation = INTACT_ATTENUATION
        if breaches is not None and self.nearest_panel_index in breaches.breached_panels_at(
            state.time_s
        ):
            severity = max(
                e.severity
                for e in breaches.active_at(state.time_s)
                if e.panel_index == self.nearest_panel_index
            )
            attenuation = (
                INTACT_ATTENUATION
                + (BREACH_ATTENUATION - INTACT_ATTENUATION) * severity
            )
        return state.wind_speed_mps * attenuation

    def read(
        self,
        weather: SyntheticWeather,
        time_s: float,
        rng: np.random.Generator,
        breaches: Optional[BreachSchedule] = None,
    ) -> StationReading:
        """One noisy report."""
        state = weather.at(time_s)
        wind = self.true_local_wind(state, breaches)
        temp = (
            state.interior_temperature_k if self.interior
            else state.exterior_temperature_k
        )
        return StationReading(
            station_id=self.station_id,
            time_s=time_s,
            wind_speed_mps=max(
                0.0, wind + float(rng.normal(0.0, self.wind_noise_sigma))
            ),
            wind_direction_deg=(
                state.wind_direction_deg + float(rng.normal(0.0, 5.0))
            ) % 360.0,
            temperature_k=temp + float(rng.normal(0.0, self.temp_noise_sigma)),
            relative_humidity=clip(
                state.relative_humidity
                + float(rng.normal(0.0, self.humidity_noise_sigma)),
                0.0, 1.0,
            ),
            interior=self.interior,
        )


def instrument_rng(
    engine: Engine, cell: Optional[int] = None
) -> np.random.Generator:
    """A farm's shared instrument-noise stream, drawn by its owning package.

    Every station reading of one farm perturbs the same stream
    (``sensors.instruments``, or farm ``cell``'s own in a sharded
    fabric); readings are serialized by the telemetry round, so the draw
    order is deterministic. Callers outside ``repro.sensors`` use this
    accessor instead of naming the stream themselves.
    """
    return engine.rng(sensor_stream("instruments", cell))


def station_grid(
    n_interior: int = 4,
    structure_lo_m: float = 20.0,
    structure_hi_m: float = 120.0,
) -> list[WeatherStation]:
    """The CUPS instrumentation: one exterior station plus interior
    stations, each nearest to one wall panel (indices follow
    :func:`repro.cfd.boundary.cups_screen_walls`: 0 = upwind x, 1 =
    downwind x, 2 = south y, 3 = north y)."""
    if not 1 <= n_interior <= 4:
        raise ValueError(f"n_interior must be 1..4: {n_interior}")
    mid = 0.5 * (structure_lo_m + structure_hi_m)
    near = structure_lo_m + 10.0
    far = structure_hi_m - 10.0
    interior_specs = [
        ((near, mid), 0),   # just inside the upwind wall
        ((far, mid), 1),    # just inside the downwind wall
        ((mid, near), 2),   # south
        ((mid, far), 3),    # north
    ]
    stations = [
        WeatherStation("cups-ext-0", (structure_lo_m - 15.0, mid), interior=False)
    ]
    for n, (pos, panel) in enumerate(interior_specs[:n_interior]):
        stations.append(
            WeatherStation(
                f"cups-int-{n}", pos, interior=True, nearest_panel_index=panel
            )
        )
    return stations
