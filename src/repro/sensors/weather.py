"""Synthetic atmospheric truth process.

The "real weather" the stations sample: a diurnal cycle (temperature and
wind both peak in the afternoon) plus an Ornstein-Uhlenbeck gust process on
wind speed and a slowly wandering wind direction. Occasional *regime
shifts* (front passages) produce the statistically detectable changes the
Laminar change detector exists for; between shifts, the process is
stationary enough that consecutive 5-minute readings differ only by noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro.simkernel.streams import SENSORS_WEATHER

if TYPE_CHECKING:
    from repro.simkernel.engine import Engine

SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True)
class WeatherState:
    """Ground truth at one instant."""

    time_s: float
    wind_speed_mps: float
    wind_direction_deg: float
    exterior_temperature_k: float
    interior_temperature_k: float
    relative_humidity: float


@dataclass
class RegimeShift:
    """A front passage: step change in mean wind and temperature."""

    at_time_s: float
    wind_delta_mps: float = 0.0
    direction_delta_deg: float = 0.0
    temperature_delta_k: float = 0.0


class SyntheticWeather:
    """Deterministic-given-seed weather truth, advanced in fixed ticks.

    Parameters
    ----------
    rng:
        Random stream (use ``engine.rng("sensors.weather")``).
    base_wind_mps / base_temperature_k / base_humidity:
        Diurnal-cycle midpoints.
    gust_sigma / gust_tau_s:
        OU process scale and relaxation time for wind gusts.
    tick_s:
        Internal integration step; queries are snapped to ticks so the
        process trajectory is independent of when it is sampled.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        base_wind_mps: float = 3.0,
        base_temperature_k: float = 295.0,
        base_humidity: float = 0.55,
        gust_sigma: float = 0.5,
        gust_tau_s: float = 900.0,
        tick_s: float = 60.0,
        shifts: Optional[list[RegimeShift]] = None,
    ) -> None:
        if base_wind_mps < 0:
            raise ValueError("negative base wind")
        if not 0.0 < base_humidity < 1.0:
            raise ValueError(f"base humidity out of (0,1): {base_humidity}")
        if gust_tau_s <= 0 or tick_s <= 0:
            raise ValueError("time scales must be positive")
        self.rng = rng
        self.base_wind_mps = base_wind_mps
        self.base_temperature_k = base_temperature_k
        self.base_humidity = base_humidity
        self.gust_sigma = gust_sigma
        self.gust_tau_s = gust_tau_s
        self.tick_s = tick_s
        self.shifts = sorted(shifts or [], key=lambda s: s.at_time_s)
        # OU state, advanced lazily tick by tick.
        self._gust = 0.0
        self._direction_wander = 0.0
        self._last_tick = -1

    @classmethod
    def from_engine(cls, engine: Engine, **kwargs: Any) -> "SyntheticWeather":
        """Build the truth process on its canonical engine stream.

        The ``sensors.weather`` stream is owned by this package; callers
        composing a fabric use this constructor instead of drawing the
        stream themselves (the stream owner test flags foreign draws).
        """
        return cls(engine.rng(SENSORS_WEATHER), **kwargs)

    # -- internals -----------------------------------------------------------

    def _advance_to(self, time_s: float) -> None:
        tick = int(time_s // self.tick_s)
        if tick <= self._last_tick:
            return
        theta = self.tick_s / self.gust_tau_s
        scale = self.gust_sigma * np.sqrt(2 * theta)
        for _ in range(self._last_tick + 1, tick + 1):
            self._gust += -theta * self._gust + float(
                self.rng.normal(0.0, scale)
            )
            self._direction_wander += float(self.rng.normal(0.0, 0.5))
        self._last_tick = tick

    def _shift_totals(self, time_s: float) -> tuple[float, float, float]:
        wind = direction = temp = 0.0
        for s in self.shifts:
            if s.at_time_s <= time_s:
                wind += s.wind_delta_mps
                direction += s.direction_delta_deg
                temp += s.temperature_delta_k
        return wind, direction, temp

    # -- queries --------------------------------------------------------------

    def at(self, time_s: float) -> WeatherState:
        """Ground truth at a simulated time (monotone queries expected)."""
        if time_s < 0:
            raise ValueError(f"negative time: {time_s}")
        self._advance_to(time_s)
        phase = 2 * np.pi * (time_s % SECONDS_PER_DAY) / SECONDS_PER_DAY
        # Peak at ~15:00: offset the sinusoid accordingly.
        diurnal = np.sin(phase - 2 * np.pi * 9 / 24)
        sw, sd, st = self._shift_totals(time_s)
        wind = max(
            0.0,
            self.base_wind_mps + sw + 1.0 * diurnal + self._gust,
        )
        direction = (10.0 * diurnal + self._direction_wander + sd) % 360.0
        ext_t = self.base_temperature_k + st + 5.0 * diurnal
        # Interior runs warmer (greenhouse effect) and damped.
        int_t = self.base_temperature_k + st + 2.0 + 3.0 * diurnal
        humidity = float(np.clip(self.base_humidity - 0.15 * diurnal, 0.05, 0.98))
        return WeatherState(
            time_s=time_s,
            wind_speed_mps=float(wind),
            wind_direction_deg=float(direction),
            exterior_temperature_k=float(ext_t),
            interior_temperature_k=float(int_t),
            relative_humidity=humidity,
        )

    def add_shift(self, shift: RegimeShift) -> None:
        """Schedule a future front passage."""
        self.shifts.append(shift)
        self.shifts.sort(key=lambda s: s.at_time_s)
