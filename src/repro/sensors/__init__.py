"""Sensor-network substrate: weather, stations, breaches, the robot.

Substitutes the CUPS site's physical instrumentation: commodity
agricultural weather stations reporting every 5 minutes (with enough
measurement noise that "consecutive readings may not be statistically
determinable to be different"), screen-breach events (bird strike, foraging
fauna, theft damage...), and the Farm-NG wheeled robot dispatched to
surveil suspect screen segments.
"""

from repro.sensors.weather import SyntheticWeather, WeatherState
from repro.sensors.station import StationReading, WeatherStation, station_grid
from repro.sensors.breach import BreachEvent, BreachSchedule
from repro.sensors.robot import FarmNgRobot, SurveilReport

__all__ = [
    "SyntheticWeather",
    "WeatherState",
    "WeatherStation",
    "StationReading",
    "station_grid",
    "BreachEvent",
    "BreachSchedule",
    "FarmNgRobot",
    "SurveilReport",
]
