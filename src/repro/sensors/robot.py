"""The Farm-NG style surveil robot.

The paper's planned loop: "dispatch the robot to surveil the region of the
screen where a breach may have occurred using an on-board camera". The
robot lives inside the structure, plans a route along the interior
perimeter to the suspect panel, drives there at a modest ground speed, and
inspects with an imperfect camera (a detection probability per pass).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.simkernel import Engine, Process
from repro.simkernel.streams import sensor_stream


@dataclass(frozen=True)
class SurveilReport:
    """Result of one surveil mission."""

    panel_index: int
    dispatched_at_s: float
    arrived_at_s: float
    breach_confirmed: bool
    images_taken: int

    @property
    def travel_time_s(self) -> float:
        return self.arrived_at_s - self.dispatched_at_s


class FarmNgRobot:
    """A wheeled robot on the interior perimeter track.

    The perimeter is parameterized by arc length; each screen panel owns a
    segment. Routing picks the shorter direction around the loop
    (it is a cycle, so going either way works).

    Parameters
    ----------
    engine:
        Simulation engine.
    perimeter_m:
        Total interior track length (default: a 100 m square structure).
    speed_mps:
        Ground speed (Farm-NG Amiga class: ~1.5 m/s).
    camera_detection_prob:
        Probability one inspection pass spots a real breach.
    inspection_time_s:
        Time per inspection pass along the suspect panel.
    cell:
        The farm's cell in a sharded fabric (its own noise stream);
        ``None`` for the one farm of a single-engine fabric.
    """

    def __init__(
        self,
        engine: Engine,
        perimeter_m: float = 400.0,
        speed_mps: float = 1.5,
        camera_detection_prob: float = 0.9,
        inspection_time_s: float = 120.0,
        n_panels: int = 4,
        cell: Optional[int] = None,
    ) -> None:
        if perimeter_m <= 0 or speed_mps <= 0:
            raise ValueError("perimeter and speed must be positive")
        if not 0.0 < camera_detection_prob <= 1.0:
            raise ValueError("camera_detection_prob out of (0,1]")
        if n_panels < 1:
            raise ValueError("need at least one panel")
        self.engine = engine
        self.perimeter_m = perimeter_m
        self.speed_mps = speed_mps
        self.camera_detection_prob = camera_detection_prob
        self.inspection_time_s = inspection_time_s
        self.n_panels = n_panels
        self.position_m = 0.0  # arc-length position on the loop
        self.busy = False
        self.missions: list[SurveilReport] = []
        self._rng = engine.rng(sensor_stream("robot", cell))

    def panel_center_m(self, panel_index: int) -> float:
        """Arc-length midpoint of a panel's perimeter segment."""
        if not 0 <= panel_index < self.n_panels:
            raise ValueError(
                f"panel index {panel_index} out of range 0..{self.n_panels - 1}"
            )
        segment = self.perimeter_m / self.n_panels
        return (panel_index + 0.5) * segment

    def route_distance_m(self, panel_index: int) -> float:
        """Shorter way around the loop to the panel center."""
        target = self.panel_center_m(panel_index)
        direct = abs(target - self.position_m)
        return min(direct, self.perimeter_m - direct)

    def dispatch(self, panel_index: int, breach_present: bool) -> Process:
        """Send the robot to inspect a panel; yields a SurveilReport.

        ``breach_present`` is the ground truth at the panel (from the
        breach schedule); the camera may still miss it.
        """
        if self.busy:
            raise RuntimeError("robot is already on a mission")
        self.busy = True
        return self.engine.process(
            self._mission(panel_index, breach_present),
            name=f"robot-surveil:panel{panel_index}",
        )

    def _mission(self, panel_index: int, breach_present: bool) -> Generator:
        dispatched = self.engine.now
        distance = self.route_distance_m(panel_index)
        yield self.engine.timeout(distance / self.speed_mps)
        self.position_m = self.panel_center_m(panel_index)
        arrived = self.engine.now
        images = 0
        confirmed = False
        # Up to three inspection passes before giving up.
        for _ in range(3):
            yield self.engine.timeout(self.inspection_time_s)
            images += 12
            if breach_present and self._rng.random() < self.camera_detection_prob:
                confirmed = True
                break
            if not breach_present:
                break
        report = SurveilReport(
            panel_index=panel_index,
            dispatched_at_s=dispatched,
            arrived_at_s=arrived,
            breach_confirmed=confirmed,
            images_taken=images,
        )
        self.missions.append(report)
        self.busy = False
        return report
