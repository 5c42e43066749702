"""Declarative scenario construction for fabric runs.

Benchmarks, examples and studies keep re-assembling the same shape: a
fabric, some weather events, some breaches, a horizon. A
:class:`Scenario` captures that declaratively, so a study sweeping
severities or seeds varies one field instead of rebuilding plumbing::

    result = (
        Scenario(hours=24, seed=3)
        .front_passage(at_hour=9.5, wind_delta_mps=3.0)
        .breach(panel=3, at_hour=14.0, cause="bird-strike")
        .run()
    )
    print(result.report.rows())
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.core.config import FabricConfig
from repro.core.e2e import E2EReport, analyze_end_to_end
from repro.core.fabric import FabricMetrics, XGFabric
from repro.obs.trace import Tracer
from repro.sensors.breach import BreachEvent
from repro.sensors.weather import RegimeShift


@dataclass(frozen=True)
class ScenarioResult:
    """Everything a study wants back from one run."""

    fabric: XGFabric
    metrics: FabricMetrics
    report: E2EReport

    @property
    def detection_delay_s(self) -> Optional[float]:
        """First breach -> first post-breach twin suspicion, or None."""
        first_breach = self.fabric.farm.breaches.first_breach_time()
        if first_breach is None:
            return None
        post = [
            c for c in self.fabric.hub.twin.comparisons
            if c.breach_suspected and c.time_s >= first_breach
        ]
        return post[0].time_s - first_breach if post else None

    @property
    def localized_correctly(self) -> bool:
        """Did the first post-breach suspicion name a breached panel?"""
        first_breach = self.fabric.farm.breaches.first_breach_time()
        if first_breach is None:
            return False
        post = [
            c for c in self.fabric.hub.twin.comparisons
            if c.breach_suspected and c.time_s >= first_breach
        ]
        if not post:
            return False
        breached = self.fabric.farm.breaches.breached_panels_at(post[0].time_s)
        return post[0].suspect_panel_index in breached


@dataclass
class Scenario:
    """A runnable scenario description."""

    hours: float = 24.0
    seed: int = 0
    config: Optional[FabricConfig] = None
    #: Builds the tracer for each :meth:`build` (a factory, not an
    #: instance: a tracer binds to one engine, so multi-seed studies need
    #: a fresh one per fabric). ``None`` keeps runs untraced, as before.
    #: e.g. ``tracer_factory=lambda: Tracer(max_spans=50_000)`` for
    #: bounded retention on long horizons.
    tracer_factory: Optional[Callable[[], Tracer]] = None
    _shifts: list[RegimeShift] = field(default_factory=list)
    _breaches: list[BreachEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.hours <= 0:
            raise ValueError(f"hours must be positive: {self.hours}")

    # -- builders (chainable) ------------------------------------------------

    def front_passage(
        self,
        at_hour: float,
        wind_delta_mps: float = 0.0,
        temperature_delta_k: float = 0.0,
        direction_delta_deg: float = 0.0,
    ) -> "Scenario":
        self._check_hour(at_hour)
        self._shifts.append(RegimeShift(
            at_time_s=at_hour * 3600.0,
            wind_delta_mps=wind_delta_mps,
            temperature_delta_k=temperature_delta_k,
            direction_delta_deg=direction_delta_deg,
        ))
        return self

    def breach(
        self,
        panel: int,
        at_hour: float,
        severity: float = 1.0,
        cause: str = "unknown",
    ) -> "Scenario":
        self._check_hour(at_hour)
        self._breaches.append(BreachEvent(
            panel_index=panel, at_time_s=at_hour * 3600.0,
            severity=severity, cause=cause,
        ))
        return self

    def with_seed(self, seed: int) -> "Scenario":
        """A copy with a different seed (for multi-seed studies)."""
        clone = Scenario(
            hours=self.hours, seed=seed, config=self.config,
            tracer_factory=self.tracer_factory,
        )
        clone._shifts = list(self._shifts)
        clone._breaches = list(self._breaches)
        return clone

    # -- execution -------------------------------------------------------------

    def build(self) -> XGFabric:
        base = self.config if self.config is not None else FabricConfig()
        cfg = replace(base, seed=self.seed)
        tracer = (
            self.tracer_factory() if self.tracer_factory is not None else None
        )
        fabric = XGFabric(cfg, tracer=tracer)
        for shift in self._shifts:
            fabric.farm.weather.add_shift(shift)
        for event in self._breaches:
            fabric.farm.breaches.add(event)
        return fabric

    def run(self) -> ScenarioResult:
        fabric = self.build()
        metrics = fabric.run(self.hours * 3600.0)
        return ScenarioResult(
            fabric=fabric, metrics=metrics, report=analyze_end_to_end(fabric)
        )

    def _check_hour(self, at_hour: float) -> None:
        if not 0 <= at_hour <= self.hours:
            raise ValueError(
                f"event at hour {at_hour} outside the {self.hours}-hour scenario"
            )
