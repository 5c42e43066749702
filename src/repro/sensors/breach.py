"""Screen-breach events and schedules.

"Unobserved events (e.g. bird strike, foraging fauna, damage concomitant
with theft, etc.) can cause screen breaches that must be detected." A
:class:`BreachEvent` names the damaged panel and when the damage occurred;
the fabric uses the schedule to perturb the *measured* interior airflow
(ground truth).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class BreachEvent:
    """One breach: which screen panel, when, and how big.

    Attributes
    ----------
    panel_index:
        Index into the structure's screen panel list (see
        :func:`repro.cfd.boundary.cups_screen_walls`).
    at_time_s:
        Simulated time of the damage.
    severity:
        Fraction of the panel's resistance lost, in (0, 1]; 1 = the panel
        admits free flow over the damaged patch.
    cause:
        Label for reporting ("bird-strike", "fauna", "theft"...).
    """

    panel_index: int
    at_time_s: float
    severity: float = 1.0
    cause: str = "unknown"

    def __post_init__(self) -> None:
        if self.panel_index < 0:
            raise ValueError(f"negative panel index: {self.panel_index}")
        if self.at_time_s < 0:
            raise ValueError(f"negative time: {self.at_time_s}")
        if not 0.0 < self.severity <= 1.0:
            raise ValueError(f"severity out of (0,1]: {self.severity}")


class BreachSchedule:
    """The set of breaches over a scenario, queryable by time."""

    def __init__(self, events: Optional[list[BreachEvent]] = None) -> None:
        self._events = sorted(events or [], key=lambda e: e.at_time_s)

    def add(self, event: BreachEvent) -> None:
        self._events.append(event)
        self._events.sort(key=lambda e: e.at_time_s)

    def active_at(self, time_s: float) -> list[BreachEvent]:
        """Breaches that have occurred by ``time_s`` (unrepaired)."""
        return [e for e in self._events if e.at_time_s <= time_s]

    def breached_panels_at(self, time_s: float) -> set[int]:
        return {e.panel_index for e in self.active_at(time_s)}

    def first_breach_time(self) -> Optional[float]:
        return self._events[0].at_time_s if self._events else None

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)
