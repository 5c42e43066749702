"""Capacity-limited resources."""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.simkernel.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.engine import Engine


class Resource:
    """A counted resource with FIFO waiters (e.g. compute cores, RF chains).

    ``request(n)`` returns an event that triggers once ``n`` units are
    granted; ``release(n)`` returns them. Grants are FIFO -- a large request
    at the head of the queue blocks later small ones (no starvation).
    """

    def __init__(self, engine: "Engine", capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.engine = engine
        self.capacity = int(capacity)
        self._in_use = 0
        self._waiters: deque[tuple[Event, int]] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    def request(self, amount: int = 1) -> Event:
        """Request ``amount`` units; the returned event triggers on grant."""
        if amount <= 0 or amount > self.capacity:
            raise ValueError(
                f"request of {amount} units from capacity-{self.capacity} resource"
            )
        ev = Event(self.engine)
        self._waiters.append((ev, amount))
        self._drain()
        return ev

    def release(self, amount: int = 1) -> None:
        """Return ``amount`` units to the pool."""
        if amount <= 0 or amount > self._in_use:
            raise ValueError(
                f"release of {amount} units with {self._in_use} in use"
            )
        self._in_use -= amount
        self._drain()

    def _drain(self) -> None:
        while self._waiters:
            ev, amount = self._waiters[0]
            if ev.triggered or ev._abandoned:  # cancelled / interrupted away
                self._waiters.popleft()
                continue
            if self._in_use + amount > self.capacity:
                break
            self._waiters.popleft()
            self._in_use += amount
            ev.succeed(amount)
