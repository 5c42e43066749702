"""The discrete-event engine: clock, event queue, run loop.

The event queue is a *calendar* of per-timestamp buckets rather than one
flat binary heap: a min-heap orders the distinct pending timestamps, and
each timestamp owns a FIFO deque of its events. Scheduling an event at an
already-pending timestamp is an O(1) append instead of an O(log n)
``heappush``, so same-timestamp event storms (every cell sampling on the
same tick, a chaos campaign firing a burst) cost amortized O(1) per event.
Because appends preserve scheduling order, draining a bucket front-to-back
reproduces the exact ``(time, eid)`` order a flat heap with monotonic
event ids produces -- the deterministic FIFO tie-break needs no id at all
(property-tested against a heapq reference model in
``tests/simkernel/test_engine_batched.py``).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Optional

import numpy as np

from repro.simkernel.events import AllOf, AnyOf, Event, Timeout
from repro.simkernel.process import Process, ProcessBody
from repro.simkernel.rng import RngRegistry


class SimulationError(RuntimeError):
    """Raised for engine-level errors (time going backwards, empty run...)."""


class Engine:
    """A deterministic discrete-event simulation engine.

    Events scheduled at the same simulated time are processed in scheduling
    order (a FIFO tie-break), so two runs with the same seed produce
    identical traces.

    Parameters
    ----------
    seed:
        Master seed for the engine's :class:`RngRegistry`. Subsystems draw
        named child streams (``engine.rng("sensors.weather")``) so randomness
        is stable under composition.
    start_time:
        Initial value of the simulated clock, in seconds.
    """

    def __init__(self, seed: int = 0, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        #: Min-heap of the *distinct* timestamps that currently have a
        #: non-empty bucket; each timestamp appears exactly once.
        self._times: list[float] = []
        #: Per-timestamp FIFO buckets, in scheduling order.
        self._buckets: dict[float, deque[Event]] = {}
        self._n_pending = 0
        self.rngs = RngRegistry(seed)
        self._trace_hooks: list[Callable[[float, Event], None]] = []

    # -- clock ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- rng ------------------------------------------------------------------

    def rng(self, name: str) -> np.random.Generator:
        """Return the named, independently seeded random generator."""
        return self.rngs.get(name)

    # -- event construction ----------------------------------------------------

    def event(self) -> Event:
        """Create an untriggered one-shot event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def process(self, generator: ProcessBody, name: Optional[str] = None) -> Process:
        """Start a cooperative process from a generator."""
        return Process(self, generator, name=name)

    # -- scheduling --------------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if event._scheduled:
            return
        event._scheduled = True
        when = self._now + delay
        if when != when:  # NaN
            raise SimulationError(f"cannot schedule at NaN time (delay={delay})")
        buckets = self._buckets
        bucket = buckets.get(when)
        if bucket is None:
            # First event at this timestamp: one heap push per distinct time.
            bucket = buckets[when] = deque()
            heappush(self._times, when)
        bucket.append(event)
        self._n_pending += 1

    def __len__(self) -> int:
        """Number of scheduled-but-unprocessed events."""
        return self._n_pending

    def schedule_at(self, when: float, value: Any = None) -> Event:
        """Create an event that triggers at absolute simulated time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} before current time {self._now}"
            )
        return Timeout(self, when - self._now, value)

    def add_trace_hook(self, hook: Callable[[float, Event], None]) -> None:
        """Register a hook invoked as ``hook(now, event)`` on each processed event."""
        self._trace_hooks.append(hook)

    # -- run loop -----------------------------------------------------------------

    def step(self) -> None:
        """Process the single next event."""
        times = self._times
        if not times:
            raise SimulationError("step() on an empty event queue")
        when = times[0]
        buckets = self._buckets
        bucket = buckets[when]
        event = bucket.popleft()
        self._n_pending -= 1
        if not bucket:
            # Drained: retire the timestamp before callbacks run, so a
            # callback re-scheduling at this same instant opens a fresh
            # bucket (and re-pushes the timestamp) instead of racing us.
            del buckets[when]
            heappop(times)
        if when < self._now:  # pragma: no cover - defensive
            raise SimulationError("time went backwards")
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        for hook in self._trace_hooks:
            hook(when, event)
        assert callbacks is not None
        for cb in callbacks:
            cb(event)
        if not event._ok and not event._defused:
            # An unfailed-unwaited event would silently swallow errors.
            raise event._value

    def step_batch(self) -> int:
        """Process *all* events at the next pending timestamp.

        Includes events that those callbacks schedule at the same instant
        (they join the tail of the batch in eid order, exactly as the
        one-at-a-time loop would process them). Returns the number of
        events processed.
        """
        if not self._times:
            raise SimulationError("step_batch() on an empty event queue")
        when = self._times[0]
        n = 0
        while self._times and self._times[0] <= when:
            self.step()
            n += 1
        return n

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._times[0] if self._times else float("inf")

    def drain_window(self, until: float) -> int:
        """Process every event with ``time <= until``, then pin the clock.

        This is the shard-side half of the conservative window-barrier
        protocol in :mod:`repro.parallel`: a shard-local engine advances
        exactly to the barrier time -- including events that processed
        events schedule inside the window -- and reports how many events
        it drained, so the coordinator can account for the window before
        releasing the next one. Unlike :meth:`run`, the event count is
        returned (``run(until=...)`` returns ``None``).
        """
        horizon = float(until)
        if horizon < self._now:
            raise SimulationError(
                f"drain_window until {horizon} is in the past ({self._now})"
            )
        n = 0
        times, step = self._times, self.step
        while times and times[0] <= horizon:
            step()
            n += 1
        self._now = horizon
        return n

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` -- run until the event queue drains;
            a float -- run until the clock reaches that time;
            an :class:`Event` -- run until that event is processed, returning
            its value (or raising its exception).
        """
        # One bound step() per event; the loops read the heap list, which
        # is mutated in place and never replaced.
        times, step = self._times, self.step
        if until is None:
            while times:
                step()
            return None

        if isinstance(until, Event):
            sentinel = until
            done: list[Any] = []

            def _mark(ev: Event) -> None:
                done.append(ev)
                ev._defused = True

            sentinel.add_callback(_mark)
            while not done:
                if not times:
                    raise SimulationError(
                        "event queue drained before the awaited event triggered"
                    )
                step()
            if sentinel.ok:
                return sentinel.value
            raise sentinel.value

        horizon = float(until)
        if horizon < self._now:
            raise SimulationError(f"run until {horizon} is in the past ({self._now})")
        while times and times[0] <= horizon:
            step()
        self._now = horizon
        return None
