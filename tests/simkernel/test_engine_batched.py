"""Calendar-queue engine vs a flat-heap reference model.

The batched engine buckets same-timestamp events; these tests pin its
processed-event order byte-for-byte to the behaviour of the original flat
``heapq`` implementation, including under same-timestamp storms and events
that re-schedule at the *current* instant from inside callbacks.
"""

from __future__ import annotations

import heapq
from itertools import count

import numpy as np
import pytest

from repro.simkernel.engine import Engine, SimulationError
from repro.simkernel.events import Timeout


class FlatHeapEngine:
    """The pre-calendar-queue engine: one flat ``(time, eid, event)`` heap.

    Duck-types just enough of :class:`Engine` for :class:`Timeout` to
    couple to it, so the same scheduling scripts drive both models.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: list[tuple[float, int, object]] = []
        self._eid = count()

    @property
    def now(self) -> float:
        return self._now

    def timeout(self, delay: float, value=None) -> Timeout:
        return Timeout(self, delay, value)  # type: ignore[arg-type]

    def _schedule(self, event, delay: float = 0.0) -> None:
        if event._scheduled:
            return
        event._scheduled = True
        heapq.heappush(self._queue, (self._now + delay, next(self._eid), event))

    def run(self) -> None:
        while self._queue:
            when, _, event = heapq.heappop(self._queue)
            self._now = when
            callbacks, event.callbacks = event.callbacks, None
            for cb in callbacks:
                cb(event)


def _storm_script(seed: int, n_roots: int = 60):
    """A deterministic scheduling script with heavy timestamp collisions.

    Returns ``(roots, children)``: root tags with initial delays drawn from
    a tiny discrete set (so many events share each timestamp), and per-tag
    child schedules including zero delays (same-instant re-scheduling from
    inside a callback -- the case where bucket retirement order matters).
    """
    rng = np.random.default_rng(seed)
    delays = [0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.5, 7.0]
    roots = [(delays[int(rng.integers(len(delays)))], f"r{i}") for i in range(n_roots)]
    children: dict[str, list[tuple[float, str]]] = {}
    for _, tag in roots:
        kids = []
        for k in range(int(rng.integers(0, 3))):
            kids.append((delays[int(rng.integers(len(delays)))], f"{tag}.c{k}"))
        children[tag] = kids
        # One more generation so reschedule chains cross bucket boundaries.
        for delay, kid in kids:
            children[kid] = (
                [(0.0, f"{kid}.g")] if rng.integers(2) else []
            )
            children[f"{kid}.g"] = []
    return roots, children


def _drive(engine, roots, children) -> list[tuple[float, str]]:
    """Run one scheduling script on an engine; return the processed trace."""
    trace: list[tuple[float, str]] = []

    def fire(tag: str):
        def _cb(_event) -> None:
            trace.append((engine.now, tag))
            for delay, kid in children.get(tag, ()):
                engine.timeout(delay).add_callback(fire(kid))

        return _cb

    for delay, tag in roots:
        engine.timeout(delay).add_callback(fire(tag))
    engine.run()
    return trace


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_pop_order_matches_flat_heap(seed: int) -> None:
    roots, children = _storm_script(seed)
    batched = _drive(Engine(seed=0), roots, children)
    reference = _drive(FlatHeapEngine(), roots, children)
    assert batched == reference
    assert len(batched) > len(roots)  # the script actually rescheduled


def test_single_timestamp_storm_is_fifo() -> None:
    """All events at one instant pop in scheduling (eid) order."""
    engine = Engine(seed=0)
    order: list[int] = []
    for i in range(500):
        engine.timeout(1.0).add_callback(lambda _e, i=i: order.append(i))
    assert len(engine) == 500
    engine.run()
    assert order == list(range(500))
    assert len(engine) == 0


def test_peek_and_len_track_buckets() -> None:
    engine = Engine(seed=0)
    assert engine.peek() == float("inf")
    engine.timeout(5.0)
    engine.timeout(3.0)
    engine.timeout(3.0)
    assert engine.peek() == 3.0
    assert len(engine) == 3
    engine.step()
    assert engine.peek() == 3.0  # second event still in the 3.0 bucket
    engine.step()
    assert engine.peek() == 5.0
    assert len(engine) == 1


def test_empty_queue_errors() -> None:
    engine = Engine(seed=0)
    with pytest.raises(SimulationError):
        engine.step()


def test_nan_schedule_rejected() -> None:
    engine = Engine(seed=0)
    with pytest.raises(SimulationError):
        engine.timeout(float("nan"))
