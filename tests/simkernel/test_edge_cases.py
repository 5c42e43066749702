"""Edge-case tests for the simulation kernel."""

import pytest

from repro.simkernel import (
    Engine,
    Interrupt,
    Resource,
)


class TestConditionFailures:
    def test_any_of_fails_when_first_event_fails(self):
        eng = Engine()

        def failer():
            yield eng.timeout(1.0)
            raise ValueError("first")

        p = eng.process(failer())
        slow = eng.timeout(10.0)
        cond = eng.any_of([p, slow])
        with pytest.raises(ValueError, match="first"):
            eng.run(until=cond)

    def test_all_of_fails_on_any_failure(self):
        eng = Engine()

        def failer():
            yield eng.timeout(2.0)
            raise RuntimeError("late")

        fast = eng.timeout(1.0)
        p = eng.process(failer())
        cond = eng.all_of([fast, p])
        with pytest.raises(RuntimeError, match="late"):
            eng.run(until=cond)

    def test_any_of_success_before_failure_wins(self):
        eng = Engine()

        def failer():
            yield eng.timeout(5.0)
            raise RuntimeError("too late to matter")

        fast = eng.timeout(1.0, value="ok")
        p = eng.process(failer())
        cond = eng.any_of([fast, p])
        result = eng.run(until=cond)
        assert fast in result
        # Drain the rest: the failing process was only held by the AnyOf,
        # which defuses nothing -- a waiting consumer must handle it.
        with pytest.raises(RuntimeError):
            eng.run()

    def test_nested_conditions(self):
        eng = Engine()
        a, b, c = eng.timeout(1.0, "a"), eng.timeout(2.0, "b"), eng.timeout(3.0, "c")
        inner = eng.all_of([a, b])
        outer = eng.any_of([inner, c])
        result = eng.run(until=outer)
        assert inner in result
        assert eng.now == 2.0


class TestProcessEdges:
    def test_interrupt_while_waiting_on_resource(self):
        eng = Engine()
        res = Resource(eng, capacity=1)
        res.request(1)  # exhaust
        got = []

        def waiter():
            try:
                yield res.request(1)
                got.append("granted")
            except Interrupt:
                got.append("interrupted")

        p = eng.process(waiter())

        def interrupter():
            yield eng.timeout(1.0)
            p.interrupt()

        eng.process(interrupter())
        eng.run()
        assert got == ["interrupted"]
        # The abandoned request must not consume capacity when it drains.
        res.release(1)
        assert res.available == 1

    def test_process_returning_immediately(self):
        eng = Engine()

        def instant():
            return "done"
            yield  # pragma: no cover

        p = eng.process(instant())
        assert eng.run(until=p) == "done"
        assert eng.now == 0.0

    def test_chain_of_fifty_processes(self):
        eng = Engine()

        def link(prev):
            if prev is not None:
                v = yield prev
            else:
                v = 0
                yield eng.timeout(0.0)
            return v + 1

        p = None
        for _ in range(50):
            p = eng.process(link(p))
        assert eng.run(until=p) == 50


class TestClockEdges:
    def test_zero_delay_timeout_processes_in_order(self):
        eng = Engine()
        seen = []
        eng.timeout(0.0).add_callback(lambda e: seen.append("a"))
        eng.timeout(0.0).add_callback(lambda e: seen.append("b"))
        eng.run()
        assert seen == ["a", "b"]
        assert eng.now == 0.0

    def test_simultaneous_cascading_events(self):
        # An event scheduled from within a callback at the same time runs
        # after all previously scheduled same-time events.
        eng = Engine()
        seen = []

        def first(ev):
            seen.append(1)
            eng.timeout(0.0).add_callback(lambda e: seen.append(3))

        eng.timeout(1.0).add_callback(first)
        eng.timeout(1.0).add_callback(lambda e: seen.append(2))
        eng.run()
        assert seen == [1, 2, 3]

    def test_large_time_values(self):
        eng = Engine()
        year = 365.0 * 86400.0
        t = eng.timeout(year, "done")
        assert eng.run(until=t) == "done"
        assert eng.now == year
