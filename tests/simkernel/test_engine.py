"""Unit tests for the discrete-event engine and event primitives."""

import pytest

from repro.simkernel import (
    AnyOf,
    Engine,
    SimulationError,
)


def test_clock_starts_at_start_time():
    assert Engine().now == 0.0
    assert Engine(start_time=42.5).now == 42.5


def test_timeout_advances_clock():
    eng = Engine()
    t = eng.timeout(3.0, value="done")
    result = eng.run(until=t)
    assert result == "done"
    assert eng.now == 3.0


def test_negative_timeout_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.timeout(-1.0)


def test_events_fire_in_time_order():
    eng = Engine()
    seen = []
    for delay in (5.0, 1.0, 3.0):
        eng.timeout(delay).add_callback(lambda ev, d=delay: seen.append(d))
    eng.run()
    assert seen == [1.0, 3.0, 5.0]


def test_same_time_events_fifo():
    eng = Engine()
    seen = []
    for i in range(10):
        eng.timeout(1.0).add_callback(lambda ev, i=i: seen.append(i))
    eng.run()
    assert seen == list(range(10))


def test_event_single_assignment():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError("x"))


def test_event_value_before_trigger_raises():
    eng = Engine()
    ev = eng.event()
    with pytest.raises(RuntimeError):
        _ = ev.value
    with pytest.raises(RuntimeError):
        _ = ev.ok


def test_fail_requires_exception():
    eng = Engine()
    with pytest.raises(TypeError):
        eng.event().fail("not an exception")  # type: ignore[arg-type]


def test_unhandled_failure_raises_from_run():
    eng = Engine()
    eng.event().fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        eng.run()


def test_run_until_time_stops_clock_exactly():
    eng = Engine()
    hits = []
    eng.timeout(1.0).add_callback(lambda ev: hits.append(1))
    eng.timeout(10.0).add_callback(lambda ev: hits.append(10))
    eng.run(until=5.0)
    assert hits == [1]
    assert eng.now == 5.0
    eng.run(until=20.0)
    assert hits == [1, 10]


def test_run_until_past_time_raises():
    eng = Engine()
    eng.run(until=5.0)
    with pytest.raises(SimulationError):
        eng.run(until=1.0)


def test_step_empty_queue_raises():
    with pytest.raises(SimulationError):
        Engine().step()


def test_peek():
    eng = Engine()
    assert eng.peek() == float("inf")
    eng.timeout(2.5)
    assert eng.peek() == 2.5


def test_callback_after_processed_runs_immediately():
    eng = Engine()
    t = eng.timeout(1.0, value="v")
    eng.run()
    seen = []
    t.add_callback(lambda ev: seen.append(ev.value))
    assert seen == ["v"]


def test_any_of_first_wins():
    eng = Engine()
    a = eng.timeout(2.0, "a")
    b = eng.timeout(1.0, "b")
    cond = eng.any_of([a, b])
    result = eng.run(until=cond)
    assert result == {b: "b"}
    assert eng.now == 1.0


def test_all_of_waits_for_all():
    eng = Engine()
    a = eng.timeout(2.0, "a")
    b = eng.timeout(1.0, "b")
    cond = eng.all_of([a, b])
    result = eng.run(until=cond)
    assert result == {a: "a", b: "b"}
    assert eng.now == 2.0


def test_all_of_empty_triggers_immediately():
    eng = Engine()
    cond = eng.all_of([])
    assert cond.triggered


def test_condition_rejects_foreign_engine_events():
    e1, e2 = Engine(), Engine()
    with pytest.raises(ValueError):
        AnyOf(e1, [e2.event()])


def test_schedule_at_absolute_time():
    eng = Engine(start_time=100.0)
    ev = eng.schedule_at(105.0, value="x")
    assert eng.run(until=ev) == "x"
    assert eng.now == 105.0
    with pytest.raises(SimulationError):
        eng.schedule_at(10.0)


def test_trace_hook_sees_events():
    eng = Engine()
    trace = []
    eng.add_trace_hook(lambda t, ev: trace.append(t))
    eng.timeout(1.0)
    eng.timeout(2.0)
    eng.run()
    assert trace == [1.0, 2.0]


def test_run_until_event_never_triggered_raises():
    eng = Engine()
    ev = eng.event()
    eng.timeout(1.0)
    with pytest.raises(SimulationError):
        eng.run(until=ev)


def test_determinism_same_seed_same_draws():
    a, b = Engine(seed=7), Engine(seed=7)
    draws_a = a.rng("sensors.weather").random(5).tolist()
    assert draws_a == b.rng("sensors.weather").random(5).tolist()


def test_named_streams_independent_of_creation_order():
    a, b = Engine(seed=7), Engine(seed=7)
    a.rng("sensors.weather")
    draws_a = a.rng("sensors.robot").random(3)
    draws_b = b.rng("sensors.robot").random(3)  # weather never created on b
    assert draws_a.tolist() == draws_b.tolist()


class TestDrainWindow:
    """Window-barrier draining (the repro.parallel shard-side primitive)."""

    def test_drains_events_up_to_and_including_horizon(self):
        eng = Engine()
        fired = []
        for t in (1.0, 2.0, 3.0, 4.0):
            eng.schedule_at(t).add_callback(
                lambda ev, t=t: fired.append(t)
            )
        n = eng.drain_window(2.0)
        assert n == 2
        assert fired == [1.0, 2.0]
        assert len(eng) == 2

    def test_pins_clock_to_barrier_even_with_no_events(self):
        eng = Engine()
        assert eng.drain_window(7.5) == 0
        assert eng.now == 7.5

    def test_sequential_windows_partition_the_calendar(self):
        eng = Engine()
        for t in (0.5, 1.5, 2.5):
            eng.schedule_at(t)
        total = sum(eng.drain_window(b) for b in (1.0, 2.0, 3.0))
        assert total == 3
        assert eng.now == 3.0
        assert len(eng) == 0

    def test_past_barrier_rejected(self):
        eng = Engine()
        eng.drain_window(5.0)
        with pytest.raises(SimulationError):
            eng.drain_window(4.0)
