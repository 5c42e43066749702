"""What the kernel's per-event fast path must keep.

A :class:`Timeout` sets its own slots, :meth:`Engine.step` and
``Process._resume`` read the ``_ok``/``_value``/``_defused`` slots
directly, and a process triggers its boot event without ``add_callback``
and ``succeed``. These tests pin the observable behaviour those shortcuts
must preserve.
"""

import pytest

from repro.simkernel import Engine, SimulationError
from repro.simkernel.events import Timeout


class TestTimeoutDelay:
    def test_negative_delay_raises_value_error(self):
        eng = Engine()
        with pytest.raises(ValueError, match="negative timeout delay"):
            eng.timeout(-1e-9)
        assert len(eng) == 0

    def test_nan_delay_raises_simulation_error(self):
        with pytest.raises(SimulationError, match="NaN"):
            Engine().timeout(float("nan"))

    def test_integer_delay_is_stored_as_float(self):
        eng = Engine(start_time=1.5)
        t = eng.timeout(2)
        assert type(t.delay) is float and t.delay == 2.0
        eng.run()
        assert eng.now == 3.5


class TestTimeoutState:
    def test_triggered_but_not_processed_until_the_engine_reaches_it(self):
        eng = Engine()
        t = eng.timeout(2.0, value="v")
        assert isinstance(t, Timeout)
        assert t.triggered and not t.processed
        assert t.ok is True and t.value == "v"
        eng.step()
        assert t.processed and t.ok is True and t.value == "v"
        assert eng.now == 2.0


class TestUnwaitedFailure:
    def test_failed_event_nobody_waits_on_raises_from_step(self):
        eng = Engine()
        eng.event().fail(KeyError("lost"))
        with pytest.raises(KeyError, match="lost"):
            eng.step()

    def test_failed_process_nobody_waits_on_raises_from_step(self):
        eng = Engine()

        def body():
            yield eng.timeout(1.0)
            raise LookupError("unwaited")

        eng.process(body())
        eng.step()  # boot
        eng.step()  # the timeout resumes the body, which fails the process
        with pytest.raises(LookupError, match="unwaited"):
            eng.step()  # nobody waits on the failed process

    def test_failure_a_process_caught_does_not_raise(self):
        eng = Engine()
        ev = eng.event()
        caught = []

        def waiter():
            try:
                yield ev
            except KeyError as exc:
                caught.append(exc)
            return "recovered"

        proc = eng.process(waiter())
        eng.step()  # boot: the waiter now waits on ev
        ev.fail(KeyError("handled"))
        eng.step()  # ev is processed: thrown into the waiter, no raise
        assert len(caught) == 1
        eng.run()
        assert proc.ok and proc.value == "recovered"


class TestBootOrder:
    def test_process_runs_after_events_already_queued_at_its_start(self):
        eng = Engine()
        order = []
        eng.timeout(0.0).add_callback(lambda ev: order.append("queued before"))

        def body():
            order.append("process")
            yield eng.timeout(0.0)

        eng.process(body())
        eng.timeout(0.0).add_callback(lambda ev: order.append("queued after"))
        eng.run()
        assert order == ["queued before", "process", "queued after"]

    def test_process_started_mid_run_waits_for_its_instant_queue(self):
        eng = Engine()
        order = []

        def body():
            order.append(("process", eng.now))
            yield eng.timeout(1.0)

        def start(_):
            order.append(("start", eng.now))
            eng.process(body())

        eng.timeout(3.0).add_callback(start)
        eng.timeout(3.0).add_callback(lambda ev: order.append(("sibling", eng.now)))
        eng.run()
        assert order == [("start", 3.0), ("sibling", 3.0), ("process", 3.0)]
