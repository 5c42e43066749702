"""Generator-based cooperative processes.

A process body is a generator that yields :class:`~repro.simkernel.events.Event`
objects; the process resumes when the yielded event triggers, receiving the
event's value at the ``yield`` expression (or having the event's exception
re-raised there).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.simkernel.events import Event, Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.engine import Engine

#: The shape of a process body: yields events to wait on, receives each
#: event's value back at the yield, may return anything.
ProcessBody = Generator[Event, Any, Any]


class ProcessDied(Exception):
    """Raised when interacting with a process that already terminated."""


class Process(Event):
    """A running cooperative process.

    The process itself is an :class:`Event` that triggers when the body
    returns (value = the generator's return value) or raises (failure), so
    processes can wait on each other by yielding a :class:`Process`.
    """

    __slots__ = ("name", "_generator", "_waiting_on")

    def __init__(
        self,
        engine: "Engine",
        generator: ProcessBody,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(engine)
        if not hasattr(generator, "send"):
            raise TypeError(f"process body must be a generator, got {generator!r}")
        self.name: str = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        # Bootstrap: resume once at the current time, after the events
        # already queued for it. A fresh event is untriggered and
        # unprocessed, so it is triggered here directly.
        boot = Event(engine)
        boot.callbacks = [self._resume]
        boot._value = None
        boot._ok = True
        engine._schedule(boot)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at its current yield."""
        if self.triggered:
            raise ProcessDied(f"cannot interrupt finished process {self.name!r}")
        engine = self.engine

        def _deliver(_: Event) -> None:
            if self.triggered:
                return
            target = self._waiting_on
            if target is not None and not target.processed:
                # Detach: the interrupted process no longer waits on it,
                # and grant-style providers (resources, stores) must skip it.
                try:
                    target.callbacks.remove(self._resume)  # type: ignore[union-attr]
                except (ValueError, AttributeError):
                    pass
                target._abandoned = True
            self._waiting_on = None
            self._step(Interrupt(cause), throw=True)

        kick = Event(engine)
        kick.add_callback(_deliver)
        kick.succeed()

    # -- internals --------------------------------------------------------------

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        if event._ok:
            self._step(event._value, False)
        else:
            event._defused = True
            self._step(event._value, True)

    def _step(self, value: Any, throw: bool) -> None:
        try:
            if throw:
                yielded = self._generator.throw(value)
            else:
                yielded = self._generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if not isinstance(yielded, Event):
            err = RuntimeError(
                f"process {self.name!r} yielded non-event {yielded!r}"
            )
            self._generator.close()
            self.fail(err)
            return
        self._waiting_on = yielded
        yielded.add_callback(self._resume)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Process {self.name!r} {'done' if self.triggered else 'alive'}>"
