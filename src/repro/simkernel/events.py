"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot, single-assignment synchronization point:
it is *triggered* at most once, with a value (success) or an exception
(failure), and callbacks registered before triggering run when the engine
processes it. Processes wait on events by ``yield``-ing them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simkernel.engine import Engine

_PENDING = object()


class Event:
    """A one-shot occurrence in simulated time.

    Events follow single-assignment semantics: :meth:`succeed` or
    :meth:`fail` may be called exactly once. This mirrors the
    single-assignment discipline of CSPOT log entries that the upper layers
    rely on.
    """

    __slots__ = (
        "engine", "callbacks", "_value", "_ok", "_scheduled", "_defused",
        "_abandoned",
    )

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        self._defused = False
        # Set when the sole waiter was interrupted away: resources and
        # stores must not grant/deliver to an abandoned event.
        self._abandoned = False

    # -- state --------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value or an exception."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the engine has run this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Raises if not yet triggered."""
        if self._ok is None:
            raise RuntimeError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception."""
        if self._value is _PENDING:
            raise RuntimeError("event not yet triggered")
        return self._value

    # -- triggering ----------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._value = value
        self._ok = True
        self.engine._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside any process waiting on the event.
        """
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._value = exception
        self._ok = False
        self.engine._schedule(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn`` to run when the event is processed.

        If the event was already processed the callback runs immediately --
        this keeps late waiters from deadlocking.
        """
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` units of simulated time from now."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Born triggered: each slot is set once here, not defaulted by
        # Event.__init__ and then overwritten (one timeout per yield).
        self.engine = engine
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = False
        self._defused = False
        self._abandoned = False
        self.delay = float(delay)
        engine._schedule(self, self.delay)


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine)
        self.events = tuple(events)
        self._count = 0
        if not self.events:
            self.succeed(self._collect())
            return
        for ev in self.events:
            if ev.engine is not engine:
                raise ValueError("all events must belong to the same engine")
            ev.add_callback(self._check)

    def _collect(self) -> dict[Event, Any]:
        # Only *processed* events count: a Timeout carries its value from
        # construction but has not "happened" until the engine processes it.
        return {ev: ev.value for ev in self.events if ev.processed and ev.ok}

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AnyOf(_Condition):
    """Triggers when the first of ``events`` triggers.

    Fails if that first event failed.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if event.ok:
            self.succeed(self._collect())
        else:
            self.fail(event.value)


class AllOf(_Condition):
    """Triggers when every one of ``events`` has triggered successfully.

    Fails on the first failing constituent.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed(self._collect())
