"""A CSPOT node: its logs + handlers + lifecycle.

Handlers are the only computational mechanism: a handler is bound to one log
and fired once per append to that log. Handlers run asynchronously (as
engine events) and can never block waiting for another handler -- "a CSPOT
program can always make progress". Multi-event synchronization is expressed
by handler code scanning logs (:meth:`WooF.scan`).

Lifecycle: :meth:`power_off` kills the process (handlers that come due
while it is down never fire, in-flight server work dies, local operations
raise :class:`~repro.cspot.errors.NodeDownError`) but the logs and the
dedup table survive; :meth:`power_on` revives the process on the same logs, so
their seqnos continue and the registered handlers fire again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.cspot.dedup import DedupTable
from repro.cspot.errors import NodeDownError
from repro.cspot.log import LogEntry, WooF
from repro.simkernel import Engine

#: A handler receives (node, log, entry) and returns None. Appending to
#: other logs from inside a handler is allowed (and is how Laminar chains
#: computation).
Handler = Callable[["CSPOTNode", WooF, LogEntry], None]


@dataclass
class _HandlerBinding:
    log_name: str
    fn: Handler
    fire_delay_s: float


class CSPOTNode:
    """One CSPOT runtime instance (a Raspberry Pi, an edge server, a head
    node of an HPC cluster -- the same stack runs at all scales).

    Parameters
    ----------
    engine:
        The shared simulation engine.
    name:
        Node name (the testbed's sites: ``"unl"``, ``"ucsb"``, ``"nd"``).
    handler_delay_s:
        Default scheduling delay between an append and its handler's
        execution (models the event-dispatch cost).
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        handler_delay_s: float = 0.001,
    ) -> None:
        self.engine = engine
        self.name = name
        self.handler_delay_s = handler_delay_s
        self.dedup = DedupTable()
        self.alive = True
        #: The hosted logs by name: the node's persistent storage, which a
        #: power loss never touches. Server-side protocol steps read it
        #: after their own liveness check; create logs with
        #: :meth:`create_log`.
        self.logs: dict[str, WooF] = {}
        self._bindings: list[_HandlerBinding] = []
        self.handler_invocations = 0
        #: (simulated time, log name, exception) per failed handler run.
        self.handler_errors: list[tuple[float, str, BaseException]] = []

    # -- log management ------------------------------------------------------

    def create_log(self, log_name: str, element_size: int, history_size: int = 1024) -> WooF:
        """Create a log on this node; error if the name exists."""
        self._require_alive()
        if log_name in self.logs:
            raise ValueError(f"node {self.name!r}: log {log_name!r} exists")
        log = WooF(log_name, element_size, history_size)
        log.subscribe(self._on_append)
        self.logs[log_name] = log
        return log

    def get_log(self, log_name: str) -> WooF:
        self._require_alive()
        try:
            return self.logs[log_name]
        except KeyError:
            raise KeyError(
                f"node {self.name!r}: no log {log_name!r} (have {sorted(self.logs)})"
            ) from None

    def local_append(self, log_name: str, payload: bytes) -> int:
        """Append from code running on this node (no network involved)."""
        return self.get_log(log_name).append(payload, now=self.engine.now)

    # -- handlers -------------------------------------------------------------

    def register_handler(
        self, log_name: str, fn: Handler, fire_delay_s: Optional[float] = None
    ) -> None:
        """Fire ``fn`` once per append to ``log_name``.

        Multiple handlers may watch the same log; each fires independently.
        """
        self._require_alive()
        if log_name not in self.logs:
            raise KeyError(f"node {self.name!r}: no log {log_name!r} to handle")
        delay = self.handler_delay_s if fire_delay_s is None else fire_delay_s
        self._bindings.append(_HandlerBinding(log_name, fn, delay))

    def _on_append(self, log: WooF, entry: LogEntry) -> None:
        if not self.alive:
            return
        for binding in self._bindings:
            if binding.log_name != log.name:
                continue
            self._schedule_handler(binding, log, entry)

    def _schedule_handler(
        self, binding: _HandlerBinding, log: WooF, entry: LogEntry
    ) -> None:
        def _fire(_event) -> None:
            if not self.alive:
                return  # the process died before the handler ran
            self.handler_invocations += 1
            try:
                binding.fn(self, log, entry)
            except Exception as exc:
                # A faulty handler crashes its own invocation, never the
                # runtime: "a CSPOT program can always make progress".
                self.handler_errors.append((self.engine.now, log.name, exc))

        self.engine.timeout(binding.fire_delay_s).add_callback(_fire)

    # -- lifecycle ----------------------------------------------------------------

    def power_off(self) -> None:
        """Kill the node process. Its logs and dedup table survive."""
        self.alive = False

    def power_on(self) -> None:
        """Revive the node process on the same logs."""
        self.alive = True

    def _require_alive(self) -> None:
        if not self.alive:
            raise NodeDownError(f"node {self.name!r} is powered off")
