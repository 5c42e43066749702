"""Ordered log replication between CSPOT nodes.

xGFabric moves data between sites by appending to remote logs; when a whole
log should exist at two sites (telemetry mirrored from the UCSB repository
to an HPC head node, say), the :class:`LogReplicator` pumps entries from a
source log to a destination node *in order*, exactly once, resuming across
partitions, power loss on either side, and its own restarts (the replica's
length is the only cursor state, and it lives in the destination log
itself -- restart recovery re-reads it).

Semantics:

* one entry in flight at a time (order preservation);
* each entry ships via the reliable append client (retry + dedup);
* the pump wakes on every source append and drains the backlog;
* lag is observable (:meth:`lag`), for monitoring.
"""

from __future__ import annotations

from typing import Generator

from repro.cspot.errors import AppendError, NodeDownError
from repro.cspot.node import CSPOTNode
from repro.cspot.transport import RemoteAppendClient, RetryPolicy, Transport
from repro.simkernel import Engine, Store


class LogReplicator:
    """Pumps ``src_node:log_name`` into ``dst_node:log_name`` in order.

    Parameters
    ----------
    transport:
        Transport with a path between the two nodes.
    src_node / dst_node:
        Source (hosting the authoritative log) and destination.
    log_name:
        Log to replicate; must exist at the source. The destination log is
        created with matching geometry if absent.
    poll_interval_s:
        Fallback scan cadence: the pump cannot read a powered-off source,
        so a backlog left when the source went down is picked up by the
        next poll after it comes back.
    """

    def __init__(
        self,
        transport: Transport,
        src_node: CSPOTNode,
        dst_node: CSPOTNode,
        log_name: str,
        poll_interval_s: float = 60.0,
    ) -> None:
        if poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        self.transport = transport
        self.engine: Engine = transport.engine
        self.src_node = src_node
        self.dst_node = dst_node
        self.log_name = log_name
        self.poll_interval_s = poll_interval_s
        src_log = src_node.logs[log_name]
        if log_name not in dst_node.logs:
            dst_node.create_log(
                log_name,
                element_size=src_log.element_size,
                history_size=src_log.history_size,
            )
        self._appender = RemoteAppendClient(
            transport, src_node, dst_node, log_name,
            policy=RetryPolicy(backoff_s=1.0),
        )
        self._wakeups: Store = Store(self.engine)
        self._running = False
        self._stop_requested = False
        self.entries_shipped = 0
        # Replication cursor: highest source seqno applied at the
        # destination. Seeded from the destination log (restart recovery);
        # maintained in memory thereafter so a powered-off destination
        # doesn't block progress accounting (the reliable appender already
        # waits out destination outages).
        self._cursor = dst_node.logs[log_name].last_seqno
        # Wake on every source append (cheap); polling covers the rest.
        src_log.subscribe(lambda log, entry: self._wakeups.put(entry.seqno))

    # -- state ------------------------------------------------------------------

    def shipped_through(self) -> int:
        """Highest source seqno known to be applied at the destination."""
        return self._cursor

    def lag(self) -> int:
        """Source entries not yet replicated (0 while the source is down:
        its process is gone, but its log -- and the backlog -- persists
        and is picked up on revival)."""
        try:
            src = self.src_node.get_log(self.log_name)
        except NodeDownError:
            return 0
        return max(0, src.last_seqno - self._cursor)

    # -- pump --------------------------------------------------------------------

    def stop(self) -> None:
        """Ask the pump to exit at its next wakeup. Only one replicator
        should pump a given (source, destination, log) at a time -- two
        pumps have distinct dedup identities and would double-ship."""
        self._stop_requested = True

    def start(self) -> None:
        """Start the pump process (idempotent)."""
        if self._running:
            return
        self._running = True
        self._stop_requested = False
        self.engine.process(
            self._pump(), name=f"replicate:{self.log_name}"
            f":{self.src_node.name}->{self.dst_node.name}"
        )

    def _pump(self) -> Generator:
        while not self._stop_requested:
            if self.lag() == 0:
                # Sleep until an append or the poll timer, whichever first.
                wake = self._wakeups.get()
                timer = self.engine.timeout(self.poll_interval_s)
                yield self.engine.any_of([wake, timer])
                continue
            try:
                src = self.src_node.get_log(self.log_name)
                next_seqno = self._cursor + 1
                if next_seqno < src.earliest_seqno:
                    raise AppendError(
                        f"replication of {self.log_name!r} fell behind the "
                        f"source's history window (need seqno {next_seqno}, "
                        f"earliest resident {src.earliest_seqno})"
                    )
                entry = src.get(next_seqno)
            except NodeDownError:
                yield self.engine.timeout(self.poll_interval_s)
                continue
            if self._stop_requested:
                break
            yield self._appender.append(entry.payload)
            self._cursor = next_seqno
            self.entries_shipped += 1
        self._running = False

    def drained(self, timeout_check_s: float = 1.0):
        """An event that triggers once the replica has caught up."""
        ev = self.engine.event()

        def check() -> Generator:
            while self.lag() > 0:
                yield self.engine.timeout(timeout_check_s)
            ev.succeed(self.shipped_through())

        self.engine.process(check(), name=f"drain-check:{self.log_name}")
        return ev
