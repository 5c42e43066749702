"""The Laminar runtime: executing a dataflow graph on CSPOT nodes.

Mapping (per the paper's design):

* every operand gets a CSPOT log (``lam.<graph>.<operand>``) on each host
  that produces or consumes it;
* binding an operand is a log append; entries carry ``(epoch, value)``;
* node firing is triggered by CSPOT append handlers;
* cross-host bindings ride the CSPOT transport (two-RTT reliable appends
  with retry/dedup), so a Laminar program inherits CSPOT's partition and
  power-loss tolerance;
* per-(node, epoch) *ready counters* replace log scans -- the optimization
  Laminar implements "on behalf of the programmer".

This runtime is the one Laminar executor; the tests hold it to a
synchronous reference executor kept with them.
"""

from __future__ import annotations

import struct
from typing import Any, Optional

from repro.cspot.log import LogEntry, WooF
from repro.cspot.node import CSPOTNode
from repro.cspot.transport import RemoteAppendClient, Transport
from repro.laminar.graph import DataflowGraph, GraphError
from repro.laminar.node import LaminarNode
from repro.laminar.operand import Operand
from repro.laminar.types import I64, TypeError_
from repro.obs.trace import NULL_TRACER, Tracer
from repro.simkernel import Engine

_EPOCH_HEADER = struct.Struct("<Q")


class LaminarRuntime:
    """Executes one :class:`DataflowGraph` across one or more CSPOT hosts.

    Parameters
    ----------
    engine:
        Simulation engine.
    graph:
        Validated dataflow graph. Node placement comes from each node's
        ``host`` attribute; ``None`` means ``default_host``.
    hosts:
        Host name -> :class:`CSPOTNode`. Single-host execution needs no
        transport.
    transport:
        CSPOT transport with paths between every pair of hosts that share
        an edge; required iff the placement is distributed.
    default_host:
        Host for nodes without an explicit placement.
    """

    def __init__(
        self,
        engine: Engine,
        graph: DataflowGraph,
        hosts: dict[str, CSPOTNode],
        transport: Optional[Transport] = None,
        default_host: Optional[str] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        graph.validate()
        if not hosts:
            raise ValueError("need at least one host")
        self.engine = engine
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.graph = graph
        self.hosts = dict(hosts)
        self.transport = transport
        self.default_host = default_host or next(iter(hosts))
        if self.default_host not in hosts:
            raise ValueError(f"default host {self.default_host!r} not in hosts")

        self._placement: dict[str, str] = {}
        for node in graph.nodes:
            host = node.host or self.default_host
            if host not in hosts:
                raise GraphError(
                    f"node {node.name!r} placed on unknown host {host!r}"
                )
            self._placement[node.name] = host

        # Which hosts need a mirror log for each operand.
        self._operand_hosts: dict[str, set[str]] = {
            op.name: set() for op in graph.operands
        }
        producers = graph.producers()
        for node in graph.nodes:
            host = self._placement[node.name]
            for op in node.inputs:
                self._operand_hosts[op.name].add(host)
            if node.output is not None:
                self._operand_hosts[node.output.name].add(host)
        # Source operands are injected at their consumers' hosts; give
        # sources with no consumer (legal but useless) a default home.
        for op in graph.source_operands():
            if not self._operand_hosts[op.name]:
                self._operand_hosts[op.name].add(self.default_host)

        if transport is None:
            used_hosts = set(self._placement.values())
            if len(used_hosts) > 1:
                raise ValueError(
                    "distributed placement requires a transport "
                    f"(hosts in use: {sorted(used_hosts)})"
                )

        self._values: dict[tuple[str, str, int], Any] = {}
        self._ready: dict[tuple[str, int], int] = {}
        self._fired: set[tuple[str, int]] = set()       # firing scheduled
        self._completed: set[tuple[str, int]] = set()   # firing finished
        self._epoch_events: dict[int, Any] = {}
        self._submitted: set[int] = set()
        self._appenders: dict[tuple[str, str, str], RemoteAppendClient] = {}
        self._create_logs()

    # -- setup -----------------------------------------------------------------

    def _log_name(self, operand_name: str) -> str:
        return f"lam.{self.graph.name}.{operand_name}"

    def _create_logs(self) -> None:
        for op in self.graph.operands:
            log_name = self._log_name(op.name)
            element_size = _EPOCH_HEADER.size + op.dtype.max_encoded_size
            for host_name in sorted(self._operand_hosts[op.name]):
                host = self.hosts[host_name]
                if log_name not in host.logs:
                    host.create_log(log_name, element_size=element_size)
                host.register_handler(
                    log_name,
                    self._make_entry_handler(host_name, op),
                )

    def _make_entry_handler(self, host_name: str, operand: Operand):
        def handler(node: CSPOTNode, log: WooF, entry: LogEntry) -> None:
            epoch = _EPOCH_HEADER.unpack(entry.payload[: _EPOCH_HEADER.size])[0]
            value = operand.dtype.decode(entry.payload[_EPOCH_HEADER.size :])
            self._bind_at_host(host_name, operand, int(epoch), value)

        return handler

    # -- public API ------------------------------------------------------------

    def submit(self, epoch: int, inputs: dict[str, Any]) -> None:
        """Inject source operand values for an epoch.

        Appends each value to the operand's log at every consuming host
        (local append at hosts we inject from; the dispatch handlers then
        drive the dataflow). Everything is checked before the first
        append, so a rejected submit leaves no trace: each source must be
        given a value of its type, ``epoch`` must be a non-negative int
        (else ``ValueError``), and an epoch binds once (a second submit
        raises :class:`~repro.laminar.types.TypeError_`).
        """
        sources = {op.name for op in self.graph.source_operands()}
        extra = set(inputs) - sources
        if extra:
            raise GraphError(
                f"values supplied for non-source operands: {sorted(extra)}"
            )
        missing = sources - set(inputs)
        if missing:
            raise GraphError(f"missing source operand values: {sorted(missing)}")
        if not I64.validate(epoch) or epoch < 0:
            raise ValueError(f"epoch must be a non-negative int: {epoch!r}")
        if epoch in self._submitted:
            raise TypeError_(
                f"epoch {epoch} already submitted (single assignment violated)"
            )
        for name, value in inputs.items():
            self.graph.get_operand(name).dtype.check(value, context=f"source {name!r}")
        self._submitted.add(epoch)
        for name, value in inputs.items():
            operand = self.graph.get_operand(name)
            payload = _EPOCH_HEADER.pack(epoch) + operand.dtype.encode(value)
            for host_name in sorted(self._operand_hosts[name]):
                self.hosts[host_name].local_append(self._log_name(name), payload)
                # Bind synchronously; the append handler's later delivery is
                # an idempotent no-op. The log append is the durability
                # record, the in-memory bind the dataflow trigger.
                self._bind_at_host(
                    host_name, operand, epoch, operand.dtype.roundtrip(value)
                )

    def epoch_done(self, epoch: int):
        """An event that triggers once every node has fired for ``epoch``."""
        ev = self._epoch_events.get(epoch)
        if ev is None:
            ev = self.engine.event()
            self._epoch_events[epoch] = ev
            self._maybe_complete(epoch)
        return ev

    def value(self, operand_name: str, epoch: int) -> Any:
        """Read an operand's value for an epoch from any host holding it."""
        for host_name in sorted(self._operand_hosts[operand_name]):
            key = (host_name, operand_name, epoch)
            if key in self._values:
                return self._values[key]
        raise KeyError(
            f"operand {operand_name!r} has no binding for epoch {epoch} yet"
        )

    # -- dataflow engine -----------------------------------------------------------

    def _bind_at_host(
        self, host_name: str, operand: Operand, epoch: int, value: Any
    ) -> None:
        key = (host_name, operand.name, epoch)
        if key in self._values:
            # Duplicate delivery (e.g. a retried cross-host ship): CSPOT's
            # dedup prevents double-append, but be idempotent regardless.
            return
        self._values[key] = value
        for node in self.graph.consumers(operand.name):
            if self._placement[node.name] != host_name:
                continue
            rkey = (node.name, epoch)
            self._ready[rkey] = self._ready.get(rkey, 0) + 1
            if self._ready[rkey] == len(node.inputs) and rkey not in self._fired:
                self._fired.add(rkey)
                self.engine.process(
                    self._fire_body(node, host_name, epoch),
                    name=f"lam-fire:{node.name}@{host_name}:e{epoch}",
                )

    def _fire_body(self, node: LaminarNode, host_name: str, epoch: int):
        tr = self.tracer
        span = (
            tr.span(
                "laminar.fire",
                category="laminar",
                attrs={"node": node.name, "host": host_name, "epoch": epoch},
            )
            if tr.enabled
            else None
        )
        try:
            args = [
                self._values[(host_name, op.name, epoch)] for op in node.inputs
            ]
            result = node.fn(*args)
            node.firings += 1
            if node.output is not None:
                yield from self._deliver_body(
                    host_name, node.output, epoch, result
                )
        except Exception as exc:
            if span is not None:
                span.annotate(error=type(exc).__name__).end()
            raise
        self._completed.add((node.name, epoch))
        self._maybe_complete(epoch)
        if span is not None:
            span.end()
            tr.metrics.counter("laminar.fires", help="node firings").inc(
                node=node.name, host=host_name
            )

    def _deliver_body(
        self, src_host: str, operand: Operand, epoch: int, value: Any
    ):
        operand.dtype.check(value, context=f"output {operand.name!r}")
        payload = _EPOCH_HEADER.pack(epoch) + operand.dtype.encode(value)
        log_name = self._log_name(operand.name)
        # Durable local append, then a synchronous bind (the CSPOT handler's
        # duplicate delivery is an idempotent no-op).
        self.hosts[src_host].local_append(log_name, payload)
        self._bind_at_host(
            src_host, operand, epoch, operand.dtype.roundtrip(value)
        )
        # Ship to every other host that holds a mirror.
        remote_hosts = sorted(self._operand_hosts[operand.name] - {src_host})
        for dst_host in remote_hosts:
            appender = self._appender(src_host, dst_host, log_name)
            yield appender.append(payload)

    def _appender(self, src: str, dst: str, log_name: str) -> RemoteAppendClient:
        key = (src, dst, log_name)
        client = self._appenders.get(key)
        if client is None:
            if self.transport is None:
                raise GraphError(
                    f"cross-host delivery {src}->{dst} without a transport"
                )
            client = RemoteAppendClient(
                self.transport, self.hosts[src], self.hosts[dst], log_name
            )
            self._appenders[key] = client
        return client

    def _maybe_complete(self, epoch: int) -> None:
        ev = self._epoch_events.get(epoch)
        if ev is None or ev.triggered:
            return
        if all((n.name, epoch) in self._completed for n in self.graph.nodes):
            ev.succeed(epoch)
