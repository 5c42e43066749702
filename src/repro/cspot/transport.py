"""CSPOT's network transport: the two-round-trip append protocol.

The paper (section 4.2): "to append data to a remote CSPOT log requires the
client to request the size of a log element ... from the site where the log
is hosted before the data is actually sent". So a remote append costs

    RTT(size fetch) + RTT(payload + ack) + server append time.

The size-caching optimization "effectively halves the message latency, but
causes the append to fail if the log element size is changed on the server
side without a client cache update" -- both the optimization and its
staleness failure are implemented here.

Latency calibration (Table 1, 1 KB payloads):

=========================  ==============  =========
Path                       Paper avg (ms)  Paper SD
=========================  ==============  =========
UNL->UCSB (5G + Internet)  101             17
UNL->UCSB (Internet)        17             0.8
UCSB->ND  (Internet)        92             1
=========================  ==============  =========

With the two-RTT protocol, avg = 4 x one-way + t_append: the Internet path
UNL<->UCSB has ~4 ms one-way; adding the private 5G hop contributes ~21 ms
one-way (radio frame alignment + core UPF), and the UCSB<->ND Internet path
~22.8 ms one-way.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cspot.boundary import FabricEnvelope, ShardBoundary

from repro.cspot.errors import (
    AckLostError,
    AppendError,
    ElementSizeError,
    NodeDownError,
    PartitionedError,
)
from repro.cspot.faults import FaultInjector
from repro.cspot.node import CSPOTNode
from repro.obs.trace import NULL_TRACER, Tracer
from repro.simkernel import Engine, Process
from repro.simkernel.streams import CSPOT_TRANSPORT, cspot_fault_stream, shard_stream


@functools.lru_cache(maxsize=64)
def _lognormal_params(mean: float, sd: float) -> tuple[float, float]:
    """``(mu, sigma)`` of the lognormal with mean ``mean`` and SD ``sd``.

    A path's (mean, SD) pair is fixed, so each pair's logarithms are taken
    once rather than on every leg; keyed by value, a cached pair can never
    go stale.
    """
    sigma2 = np.log(1.0 + (sd / mean) ** 2)
    mu = np.log(mean) - 0.5 * sigma2
    return mu, np.sqrt(sigma2)


def lognormal_delay_s(
    one_way_ms: float, jitter_ms: float, rng: np.random.Generator
) -> float:
    """One latency-leg draw: lognormal with the given mean/SD (in ms).

    Shared by :class:`NetworkPath` and the shard boundary's pure
    :class:`~repro.cspot.boundary.CrossShardLink`, so the two paths stamp
    byte-identical draws from identical generator state.
    """
    if jitter_ms == 0.0:
        return one_way_ms / 1e3
    mu, sigma = _lognormal_params(one_way_ms, jitter_ms)
    return float(rng.lognormal(mu, sigma)) / 1e3


@dataclass
class NetworkPath:
    """A directed network path with stochastic one-way latency.

    Attributes
    ----------
    name:
        e.g. ``"unl->ucsb (5g+internet)"``.
    one_way_ms:
        Mean one-way latency in milliseconds.
    jitter_ms:
        Standard deviation of the per-leg latency draw (lognormal, so the
        tail is one-sided like real networks).
    faults:
        Fault injector for this path.
    """

    name: str
    one_way_ms: float
    jitter_ms: float = 0.0
    faults: FaultInjector = field(default_factory=FaultInjector)

    def __post_init__(self) -> None:
        if not 0 < self.one_way_ms < math.inf:
            raise ValueError(
                f"one_way_ms must be positive and finite: {self.one_way_ms}"
            )
        if not 0 <= self.jitter_ms < math.inf:
            raise ValueError(
                f"jitter_ms must be non-negative and finite: {self.jitter_ms}"
            )

    def delay_s(self, rng: np.random.Generator) -> float:
        """Draw one leg's latency in seconds."""
        return lognormal_delay_s(self.one_way_ms, self.jitter_ms, rng)


#: Server-side cost of the durable append itself (storage write + seqno).
DEFAULT_APPEND_COST_S = 0.001


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff over a bounded number of attempts.

    The one home of the backoff rule: the reliable append
    (:class:`RemoteAppendClient`) retries on it, and the fabric's alert
    fetch and pilot acquisition loops read their delays from it
    (:class:`~repro.chaos.policies.FabricPolicies`). Pure data and
    arithmetic -- no engine, no randomness.

    Attributes
    ----------
    max_attempts:
        Total tries (first attempt included). ``1`` means no retry.
    backoff_s:
        Base delay before the second attempt; ``0`` retries immediately.
    backoff_factor:
        Multiplier applied per subsequent attempt (``2`` = doubling).
    max_backoff_s:
        Ceiling on any single delay -- long partitions are waited out at
        this cadence rather than hammered or abandoned.
    """

    max_attempts: int = 100
    backoff_s: float = 0.5
    backoff_factor: float = 2.0
    max_backoff_s: float = 60.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts}")
        if not 0 <= self.backoff_s < math.inf:
            raise ValueError(
                f"backoff_s must be non-negative and finite: {self.backoff_s}"
            )
        if not 1.0 <= self.backoff_factor < math.inf:
            raise ValueError(
                f"backoff_factor must be >= 1 and finite: {self.backoff_factor}"
            )
        if not self.backoff_s <= self.max_backoff_s < math.inf:
            raise ValueError(
                f"max_backoff_s must be >= backoff_s and finite: "
                f"{self.max_backoff_s}"
            )

    def delay_s(self, attempt: int) -> float:
        """Backoff before retrying after failed attempt ``attempt`` (0-based).

        The exponent is clamped so huge attempt numbers cannot overflow;
        the result is capped at ``max_backoff_s``.
        """
        if attempt < 0:
            raise ValueError(f"negative attempt index: {attempt}")
        if self.backoff_s == 0.0:
            return 0.0
        return min(
            self.backoff_s * (self.backoff_factor ** min(attempt, 12)),
            self.max_backoff_s,
        )

    def total_budget_s(self) -> float:
        """Sum of all backoff delays if every attempt fails (the worst-case
        time a caller spends waiting between attempts)."""
        return sum(self.delay_s(a) for a in range(self.max_attempts - 1))


#: The reliable append's default policy: telemetry, summary and
#: operator-inbox appends in the fabric all run on it.
DEFAULT_APPEND_POLICY = RetryPolicy(
    max_attempts=100, backoff_s=0.5, backoff_factor=2.0, max_backoff_s=60.0
)


class Transport:
    """Message transport between CSPOT nodes over named paths."""

    def __init__(self, engine: Engine, tracer: Optional[Tracer] = None) -> None:
        self.engine = engine
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._paths: dict[tuple[str, str], NetworkPath] = {}
        self._rng = engine.rng(CSPOT_TRANSPORT)
        self._boundary: Optional["ShardBoundary"] = None

    # -- shard boundary seam ----------------------------------------------------

    def bind_boundary(self, boundary: "ShardBoundary") -> None:
        """Attach the shard boundary for appends that leave this engine.

        In a sharded fabric run (:mod:`repro.parallel`) each shard's
        transport only knows the CSPOT nodes its shard owns; appends to
        any other node are exported through the boundary as
        :class:`~repro.cspot.boundary.FabricEnvelope` messages instead of
        executing locally. Unsharded fabrics never bind one.
        """
        if self._boundary is not None:
            raise AppendError("a shard boundary is already bound")
        self._boundary = boundary

    def export_append(
        self,
        src_cell: int,
        dst_cell: int,
        log_name: str,
        payload: bytes,
    ) -> "FabricEnvelope":
        """Export an append whose destination node lives on another shard.

        Latency is stamped from the *sender's* per-cell
        ``shard.cell<ccc>.transfer`` stream, so the draw is
        worker-count-invariant; delivery happens at the coordinator's next
        window barrier, never sooner.
        """
        if self._boundary is None:
            raise AppendError(
                f"append to cell {dst_cell} crosses the shard boundary but "
                "no boundary is bound (Transport.bind_boundary)"
            )
        return self._boundary.export(
            send_t=self.engine.now,
            src_cell=src_cell,
            dst_cell=dst_cell,
            log=log_name,
            payload=payload,
            rng=self.engine.rng(shard_stream(src_cell, "transfer")),
        )

    def connect(self, src: str, dst: str, path: NetworkPath, bidirectional: bool = True) -> None:
        """Register a path between two node names.

        Binds the path's fault injector to a named registry stream
        (``cspot.faults.<src>-<dst>``) unless the injector was built with
        an explicit generator, so ack-loss draws follow the master seed.
        """
        path.faults.bind_rng(self.engine.rng(cspot_fault_stream(src, dst)))
        self._paths[(src, dst)] = path
        if bidirectional:
            self._paths[(dst, src)] = path

    def path(self, src: str, dst: str) -> NetworkPath:
        try:
            return self._paths[(src, dst)]
        except KeyError:
            raise AppendError(f"no network path {src} -> {dst}") from None

    # -- protocol -------------------------------------------------------------

    def remote_append(
        self,
        client: CSPOTNode,
        server: CSPOTNode,
        log_name: str,
        payload: bytes,
        client_id: str,
        op_id: str,
        cached_element_size: Optional[int] = None,
        append_cost_s: float = DEFAULT_APPEND_COST_S,
    ) -> Process:
        """Start a remote append; the returned process yields the seqno.

        Without ``cached_element_size`` the protocol spends an extra round
        trip fetching the element size (CSPOT's reliability-first default).
        With it, the size fetch is skipped -- but if the cache is stale the
        server rejects the frame with :class:`ElementSizeError`.
        """
        body = self._append_body(
            client, server, log_name, payload, client_id, op_id,
            cached_element_size, append_cost_s,
        )
        if self.tracer.enabled:
            # The span wrapper lives outside `_append_body` so the untraced
            # protocol body stays byte-for-byte free of instrumentation
            # (benchmarks/test_obs_overhead.py times it directly).
            body = self._traced_append(
                body, client, server, log_name, payload, cached_element_size
            )
        return self.engine.process(
            body,
            name=f"append:{client.name}->{server.name}:{log_name}",
        )

    def _traced_append(
        self,
        body: Generator,
        client: CSPOTNode,
        server: CSPOTNode,
        log_name: str,
        payload: bytes,
        cached_element_size: Optional[int],
    ) -> Generator:
        """Wrap an append body in a ``cspot.append`` span (enabled mode only)."""
        tr = self.tracer
        span = tr.span(
            "cspot.append",
            category="cspot",
            attrs={
                "src": client.name,
                "dst": server.name,
                "log": log_name,
                "bytes": len(payload),
                "size_cached": cached_element_size is not None,
            },
        )
        start = self.engine.now
        try:
            seqno = yield from body
        except Exception as exc:
            span.annotate(error=type(exc).__name__).end()
            tr.metrics.counter(
                "cspot.append.errors", help="failed remote appends"
            ).inc(log=log_name, error=type(exc).__name__)
            raise
        span.annotate(seqno=seqno).end()
        tr.metrics.histogram(
            "cspot.append.latency_s", help="remote append latency (sim)"
        ).observe(self.engine.now - start, log=log_name)
        return seqno

    def _append_body(
        self,
        client: CSPOTNode,
        server: CSPOTNode,
        log_name: str,
        payload: bytes,
        client_id: str,
        op_id: str,
        cached_element_size: Optional[int],
        append_cost_s: float,
    ) -> Generator:
        path = self.path(client.name, server.name)
        if not client.alive:
            raise NodeDownError(f"client node {client.name!r} is powered off")

        # Round trip 1: element size fetch (skipped with a warm cache).
        if cached_element_size is None:
            yield from self._leg(path)  # request
            self._require_server(server, path)
            element_size = server.logs[log_name].element_size
            yield from self._leg(path)  # response
        else:
            element_size = cached_element_size

        if len(payload) > element_size:
            # With a correct size this is caught client-side before sending.
            raise ElementSizeError(
                f"payload {len(payload)}B exceeds element size {element_size}B "
                f"for log {log_name!r}"
            )

        # Round trip 2: payload + ack.
        yield from self._leg(path)  # payload transfer
        self._require_server(server, path)
        log = server.logs[log_name]
        if cached_element_size is not None and cached_element_size != log.element_size:
            # Stale cache: server rejects the mis-framed message.
            raise ElementSizeError(
                f"stale cached element size {cached_element_size} != "
                f"server's {log.element_size} for log {log_name!r}"
            )
        # Exactly-once: duplicate retries return the recorded seqno without
        # a second append.
        seqno = server.dedup.check(client_id, op_id)
        if seqno is None:
            yield self.engine.timeout(append_cost_s)
            self._require_server(server, path)
            seqno = log.append(payload, now=self.engine.now)
            server.dedup.record(client_id, op_id, seqno)
        elif self.tracer.enabled:
            self.tracer.metrics.counter(
                "cspot.dedup.hits", help="duplicate appends absorbed server-side"
            ).inc(log=log_name)

        # Ack leg: this is where "append succeeded, seqno lost" happens.
        if path.faults.drop_ack():
            raise AckLostError(
                f"append to {log_name!r} committed as seqno {seqno} "
                f"but the acknowledgement was lost"
            )
        yield from self._leg(path)  # ack
        return seqno

    def remote_fetch(
        self,
        client: CSPOTNode,
        server: CSPOTNode,
        log_name: str,
        since_seqno: int = 0,
    ) -> Process:
        """Fetch log entries with seqno > ``since_seqno`` from a remote node.

        One round trip (request + response); this is the "data parked in
        logs ... fetched once the nodes become active" read path, e.g. ND
        pulling the alert log from UCSB on its duty cycle. The returned
        process yields a list of :class:`~repro.cspot.log.LogEntry`.
        """
        body = self._fetch_body(client, server, log_name, since_seqno)
        if self.tracer.enabled:
            body = self._traced_fetch(body, client, server, log_name, since_seqno)
        return self.engine.process(
            body,
            name=f"fetch:{client.name}<-{server.name}:{log_name}",
        )

    def _traced_fetch(
        self,
        body: Generator,
        client: CSPOTNode,
        server: CSPOTNode,
        log_name: str,
        since_seqno: int,
    ) -> Generator:
        """Wrap a fetch body in a ``cspot.fetch`` span (enabled mode only)."""
        tr = self.tracer
        span = tr.span(
            "cspot.fetch",
            category="cspot",
            attrs={
                "src": server.name,
                "dst": client.name,
                "log": log_name,
                "since": since_seqno,
            },
        )
        start = self.engine.now
        try:
            entries = yield from body
        except Exception as exc:
            span.annotate(error=type(exc).__name__).end()
            tr.metrics.counter(
                "cspot.fetch.errors", help="failed remote fetches"
            ).inc(log=log_name, error=type(exc).__name__)
            raise
        span.annotate(entries=len(entries)).end()
        tr.metrics.histogram(
            "cspot.fetch.latency_s", help="remote fetch latency (sim)"
        ).observe(self.engine.now - start, log=log_name)
        return entries

    def _fetch_body(
        self,
        client: CSPOTNode,
        server: CSPOTNode,
        log_name: str,
        since_seqno: int,
    ) -> Generator:
        path = self.path(client.name, server.name)
        if not client.alive:
            raise NodeDownError(f"client node {client.name!r} is powered off")
        yield from self._leg(path)  # request
        self._require_server(server, path)
        entries = list(server.logs[log_name].scan(since_seqno))
        yield from self._leg(path)  # response
        return entries

    def _leg(self, path: NetworkPath) -> Generator:
        """One message leg: latency + partition check at send time."""
        if path.faults.partitioned_at(self.engine.now):
            raise PartitionedError(f"path {path.name!r} is partitioned")
        yield self.engine.timeout(path.delay_s(self._rng))
        if path.faults.partitioned_at(self.engine.now):
            # Partition began while the message was in flight: it is lost.
            raise PartitionedError(f"path {path.name!r} partitioned in flight")

    @staticmethod
    def _require_server(server: CSPOTNode, path: NetworkPath) -> None:
        if not server.alive:
            raise NodeDownError(f"server node {server.name!r} is powered off")


class RemoteAppendClient:
    """Reliable append: retry until a sequence number is returned.

    Implements the paper's discipline: "a 'failure to append' ... is simply
    retried until it succeeds or the application terminates the
    computation". Retries reuse the same op id so the server's dedup table
    upgrades at-least-once to exactly-once. The client optionally caches the
    element size after the first success (the latency optimization), and
    invalidates the cache on a stale-size failure.

    ``policy`` bounds the attempts and spaces them: after a partition,
    a dead node or a lost ack the client waits ``policy.delay_s(attempt)``
    (no wait at all when it is 0); a stale-cache failure retries at once.
    """

    _ids = itertools.count()

    def __init__(
        self,
        transport: Transport,
        client: CSPOTNode,
        server: CSPOTNode,
        log_name: str,
        use_size_cache: bool = False,
        policy: RetryPolicy = DEFAULT_APPEND_POLICY,
    ) -> None:
        self.transport = transport
        self.client = client
        self.server = server
        self.log_name = log_name
        self.use_size_cache = use_size_cache
        self.policy = policy
        self.client_id = f"{client.name}/{next(self._ids)}"
        self._cached_size: Optional[int] = None
        self._op_counter = itertools.count()
        self.attempts = 0

    def append(self, payload: bytes) -> Process:
        """Start a reliable append; the process yields the seqno."""
        op_id = f"op-{next(self._op_counter)}"
        return self.transport.engine.process(
            self._retry_body(payload, op_id),
            name=f"reliable-append:{self.client.name}:{op_id}",
        )

    def _retry_body(self, payload: bytes, op_id: str) -> Generator:
        engine = self.transport.engine
        tracer = self.transport.tracer
        policy = self.policy
        last_error: Exception | None = None
        for attempt in range(policy.max_attempts):
            self.attempts += 1
            if tracer.enabled:
                tracer.metrics.counter(
                    "cspot.append.attempts", help="reliable-append attempts"
                ).inc(log=self.log_name)
            cached = self._cached_size if self.use_size_cache else None
            try:
                seqno = yield self.transport.remote_append(
                    self.client,
                    self.server,
                    self.log_name,
                    payload,
                    client_id=self.client_id,
                    op_id=op_id,
                    cached_element_size=cached,
                )
            except ElementSizeError as exc:
                if cached is not None:
                    # Stale cache: invalidate and retry with a size fetch.
                    self._cached_size = None
                    last_error = exc
                    if tracer.enabled:
                        tracer.metrics.counter(
                            "cspot.append.retries", help="retried appends"
                        ).inc(log=self.log_name, error=type(exc).__name__)
                    continue
                raise  # genuinely oversized payload: not retryable
            except (PartitionedError, NodeDownError, AckLostError) as exc:
                last_error = exc
                if tracer.enabled:
                    tracer.metrics.counter(
                        "cspot.append.retries", help="retried appends"
                    ).inc(log=self.log_name, error=type(exc).__name__)
                if policy.backoff_s and attempt + 1 < policy.max_attempts:
                    # Long partitions (the paper's "frequent network
                    # interruption" in remote deployments) are waited out
                    # rather than hammered. The wait is between attempts
                    # only: an exhausted append raises when its last
                    # attempt fails, at most total_budget_s() after the
                    # first began.
                    yield engine.timeout(policy.delay_s(attempt))
                continue
            if self.use_size_cache and self._cached_size is None:
                self._cached_size = self.server.logs[self.log_name].element_size
            return seqno
        raise AppendError(
            f"append to {self.log_name!r} failed after {policy.max_attempts} "
            f"attempts; last error: {last_error}"
        )
