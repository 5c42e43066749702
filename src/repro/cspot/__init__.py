"""CSPOT: a log-based distributed runtime (C Serverless Platform Of Things).

Python reimplementation of the CSPOT runtime the paper builds xGFabric on
(Wolski et al., SEC'19). The essentials, per the paper's section 3.4:

* **Logs as persistent program variables** -- a :class:`~repro.cspot.log.WooF`
  is an append-only, fixed-element-size, circular log with atomically
  assigned sequence numbers. All program state updates are log appends, so a
  program interrupted at any moment resumes from its logs, which outlive
  the node's power loss.
* **Two failure modes of append** -- the call errors, or it succeeds but the
  sequence number is lost in transit. Retrying until a sequence number
  returns guarantees durability; server-side deduplication supplies
  exactly-once semantics (:mod:`repro.cspot.dedup`).
* **Handlers, never locks** -- the only computational mechanism is a handler
  fired by a single log append. Handlers cannot block on future events;
  multi-event synchronization is done by scanning logs.
* **Delay-tolerant networking** -- network partitions and power loss are
  masked by retry against persistent logs; data is "parked" in logs until
  consumers (e.g. batch HPC jobs) fetch it.
* **Two-round-trip transport** -- the ZeroMQ-based protocol fetches the
  log's element size before sending the payload; a client-side size cache
  halves the latency but fails if the server-side element size changes
  (both behaviours implemented, cf. the Table 1 discussion).
"""

from repro.cspot.boundary import (
    CrossShardLink,
    FabricEnvelope,
    ShardBoundary,
)
from repro.cspot.errors import (
    AckLostError,
    AppendError,
    CSPOTError,
    ElementSizeError,
    EvictedError,
    NodeDownError,
    PartitionedError,
)
from repro.cspot.log import LogEntry, WooF
from repro.cspot.dedup import DedupTable
from repro.cspot.node import CSPOTNode
from repro.cspot.faults import FaultInjector
from repro.cspot.transport import (
    DEFAULT_APPEND_POLICY,
    NetworkPath,
    RemoteAppendClient,
    RetryPolicy,
    Transport,
)
from repro.cspot.latency import LatencyProbe, measure_path_latency
from repro.cspot.replication import LogReplicator

__all__ = [
    "CSPOTError",
    "AppendError",
    "AckLostError",
    "ElementSizeError",
    "EvictedError",
    "NodeDownError",
    "PartitionedError",
    "WooF",
    "LogEntry",
    "DedupTable",
    "CSPOTNode",
    "FaultInjector",
    "NetworkPath",
    "Transport",
    "RemoteAppendClient",
    "RetryPolicy",
    "DEFAULT_APPEND_POLICY",
    "LatencyProbe",
    "measure_path_latency",
    "LogReplicator",
    "CrossShardLink",
    "FabricEnvelope",
    "ShardBoundary",
]
