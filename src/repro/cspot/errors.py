"""CSPOT error hierarchy.

The paper is precise about append's two failure modes: "Either the append
fails, and the API call returns an error, or the append succeeds but the
sequence number associated with the append ... is lost". They map to
:class:`AppendError` and :class:`AckLostError` respectively.
"""

from __future__ import annotations


class CSPOTError(Exception):
    """Base class for CSPOT runtime errors."""


class AppendError(CSPOTError):
    """The append did not happen (validation, partition, node down...)."""


class AckLostError(CSPOTError):
    """The append *happened* but its sequence number was lost in transit.

    Carries no sequence number by construction -- that is the point. A
    client observing this must retry (with the same op id for exactly-once).
    """


class ElementSizeError(AppendError):
    """Payload does not fit the log's fixed element size."""


class StaleSizeError(ElementSizeError):
    """A frame built on a cached element size was rejected: the cache may be
    stale (the documented failure of the latency optimization in section 4.2)."""


class EvictedError(CSPOTError):
    """The requested sequence number has been overwritten: WooF logs are
    circular with a fixed history size."""


class PartitionedError(AppendError):
    """The network path is partitioned; delay-tolerant callers retry."""


class NodeDownError(AppendError):
    """The target node is powered off; its logs persist and it may return."""
