"""The WooF: CSPOT's append-only circular log.

A WooF ("Wide area object of Functions" in CSPOT parlance) holds fixed-size
elements in a circular buffer of ``history_size`` slots. Appends are assigned
monotonically increasing sequence numbers starting at 1; only this
assignment is atomic -- reads are unsynchronized, which is safe because
entries are immutable once written (single-assignment).

The log object is its own storage: it keeps its resident entries in a
ring. CSPOT logs survive "power-loss ... and other device failures that do
not destroy the log storage" (section 3.1), so a node's power loss kills
its process (:class:`~repro.cspot.node.CSPOTNode`) and never its logs: the
same WooF serves the node again after power-on.

Invariants (property-tested in ``tests/cspot``):

* sequence numbers are dense and strictly increasing;
* an entry read back equals the entry appended (until evicted);
* after eviction exactly the most recent ``history_size`` entries remain;
* a power cycle of the hosting node preserves all of the above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.cspot.errors import ElementSizeError, EvictedError


@dataclass(frozen=True, slots=True)
class LogEntry:
    """An immutable log entry: payload plus its assigned sequence number."""

    seqno: int
    payload: bytes
    appended_at: float  # simulated time of the append


class WooF:
    """An append-only circular log with fixed-size elements.

    Parameters
    ----------
    name:
        Log name on its node.
    element_size:
        Maximum payload size in bytes. Remote appenders must know it to
        frame their messages -- fetching it is the first round trip of the
        transport protocol.
    history_size:
        Number of slots; older entries are overwritten (circular).
    """

    def __init__(self, name: str, element_size: int, history_size: int = 1024) -> None:
        if element_size <= 0:
            raise ValueError(f"element_size must be positive: {element_size}")
        if history_size <= 0:
            raise ValueError(f"history_size must be positive: {history_size}")
        self.name = name
        self.element_size = element_size
        self.history_size = history_size
        self._last_seqno = 0
        # Slot (seqno - 1) % history_size holds seqno; grows to history_size.
        self._ring: list[LogEntry] = []
        self._on_append: list[Callable[["WooF", LogEntry], None]] = []

    # -- observers -----------------------------------------------------------

    def subscribe(self, fn: Callable[["WooF", LogEntry], None]) -> None:
        """Register a local observer called synchronously on each append.

        This is the hook :class:`~repro.cspot.node.CSPOTNode` uses to fire
        handlers; application code should register handlers on the node.
        """
        self._on_append.append(fn)

    # -- core operations -----------------------------------------------------------

    @property
    def last_seqno(self) -> int:
        """Sequence number of the most recent append (0 if empty)."""
        return self._last_seqno

    @property
    def earliest_seqno(self) -> int:
        """Oldest sequence number still resident (0 if empty)."""
        if self._last_seqno == 0:
            return 0
        return max(1, self._last_seqno - self.history_size + 1)

    def append(self, payload: bytes, now: float = 0.0) -> int:
        """Append ``payload``, returning its sequence number.

        The seqno assignment is the only atomic step (the paper's design
        point); in this single-threaded simulation that is trivially true,
        and the test suite asserts the resulting invariants directly.
        """
        if not isinstance(payload, (bytes, bytearray)):
            raise TypeError(f"payload must be bytes, got {type(payload).__name__}")
        if len(payload) > self.element_size:
            raise ElementSizeError(
                f"log {self.name!r}: payload of {len(payload)} bytes exceeds "
                f"element size {self.element_size}"
            )
        self._last_seqno += 1
        seqno = self._last_seqno
        entry = LogEntry(seqno=seqno, payload=bytes(payload), appended_at=now)
        if len(self._ring) < self.history_size:
            self._ring.append(entry)
        else:
            self._ring[(seqno - 1) % self.history_size] = entry
        for fn in list(self._on_append):
            fn(self, entry)
        return seqno

    def get(self, seqno: int) -> LogEntry:
        """Fetch the entry with the given sequence number."""
        if seqno < 1 or seqno > self._last_seqno:
            raise KeyError(
                f"log {self.name!r}: seqno {seqno} out of range 1..{self._last_seqno}"
            )
        if seqno < self.earliest_seqno:
            raise EvictedError(
                f"log {self.name!r}: seqno {seqno} evicted "
                f"(earliest resident is {self.earliest_seqno})"
            )
        return self._ring[(seqno - 1) % self.history_size]

    def latest(self, n: int = 1) -> list[LogEntry]:
        """The most recent ``n`` resident entries, oldest first."""
        if n < 0:
            raise ValueError(f"n must be non-negative: {n}")
        lo = max(self.earliest_seqno, self._last_seqno - n + 1)
        if self._last_seqno == 0:
            return []
        return [self.get(s) for s in range(lo, self._last_seqno + 1)]

    def scan(self, since_seqno: int = 0) -> Iterator[LogEntry]:
        """Iterate resident entries with seqno > ``since_seqno``, in order.

        This is the primitive handler code uses for multi-event
        synchronization ("handler code must parse and scan the logs").
        """
        lo = max(self.earliest_seqno, since_seqno + 1)
        for s in range(lo, self._last_seqno + 1):
            yield self.get(s)

    def __len__(self) -> int:
        """Number of resident entries."""
        return len(self._ring)
