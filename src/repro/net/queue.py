"""Router egress queues.

The paper's experiments revolve around a single drop-tail bottleneck
queue sized in bytes (default: the path BDP, 115 KB).  :class:`DropTailQueue`
is the workhorse; :class:`REDQueue` is provided as an AQM extension for
the bufferbloat discussion (§6 notes AQM is complementary) and for
sensitivity studies.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.errors import ConfigurationError
from repro.net.packet import Packet

__all__ = ["QueueStats", "DropTailQueue", "REDQueue"]


class QueueStats:
    """Counters shared by all queue disciplines."""

    __slots__ = ("enqueued", "dropped", "dequeued", "bytes_enqueued",
                 "bytes_dropped", "peak_bytes")

    def __init__(self) -> None:
        self.enqueued = 0
        self.dropped = 0
        self.dequeued = 0
        self.bytes_enqueued = 0
        self.bytes_dropped = 0
        self.peak_bytes = 0

    def drop_rate(self) -> float:
        """Fraction of offered packets dropped."""
        offered = self.enqueued + self.dropped
        return self.dropped / offered if offered else 0.0


class DropTailQueue:
    """FIFO queue with a byte-capacity limit.

    A packet is dropped iff admitting it would push the queued byte count
    above ``capacity_bytes``.

    ``pending_bytes`` is the batched datapath's occupancy compensation
    (see :mod:`repro.net.link`): bytes of packets a packet-train plan
    already popped whose serialization *start* is still in the future.
    The unbatched execution dequeues a packet when its serialization
    starts, so such packets would still be queued at the current instant;
    counting them keeps admit/drop decisions and ``bytes_queued``
    byte-identical to the per-packet execution.  It is zero whenever the
    owning link runs the per-packet path.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ConfigurationError("queue capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._packets: Deque[Packet] = deque()
        self._bytes = 0
        self.pending_bytes = 0
        #: True once a sampling monitor watches this queue's occupancy
        #: (set via :meth:`mark_monitored`); the owning link then keeps
        #: per-packet events so mid-run samples see exact timing.
        self.monitored = False
        #: Owning link, set by :class:`~repro.net.link.Link` so monitor
        #: attachment can invalidate the link's cached fast-path
        #: predicate.
        self._owner = None
        self.stats = QueueStats()

    # ------------------------------------------------------------------

    def mark_monitored(self) -> None:
        """Record that a sampler reads this queue mid-run (disables the
        owning link's batched fast path so sample timing stays exact)."""
        self.monitored = True
        owner = self._owner
        if owner is not None:
            owner.refresh_fast_path()

    @property
    def bytes_queued(self) -> int:
        """Bytes currently waiting in the queue.

        Includes train-planned packets whose serialization has not yet
        started (``pending_bytes``) — the occupancy an unbatched
        execution would report at this instant.
        """
        return self._bytes + self.pending_bytes

    def __len__(self) -> int:
        return len(self._packets)

    def admit(self, packet: Packet) -> bool:
        """Hook deciding whether to admit ``packet``; drop-tail policy."""
        return (self._bytes + self.pending_bytes + packet.size
                <= self.capacity_bytes)

    def enqueue(self, packet: Packet) -> bool:
        """Try to queue ``packet``.  Returns False (and counts a drop) on
        overflow."""
        if not self.admit(packet):
            self.stats.dropped += 1
            self.stats.bytes_dropped += packet.size
            return False
        self._packets.append(packet)
        self._bytes += packet.size
        self.stats.enqueued += 1
        self.stats.bytes_enqueued += packet.size
        occupancy = self._bytes + self.pending_bytes
        if occupancy > self.stats.peak_bytes:
            self.stats.peak_bytes = occupancy
        return True

    def dequeue(self) -> Optional[Packet]:
        """Remove and return the head packet, or None when empty."""
        if not self._packets:
            return None
        packet = self._packets.popleft()
        self._bytes -= packet.size
        self.stats.dequeued += 1
        return packet

    def drain(self) -> List[Packet]:
        """Remove and return every queued packet (train planning).

        The caller owns the byte accounting from here: packets whose
        serialization start lies in the future must be re-counted via
        ``pending_bytes``.
        """
        packets = list(self._packets)
        self._packets.clear()
        self.stats.dequeued += len(packets)
        self._bytes = 0
        return packets


class REDQueue(DropTailQueue):
    """Random Early Detection (gentle RED) on top of the byte FIFO.

    Simplified RED: the drop probability ramps linearly from 0 at
    ``min_thresh`` to ``max_p`` at ``max_thresh`` of the *instantaneous*
    queue depth (an EWMA is overkill for the sensitivity study this
    supports).  Above ``max_thresh`` behaviour is gentle-RED: probability
    ramps from ``max_p`` to 1 at the capacity.
    """

    def __init__(
        self,
        capacity_bytes: int,
        min_thresh: float = 0.25,
        max_thresh: float = 0.75,
        max_p: float = 0.1,
        rng=None,
    ) -> None:
        super().__init__(capacity_bytes)
        if not 0 <= min_thresh < max_thresh <= 1:
            raise ConfigurationError("RED thresholds must satisfy 0<=min<max<=1")
        if not 0 < max_p <= 1:
            raise ConfigurationError("RED max_p must be in (0, 1]")
        self.min_bytes = int(min_thresh * capacity_bytes)
        self.max_bytes = int(max_thresh * capacity_bytes)
        self.max_p = max_p
        import random as _random

        self._rng = rng if rng is not None else _random.Random(0)

    def admit(self, packet: Packet) -> bool:
        if self._bytes + packet.size > self.capacity_bytes:
            return False
        depth = self._bytes
        if depth <= self.min_bytes:
            return True
        if depth <= self.max_bytes:
            span = self.max_bytes - self.min_bytes
            p = self.max_p * (depth - self.min_bytes) / span if span else self.max_p
        else:
            span = self.capacity_bytes - self.max_bytes
            extra = (depth - self.max_bytes) / span if span else 1.0
            p = self.max_p + (1.0 - self.max_p) * extra
        return self._rng.random() >= p
