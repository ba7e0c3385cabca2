"""Packets.

One packet class covers control (SYN / SYN-ACK / handshake ACK), data
segments and data ACKs.  Data is modelled at segment granularity: a flow
of ``n`` payload bytes becomes ``ceil(n / MSS)`` segments indexed
``0..n-1``; ACKs carry the cumulative next-expected segment index plus up
to three SACK ranges, mirroring the UDT-with-Selective-ACK transport the
paper built on.

:class:`Packet` is a hand-written ``__slots__`` class rather than a
dataclass: packet construction sits on the per-segment hot path (every
transmission, ACK and clone allocates one), and slots cut both the
instance footprint and the attribute-access cost.  A hand-written class
(not ``dataclass(slots=True)``) keeps Python 3.9 support.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Any, Dict, Tuple

from repro.units import HEADER_SIZE

__all__ = ["PacketType", "Packet", "SackRanges", "packet_uid_mark"]

#: Up to three SACK ranges per ACK, as in classic TCP SACK option space.
SackRanges = Tuple[Tuple[int, int], ...]

_packet_ids = itertools.count(1)


def packet_uid_mark(at_least: int = 0) -> int:
    """The next packet uid, not allocated; first skips the counter
    forward to ``at_least`` (uids a fan-out's workers allocated)."""
    global _packet_ids
    mark = max(next(_packet_ids), at_least)
    _packet_ids = itertools.count(mark)
    return mark


class PacketType(Enum):
    """Wire-level packet categories."""

    SYN = "syn"
    SYN_ACK = "syn_ack"
    HANDSHAKE_ACK = "handshake_ack"
    DATA = "data"
    ACK = "ack"
    PROBE = "probe"  # PCP probe-train packets


class Packet:
    """A simulated packet.

    Attributes
    ----------
    src, dst:
        Host names; routing is by ``dst``.
    flow_id:
        Demultiplexing key at the destination host.
    kind:
        See :class:`PacketType`.
    size:
        Total bytes on the wire (header included) — what links serialize
        and queues count.
    seq:
        Segment index for DATA/PROBE; -1 otherwise.
    ack:
        Cumulative ACK: the *next expected* segment index; -1 when absent.
    sack:
        Up to three ``(start, end)`` half-open ranges of segments received
        above the cumulative point.
    echo_time:
        Timestamp echoed back by the receiver, used for RTT sampling
        (Karn-safe: senders only stamp first transmissions).
    retransmit:
        True for any retransmission (normal or proactive).
    proactive:
        True for proactive retransmissions (Halfback ROPR, Proactive TCP
        duplicates) — excluded from the paper's "normal retransmission"
        counts.
    flow_bytes:
        Total flow payload bytes, carried on the SYN so the receiver
        knows when the flow is complete (the simulator's stand-in for an
        application-level content length).
    uid:
        Unique wire-level identity (fresh per clone), used by lineage
        tracing.
    hops:
        Hop count, incremented at each router (loop diagnostics).
    corrupted:
        True once a chaos impairment flipped bits in flight.  Endpoints
        must discard corrupted packets (a checksum failure on real
        hardware); the sender recovers through normal RTO/SACK machinery.
    """

    __slots__ = ("src", "dst", "flow_id", "kind", "size", "seq", "ack",
                 "sack", "echo_time", "retransmit", "proactive",
                 "flow_bytes", "uid", "hops", "corrupted")

    def __init__(
        self,
        src: str,
        dst: str,
        flow_id: int,
        kind: PacketType,
        size: int,
        seq: int = -1,
        ack: int = -1,
        sack: SackRanges = (),
        echo_time: float = -1.0,
        retransmit: bool = False,
        proactive: bool = False,
        flow_bytes: int = -1,
        uid: int = -1,
        hops: int = 0,
        corrupted: bool = False,
    ) -> None:
        if size < HEADER_SIZE:
            raise ValueError(
                f"packet size {size} smaller than header ({HEADER_SIZE})"
            )
        self.src = src
        self.dst = dst
        self.flow_id = flow_id
        self.kind = kind
        self.size = size
        self.seq = seq
        self.ack = ack
        self.sack = sack
        self.echo_time = echo_time
        self.retransmit = retransmit
        self.proactive = proactive
        self.flow_bytes = flow_bytes
        self.uid = uid if uid >= 0 else next(_packet_ids)
        self.hops = hops
        self.corrupted = corrupted

    @property
    def payload(self) -> int:
        """Payload bytes carried by this packet."""
        return self.size - HEADER_SIZE

    @property
    def is_data(self) -> bool:
        """True for payload-carrying segments (DATA or PROBE)."""
        return self.kind in (PacketType.DATA, PacketType.PROBE)

    @property
    def is_control(self) -> bool:
        """True for handshake packets and ACKs."""
        return not self.is_data

    def lineage_detail(self) -> Dict[str, Any]:
        """Detail payload shared by the ``pkt.*`` lineage hop events."""
        return {"uid": self.uid, "flow": self.flow_id}

    def clone(self) -> "Packet":
        """A fresh-``uid`` copy of this packet.

        Used to model in-network duplication: the copy is a distinct
        wire-level object with its own lineage span, so per-link packet
        conservation still balances.
        """
        return Packet(
            self.src, self.dst, self.flow_id, self.kind, self.size,
            seq=self.seq, ack=self.ack, sack=self.sack,
            echo_time=self.echo_time, retransmit=self.retransmit,
            proactive=self.proactive, flow_bytes=self.flow_bytes,
            uid=next(_packet_ids), hops=self.hops,
            corrupted=self.corrupted,
        )

    def describe(self) -> str:
        """Short human-readable summary (used in traces and examples)."""
        parts = [f"{self.kind.value}", f"flow={self.flow_id}"]
        if self.seq >= 0:
            parts.append(f"seq={self.seq}")
        if self.ack >= 0:
            parts.append(f"ack={self.ack}")
        if self.retransmit:
            parts.append("proactive-rtx" if self.proactive else "rtx")
        if self.corrupted:
            parts.append("corrupt")
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Packet uid={self.uid} {self.describe()} size={self.size}>"
