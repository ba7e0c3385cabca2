"""The receiver endpoint.

Receivers are passive: they answer the handshake, ACK every data packet
(cumulative + up to three SACK ranges — the UDT-with-Selective-ACK
behaviour the paper's prototypes were built on), and report completion
when every payload byte has arrived.

The flow's total size rides on the SYN, standing in for an
application-level content length, so the receiver knows when it is done.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import TransportError
from repro.net.packet import Packet, PacketType
from repro.telemetry.schema import EV_PKT_ACK_GEN
from repro.transport.config import TransportConfig
from repro.transport.flow import segments_for
from repro.transport.sacks import ReceiveTracker

if TYPE_CHECKING:
    from repro.net.monitor import FlowThroughputMonitor

__all__ = ["Receiver", "ReceiverState"]


class ReceiverState(Enum):
    """Receiver connection states."""

    LISTEN = "listen"
    SYN_RECEIVED = "syn_received"
    ESTABLISHED = "established"
    COMPLETE = "complete"


class Receiver:
    """One receiving endpoint bound to ``(host, flow_id)``.

    Parameters
    ----------
    on_complete:
        Called once, with this receiver, when the last payload byte
        arrives.
    throughput_monitor:
        Optional :class:`FlowThroughputMonitor` fed with every *new*
        payload delivery (Fig. 15 timelines).
    """

    def __init__(
        self,
        sim,
        host,
        flow_id: int,
        config: Optional[TransportConfig] = None,
        on_complete: Optional[Callable[["Receiver"], None]] = None,
        throughput_monitor: Optional[FlowThroughputMonitor] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.flow_id = flow_id
        self.config = config if config is not None else TransportConfig()
        self.on_complete = on_complete
        self.throughput_monitor = throughput_monitor
        self.state = ReceiverState.LISTEN
        self.tracker: Optional[ReceiveTracker] = None
        self.peer: Optional[str] = None
        self.flow_bytes: Optional[int] = None
        self.complete_time: Optional[float] = None
        self.acks_sent = 0
        #: Corrupted packets discarded on arrival (chaos runs); the
        #: sender recovers through normal RTO/SACK machinery.
        self.corrupted_discards = 0
        host.register(flow_id, self)

    # ------------------------------------------------------------------

    def on_packet(self, packet: Packet) -> None:
        """Host delivery entry point."""
        if packet.corrupted:
            # Checksum failure: discard before *any* parsing — corrupted
            # contents (a SYN's flow size, a fast-open segment) must not
            # initialize connection state.
            self.corrupted_discards += 1
            return
        if packet.kind == PacketType.SYN:
            self._handle_syn(packet)
        elif packet.kind == PacketType.HANDSHAKE_ACK:
            if self.state == ReceiverState.SYN_RECEIVED:
                self.state = ReceiverState.ESTABLISHED
        elif packet.is_data:
            self._handle_data(packet)
        # Receivers ignore stray ACKs (e.g. mis-routed duplicates).

    # ------------------------------------------------------------------

    def _handle_syn(self, packet: Packet) -> None:
        if self.tracker is None:
            if packet.flow_bytes <= 0:
                raise TransportError("SYN must carry the flow size")
            self.flow_bytes = packet.flow_bytes
            self.tracker = ReceiveTracker(segments_for(packet.flow_bytes))
            self.peer = packet.src
            self.state = ReceiverState.SYN_RECEIVED
        # Duplicate SYNs (lost SYN-ACK) get a fresh SYN-ACK.
        self._send(
            PacketType.SYN_ACK,
            echo_time=packet.echo_time,
        )

    def _handle_data(self, packet: Packet) -> None:
        if self.tracker is None:
            if packet.flow_bytes > 0:
                # Fast-open data beat (or replaced) the SYN; it carries
                # the content length, so initialize from it.
                self.flow_bytes = packet.flow_bytes
                self.tracker = ReceiveTracker(segments_for(packet.flow_bytes))
                self.peer = packet.src
                self.state = ReceiverState.ESTABLISHED
            else:
                # Data cannot legally precede the handshake; a lost SYN
                # means the sender retries before sending data.
                raise TransportError(
                    f"flow {self.flow_id}: data before SYN at {self.host.name}"
                )
        if self.state == ReceiverState.SYN_RECEIVED:
            # The handshake ACK was lost but data proves establishment.
            self.state = ReceiverState.ESTABLISHED
        was_new = self.tracker.add(packet.seq)
        if was_new and self.throughput_monitor is not None:
            self.throughput_monitor.on_delivery(self.sim.now, packet)
        # Karn's rule: only first transmissions carry a timestamp, so
        # echoing blindly is safe (retransmissions carry -1).
        ack_packet = self._send(
            PacketType.ACK,
            ack=self.tracker.cum,
            sack=self.tracker.sack_blocks(),
            echo_time=packet.echo_time,
        )
        trace = self.sim.trace
        if trace.lineage:
            # The causal edge data packet -> ACK: ``parent`` is the data
            # packet that triggered this ACK.
            trace.record(
                self.sim.now, EV_PKT_ACK_GEN, self.host.name,
                parent=packet.uid, ack=ack_packet.ack,
                **ack_packet.lineage_detail(),
            )
        if self.tracker.complete and self.state != ReceiverState.COMPLETE:
            self.state = ReceiverState.COMPLETE
            self.complete_time = self.sim.now
            if self.on_complete is not None:
                self.on_complete(self)

    # ------------------------------------------------------------------

    def _send(self, kind: PacketType, ack: int = -1, sack=(), echo_time: float = -1.0) -> Packet:
        if self.peer is None:
            raise TransportError("receiver has no peer yet")
        packet = Packet(
            src=self.host.name,
            dst=self.peer,
            flow_id=self.flow_id,
            kind=kind,
            size=self.config.header_size,
            ack=ack,
            sack=tuple(sack),
            echo_time=echo_time,
        )
        if kind == PacketType.ACK:
            self.acks_sent += 1
        self.host.send(packet)
        return packet

    # ------------------------------------------------------------------

    @property
    def duplicates(self) -> int:
        """Duplicate data packets seen so far."""
        return self.tracker.duplicates if self.tracker is not None else 0

    def close(self) -> None:
        """Unbind from the host (frees the flow id)."""
        self.host.unregister(self.flow_id)
