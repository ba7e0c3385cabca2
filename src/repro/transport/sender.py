"""The sender framework.

:class:`SenderBase` implements everything the eight schemes share —
handshake with SYN retry, segment (re)transmission, SACK scoreboard
driving, RTT estimation, RTO with exponential backoff, SACK-based loss
detection, fast-retransmit-style recovery, and slow start / congestion
avoidance — and exposes hook points the protocol subclasses override:

``on_established``
    Called once the handshake completes; the default starts window-driven
    transmission (slow start).  JumpStart/Halfback/PCP replace this with
    their pacing/probing start-up.
``on_ack_hook(packet, newly_acked)``
    Called for every arriving ACK after scoreboard/cwnd bookkeeping;
    Halfback's ROPR lives here.
``on_timeout_hook`` / ``on_loss_detected``
    Notifications around RTO and SACK-inferred loss.
``allow_new_data(seq)`` / ``congestion_window_gate()``
    Policy predicates for transmitting new data; JumpStart's bursty
    recovery disables the congestion gate.
``wants_duplicate(seq)``
    Proactive TCP duplicates every transmission via this hook.

Flow completion at the *sender* is "everything ACKed"; the experiment
harness measures FCT at the receiver (paper's definition includes the
handshake, which both views share).
"""

from __future__ import annotations

from enum import Enum
from typing import List, Optional

from repro.errors import TransportError
from repro.net.packet import Packet, PacketType
from repro.telemetry.schema import (
    EV_SENDER_DONE, EV_SENDER_ESTABLISHED, EV_SENDER_FAILED,
    EV_SENDER_RECOVERY, EV_SENDER_RTO,
)
from repro.transport.config import TransportConfig
from repro.transport.flow import FlowRecord, FlowSpec
from repro.transport.rtt import RttEstimator
from repro.transport.sacks import SendScoreboard

__all__ = ["SenderBase", "SenderState"]

#: Stand-in for an unbounded slow-start threshold.
INFINITE_SSTHRESH = float("inf")


class SenderState(Enum):
    """Sender connection states."""

    IDLE = "idle"
    SYN_SENT = "syn_sent"
    ESTABLISHED = "established"
    DONE = "done"
    FAILED = "failed"


class SenderBase:
    """Base class for all transmission schemes.

    Subclasses set :attr:`protocol_name` and override the hook methods;
    they should not touch the scoreboard directly except through the
    provided helpers.
    """

    protocol_name = "base"

    #: When False, loss inference uses the naive dupack rule that
    #: re-declares fresh retransmissions lost on stale SACK evidence —
    #: the "retransmit the same packets multiple times" behaviour the
    #: paper attributes to JumpStart.  Modern-stack senders keep the
    #: RFC 6675 retransmission-tracking rule (True).
    tracks_retransmissions = True

    def __init__(
        self,
        sim,
        host,
        flow: FlowSpec,
        record: Optional[FlowRecord] = None,
        config: Optional[TransportConfig] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.flow = flow
        self.config = config if config is not None else TransportConfig()
        self.record = record if record is not None else FlowRecord(flow)
        self.scoreboard = SendScoreboard(flow.n_segments)
        self.rtt = RttEstimator(
            initial_rto=self.config.initial_rto,
            min_rto=self.config.min_rto,
            max_rto=self.config.max_rto,
        )
        self.state = SenderState.IDLE
        self.cwnd: float = float(self.initial_cwnd())
        self.ssthresh: float = INFINITE_SSTHRESH
        self.recovery_point: int = -1  # highest_sent when recovery began
        self._syn_tries = 0
        self.rto_timer = sim.timer(self._on_rto, name=f"rto:{flow.flow_id}")
        self._deadline_handle = None
        # Aggregate (all-senders) telemetry; no-ops when telemetry is off.
        metrics = sim.metrics
        self._m_segments_sent = metrics.counter("sender.segments_sent")
        self._m_retx_normal = metrics.counter("sender.retx_normal")
        self._m_retx_proactive = metrics.counter("sender.retx_proactive")
        self._m_rto_fired = metrics.counter("sender.rto_fired")
        self._m_recovery = metrics.counter("sender.recovery_entered")
        self._m_completed = metrics.counter("sender.flows_completed")
        self._m_failed = metrics.counter("sender.flows_failed")
        host.register(flow.flow_id, self)

    # ==================================================================
    # Hook points (protocol policy)
    # ==================================================================

    def initial_cwnd(self) -> int:
        """Initial congestion window in segments."""
        return self.config.initial_cwnd

    def on_established(self) -> None:
        """Start-up behaviour after the handshake; default: slow start."""
        self.send_window()

    def on_ack_hook(self, packet: Packet, newly_acked: List[int]) -> None:
        """Per-ACK protocol hook (after bookkeeping, before completion)."""

    def on_loss_detected(self, lost: List[int]) -> None:
        """Called when SACK inference marks segments lost."""

    def on_timeout_hook(self) -> None:
        """Called after RTO bookkeeping, before retransmission."""

    def allow_new_data(self, seq: int) -> bool:
        """Policy gate for transmitting new segment ``seq``."""
        return True

    def congestion_window_gate(self) -> bool:
        """True when the congestion window permits another transmission."""
        return self.scoreboard.pipe < self.cwnd

    def wants_duplicate(self, seq: int) -> bool:
        """Whether to send an immediate proactive duplicate of ``seq``."""
        return False

    def on_complete_hook(self) -> None:
        """Called once when every segment has been acknowledged."""

    # ==================================================================
    # Connection lifecycle
    # ==================================================================

    def start(self) -> None:
        """Initiate the handshake (the flow's official start instant).

        With ``config.fast_open`` the sender transmits the SYN and then
        starts data immediately (0-RTT), seeding the RTT estimator from
        ``config.rtt_hint`` when given — the TCP-Fast-Open/ASAP drop-in
        §6 describes.
        """
        if self.state != SenderState.IDLE:
            raise TransportError("sender already started")
        self.record.syn_time = self.sim.now
        self._deadline_handle = self.sim.schedule(
            self.config.max_flow_duration, self._give_up, "max-flow-duration"
        )
        self._send_syn()
        if self.config.fast_open:
            if self.config.rtt_hint is not None:
                self.rtt.sample(self.config.rtt_hint)
                self.record.handshake_rtt = self.config.rtt_hint
            self.state = SenderState.ESTABLISHED
            self.record.established_time = self.sim.now
            self.on_established()

    def _send_syn(self) -> None:
        self.state = SenderState.SYN_SENT
        self._syn_tries += 1
        if self._syn_tries > 1:
            self.record.syn_retransmissions += 1
        packet = Packet(
            src=self.host.name,
            dst=self.flow.dst,
            flow_id=self.flow.flow_id,
            kind=PacketType.SYN,
            size=self.config.header_size,
            echo_time=self.sim.now,
            flow_bytes=self.flow.size,
        )
        self.host.send(packet)
        self.rto_timer.restart(self.rtt.rto)

    def on_packet(self, packet: Packet) -> None:
        """Host delivery entry point."""
        if self.state in (SenderState.DONE, SenderState.FAILED):
            return
        if packet.corrupted:
            # Checksum failure: discard silently; the RTO machinery
            # recovers (retransmitted ACK information or SYN retry).
            self.record.corrupted_discards += 1
            return
        if packet.kind == PacketType.SYN_ACK:
            self._handle_syn_ack(packet)
        elif packet.kind == PacketType.ACK:
            self._handle_ack(packet)

    def _handle_syn_ack(self, packet: Packet) -> None:
        if self.config.fast_open and self.state == SenderState.ESTABLISHED:
            # 0-RTT start: the connection is already live; the SYN-ACK
            # still contributes an RTT measurement.
            if packet.echo_time >= 0:
                sample = self.sim.now - packet.echo_time
                self.rtt.sample(sample)
                if self.record.handshake_rtt is None:
                    self.record.handshake_rtt = sample
            return
        if self.state != SenderState.SYN_SENT:
            return  # duplicate SYN-ACK after establishment
        if packet.echo_time >= 0:
            sample = self.sim.now - packet.echo_time
            self.rtt.sample(sample)
            self.record.handshake_rtt = sample
        self.state = SenderState.ESTABLISHED
        self.record.established_time = self.sim.now
        self.rto_timer.cancel()
        ack = Packet(
            src=self.host.name,
            dst=self.flow.dst,
            flow_id=self.flow.flow_id,
            kind=PacketType.HANDSHAKE_ACK,
            size=self.config.header_size,
        )
        self.host.send(ack)
        self.sim.trace.record(
            self.sim.now, EV_SENDER_ESTABLISHED, self.protocol_name,
            flow=self.flow.flow_id, rtt=self.record.handshake_rtt,
        )
        self.on_established()

    # ==================================================================
    # ACK processing
    # ==================================================================

    def _handle_ack(self, packet: Packet) -> None:
        if self.state != SenderState.ESTABLISHED:
            return
        if packet.echo_time >= 0:
            self.rtt.sample(self.sim.now - packet.echo_time)
        scoreboard = self.scoreboard
        newly = scoreboard.on_ack(packet.ack, packet.sack)
        # A pure cumulative ACK on a clean connection — no SACK blocks on
        # the wire, no recovery episode in progress, and no selectively-
        # ACKed holes above the frontier (the common case for paced short
        # flows) — skips loss inference: with the SACK frontier below
        # cum_ack both rules are provably vacuous (any evidence mark is
        # >= its segment >= cum_ack > highest_sacked - DUPTHRESH).
        if (packet.sack or self.recovery_point >= 0
                or scoreboard.highest_sacked >= scoreboard.cum_ack):
            lost_now = scoreboard.detect_lost(
                track_retransmissions=self.tracks_retransmissions,
                now=self.sim.now,
                rtx_round=None if self.tracks_retransmissions else self.smoothed_rtt(),
            )
            if lost_now:
                self._enter_recovery_if_needed()
                self.on_loss_detected(lost_now)
            if (self.recovery_point >= 0
                    and scoreboard.cum_ack > self.recovery_point):
                self.recovery_point = -1
        if newly:
            self._grow_cwnd(len(newly))
            if scoreboard.all_acked:
                self.rto_timer.cancel()
            else:
                self.rto_timer.restart(self.rtt.rto)
        self.on_ack_hook(packet, newly)
        if scoreboard.all_acked:
            self._complete()
            return
        self.send_window()

    def _enter_recovery_if_needed(self) -> None:
        if self.recovery_point >= 0:
            return  # already reacting to this loss episode
        self.recovery_point = self.scoreboard.highest_sent
        flight = max(self.scoreboard.pipe, 1)
        self.ssthresh = max(flight / 2.0, 2.0)
        self.cwnd = max(self.ssthresh, 1.0)
        self._m_recovery.inc()
        self.sim.trace.record(
            self.sim.now, EV_SENDER_RECOVERY, self.protocol_name,
            flow=self.flow.flow_id, point=self.recovery_point,
        )

    def _grow_cwnd(self, newly_acked: int) -> None:
        if self.recovery_point >= 0:
            return  # no growth during recovery
        if self.cwnd < self.ssthresh:
            self.cwnd += newly_acked  # slow start
        else:
            self.cwnd += newly_acked / self.cwnd  # congestion avoidance

    # ==================================================================
    # Transmission
    # ==================================================================

    def send_window(self) -> None:
        """Transmit as much as current policy allows: retransmissions of
        LOST segments first, then new data."""
        if self.state != SenderState.ESTABLISHED:
            return
        while True:
            if not self.congestion_window_gate():
                break
            lost = self.scoreboard.first_lost()
            if lost is not None:
                self.send_segment(lost, retransmit=True)
                continue
            nxt = self.scoreboard.next_unsent()
            if (nxt is not None
                    and self._within_flow_control(nxt)
                    and self.allow_new_data(nxt)):
                self.send_segment(nxt)
                continue
            break

    def _within_flow_control(self, seq: int) -> bool:
        return seq < self.scoreboard.cum_ack + self.config.window_segments

    def send_segment(self, seq: int, retransmit: bool = False,
                     proactive: bool = False) -> None:
        """Transmit one segment and update scoreboard/counters/timers."""
        if self.state != SenderState.ESTABLISHED:
            return
        if self.scoreboard.is_acked(seq):
            return  # nothing to gain; keep the wire clean
        size = self.config.segment_wire_size(
            seq, self.flow.n_segments, self.flow.size
        )
        packet = Packet(
            src=self.host.name,
            dst=self.flow.dst,
            flow_id=self.flow.flow_id,
            kind=PacketType.DATA,
            size=size,
            seq=seq,
            echo_time=-1.0 if retransmit else self.sim.now,
            retransmit=retransmit,
            proactive=proactive,
            # Fast-open data may race (or outlive) the SYN, so it
            # carries the content length itself.
            flow_bytes=self.flow.size if self.config.fast_open else -1,
        )
        self.scoreboard.mark_sent(seq, time=self.sim.now)
        if retransmit and proactive:
            self.record.proactive_retransmissions += 1
            self._m_retx_proactive.inc()
        elif retransmit:
            self.record.normal_retransmissions += 1
            self._m_retx_normal.inc()
        else:
            self.record.data_packets_sent += 1
            self._m_segments_sent.inc()
        self.host.send(packet)
        if not self.rto_timer.armed:
            self.rto_timer.start(self.rtt.rto)
        if not proactive and self.wants_duplicate(seq):
            self._send_duplicate(seq, size)

    def _send_duplicate(self, seq: int, size: int) -> None:
        self._m_retx_proactive.inc()
        duplicate = Packet(
            src=self.host.name,
            dst=self.flow.dst,
            flow_id=self.flow.flow_id,
            kind=PacketType.DATA,
            size=size,
            seq=seq,
            echo_time=-1.0,
            retransmit=True,
            proactive=True,
        )
        self.record.proactive_retransmissions += 1
        self.host.send(duplicate)

    # ==================================================================
    # Timeout handling
    # ==================================================================

    def _on_rto(self) -> None:
        if self.state == SenderState.SYN_SENT:
            if self._syn_tries > self.config.max_syn_retries:
                self._give_up("syn-retries-exhausted")
                return
            self.rtt.on_timeout()
            self._send_syn()
            return
        if self.state != SenderState.ESTABLISHED:
            return
        self.record.timeouts += 1
        self._m_rto_fired.inc()
        self.rtt.on_timeout()
        self.scoreboard.mark_all_in_flight_lost()
        flight = max(self.scoreboard.pipe + len(self.scoreboard.lost_segments()), 1)
        self.ssthresh = max(flight / 2.0, 2.0)
        self.cwnd = 1.0
        self.recovery_point = -1
        self.sim.trace.record(
            self.sim.now, EV_SENDER_RTO, self.protocol_name,
            flow=self.flow.flow_id, timeouts=self.record.timeouts,
        )
        self.on_timeout_hook()
        self.send_window()
        if not self.rto_timer.armed and not self.scoreboard.all_acked:
            self.rto_timer.start(self.rtt.rto)

    # ==================================================================
    # Termination
    # ==================================================================

    def _complete(self) -> None:
        self.state = SenderState.DONE
        self.record.sender_done_time = self.sim.now
        self.record.final_srtt = self.rtt.srtt
        self._m_completed.inc()
        self.sim.trace.record(
            self.sim.now, EV_SENDER_DONE, self.protocol_name,
            flow=self.flow.flow_id,
            fct=self.sim.now - self.flow.start_time,
            retx=self.record.normal_retransmissions,
            proactive=self.record.proactive_retransmissions,
        )
        self.on_complete_hook()
        self._teardown()

    def _give_up(self, reason: str = "max-flow-duration") -> None:
        """Abort the flow, recording a structured ``reason``.

        The chaos sweep's liveness contract (see
        :mod:`repro.chaos.sweep`) requires every non-completing flow to
        end here with a diagnosable reason rather than hang, so callers
        must always pass one of the documented reason strings:
        ``"max-flow-duration"`` (the per-flow deadline expired) or
        ``"syn-retries-exhausted"`` (the handshake never completed).
        """
        if self.state in (SenderState.DONE, SenderState.FAILED):
            return
        self.state = SenderState.FAILED
        self.record.abort_reason = reason
        self._m_failed.inc()
        self.sim.trace.record(
            self.sim.now, EV_SENDER_FAILED, self.protocol_name,
            flow=self.flow.flow_id, reason=reason,
        )
        self._teardown()

    def _teardown(self) -> None:
        self.rto_timer.cancel()
        if self._deadline_handle is not None:
            self._deadline_handle.cancel()
            self._deadline_handle = None
        self.host.unregister(self.flow.flow_id)

    # ==================================================================
    # Introspection helpers
    # ==================================================================

    @property
    def established(self) -> bool:
        """True while the connection is open for data."""
        return self.state == SenderState.ESTABLISHED

    @property
    def in_recovery(self) -> bool:
        """True during a SACK-triggered recovery episode."""
        return self.recovery_point >= 0

    def smoothed_rtt(self) -> float:
        """Best available RTT estimate (handshake sample as fallback)."""
        if self.rtt.srtt is not None:
            return self.rtt.srtt
        if self.record.handshake_rtt is not None:
            return self.record.handshake_rtt
        return self.config.initial_rto
