"""Halfback (§3) — the paper's contribution.

Three phases on top of the transport framework:

1. **Pacing** (§3.1): pace ``min(flow, flow-control window, Pacing
   Threshold)`` evenly across one handshake RTT (optionally preceded by
   a small initial burst — the §4.2.4 refinement).
2. **ROPR** (§3.2): from the first ACK received *after all new data has
   been paced out*, proactively retransmit not-yet-ACKed segments in
   reverse order, one per received ACK (the ACK clock approximates the
   bottleneck's drain rate).  The phase ends when every unACKed segment
   has been proactively retransmitted — typically when the ACK frontier
   meets the reverse pointer halfway, so ~50 % of the flow is resent.
3. **Fallback** (§3.3): flows longer than the Pacing Threshold continue
   as normal TCP with a congestion window seeded from the ACK-rate
   bandwidth estimate (``s * RTT``).

Normal (reactive) TCP loss recovery runs in parallel throughout, as the
paper specifies — ROPR masks loss latency but does not replace the
reactive mechanism.
"""

from __future__ import annotations

from enum import Enum
from typing import List, Optional

from repro.core.bandwidth import AckRateEstimator
from repro.core.config import HalfbackConfig, RATE_LINE
from repro.core.pacing_phase import PacingPlan, plan_pacing
from repro.core.ropr import RoprScheduler
from repro.net.packet import Packet
from repro.telemetry.schema import EV_HALFBACK_FRONTIER, EV_HALFBACK_PHASE
from repro.transport.pacing import Pacer
from repro.transport.sender import SenderBase, SenderState

__all__ = ["HalfbackSender", "HalfbackPhase"]


class HalfbackPhase(Enum):
    """Halfback's sender-side phases."""

    HANDSHAKE = "handshake"
    PACING = "pacing"
    ROPR_WAIT = "ropr_wait"   # pacing drained, waiting for the first ACK
    ROPR = "ropr"
    FALLBACK = "fallback"     # long flow: TCP for the remainder
    DRAIN = "drain"           # short flow: ROPR done, reactive cleanup only


class HalfbackSender(SenderBase):
    """The Halfback scheme: Pacing + ROPR (+ TCP fallback)."""

    protocol_name = "halfback"

    def __init__(self, sim, host, flow, record=None, config=None,
                 halfback: Optional[HalfbackConfig] = None,
                 throughput_cache=None) -> None:
        super().__init__(sim, host, flow, record=record, config=config)
        self.halfback = halfback if halfback is not None else HalfbackConfig()
        self.phase = HalfbackPhase.HANDSHAKE
        self.plan: Optional[PacingPlan] = None
        self.ropr: Optional[RoprScheduler] = None
        self.bandwidth = AckRateEstimator()
        #: Shared per-destination throughput memory for the §3.1
        #: adaptive Pacing Threshold (used only when the config enables
        #: it and a cache is supplied).
        self.throughput_cache = throughput_cache
        self._pacer: Optional[Pacer] = None
        self._ropr_credit = 0.0
        self._m_ropr_retx = sim.metrics.counter("halfback.ropr_retx")
        self._m_fallbacks = sim.metrics.counter("halfback.fallbacks")

    # ------------------------------------------------------------------
    # Phase 1: Pacing
    # ------------------------------------------------------------------

    def on_established(self) -> None:
        rtt = self.smoothed_rtt()
        threshold = self.halfback.pacing_threshold
        if (self.halfback.adaptive_threshold
                and self.throughput_cache is not None):
            threshold = self.throughput_cache.threshold_for(
                self.flow.src, self.flow.dst, rtt, self.sim.now,
                ceiling=threshold,
            )
            self.record.extra["adaptive_threshold"] = threshold
        self.plan = plan_pacing(self.flow.size, rtt, self.config, threshold)
        self.ropr = RoprScheduler(self.plan.segments, self.halfback.ropr_order)
        self.phase = HalfbackPhase.PACING
        burst = min(self.halfback.initial_burst_segments, self.plan.segments)
        # The plan parameters ride on the phase event so stream consumers
        # (audit pacing-evenness checker, timelines) need no sender access.
        self._trace_phase(segments=self.plan.segments, rate=self.plan.rate,
                          interval=self.plan.interval, burst=burst)
        self._pacer = Pacer(
            self.sim, self.plan.rate, self._release, on_idle=self._pacing_done
        )
        for seq in range(burst):
            self.send_segment(seq)
        if burst == self.plan.segments:
            self._pacing_done()
            return
        for seq in range(burst, self.plan.segments):
            size = self.config.segment_wire_size(
                seq, self.flow.n_segments, self.flow.size
            )
            self._pacer.enqueue(seq, size)

    def _release(self, seq: int) -> None:
        if self.state == SenderState.ESTABLISHED:
            self.send_segment(seq)

    def _pacing_done(self) -> None:
        if self.phase != HalfbackPhase.PACING:
            return
        # ACKs arriving before this point must not trigger ROPR (§3.2:
        # "ACKs will not trigger proactive retransmission until all new
        # packets are paced out").
        self.phase = HalfbackPhase.ROPR_WAIT
        self._trace_phase()

    # ------------------------------------------------------------------
    # Phase 2: ROPR — clocked by arriving ACKs
    # ------------------------------------------------------------------

    def on_ack_hook(self, packet: Packet, newly_acked: List[int]) -> None:
        if newly_acked:
            acked_bytes = sum(
                self.config.segment_wire_size(
                    seq, self.flow.n_segments, self.flow.size
                ) - self.config.header_size
                for seq in newly_acked
            )
            self.bandwidth.observe(self.sim._now, acked_bytes)
        if self.phase == HalfbackPhase.ROPR_WAIT:
            self.phase = HalfbackPhase.ROPR
            self._trace_phase(order=self.halfback.ropr_order)
        if self.phase != HalfbackPhase.ROPR:
            return
        assert self.ropr is not None
        if self.halfback.ropr_rate == RATE_LINE:
            # Halfback-Burst ablation: everything at once, at line rate.
            for seq in self.ropr.drain(self.scoreboard.is_acked):
                self._send_proactive(seq)
        else:
            # The ACK clock: one transmission per received ACK, total —
            # reactive retransmissions of SACK-inferred losses take the
            # budget first (the "normal TCP retransmission in parallel",
            # kept at Halfback's limited-aggressiveness rate), then the
            # reverse-ordered proactive sweep.
            self._ropr_credit += self.halfback.retransmissions_per_ack
            while self._ropr_credit >= 1.0:
                lost = self.scoreboard.first_lost()
                if lost is not None:
                    self._ropr_credit -= 1.0
                    self.send_segment(lost, retransmit=True)
                    continue
                candidate = self.ropr.next_candidate(self.scoreboard.is_acked)
                if candidate is None:
                    break
                self._ropr_credit -= 1.0
                self._send_proactive(candidate)
        if self.ropr.finished:
            self._exit_ropr()

    def _send_proactive(self, seq: int) -> None:
        """One ROPR transmission, with frontier telemetry."""
        self._m_ropr_retx.inc()
        if self.sim.trace.enabled:
            # The two frontiers of Fig. 3: the cumulative-ACK frontier
            # advancing from the front, the retransmission pointer
            # retreating from the tail; ROPR ends where they meet.
            self.sim.trace.record(
                self.sim.now, EV_HALFBACK_FRONTIER, self.protocol_name,
                flow=self.flow.flow_id, ack=self.scoreboard.cum_ack,
                pointer=seq,
            )
        self.send_segment(seq, retransmit=True, proactive=True)

    def _exit_ropr(self) -> None:
        assert self.plan is not None
        if self.plan.covers_flow:
            self.phase = HalfbackPhase.DRAIN
        else:
            # Phase 3 (§3.3): fall back to TCP with cwnd = s * RTT.
            self.phase = HalfbackPhase.FALLBACK
            self._m_fallbacks.inc()
            window = self.bandwidth.window_for(
                self.smoothed_rtt(), self.config.segment_size,
                fallback_segments=self.config.initial_cwnd,
            )
            self.cwnd = float(window)
            # "Fall back to TCP with a congestion window of s*RTT": the
            # window is seeded from the estimate but TCP semantics are
            # otherwise unchanged — ssthresh keeps whatever loss history
            # set, so a clean flow continues probing past the estimate.
            self.ssthresh = max(self.ssthresh, self.cwnd)
            self.record.extra["fallback_cwnd"] = window
        self._trace_phase()
        self.send_window()

    # ------------------------------------------------------------------
    # Policy gates
    # ------------------------------------------------------------------

    def allow_new_data(self, seq: int) -> bool:
        # New data beyond the paced prefix waits for the fallback phase.
        return self.phase in (HalfbackPhase.FALLBACK, HalfbackPhase.DRAIN)

    def congestion_window_gate(self) -> bool:
        if self.phase in (
            HalfbackPhase.PACING, HalfbackPhase.ROPR_WAIT, HalfbackPhase.ROPR
        ):
            # The pacer / ACK clock owns the wire during the aggressive
            # phases; window-driven transmission stays off so recovery
            # never bursts (post-RTO retransmission is the exception,
            # handled by on_timeout_hook).
            return False
        return super().congestion_window_gate()

    def on_timeout_hook(self) -> None:
        # An RTO means the aggressive phase failed outright (the whole
        # tail of the window was lost, or retransmissions died).  Give
        # up on pacing/ROPR and let normal TCP recovery take over from
        # cwnd = 1 — anything more aggressive after a timeout would
        # repeat the mistake that caused it.
        if self.phase in (
            HalfbackPhase.PACING, HalfbackPhase.ROPR_WAIT, HalfbackPhase.ROPR
        ):
            if self._pacer is not None:
                self._pacer.flush()
            self.phase = HalfbackPhase.DRAIN
            self._trace_phase()

    # ------------------------------------------------------------------

    def _trace_phase(self, **extra) -> None:
        self.sim.trace.record(
            self.sim.now, EV_HALFBACK_PHASE, self.protocol_name,
            flow=self.flow.flow_id, phase=self.phase.value, **extra,
        )

    def on_complete_hook(self) -> None:
        if self.throughput_cache is None:
            return
        established = self.record.established_time
        done = self.record.sender_done_time
        if established is None or done is None or done <= established:
            return
        self.throughput_cache.observe(
            self.flow.src, self.flow.dst,
            self.flow.size / (done - established), self.sim.now,
        )
