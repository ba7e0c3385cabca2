"""Checker-level unit tests against synthetic record streams.

The property tests exercise the checkers a live fault can trip
(ropr-order, packet-conservation, seq-ack-monotonicity).  The rest —
pacing-evenness, ropr-never-acked, frontier-meet, rto-sanity — judge
conditions the simulator cannot be coaxed into producing without
rewriting protocol internals, so they are fed hand-built streams here:
one clean stream and one minimally-perturbed violating stream each.
"""

from repro.audit.invariants import (
    AckKnowledge,
    AckMonotonicityChecker,
    ConservationChecker,
    FrontierMeetChecker,
    NeverRetransmitAckedChecker,
    PacingChecker,
    RoprOrderChecker,
    RtoSanityChecker,
    default_checkers,
)
from repro.sim.trace import TraceRecord


def rec(time, kind, source="s0", **detail):
    return TraceRecord(time, kind, source, detail)


def feed(checker, records):
    out = []
    for record in records:
        out.extend(checker.observe(record))
    out.extend(checker.finalize())
    return out


def data_send(time, seq, uid, flow=1, **extra):
    return rec(time, "pkt.send", uid=uid, flow=flow, type="data", seq=seq,
               dst="d0", **extra)


class TestPacingChecker:
    def phase(self, time, phase, flow=1, **extra):
        return rec(time, "halfback.phase", flow=flow, phase=phase, **extra)

    def test_even_pacing_is_clean(self):
        sends = [data_send(0.1 + 0.01 * i, seq=i, uid=i) for i in range(8)]
        stream = [self.phase(0.1, "pacing", interval=0.01, burst=1),
                  *sends, self.phase(0.2, "ropr_wait")]
        assert feed(PacingChecker(), stream) == []

    def test_burst_allowance_is_burst_plus_one(self):
        # burst=2 plus the pacer's immediate release: 3 sends may share
        # the first timestamp, a fourth is a violation.
        head = [data_send(0.1, seq=i, uid=i) for i in range(4)]
        tail = [data_send(0.1 + 0.01 * i, seq=3 + i, uid=10 + i)
                for i in range(1, 4)]
        stream = [self.phase(0.1, "pacing", interval=0.01, burst=2),
                  *head, *tail, self.phase(0.3, "ropr_wait")]
        violations = feed(PacingChecker(), stream)
        assert len(violations) == 1
        assert "4 segments sent at once" in violations[0].message

    def test_collapsed_pacer_is_flagged(self):
        # The first release is on time, then the pacer wedges and fires
        # everything in one instant (legal burst, zero later gaps).
        times = [0.1, 0.15, 0.15, 0.15, 0.15]
        sends = [data_send(t, seq=i, uid=i) for i, t in enumerate(times)]
        stream = [self.phase(0.1, "pacing", interval=0.01, burst=1),
                  *sends, self.phase(0.2, "ropr_wait")]
        violations = feed(PacingChecker(), stream)
        assert any("collapsed" in v.message for v in violations)

    def test_one_wild_gap_is_flagged(self):
        times = [0.1, 0.11, 0.12, 0.18, 0.19, 0.20]  # 0.06s gap vs 0.01s
        sends = [data_send(t, seq=i, uid=i) for i, t in enumerate(times)]
        stream = [self.phase(0.1, "pacing", interval=0.01, burst=1),
                  *sends, self.phase(0.3, "ropr_wait")]
        violations = feed(PacingChecker(), stream)
        assert len(violations) == 1
        assert "uneven pacing" in violations[0].message

    def test_retransmissions_do_not_count_as_paced_sends(self):
        sends = [data_send(0.1 + 0.01 * i, seq=i, uid=i) for i in range(5)]
        rtx = data_send(0.145, seq=0, uid=99, retransmit=True)
        stream = [self.phase(0.1, "pacing", interval=0.01, burst=1),
                  *sends, rtx, self.phase(0.2, "ropr_wait")]
        assert feed(PacingChecker(), stream) == []


class AckedStream:
    """Builders for a sender-knowledge stream (ACK sent, then delivered)."""

    @staticmethod
    def acked(time, ack, uid, flow=1, sack=()):
        return [
            rec(time, "pkt.send", source="d0", uid=uid, flow=flow,
                type="ack", ack=ack, sack=sack, dst="s0"),
            rec(time + 0.01, "pkt.deliver", source="r1->s0", uid=uid,
                flow=flow, dst="s0"),
        ]


class TestNeverRetransmitAcked:
    def run_stream(self, stream):
        knowledge = AckKnowledge()
        checker = NeverRetransmitAckedChecker(knowledge)
        out = []
        for record in stream:
            knowledge.observe(record)
            out.extend(checker.observe(record))
        return out

    def test_retransmit_of_cumulatively_acked_segment(self):
        out = self.run_stream([
            *AckedStream.acked(0.2, ack=5, uid=50),
            data_send(0.3, seq=2, uid=60, retransmit=True)])
        assert len(out) == 1
        assert "after the sender saw it ACKed" in out[0].message
        assert out[0].seq == 2

    def test_retransmit_of_sacked_segment(self):
        out = self.run_stream([
            *AckedStream.acked(0.2, ack=3, uid=50, sack=((7, 9),)),
            data_send(0.3, seq=8, uid=61, retransmit=True, proactive=True)])
        assert len(out) == 1
        assert "proactively retransmitted" in out[0].message

    def test_undelivered_ack_confers_no_knowledge(self):
        # The ACK was sent but never arrived: retransmitting is fine.
        out = self.run_stream([
            rec(0.2, "pkt.send", source="d0", uid=50, flow=1,
                type="ack", ack=5, sack=(), dst="s0"),
            rec(0.25, "link.loss", source="r1->s0", uid=50),
            data_send(0.3, seq=2, uid=60, retransmit=True)])
        assert out == []


class TestFrontierMeet:
    def ropr_run(self, segments, pointers, ack=0, exit_phase="drain",
                 rto=False):
        knowledge = AckKnowledge()
        checker = FrontierMeetChecker(knowledge)
        stream = [
            rec(0.1, "halfback.phase", flow=1, phase="pacing",
                segments=segments, interval=0.01, burst=1),
            *AckedStream.acked(0.2, ack=ack, uid=50),
            rec(0.25, "halfback.phase", flow=1, phase="ropr"),
            *[rec(0.3 + 0.01 * i, "halfback.frontier", flow=1, ack=ack,
                  pointer=p) for i, p in enumerate(pointers)],
        ]
        if rto:
            stream.append(rec(0.38, "sender.rto", flow=1, timeouts=1))
        stream.append(rec(0.4, "halfback.phase", flow=1, phase=exit_phase))
        out = []
        for record in stream:
            knowledge.observe(record)
            out.extend(checker.observe(record))
        out.extend(checker.finalize())
        return out

    def test_full_coverage_is_clean(self):
        assert self.ropr_run(4, pointers=[3, 2, 1, 0]) == []

    def test_acks_count_toward_coverage(self):
        # Segments 0 and 1 were cumulatively ACKed; proposing 3 and 2
        # meets the frontier.
        assert self.ropr_run(4, pointers=[3, 2], ack=2) == []

    def test_gap_at_phase_exit_is_flagged(self):
        violations = self.ropr_run(4, pointers=[3, 2])
        assert len(violations) == 1
        assert "neither proposed nor ACKed" in violations[0].message
        assert violations[0].seq == 0

    def test_rto_aborted_flow_is_exempt(self):
        assert self.ropr_run(4, pointers=[3], exit_phase="fallback",
                             rto=True) == []


class TestRtoSanity:
    def test_counter_advancing_by_one_is_clean(self):
        stream = [rec(0.1 * n, "sender.rto", flow=1, timeouts=n)
                  for n in (1, 2, 3)]
        assert feed(RtoSanityChecker(), stream) == []

    def test_counter_jump_is_flagged(self):
        stream = [rec(0.1, "sender.rto", flow=1, timeouts=1),
                  rec(0.2, "sender.rto", flow=1, timeouts=3)]
        violations = feed(RtoSanityChecker(), stream)
        assert len(violations) == 1
        assert "jumped 1 -> 3" in violations[0].message

    def test_rto_after_done_is_flagged(self):
        stream = [rec(0.1, "sender.done", flow=1, fct=0.1, retx=0,
                      proactive=0),
                  rec(0.2, "sender.rto", flow=1, timeouts=1)]
        violations = feed(RtoSanityChecker(), stream)
        assert [v.message for v in violations] == [
            "RTO fired after the flow completed"]

    def test_recovery_after_done_and_negative_point(self):
        stream = [rec(0.1, "sender.recovery", flow=1, point=-2)]
        violations = feed(RtoSanityChecker(), stream)
        assert "negative" in violations[0].message
        stream = [rec(0.1, "sender.done", flow=2, fct=0.1, retx=0,
                      proactive=0),
                  rec(0.2, "sender.recovery", flow=2, point=4)]
        violations = feed(RtoSanityChecker(), stream)
        assert "recovery entered after the flow completed" in \
            violations[0].message


class TestRoprOrderChecker:
    def test_violation_is_stamped_with_the_offending_uid(self):
        stream = [
            rec(0.1, "halfback.phase", flow=1, phase="ropr", order="reverse"),
            rec(0.2, "halfback.frontier", flow=1, ack=0, pointer=5),
            rec(0.3, "halfback.frontier", flow=1, ack=0, pointer=6),
            data_send(0.3, seq=6, uid=77, retransmit=True, proactive=True),
        ]
        violations = feed(RoprOrderChecker(), stream)
        assert len(violations) == 1
        assert violations[0].uid == 77
        assert "strictly descend" in violations[0].message

    def test_pending_violation_survives_finalize(self):
        stream = [
            rec(0.1, "halfback.phase", flow=1, phase="ropr", order="reverse"),
            rec(0.2, "halfback.frontier", flow=1, ack=0, pointer=5),
            rec(0.3, "halfback.frontier", flow=1, ack=0, pointer=5),
        ]
        violations = feed(RoprOrderChecker(), stream)
        assert len(violations) == 1
        assert violations[0].uid is None

    def test_forward_order_must_ascend(self):
        stream = [
            rec(0.1, "halfback.phase", flow=1, phase="ropr", order="forward"),
            rec(0.2, "halfback.frontier", flow=1, ack=0, pointer=2),
            rec(0.3, "halfback.frontier", flow=1, ack=0, pointer=3),
            rec(0.4, "halfback.frontier", flow=1, ack=0, pointer=1),
        ]
        violations = feed(RoprOrderChecker(), stream)
        assert len(violations) == 1
        assert "strictly ascend" in violations[0].message


class TestConservationChecker:
    def test_transmit_without_enqueue(self):
        stream = [rec(0.1, "pkt.enqueue", source="a->b", uid=1, flow=1),
                  rec(0.2, "pkt.tx", source="a->b", uid=2, flow=1)]
        violations = feed(ConservationChecker(), stream)
        assert "never enqueued" in violations[0].message

    def test_loss_of_packet_not_in_flight(self):
        stream = [rec(0.1, "pkt.enqueue", source="a->b", uid=1, flow=1),
                  rec(0.2, "link.loss", source="a->b", uid=1, packet="p")]
        violations = feed(ConservationChecker(), stream)
        assert "not in flight" in violations[0].message

    def test_unarmed_checker_ignores_bare_delivery_streams(self):
        # A lineage-free trace (just drops/losses) must not be judged.
        stream = [rec(0.2, "pkt.deliver", source="a->b", uid=1, flow=1,
                      dst="b")]
        assert feed(ConservationChecker(), stream) == []


class TestAckMonotonicity:
    def test_out_of_order_new_data(self):
        stream = [data_send(0.1, seq=4, uid=1),
                  data_send(0.2, seq=2, uid=2)]
        violations = feed(AckMonotonicityChecker(), stream)
        assert "out of order" in violations[0].message

    def test_retransmissions_are_exempt(self):
        stream = [data_send(0.1, seq=4, uid=1),
                  data_send(0.2, seq=2, uid=2, retransmit=True)]
        assert feed(AckMonotonicityChecker(), stream) == []


class TestRegistry:
    def test_default_checkers_cover_the_documented_set(self):
        names = {c.name for c in default_checkers()}
        assert names == {
            "ack-knowledge", "seq-ack-monotonicity", "packet-conservation",
            "pacing-evenness", "ropr-order", "ropr-never-acked",
            "frontier-meet", "rto-sanity", "fct-conservation",
        }
