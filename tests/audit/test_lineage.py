"""Lineage tracer: spans, causal parents, bounds, rendering."""

from repro.audit import LineageTracer
from repro.sim.trace import TraceRecord
from repro.telemetry.schema import LINEAGE_EVENT_KINDS
from tests.audit.conftest import run_audited_flow


def rec(time, kind, source, **detail):
    return TraceRecord(time, kind, source, detail)


class TestSpanConstruction:
    def test_send_opens_a_span_with_header_detail(self):
        tracer = LineageTracer()
        tracer.observe(rec(0.1, "pkt.send", "s0", uid=7, flow=1, type="data",
                           seq=3, dst="d0", retransmit=False,
                           proactive=False))
        span = tracer.span(7)
        assert span is not None
        assert (span.flow, span.kind, span.seq, span.dst) == (1, "data", 3,
                                                              "d0")
        assert span.fate == "in-flight"

    def test_hops_accumulate_and_delivery_settles_fate(self):
        tracer = LineageTracer()
        tracer.observe(rec(0.1, "pkt.send", "s0", uid=7, flow=1, type="data",
                           seq=0, dst="d0"))
        tracer.observe(rec(0.1, "pkt.enqueue", "s0->r1", uid=7, flow=1))
        tracer.observe(rec(0.2, "pkt.tx", "s0->r1", uid=7, flow=1))
        tracer.observe(rec(0.3, "pkt.deliver", "s0->r1", uid=7, flow=1,
                           dst="r1"))
        tracer.observe(rec(0.4, "pkt.deliver", "r1->d0", uid=7, flow=1,
                           dst="d0"))
        span = tracer.span(7)
        assert [e[1] for e in span.events] == [
            "pkt.send", "pkt.enqueue", "pkt.tx", "pkt.deliver", "pkt.deliver"]
        assert span.fate == "delivered"

    def test_drop_and_loss_fates(self):
        tracer = LineageTracer()
        tracer.observe(rec(0.1, "pkt.send", "s0", uid=1, flow=1, type="data",
                           seq=0, dst="d0"))
        tracer.observe(rec(0.2, "queue.drop", "r1->r2", uid=1, flow=1))
        assert tracer.span(1).fate == "dropped @ r1->r2"
        tracer.observe(rec(0.1, "pkt.send", "s0", uid=2, flow=1, type="data",
                           seq=1, dst="d0"))
        tracer.observe(rec(0.2, "link.loss", "r1->r2", uid=2, flow=1))
        assert tracer.span(2).fate == "lost @ r1->r2"

    def test_unknown_uid_becomes_orphan_span(self):
        tracer = LineageTracer()
        tracer.observe(rec(0.5, "pkt.enqueue", "r1->r2", uid=99, flow=2))
        span = tracer.span(99)
        assert span.kind == "orphan"
        assert span.flow == 2

    def test_subscription_is_the_lineage_family_plus_drop_and_loss(self):
        assert LineageTracer.kinds == LINEAGE_EVENT_KINDS | {"queue.drop",
                                                             "link.loss"}
        tracer = LineageTracer()
        # uid-keyed, but not subscribed: no orphan span is opened.
        tracer.observe(rec(0.5, "chaos.corrupt", "r1->r2", uid=5, flow=2))
        assert tracer.span(5) is None and len(tracer) == 0


class TestCausalLinks:
    def test_retransmission_chains_to_original(self):
        tracer = LineageTracer()
        tracer.observe(rec(0.1, "pkt.send", "s0", uid=1, flow=1, type="data",
                           seq=5, dst="d0", retransmit=False))
        tracer.observe(rec(0.2, "pkt.send", "s0", uid=2, flow=1, type="data",
                           seq=5, dst="d0", retransmit=True))
        tracer.observe(rec(0.3, "pkt.send", "s0", uid=3, flow=1, type="data",
                           seq=5, dst="d0", retransmit=True))
        chain = tracer.causal_chain(3)
        assert [s.uid for s in chain] == [1, 2, 3]

    def test_ack_parent_is_the_triggering_data_packet(self):
        tracer = LineageTracer()
        tracer.observe(rec(0.1, "pkt.send", "s0", uid=1, flow=1, type="data",
                           seq=0, dst="d0"))
        tracer.observe(rec(0.2, "pkt.send", "d0", uid=2, flow=1, type="ack",
                           ack=1, dst="s0"))
        tracer.observe(rec(0.2, "pkt.ack_gen", "d0", uid=2, flow=1, parent=1,
                           ack=1))
        chain = tracer.causal_chain(2)
        assert [s.uid for s in chain] == [1, 2]

    def test_span_for_seq_returns_latest_transmission(self):
        tracer = LineageTracer()
        tracer.observe(rec(0.1, "pkt.send", "s0", uid=1, flow=1, type="data",
                           seq=5, dst="d0"))
        tracer.observe(rec(0.2, "pkt.send", "s0", uid=2, flow=1, type="data",
                           seq=5, dst="d0", retransmit=True))
        assert tracer.span_for_seq(1, 5).uid == 2

    def test_chain_walk_survives_cycles(self):
        tracer = LineageTracer()
        tracer.observe(rec(0.1, "pkt.send", "s0", uid=1, flow=1, type="data",
                           seq=0, dst="d0"))
        tracer.span(1).parent = 1  # corrupt: self-parent
        assert [s.uid for s in tracer.causal_chain(1)] == [1]


class TestBounds:
    def test_span_store_is_bounded_with_fifo_eviction(self):
        tracer = LineageTracer(max_spans=10)
        for uid in range(25):
            tracer.observe(rec(0.1, "pkt.send", "s0", uid=uid, flow=1,
                               type="data", seq=uid, dst="d0"))
        assert len(tracer) == 10
        assert tracer.evicted_spans == 15
        assert tracer.span(0) is None
        assert tracer.span(24) is not None


class TestRendering:
    def test_render_chain_marks_causation(self):
        tracer = LineageTracer()
        tracer.observe(rec(0.1, "pkt.send", "s0", uid=1, flow=1, type="data",
                           seq=5, dst="d0"))
        tracer.observe(rec(0.2, "pkt.send", "s0", uid=2, flow=1, type="data",
                           seq=5, dst="d0", retransmit=True, proactive=True))
        lines = tracer.render_chain(2)
        text = "\n".join(lines)
        assert "uid=1" in text
        assert "caused uid=2" in text
        assert "proactive-rtx" in text

    def test_render_flow_is_chronological_ascii(self):
        run = run_audited_flow(segments=10)
        flow = run.record.spec.flow_id
        timeline = run.session.auditor.tracer.render_flow(flow, limit=20)
        assert f"flow {flow} causal timeline" in timeline
        times = [float(line.split("t=")[1].split()[0])
                 for line in timeline.splitlines() if "t=" in line]
        assert times == sorted(times)


class TestLiveFlow:
    def test_every_hop_event_lands_in_a_span(self):
        run = run_audited_flow(segments=20)
        tracer = run.session.auditor.tracer
        assert run.record.completed
        assert len(tracer) > 20  # data + acks + handshake
        delivered = [s for s in tracer.flow_spans(run.record.spec.flow_id)
                     if s.fate == "delivered"]
        assert delivered

    def test_ropr_retransmit_spans_chain_to_originals(self):
        run = run_audited_flow(segments=40)
        tracer = run.session.auditor.tracer
        rtx = [s for s in tracer.flow_spans(run.record.spec.flow_id)
               if s.retransmit and s.proactive]
        assert rtx, "halfback run produced no proactive retransmissions"
        for span in rtx:
            chain = tracer.causal_chain(span.uid)
            assert chain[-1].uid == span.uid
            assert len(chain) >= 2
            assert chain[0].retransmit is False
            assert chain[0].seq == span.seq
