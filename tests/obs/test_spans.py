"""The per-flow span builder: classification, conservation, retention.

The synthetic tests drive :class:`FlowSpanBuilder` with hand-written
trace records so each classifier branch is checked against arithmetic
done on paper; the integration tests run real flows under a
:class:`BreakdownSession` and hold the conservation invariant against
the runner-emitted FCT.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import chaos
from repro.obs import spans
from repro.obs.critical import BreakdownSession
from repro.obs.spans import (
    COMPONENTS,
    CONSERVATION_TOLERANCE,
    FlowSpanBuilder,
)
from repro.sim.trace import TraceRecord
from repro.telemetry.schema import (
    EV_CHAOS_CLONE,
    EV_FLOW_COMPLETE,
    EV_FLOW_START,
    EV_LINK_LOSS,
    EV_PKT_DELIVER,
    EV_PKT_ENQUEUE,
    EV_PKT_SEND,
    EV_PKT_TX,
    EV_QUEUE_DROP,
    EV_SENDER_ESTABLISHED,
    EV_SENDER_FAILED,
)


def rec(t, kind, **detail):
    return TraceRecord(t, kind, "test", detail)


def build(records, **kwargs):
    """Feed synthetic records through a builder; return completions."""
    done = []
    builder = FlowSpanBuilder(on_complete=done.append, **kwargs)
    for record in records:
        builder.observe(record)
    return builder, done


class TestClassifier:
    def test_clean_flow_partitions_into_expected_components(self):
        _, done = build([
            rec(0.000, EV_FLOW_START, flow=1, protocol="tcp", size=1000),
            rec(0.010, EV_SENDER_ESTABLISHED, flow=1),
            rec(0.010, EV_PKT_SEND, flow=1, uid=1, type="data", seq=0,
                dst="dst"),
            rec(0.010, EV_PKT_ENQUEUE, flow=1, uid=1),
            rec(0.012, EV_PKT_TX, flow=1, uid=1, ser=0.002),
            rec(0.020, EV_PKT_DELIVER, flow=1, uid=1, dst="dst"),
            rec(0.030, EV_FLOW_COMPLETE, flow=1, fct=0.030),
        ])
        assert len(done) == 1
        b = done[0]
        assert b.components == pytest.approx({
            "handshake": 0.010,       # flow.start -> established
            "queue-wait": 0.002,      # enqueue -> tx
            "serialization": 0.002,   # tx -> tx+ser
            "propagation": 0.006,     # tx+ser -> deliver
            "pacing": 0.010,          # deliver -> complete, idle
        })
        assert b.conserved
        assert b.fct == pytest.approx(0.030)
        assert b.fct_event == pytest.approx(0.030)

    def test_lost_packet_charges_rto_idle_then_retransmission(self):
        _, done = build([
            rec(0.000, EV_FLOW_START, flow=1, protocol="halfback",
                size=1000),
            rec(0.010, EV_SENDER_ESTABLISHED, flow=1),
            rec(0.010, EV_PKT_SEND, flow=1, uid=1, type="data", seq=0,
                dst="dst"),
            rec(0.010, EV_PKT_TX, flow=1, uid=1, ser=0.001),
            # The copy dies in the network (no "flow" key on loss
            # events; the builder resolves it via uid).
            rec(0.020, EV_LINK_LOSS, uid=1),
            # Nothing in flight + a lost segment = RTO idle until the
            # retransmission goes out.
            rec(0.050, EV_PKT_SEND, flow=1, uid=2, type="data", seq=0,
                dst="dst", retransmit=True),
            rec(0.050, EV_PKT_TX, flow=1, uid=2, ser=0.001),
            rec(0.070, EV_PKT_DELIVER, flow=1, uid=2, dst="dst"),
            rec(0.070, EV_FLOW_COMPLETE, flow=1, fct=0.070),
        ])
        b = done[0]
        assert b.components["rto-idle"] == pytest.approx(0.030)
        assert b.components["retransmission"] == pytest.approx(0.020)
        assert b.conserved

    def test_loss_with_traffic_in_flight_is_loss_detection(self):
        _, done = build([
            rec(0.000, EV_FLOW_START, flow=1, protocol="tcp", size=2000),
            rec(0.000, EV_SENDER_ESTABLISHED, flow=1),
            rec(0.000, EV_PKT_SEND, flow=1, uid=1, type="data", seq=0,
                dst="dst"),
            rec(0.000, EV_PKT_TX, flow=1, uid=1, ser=0.0),
            rec(0.000, EV_PKT_SEND, flow=1, uid=2, type="data", seq=1,
                dst="dst"),
            rec(0.000, EV_PKT_TX, flow=1, uid=2, ser=0.0),
            rec(0.010, EV_LINK_LOSS, uid=1),
            # seq 0 is gone but seq 1 still flies: detection wait, not
            # RTO idle.
            rec(0.030, EV_PKT_DELIVER, flow=1, uid=2, dst="dst"),
            rec(0.030, EV_FLOW_COMPLETE, flow=1, fct=0.030),
        ])
        b = done[0]
        assert b.components["loss-detection"] == pytest.approx(0.020)
        assert "rto-idle" not in b.components
        assert b.conserved

    def test_data_before_established_is_fast_open(self):
        _, done = build([
            rec(0.0, EV_FLOW_START, flow=1, protocol="jumpstart",
                size=1000),
            rec(0.0, EV_PKT_SEND, flow=1, uid=1, type="data", seq=0,
                dst="dst"),
            rec(0.0, EV_PKT_TX, flow=1, uid=1, ser=0.0),
            rec(0.1, EV_PKT_DELIVER, flow=1, uid=1, dst="dst"),
            rec(0.1, EV_FLOW_COMPLETE, flow=1, fct=0.1),
        ])
        b = done[0]
        assert "handshake" not in b.components
        assert b.components["propagation"] == pytest.approx(0.1)

    def test_chaos_clone_inherits_the_parent_packet_state(self):
        _, done = build([
            rec(0.00, EV_FLOW_START, flow=1, protocol="tcp", size=1000),
            rec(0.00, EV_SENDER_ESTABLISHED, flow=1),
            rec(0.00, EV_PKT_SEND, flow=1, uid=1, type="data", seq=0,
                dst="dst"),
            rec(0.00, EV_PKT_TX, flow=1, uid=1, ser=0.0),
            rec(0.01, EV_CHAOS_CLONE, flow=1, uid=9, clone_of=1),
            # The original dies; the clone still carries the segment.
            rec(0.02, EV_LINK_LOSS, uid=1),
            rec(0.05, EV_PKT_DELIVER, flow=1, uid=9, dst="dst"),
            rec(0.05, EV_FLOW_COMPLETE, flow=1, fct=0.05),
        ])
        b = done[0]
        # A delivered clean copy repairs the seq even though the
        # original was dropped, so the tail is propagation-dominated.
        assert b.conserved
        assert b.components.get("rto-idle") is None

    def test_failed_flow_is_discarded_not_completed(self):
        builder, done = build([
            rec(0.0, EV_FLOW_START, flow=1, protocol="tcp", size=1000),
            rec(5.0, EV_SENDER_FAILED, flow=1, reason="deadline"),
        ])
        assert done == []
        assert builder.flows_discarded == 1
        assert builder.flows == {}

    def test_unknown_flow_events_are_ignored(self):
        builder, done = build([
            rec(0.0, EV_PKT_SEND, flow=7, uid=1, type="data", seq=0,
                dst="dst"),
            rec(0.1, EV_FLOW_COMPLETE, flow=7, fct=0.1),
        ])
        assert done == []
        assert builder.flows_completed == 0


class TestRetention:
    RECORDS = [
        rec(0.000, EV_FLOW_START, flow=1, protocol="tcp", size=1000),
        rec(0.010, EV_SENDER_ESTABLISHED, flow=1),
        rec(0.010, EV_PKT_SEND, flow=1, uid=1, type="data", seq=0,
            dst="dst"),
        rec(0.012, EV_PKT_TX, flow=1, uid=1, ser=0.002),
        rec(0.020, EV_PKT_DELIVER, flow=1, uid=1, dst="dst"),
        rec(0.030, EV_FLOW_COMPLETE, flow=1, fct=0.030),
    ]

    def test_spans_dropped_by_default(self):
        _, done = build(self.RECORDS)
        b = done[0]
        assert b.intervals == [] and b.packets == []

    def test_keep_spans_retains_partitioning_intervals(self):
        _, done = build(self.RECORDS, keep_spans=True)
        b = done[0]
        assert b.packets and b.packets[0]["fate"] == "delivered"
        # The intervals partition [start, complete] contiguously.
        assert b.intervals[0][0] == pytest.approx(b.start)
        assert b.intervals[-1][1] == pytest.approx(b.complete)
        for (_, t1, _), (t0, _, _) in zip(b.intervals, b.intervals[1:]):
            assert t0 == pytest.approx(t1)
        width = sum(t1 - t0 for t0, t1, _ in b.intervals)
        assert width == pytest.approx(b.fct)

    def test_focus_flow_limits_span_retention(self):
        records = [
            rec(0.0, EV_FLOW_START, flow=1, protocol="tcp", size=10),
            rec(0.0, EV_FLOW_START, flow=2, protocol="tcp", size=10),
            rec(0.1, EV_FLOW_COMPLETE, flow=1, fct=0.1),
            rec(0.2, EV_FLOW_COMPLETE, flow=2, fct=0.2),
        ]
        _, done = build(records, keep_spans=True, focus_flow=2)
        by_flow = {b.flow: b for b in done}
        assert by_flow[1].intervals == []
        assert by_flow[2].intervals != []
        # Components are attributed for both regardless of retention.
        assert by_flow[1].components and by_flow[2].components


class TestRealFlows:
    def run_protocol(self, protocol, seed=5):
        from repro.experiments.runner import ScheduledFlow, TrafficRunner
        from repro.net.topology import access_network
        from repro.sim.simulator import Simulator
        from repro.units import kb, mbps, ms

        with BreakdownSession(keep_spans=True) as session:
            sim = Simulator(seed=seed)
            net = access_network(sim, n_pairs=1, bottleneck_rate=mbps(50),
                                 rtt=ms(20), buffer_bytes=kb(115))
            runner = TrafficRunner(sim, net)
            runner.schedule([ScheduledFlow(time=0.0, size=30_000,
                                           protocol=protocol)])
            runner.run()
        return session

    @pytest.mark.parametrize("protocol", ["tcp", "halfback", "jumpstart"])
    def test_components_sum_to_runner_fct(self, protocol):
        session = self.run_protocol(protocol)
        assert len(session.completed) == 1
        b = session.completed[0]
        assert b.conserved, b.components
        # The attributed window IS the runner's FCT.
        assert b.fct_event is not None
        assert abs(b.fct - b.fct_event) <= CONSERVATION_TOLERANCE
        assert set(b.components) <= set(COMPONENTS)
        width = sum(t1 - t0 for t0, t1, _ in b.intervals)
        assert width == pytest.approx(b.fct)


# ----------------------------------------------------------------------
# O(1) attribution == the scanning reference, interval by interval
# ----------------------------------------------------------------------


class ChargeLogged(spans._FlowState):
    """The production state, logging every interval it charges."""

    __slots__ = ()
    log: list = []

    def _charge(self, t0, t1, component):
        if t1 > t0:
            self.log.append((self.flow, t0, t1, component))
        super()._charge(t0, t1, component)


class ScanningReference(ChargeLogged):
    """The pre-counter ``advance``: three scans of ``inflight`` per
    interval, the governing packet picked by ``min((sent, uid))``.
    Kept verbatim as the specification the counters must reproduce."""

    __slots__ = ()
    log: list = []

    def _oldest(self, classes):
        best = None
        for pkt in self.inflight.values():
            if pkt.cls not in classes:
                continue
            if best is None or (pkt.sent, pkt.uid) < (best.sent, best.uid):
                best = pkt
        return best

    def advance(self, t):
        t0, t1 = self.last_t, t
        self.last_t = t
        if t1 <= t0:
            return
        if not self.established:
            self._charge(t0, t1, "handshake")
            return
        for pkt in self.inflight.values():
            if pkt.retransmit:
                self._charge(t0, t1, "retransmission")
                return
        has_data = any(p.cls == "data" for p in self.inflight.values())
        if self.lost_seqs or self.ack_lost:
            if has_data or self.inflight:
                self._charge(t0, t1, "loss-detection")
            else:
                self._charge(t0, t1, "rto-idle")
            return
        if has_data:
            self._charge_hop(t0, t1, self._oldest(("data",)))
            return
        if self.inflight:
            self._charge_hop(t0, t1, self._oldest(("ack", "hs")))
            return
        self._charge(t0, t1, "pacing")


def charges(state_class, records):
    """Every ``(flow, t0, t1, component)`` charged over ``records`` by a
    builder whose flow states are ``state_class``, plus the breakdowns."""
    state_class.log = []
    with mock.patch.object(spans, "_FlowState", state_class):
        _, done = build(records)
    return state_class.log, [b.components for b in done]


def assert_lockstep(records):
    production = charges(ChargeLogged, records)
    reference = charges(ScanningReference, records)
    assert production == reference
    return production


#: One step of a synthetic flow: (operation, which in-flight packet,
#: time since the previous step, a flag the operation interprets).
STEP = st.tuples(
    # Weighted so that no single component swallows the window: a lone
    # retransmission in flight charges everything to "retransmission".
    st.sampled_from(["data"] * 4 + ["ack"] * 2 + ["enqueue"] * 2
                    + ["tx"] * 3 + ["deliver"] * 5 + ["establish"] * 2
                    + ["retransmit", "hs", "hop", "drop", "clone"]),
    st.integers(min_value=0, max_value=40),
    st.sampled_from([0.0, 0.0, 0.0005, 0.001, 0.004]),
    st.booleans(),
)


def synthesize(steps):
    """A lineage stream for one flow obeying the emitters' contract:
    time never goes back and uids are handed out in send/clone order."""
    t, next_uid, flying = 0.0, 1, []
    out = [rec(t, EV_FLOW_START, flow=1, protocol="halfback", size=1)]
    for op, pick, dt, flag in steps:
        t += dt
        if op == "establish":
            out.append(rec(t, EV_SENDER_ESTABLISHED, flow=1))
        elif op in ("data", "retransmit", "ack", "hs"):
            ptype = {"ack": "ack", "hs": "syn"}.get(op, "data")
            out.append(rec(t, EV_PKT_SEND, flow=1, uid=next_uid, type=ptype,
                           seq=pick % 7, dst="dst",
                           retransmit=op == "retransmit",
                           proactive=op == "retransmit" and flag))
            flying.append(next_uid)
            next_uid += 1
        elif flying:
            uid = flying[pick % len(flying)]
            if op == "enqueue":
                out.append(rec(t, EV_PKT_ENQUEUE, flow=1, uid=uid))
            elif op == "tx":
                out.append(rec(t, EV_PKT_TX, flow=1, uid=uid,
                               ser=0.002 if flag else 0.0))
            elif op == "hop":
                out.append(rec(t, EV_PKT_DELIVER, flow=1, uid=uid,
                               dst="router"))
            elif op == "deliver":
                flying.remove(uid)
                detail = {"corrupted": True} if flag else {}
                out.append(rec(t, EV_PKT_DELIVER, flow=1, uid=uid,
                               dst="dst", **detail))
            elif op == "drop":
                flying.remove(uid)
                out.append(rec(t, EV_QUEUE_DROP if flag else EV_LINK_LOSS,
                               uid=uid))
            elif op == "clone":
                out.append(rec(t, EV_CHAOS_CLONE, flow=1, uid=next_uid,
                               clone_of=uid))
                flying.append(next_uid)
                next_uid += 1
    out.append(rec(t + 0.01, EV_FLOW_COMPLETE, flow=1, fct=t + 0.01))
    return out


def recorded_stream(profile, protocol, seed, loss_rate=0.0):
    """The complete lineage stream of one real flow under ``profile``."""
    from repro.experiments.runner import ScheduledFlow, TrafficRunner
    from repro.net.topology import access_network
    from repro.sim.simulator import Simulator

    with chaos.session(profile), BreakdownSession() as session:
        sim = Simulator(seed=seed)
        net = access_network(sim, n_pairs=1)
        if loss_rate:
            net.bottleneck.set_loss(loss_rate)
        runner = TrafficRunner(sim, net)
        runner.schedule([ScheduledFlow(time=0.0, size=100_000,
                                       protocol=protocol)])
        runner.run()
        # Read inside the session: its own ring is cleared on exit.
        return session.trace.records()


class TestAttributionLockstep:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(STEP, max_size=120))
    def test_synthetic_sequences(self, steps):
        assert_lockstep(synthesize(steps))

    def test_first_match_is_the_oldest_data_packet(self):
        # ACKs ahead of the data in insertion order, and two data
        # packets sent at the same instant: the earlier uid governs.
        log, _ = assert_lockstep([
            rec(0.00, EV_FLOW_START, flow=1, protocol="tcp", size=1),
            rec(0.00, EV_SENDER_ESTABLISHED, flow=1),
            rec(0.00, EV_PKT_SEND, flow=1, uid=1, type="ack", dst="src"),
            rec(0.00, EV_PKT_SEND, flow=1, uid=2, type="data", seq=0,
                dst="dst"),
            rec(0.00, EV_PKT_SEND, flow=1, uid=3, type="data", seq=1,
                dst="dst"),
            rec(0.00, EV_PKT_TX, flow=1, uid=3, ser=0.0),
            rec(0.01, EV_PKT_DELIVER, flow=1, uid=2, dst="dst"),
            rec(0.02, EV_PKT_DELIVER, flow=1, uid=3, dst="dst"),
            rec(0.03, EV_FLOW_COMPLETE, flow=1, fct=0.03),
        ])
        assert [c for _, _, _, c in log] == ["queue-wait", "propagation",
                                             "queue-wait"]

    @pytest.mark.parametrize("protocol", ["tcp", "halfback"])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_streams_recorded_under_middlebox_madness(self, protocol, seed):
        records = recorded_stream(f"middlebox-madness:{seed}", protocol,
                                  seed, loss_rate=0.02)
        assert any(r.kind == EV_CHAOS_CLONE for r in records)
        log, components = assert_lockstep(records)
        assert log and len(components) == 1
