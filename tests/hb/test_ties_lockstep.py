"""The lazy tie-group scanner against the eager one it replaced.

:class:`repro.hb.ties.TieGroupScanner` buffers one instant's records and
folds their causal edges only when the instant closes with two or more
events.  :class:`EagerScanner` below is the scanner as it was before:
it folds every record into :class:`~repro.hb.ties.CausalEdges` as it
arrives and forgets the edge state at each instant boundary (any record
of another time, as in the scanner).  Both are
fed the same streams — hypothesis-drawn ones and real simulator
provenance streams — and must close the same groups (time, events,
in-group edges) with the same races, record by record.
"""

from contextlib import nullcontext

import pytest
from hypothesis import given, settings, strategies as st

from repro.hb.detect import MAX_GROUP
from repro.hb.perturb import DEFAULT_SALTS, run_scenario
from repro.hb.session import ProvenanceSession
from repro.hb.ties import CausalEdges, TieGroup, TieGroupScanner
from repro.sim.scheduler import tiebreak_permutation
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceRecord
from repro.telemetry.schema import (
    EV_PKT_ACK_GEN,
    EV_PKT_DELIVER,
    EV_PKT_TX,
    EV_SCHED_EXEC,
)

#: Stream item standing for an explicit ``close()`` call.
CLOSE = object()


class EagerScanner:
    """Reference: the per-record edge fold, state forgotten per instant."""

    def __init__(self):
        self._edges = CausalEdges()
        self._time = None
        self._events = []
        self._members = set()
        self._forward = {}

    def observe(self, record):
        closed = None
        if record.time != self._time:
            closed = self.close()
            self._time = record.time
        if record.kind == EV_SCHED_EXEC:
            edge = self._edges.observe(record)
            seq = self._edges.current
            self._events.append((seq, record.source,
                                 record.detail["callback"]))
            self._members.add(seq)
        else:
            edge = self._edges.observe(record)
        if edge is not None and edge[0] in self._members:
            self._forward.setdefault(edge[0], []).append(self._edges.current)
        return closed

    def close(self):
        events = self._events
        self._edges = CausalEdges()
        self._members.clear()
        if len(events) < 2:
            events.clear()
            self._forward.clear()
            return None
        group = TieGroup(self._time, events, self._forward)
        self._events = []
        self._forward = {}
        return group


def shape(group):
    """What a consumer can read off a closed group."""
    if group is None:
        return None
    members = {seq for seq, _, _ in group.events}
    edges = {src: [dst for dst in dsts if dst in members]
             for src, dsts in group.forward.items() if src in members}
    return group.time, list(group.events), edges, group.races()


def lockstep(stream):
    """Feed ``stream`` to both scanners; the lazy scanner's groups."""
    lazy, eager = TieGroupScanner(), EagerScanner()
    groups = []
    for item in list(stream) + [CLOSE]:
        if item is CLOSE:
            got, want = lazy.close(), eager.close()
        else:
            got, want = lazy.observe(item), eager.observe(item)
        assert shape(got) == shape(want)
        if got is not None:
            groups.append(got)
    return groups


def exec_record(time, entity, seq, parent=None, callback="cb"):
    return TraceRecord(time, EV_SCHED_EXEC, entity,
                       {"seq": seq, "parent": parent, "callback": callback,
                        "prio": 0})


@st.composite
def streams(draw):
    """Interleaved ``sched.exec`` / ``pkt.*`` records and closes.

    Times repeat often (tie groups) and may step back (a stream spans
    several simulators); seqs may repeat or arrive out of order (a
    permuted tie-break executes them so).
    """
    items = []
    time = 0.0
    for _ in range(draw(st.integers(0, 60))):
        op = draw(st.sampled_from(
            ["exec", "exec", "exec", "tx", "deliver", "ack", "close"]))
        uid = draw(st.integers(0, 4))
        if op == "exec":
            time = draw(st.sampled_from([time, time, 0.0, 1.0, 2.0]))
            items.append(exec_record(
                time, draw(st.sampled_from(["a", "b"])),
                seq=draw(st.integers(0, 25)),
                parent=draw(st.none() | st.integers(0, 25)),
                callback=draw(st.sampled_from(["cb", "Timer._fire"]))))
        elif op == "tx":
            items.append(TraceRecord(time, EV_PKT_TX, "l", {"uid": uid}))
        elif op == "deliver":
            items.append(TraceRecord(time, EV_PKT_DELIVER, "l",
                                     {"uid": uid}))
        elif op == "ack":
            items.append(TraceRecord(time, EV_PKT_ACK_GEN, "r",
                                     {"uid": 10 + uid, "parent": uid}))
        else:
            items.append(CLOSE)
    return items


class TestDrawnStreams:
    @settings(max_examples=400, deadline=None)
    @given(streams())
    def test_same_groups_and_races(self, stream):
        lockstep(stream)


class Owner:
    """A named callback owner for real-simulator streams."""

    def __init__(self, sim, name):
        self.sim = sim
        self.name = name

    def spawn(self):
        self.sim.schedule(0.0, self.child)

    def child(self):
        pass

    def send(self, uid):
        self.sim.trace.record(self.sim.now, EV_PKT_TX, self.name, uid=uid)

    def receive(self, uid):
        self.sim.trace.record(self.sim.now, EV_PKT_DELIVER, self.name,
                              uid=uid)


class TestSimulatorStreams:
    def test_zero_delay_child_of_a_lone_event(self):
        with ProvenanceSession() as session:
            sim = Simulator()
            owner = Owner(sim, "o")
            sim.schedule(1.0, owner.spawn)
            sim.schedule(2.0, owner.child)
            sim.run()
        groups = lockstep(session.records())
        # The lone event at t=1 becomes a group through its child, and
        # the scheduling edge orders the pair.
        assert [(g.time, len(g.events)) for g in groups] == [(1.0, 2)]
        assert groups[0].races() == []

    def test_records_between_two_runs(self):
        with ProvenanceSession() as session:
            sim = Simulator()
            owner = Owner(sim, "o")
            sim.schedule(1.0, owner.child)
            sim.schedule(1.0, owner.receive, 7)
            sim.schedule(2.0, owner.child)
            sim.schedule(2.0, owner.receive, 8)
            # Stop inside the t=1 instant, emit outside any event,
            # then finish; the tx belongs to the last executed event.
            sim.run(max_events=1)
            owner.send(7)
            sim.run(until=1.5)
            owner.send(8)
            sim.run()
        groups = lockstep(session.records())
        assert [g.time for g in groups] == [1.0, 2.0]
        # t=1: the between-runs tx joins the pair by a message edge;
        # t=2: the tx fell before the instant, so the pair races.
        assert groups[0].races() == []
        assert len(groups[1].races()) == 1

    def test_group_larger_than_the_analysis_bound(self):
        size = MAX_GROUP + 1
        stream = [exec_record(1.0, "a", seq) for seq in range(size)]
        stream.append(exec_record(2.0, "a", size))
        groups = lockstep(stream)
        assert [len(g.events) for g in groups] == [size]

    @pytest.mark.parametrize("salt", [None, *DEFAULT_SALTS])
    def test_perturbed_fig3_streams(self, salt):
        permuted = (nullcontext() if salt is None
                    else tiebreak_permutation(salt))
        with ProvenanceSession() as session, permuted:
            run_scenario("fig3")
        records = session.records()
        assert sum(r.kind == EV_SCHED_EXEC for r in records) > 100
        assert lockstep(records)
