"""Tie-only provenance against full provenance, verdict for verdict.

A bare audit declares tie-only provenance: the simulator records a
``sched.exec`` only for an event that shares its instant with another
(:meth:`repro.sim.simulator.Simulator.run`).  Every scenario here runs
twice from the same process-global id counters — once with a second
subscriber declaring ``sched.exec`` (full emission, as under
``--telemetry``) and once without (tie-only) — and must give the same
violations, in the same order, message text (and so entity names)
included.  The audit's flight ring must hold what the full stream holds
minus the lone ``sched.exec`` records that do not follow a tie group,
instant by instant: the same exec records in the same order, and the
same other records in the same order.  (An instant's first event that
was alone when it ran is recorded late, when a second event joins its
instant, so its record can follow its own packet records.)  A bundle's
``violations.json`` and its ``postmortem.txt``, but for the ring's
count, must not move either: the dump instant's group of a lone event
comes from the event the recorder parked.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import repro.net.packet as packet
import repro.sim.event as event
import repro.transport.flow as flow
from repro.audit import AuditSession
from repro.audit.invariants import Checker, Violation
from repro.audit.recorder import DEFAULT_RING_SIZE
from repro.hb.detect import SchedulerNondeterminismChecker
from repro.hb.perturb import DEFAULT_SALTS, run_scenario
from repro.sim.scheduler import tiebreak_permutation
from repro.sim.simulator import Simulator
from repro.telemetry import Telemetry
from repro.telemetry.schema import EV_PKT_DELIVER, EV_PKT_TX, EV_SCHED_EXEC
from tests.audit.conftest import run_audited_flow
from tests.audit.test_routing import SCENARIOS, VIOLATING

FULL = frozenset({EV_SCHED_EXEC})


def fresh_ids():
    """Restart the process-global event, flow and packet counters, so
    two runs of one scenario stamp the same seqs, flows and uids."""
    event._sequence = itertools.count()
    flow._flow_ids = itertools.count(1)
    packet._packet_ids = itertools.count(1)


@pytest.fixture(autouse=True)
def _restore_ids():
    saved = event._sequence, flow._flow_ids, packet._packet_ids
    yield
    # Resume past every id handed out here: ids stay unique per process.
    event._sequence = itertools.count(max(next(saved[0]),
                                          next(event._sequence)))
    flow.flow_id_mark(next(saved[1]))
    packet.packet_uid_mark(next(saved[2]))


def verdict(session):
    return [(v.checker, v.time, v.message, v.flow, v.uid, v.seq, v.chain)
            for v in session.violations]


def tie_only_view(stream):
    """What tie-only emission keeps of a full stream: every record but
    a lone ``sched.exec`` that does not directly follow a tie group."""
    kept, after_tie = [], True
    for index, record in enumerate(stream):
        if record.kind == EV_SCHED_EXEC:
            lone = is_lone(stream, index)
            if lone and not after_tie:
                continue
            after_tie = not lone
        kept.append(record)
    return kept


def is_lone(stream, index):
    """A ``sched.exec`` whose neighbouring exec records (in stream
    order) are at other times."""
    time = stream[index].time
    for step in (-1, 1):
        at = index + step
        while 0 <= at < len(stream):
            if stream[at].kind == EV_SCHED_EXEC:
                if stream[at].time == time:
                    return False
                break
            at += step
    return True


def by_instant(records):
    """``(time, exec records, other records)`` per run of equal times."""
    instants = []
    for record in records:
        if not instants or instants[-1][0] != record.time:
            instants.append((record.time, [], []))
        instants[-1][1 if record.kind == EV_SCHED_EXEC else 2].append(record)
    return instants


def both_modes(scenario):
    """Run ``scenario()`` (returns the AuditSession it observed with)
    under full and under tie-only provenance; assert the same verdict,
    the ring rule and the same bundle; return the full-mode session's
    verdict."""
    runs = {}
    for full in (True, False):
        fresh_ids()
        stream = []
        with Telemetry(profile=False) as hub:
            assert hub.trace.sink is None
            if full:
                hub.trace.subscribe(stream.append, FULL)
            session = scenario()
            if full:
                hub.trace.unsubscribe(stream.append)
        runs[full] = (session, stream)
    (full_session, stream), (tie_session, _) = runs[True], runs[False]
    assert verdict(tie_session) == verdict(full_session)
    kept = tie_only_view(stream)
    ring = list(tie_session.auditor.recorder._ring)
    assert by_instant(ring) == by_instant(kept[-DEFAULT_RING_SIZE:])
    assert tie_session.auditor.recorder.records_seen == len(kept)
    full_bundle, tie_bundle = (session.auditor.recorder.bundle
                               for session in (full_session, tie_session))
    if full_bundle is None:
        assert tie_bundle is None
    else:
        assert tie_bundle["violations.json"] == full_bundle["violations.json"]
        assert postmortem(tie_bundle) == postmortem(full_bundle)
    return verdict(full_session)


def postmortem(bundle):
    """``postmortem.txt`` but its ``events in ring`` line, which counts
    what was emitted."""
    return [line for line in bundle["postmortem.txt"].splitlines()
            if not line.startswith("events in ring:")]


def audited(build, checkers=None):
    """A scenario: ``build(sim)`` then run, inside an AuditSession."""
    def scenario():
        with AuditSession(checkers=checkers) as session:
            sim = Simulator()
            build(sim)
            sim.run()
        return session
    return scenario


def nondeterminism():
    return [SchedulerNondeterminismChecker()]


# ----------------------------------------------------------------------
# Callback owners
# ----------------------------------------------------------------------


class Actor:
    """A callback owner; named ones are entities by name, the others
    ``Actor#k`` in first-execution order."""

    def __init__(self, sim, peers, name=None):
        self.sim = sim
        self.peers = peers
        if name is not None:
            self.name = name

    def fire(self, plan):
        """Carry out ``plan``: ``("tx"|"deliver", uid)`` packet records,
        ``("mark", None)`` records and ``("child", (delay, peer,
        plan))`` schedules."""
        now = self.sim.now
        for kind, value in plan:
            if kind == "mark":
                self.sim.trace.record(now, "test.mark", self.name)
            elif kind == "tx":
                self.sim.trace.record(now, EV_PKT_TX, "l", uid=value)
            elif kind == "deliver":
                self.sim.trace.record(now, EV_PKT_DELIVER, "l", uid=value)
            else:
                delay, peer, child = value
                self.sim.schedule(delay, self.peers[peer].fire, child)


class Marks(Checker):
    """Objects to every ``test.mark`` record."""

    name = "marks"
    kinds = frozenset({"test.mark"})

    def observe(self, record):
        return [Violation(checker=self.name, time=record.time,
                          message=f"mark from {record.source}")]


def cast(sim, names):
    peers = []
    peers.extend(Actor(sim, peers, name) for name in names)
    return peers


# ----------------------------------------------------------------------
# Hand-built schedules
# ----------------------------------------------------------------------


class TestHandBuilt:
    def test_zero_delay_children_of_a_lone_event(self):
        def build(sim):
            a, b = cast(sim, ["a", "b"])
            # The run's first event is recorded; the next lone one not.
            sim.schedule(0.5, a.fire, [])
            # Unrecorded at its pop; its children race on "b".
            sim.schedule(1.0, a.fire, [("child", (0.0, 1, [])),
                                       ("child", (0.0, 1, []))])
        found = both_modes(audited(build, nondeterminism()))
        assert [message for _, _, message, *_ in found] == [
            "entity 'b': Actor.fire (seq 2) and Actor.fire (seq 3) fire "
            "at one instant with no happens-before path; tie-break order "
            "can change results"]

    def test_lone_events_between_two_tied_instants(self):
        def build(sim):
            x, closer, lone, z = cast(sim, [None, None, None, None])
            sim.schedule(1.0, x.fire, [("tx", 5)])
            sim.schedule(1.0, x.fire, [])
            # Recorded: the first lone event after a tie group.
            sim.schedule(1.5, closer.fire, [])
            # Not recorded, but stamped: "Actor#2", so z is "Actor#3";
            # its delivery must not order the t=1 pair.
            sim.schedule(2.0, lone.fire, [("deliver", 5)])
            sim.schedule(3.0, z.fire, [])
            sim.schedule(3.0, z.fire, [])
        found = both_modes(audited(build, nondeterminism()))
        assert [(time, message.split(":")[0]) for _, time, message, *_
                in found] == [(1.0, "entity 'Actor#0'"),
                              (3.0, "entity 'Actor#3'")]

    def test_scanner_holds_one_instant_of_a_tie_only_stream(self):
        checker = SchedulerNondeterminismChecker()
        with AuditSession(checkers=[checker]):
            sim = Simulator()
            a, = cast(sim, ["a"])
            for step in range(50):
                sim.schedule(1.0 + step, a.fire, [("tx", step)])
            sim.run()
            # Only the last instant's packet record: lone events'
            # records never pile up behind the last recorded one.
            assert len(checker._scanner._records) == 1

    def test_event_scheduled_between_runs_joins_a_lone_instant(self):
        def scenario():
            with AuditSession(checkers=nondeterminism()) as session:
                sim = Simulator()
                a, = cast(sim, ["a"])
                sim.schedule(0.5, a.fire, [])
                sim.schedule(1.0, a.fire, [])
                sim.run(until=1.0)
                # Parentless, at the instant of the lone event above.
                sim.schedule(0.0, a.fire, [])
                sim.run()
            return session
        found = both_modes(scenario)
        assert len(found) == 1 and "entity 'a'" in found[0][2]

    def test_race_is_listed_before_the_next_instants_violations(self):
        def build(sim):
            a, b = cast(sim, ["a", "b"])
            sim.schedule(1.0, a.fire, [])
            sim.schedule(1.0, a.fire, [])
            # Lone; a checker objects to its first record, which is not
            # one the race checker reads.
            sim.schedule(2.0, b.fire, [("mark", None), ("tx", 1)])
        found = both_modes(audited(build, [Marks(), *nondeterminism()]))
        assert [checker for checker, *_ in found] == [
            "scheduler-nondeterminism", "marks"]

    def test_causally_chained_pair_stays_clean(self):
        def build(sim):
            a, = cast(sim, ["a"])
            sim.schedule(1.0, a.fire, [("child", (0.0, 0, []))])
        assert both_modes(audited(build, nondeterminism())) == []


# ----------------------------------------------------------------------
# Drawn schedules
# ----------------------------------------------------------------------

TIMES = [0.5, 1.0, 1.0, 2.0]


@st.composite
def plans(draw, depth=0):
    steps = []
    for _ in range(draw(st.integers(0, 3 if depth < 2 else 1))):
        kind = draw(st.sampled_from(["tx", "deliver", "child", "child"]))
        if kind == "child" and depth < 2:
            steps.append(("child", (
                draw(st.sampled_from([0.0, 0.0, 0.5])),
                draw(st.integers(0, 3)),
                draw(plans(depth=depth + 1)))))
        elif kind != "child":
            steps.append((kind, draw(st.integers(0, 3))))
    return steps


@st.composite
def schedules(draw):
    """Top-level events, an optional split of the run at one instant
    and events pushed between the two halves."""
    names = draw(st.lists(st.sampled_from(["a", "b", None]),
                          min_size=4, max_size=4))
    first = draw(st.lists(st.tuples(st.sampled_from(TIMES),
                                    st.integers(0, 3), plans()),
                          min_size=1, max_size=6))
    split = draw(st.none() | st.sampled_from(TIMES))
    between = draw(st.lists(st.tuples(st.integers(0, 3), plans()),
                            max_size=2)) if split is not None else []
    return names, first, split, between


class TestDrawnSchedules:
    @settings(max_examples=150, deadline=None)
    @given(schedules())
    def test_same_verdict_and_ring(self, schedule):
        names, first, split, between = schedule

        def scenario():
            with AuditSession(checkers=nondeterminism()) as session:
                sim = Simulator()
                actors = cast(sim, names)
                for time, who, plan in first:
                    sim.schedule(time, actors[who].fire, plan)
                if split is not None:
                    sim.run(until=split)
                    for who, plan in between:
                        sim.schedule(0.0, actors[who].fire, plan)
                sim.run()
            return session
        both_modes(scenario)


# ----------------------------------------------------------------------
# Real runs
# ----------------------------------------------------------------------


class TestRealRuns:
    @pytest.mark.parametrize("salt", [None, *DEFAULT_SALTS])
    def test_perturbed_fig3(self, salt):
        def scenario():
            with AuditSession() as session:
                if salt is None:
                    run_scenario("fig3")
                else:
                    with tiebreak_permutation(salt):
                        run_scenario("fig3")
            return session
        assert both_modes(scenario) == []

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_seeded_fault_scenarios(self, name):
        kwargs = dict(SCENARIOS[name])
        profile = kwargs.pop("chaos_profile", None)

        def scenario():
            if profile is None:
                return run_audited_flow(**kwargs).session
            from repro import chaos

            with chaos.session(profile):
                return run_audited_flow(**kwargs).session
        found = both_modes(scenario)
        if name in VIOLATING:
            assert VIOLATING[name] in {checker for checker, *_ in found}
