"""The scheduler's turn: ``Simulator.run`` takes each event in one step.

``run`` asks the scheduler for the next due event once per turn
(``EventScheduler.pop_due``) and calls the callback itself.  These tests
pin that loop against the public ``peek_time()`` / ``pop()`` / ``fire()``
triple it replaced, under compaction forced from inside callbacks, and
check ``step()`` is the same turn rather than a copy of it.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StallError
from repro.sim.scheduler import (DEFAULT_COMPACT_MIN, _mix,
                                 tiebreak_permutation)
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceRecorder
from repro.telemetry.schema import EV_SCHED_EXEC


def make_sim(salt, **kwargs):
    if salt is None:
        return Simulator(**kwargs)
    with tiebreak_permutation(salt):
        return Simulator(**kwargs)


def heap_key(sim, event):
    """The order the simulator's scheduler fires ``event`` in."""
    queue = sim._queue
    if sim.tiebreak_salt is None:
        return event.sort_key()
    return (event.time, event.priority,
            _mix(event.seq - queue._seq_base, queue.salt), event.seq)


# ----------------------------------------------------------------------
# (a) compaction while the loop is live
# ----------------------------------------------------------------------


@pytest.mark.parametrize("salt", [None, 5])
def test_timer_storm_compacts_mid_run_without_losing_or_repeating(salt):
    sim = make_sim(salt)
    queue = sim._queue
    keys = {}
    fired = []
    storm_restarts = 2 * DEFAULT_COMPACT_MIN + 50
    compactions_seen = []

    def live(label):
        fired.append(label)

    def plant(label, delay, priority=0):
        handle = sim.schedule(delay, live, label, priority=priority)
        keys[label] = handle._event

    def expire():
        fired.append("rto")

    timer = sim.timer(expire, name="rto")

    def storm(label):
        fired.append(label)
        # An RTO re-armed per ACK: every restart leaves one dead entry,
        # until the backlog outweighs the live heap and compacts it.
        for i in range(storm_restarts):
            timer.restart(50.0 + i * 1e-3)
        compactions_seen.append(queue.compactions)
        # Planted after the compaction: must survive the next one.
        plant(label + "/late", 0.5)

    # Same-instant groups (priority and FIFO/permuted ties) on both
    # sides of each storm, plus singletons between them.
    for t in (1.0, 2.0, 3.0):
        for k in range(4):
            plant(f"tie{t}/{k}", t)
        plant(f"urgent{t}", t, priority=-1)
        plant(f"solo{t}", t + 0.25)
    for t in (1.5, 2.5):
        handle = sim.schedule(t, storm, f"storm{t}")
        keys[f"storm{t}"] = handle._event
    doomed = sim.schedule(2.75, live, "doomed")
    doomed.cancel()

    sim.run()

    assert compactions_seen[0] >= 1            # compacted inside run()
    assert compactions_seen[1] > compactions_seen[0]
    keys["rto"] = None
    assert sorted(fired) == sorted(keys)       # each live event once
    assert "doomed" not in fired
    assert fired[-1] == "rto"
    order = [heap_key(sim, keys[label]) for label in fired[:-1]]
    assert order == sorted(order)
    assert sim.events_run == len(fired)
    assert sim.pending() == 0
    assert queue.cancelled_backlog == 0
    assert queue.heap_depth == 0


# ----------------------------------------------------------------------
# step() is one turn of run()
# ----------------------------------------------------------------------


def _provenance_program(sim):
    def child():
        pass

    timer = sim.timer(child, name="probe")

    def parent():
        sim.schedule(0.0, child)
        sim.schedule(0.5, child, priority=2)
        timer.restart(0.25)

    sim.schedule(1.0, parent)
    sim.schedule(1.0, child)
    sim.schedule(2.0, parent)


def _exec_records(observed):
    base = observed[0].detail["seq"]

    def rel(seq):
        return None if seq is None else seq - base

    return [(r.time, r.source, r.detail["callback"], r.detail["prio"],
             rel(r.detail["seq"]), rel(r.detail["parent"]))
            for r in observed]


def _subscribed_sim():
    observed = []

    def observer(record):
        if record.kind == EV_SCHED_EXEC:
            observed.append(record)

    trace = TraceRecorder(enabled=True)
    sim = Simulator(trace=trace)
    trace.subscribe(observer, (EV_SCHED_EXEC,))
    _provenance_program(sim)
    return sim, observed


def test_stepped_simulator_emits_the_same_sched_exec_records_as_run():
    ran, ran_records = _subscribed_sim()
    ran.run()
    stepped, stepped_records = _subscribed_sim()
    steps = 0
    while stepped.step():
        steps += 1
    assert not stepped.step()
    assert steps == ran.events_run == stepped.events_run == 9
    assert len(ran_records) == 9
    assert _exec_records(stepped_records) == _exec_records(ran_records)
    assert stepped.now == ran.now
    assert (stepped.tie_break_groups, stepped.tie_break_max) == \
        (ran.tie_break_groups, ran.tie_break_max) == (2, 3)


def test_step_trips_the_stall_watchdog():
    sim = Simulator(stall_event_limit=3)

    def spin():
        sim.schedule(0.0, spin)

    sim.schedule(1.0, spin)
    with pytest.raises(StallError):
        for _ in range(10):
            sim.step()


# ----------------------------------------------------------------------
# (c) lockstep: run() against a loop built from the public triple
# ----------------------------------------------------------------------


class ReferenceLoop:
    """``Simulator.run`` as it was before the one-step turn, written
    from the scheduler's public ``peek_time()`` / ``pop()`` and
    ``Event.fire()``, with its own tie-break accounting."""

    def __init__(self, sim):
        self.sim = sim
        self.events_run = 0
        self.stall_time = math.nan
        self.stall_count = 0
        self.tie_break_groups = 0
        self.tie_break_max = 0

    def run(self, until=None, max_events=None):
        sim, queue = self.sim, self.sim._queue
        sim._stopped = False
        fired = 0
        while not sim._stopped:
            if max_events is not None and fired >= max_events:
                break
            next_time = queue.peek_time()
            if next_time is None or (until is not None and next_time > until):
                break
            event = queue.pop()
            sim._now = event.time
            sim.exec_lpush = event.lpush
            if event.time == self.stall_time:
                self.stall_count += 1
                if self.stall_count == 2:
                    self.tie_break_groups += 1
                self.tie_break_max = max(self.tie_break_max,
                                         self.stall_count)
            else:
                self.stall_time = event.time
                self.stall_count = 1
            event.fire()
            self.events_run += 1
            fired += 1
        if until is not None and sim._now < until and not sim._stopped:
            sim._now = until
        return sim._now


TICK = 0.25
ticks = st.integers(min_value=0, max_value=6)
ops = st.one_of(
    st.tuples(st.just("schedule"), ticks,
              st.integers(min_value=-1, max_value=1)),
    st.tuples(st.just("fast"), ticks, st.none() | ticks),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=50)),
    st.tuples(st.just("timer"), st.integers(min_value=0, max_value=2), ticks),
    st.tuples(st.just("stop")),
)


class Program:
    """Interprets one op list against one simulator.  The first
    ``n_setup`` ops run before the loop starts; every fired event
    consumes up to two more from inside its callback, so the program
    schedules, cancels and re-arms while the loop is live."""

    def __init__(self, sim, op_list, n_setup):
        self.sim = sim
        self.ops = iter(op_list)
        self.log = []
        self.handles = {}
        self.labels = 0
        self.timers = [sim.timer(lambda i=i: self.fire(("timer", i)))
                       for i in range(3)]
        for _ in range(n_setup):
            self.step_op()

    def fire(self, label):
        self.handles.pop(label, None)
        self.log.append((self.sim.now, self.sim.exec_lpush, label))
        self.step_op()
        self.step_op()

    def step_op(self):
        op = next(self.ops, None)
        if op is None:
            return
        sim = self.sim
        kind = op[0]
        if kind == "schedule":
            label = self.labels = self.labels + 1
            self.handles[label] = sim.schedule(
                op[1] * TICK, self.fire, label, priority=op[2])
        elif kind == "fast":
            label = self.labels = self.labels + 1
            lpush = None if op[2] is None else max(0.0, sim.now - op[2] * TICK)
            sim.schedule_fast(sim.now + op[1] * TICK, self.fire, label,
                              lpush=lpush)
        elif kind == "cancel":
            if self.handles:
                label = sorted(self.handles)[op[1] % len(self.handles)]
                self.handles.pop(label).cancel()
        elif kind == "timer":
            self.timers[op[1]].restart(op[2] * TICK)
        else:
            sim.stop()


def _execute(reference, op_list, n_setup, until, max_events, salt):
    """Run one program start to finish on one side and snapshot what an
    observer can see after each pass.  (Each side runs alone: the
    permuted tie-break keys on sequence numbers relative to the
    scheduler's first, so the two sides must consume them alike.)"""
    sim = make_sim(salt)
    program = Program(sim, op_list, n_setup)
    loop = ReferenceLoop(sim) if reference else sim
    snapshots = []
    # Cut off by ``until`` / ``max_events`` / a ``stop()`` op, then
    # drain (a second ``stop()`` may cut that pass short too).
    for cut in ({"until": until, "max_events": max_events}, {}):
        returned = loop.run(**cut)
        snapshots.append((
            returned, sim.now, sim._stopped, list(program.log),
            loop.events_run, loop.tie_break_groups, loop.tie_break_max,
            sim.pending(), sim._queue.cancelled_backlog,
            sim._queue.heap_depth))
    return snapshots


@settings(max_examples=150, deadline=None)
@given(op_list=st.lists(ops, max_size=60),
       n_setup=st.integers(min_value=0, max_value=12),
       until=st.none() | st.integers(min_value=0, max_value=12),
       max_events=st.none() | st.integers(min_value=0, max_value=25),
       salt=st.sampled_from([None, 3]))
def test_run_agrees_with_the_reference_loop(op_list, n_setup, until,
                                            max_events, salt):
    if until is not None:
        until *= TICK
    program = (op_list, n_setup, until, max_events, salt)
    assert _execute(False, *program) == _execute(True, *program)
