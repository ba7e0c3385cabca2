"""The :class:`Timer` contract: a timer owns its pending event.

The timer builds and cancels its :class:`Event` itself instead of going
through ``Simulator.schedule`` and a handle; everything an observer can
see — guards, ``armed`` / ``expiry_time``, live counts, the cancelled
backlog, sequence numbers, provenance stamps, the scheduled callback's
name — must read exactly as the handle-based timer's did.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceRecorder
from repro.telemetry.schema import EV_SCHED_EXEC


def test_start_when_armed_raises_and_keeps_the_pending_expiry():
    sim = Simulator()
    timer = sim.timer(lambda: None, name="rto")
    timer.start(1.0)
    with pytest.raises(SimulationError, match="'rto' already armed"):
        timer.start(2.0)
    assert timer.expiry_time == 1.0
    assert sim.pending() == 1


@pytest.mark.parametrize("arm", ["start", "restart"])
def test_negative_delay_raises(arm):
    sim = Simulator()
    timer = sim.timer(lambda: None)
    with pytest.raises(SimulationError, match="into the past"):
        getattr(timer, arm)(-0.5)
    assert not timer.armed
    assert sim.pending() == 0


def test_negative_restart_still_cancels_the_pending_expiry():
    # restart is cancel-then-start: the guard trips after the cancel.
    sim = Simulator()
    fired = []
    timer = sim.timer(lambda: fired.append(sim.now))
    timer.start(1.0)
    with pytest.raises(SimulationError):
        timer.restart(-1.0)
    assert not timer.armed
    sim.run()
    assert fired == []


def test_armed_and_expiry_time_across_the_life_cycle():
    sim = Simulator()
    timer = sim.timer(lambda: None)
    table = []

    def row(step):
        table.append((step, timer.armed, timer.expiry_time, sim.pending()))

    row("idle")
    timer.start(4.0)
    row("start")
    timer.restart(2.0)
    row("restart")
    timer.cancel()
    row("cancel")
    timer.cancel()
    row("cancel-idle")
    timer.restart(3.0)
    row("restart-idle")
    sim.run()
    row("fired")
    assert table == [
        ("idle", False, None, 0),
        ("start", True, 4.0, 1),
        ("restart", True, 2.0, 1),
        ("cancel", False, None, 0),
        ("cancel-idle", False, None, 0),
        ("restart-idle", True, 3.0, 1),
        ("fired", False, None, 0),
    ]
    assert timer.expirations == 1
    assert sim.now == 3.0


def test_restart_from_inside_the_callback_rearms():
    sim = Simulator()
    fired = []

    def on_expiry():
        fired.append(sim.now)
        assert not timer.armed  # disarmed before the callback runs
        if len(fired) < 3:
            timer.restart(1.5)

    timer = sim.timer(on_expiry)
    timer.start(1.0)
    sim.run()
    assert fired == [1.0, 2.5, 4.0]
    assert timer.expirations == 3
    assert not timer.armed
    assert sim.pending() == 0


def test_cancel_from_inside_the_callback_is_a_no_op():
    sim = Simulator()
    fired = []

    def on_expiry():
        fired.append(sim.now)
        timer.cancel()

    timer = sim.timer(on_expiry)
    timer.start(1.0)
    sim.run()
    assert fired == [1.0]
    assert sim.pending() == 0
    assert sim._queue.cancelled_backlog == 0


def test_cancel_then_run_fires_nothing():
    sim = Simulator()
    timer = sim.timer(lambda: None)
    timer.start(1.0)
    timer.cancel()
    assert sim._queue.cancelled_backlog == 1
    sim.run()
    assert sim.events_run == 0
    assert timer.expirations == 0
    assert sim._queue.cancelled_backlog == 0
    assert sim._queue.heap_depth == 0


def test_one_sequence_number_per_arm_none_per_cancel():
    sim = Simulator()
    timer = sim.timer(lambda: None)
    before = sim.schedule(9.0, lambda: None)
    timer.start(1.0)
    timer.restart(2.0)
    timer.cancel()
    timer.cancel()
    timer.restart(3.0)
    after = sim.schedule(9.0, lambda: None)
    assert after._event.seq - before._event.seq == 4
    # Each superseded arm is one lazily-cancelled heap entry.
    assert sim._queue.cancelled_backlog == 2
    assert sim.pending() == 3


def test_expiry_is_the_bound_fire_method_with_schedule_stamps():
    # hb/ties.py and the benchmark ledger key on the ``Timer._fire``
    # qualname; the stamps are what ``Simulator.schedule_at`` writes.
    trace = TraceRecorder(enabled=True, provenance=True)
    sim = Simulator(trace=trace)
    timer = sim.timer(lambda: None, name="rto")

    def arm():
        timer.start(0.5)
        armed.append(timer._event)

    armed = []
    parent = sim.schedule(1.0, arm)
    sim.run()
    (event,) = armed
    assert event.callback == timer._fire
    assert (event.time, event.lpush, event.priority) == (1.5, 1.0, 0)
    assert event.parent == parent._event.seq
    first, second = trace.records(EV_SCHED_EXEC)
    assert second.source == "rto"
    assert second.detail["callback"] == "Timer._fire"
    assert second.detail["parent"] == first.detail["seq"]


def test_timer_armed_at_setup_is_a_provenance_root():
    trace = TraceRecorder(enabled=True, provenance=True)
    sim = Simulator(trace=trace)
    timer = sim.timer(lambda: None)
    timer.start(1.0)
    assert timer._event.parent is None
    sim.run()
    (record,) = trace.records(EV_SCHED_EXEC)
    assert record.detail["parent"] is None
