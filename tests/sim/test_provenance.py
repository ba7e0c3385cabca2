"""Scheduler provenance instrumentation (schema v5 ``sched.exec``)."""

import pytest

from repro.sim.scheduler import (EventScheduler, PermutedEventScheduler,
                                 current_tiebreak_salt, tiebreak_permutation)
from repro.sim.simulator import (Simulator, reset_tie_break_stats,
                                 tie_break_stats)
from repro.sim.trace import TraceRecorder
from repro.telemetry.schema import EV_SCHED_EXEC, validate_records


def provenance_sim():
    trace = TraceRecorder(enabled=True, provenance=True)
    return Simulator(trace=trace), trace


class TestProvenanceOff:
    def test_no_sched_records_by_default(self):
        trace = TraceRecorder(enabled=True)
        sim = Simulator(trace=trace)
        sim.schedule(1.0, lambda: sim.schedule(0.5, lambda: None))
        sim.run()
        assert trace.records(EV_SCHED_EXEC) == []

    def test_no_parent_stamping_when_off(self):
        sim = Simulator()
        seen = []

        def outer():
            handle = sim.schedule(1.0, lambda: None)
            seen.append(handle._event.parent)

        sim.schedule(1.0, outer)
        sim.run()
        assert seen == [None]


class TestProvenanceOn:
    def test_one_record_per_executed_event(self):
        sim, trace = provenance_sim()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        records = trace.records(EV_SCHED_EXEC)
        assert len(records) == 2 == sim.events_run
        assert validate_records(records) == []

    def test_parent_is_the_scheduling_event(self):
        sim, trace = provenance_sim()

        def parent():
            sim.schedule(0.5, child)

        def child():
            pass

        sim.schedule(1.0, parent)
        sim.run()
        first, second = trace.records(EV_SCHED_EXEC)
        assert first.detail["parent"] is None
        assert second.detail["parent"] == first.detail["seq"]
        assert second.detail["callback"].endswith("child")

    def test_callback_label_reprs_only_what_has_no_qualname(self):
        import functools

        class Owner:
            name = "owner"
            reprs = 0

            def __repr__(self):
                Owner.reprs += 1
                return "<owner>"

            def tick(self):
                pass

        sim, trace = provenance_sim()
        owner = Owner()
        sim.schedule(1.0, owner.tick)
        sim.run()
        # A bound method's repr renders its owner; it must not be built
        # for a callback that can name itself.
        assert Owner.reprs == 0
        sim.schedule(1.0, functools.partial(owner.tick))
        sim.run()
        method, partial = trace.records(EV_SCHED_EXEC)
        assert method.detail["callback"].endswith("Owner.tick")
        assert partial.detail["callback"].startswith("functools.partial(")
        assert Owner.reprs > 0

    def test_setup_scheduled_events_are_roots(self):
        sim, trace = provenance_sim()
        sim.schedule(1.0, lambda: None)
        sim.run()
        (record,) = trace.records(EV_SCHED_EXEC)
        assert record.detail["parent"] is None

    def test_flag_flip_takes_effect_on_next_run(self):
        trace = TraceRecorder(enabled=True)
        sim = Simulator(trace=trace)
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert trace.records(EV_SCHED_EXEC) == []
        trace.provenance = True
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert len(trace.records(EV_SCHED_EXEC)) == 1


class TestEntityNaming:
    def test_named_component_uses_its_name(self):
        sim, trace = provenance_sim()
        timer = sim.timer(lambda: None, name="rto:7")
        timer.start(1.0)
        sim.run()
        (record,) = trace.records(EV_SCHED_EXEC)
        assert record.source == "rto:7"
        assert record.detail["callback"] == "Timer._fire"

    def test_distinct_instances_get_distinct_entities(self):
        sim, trace = provenance_sim()

        class Thing:
            def poke(self):
                pass

        first, second = Thing(), Thing()
        sim.schedule(1.0, first.poke)
        sim.schedule(2.0, second.poke)
        sim.run()
        sources = [r.source for r in trace.records(EV_SCHED_EXEC)]
        assert sources == ["Thing#0", "Thing#1"]

    def test_same_function_is_one_entity(self):
        sim, trace = provenance_sim()

        def tick():
            pass

        sim.schedule(1.0, tick)
        sim.schedule(2.0, tick)
        sim.run()
        sources = {r.source for r in trace.records(EV_SCHED_EXEC)}
        assert len(sources) == 1

    def test_flow_id_fallback(self):
        sim, trace = provenance_sim()

        class FlowLike:
            flow_id = 42

            def go(self):
                pass

        sim.schedule(1.0, FlowLike().go)
        sim.run()
        (record,) = trace.records(EV_SCHED_EXEC)
        assert record.source == "flow:42"

    def test_hb_partitions_split_declared_callbacks(self):
        sim, trace = provenance_sim()

        class Duplex:
            name = "duplex"
            HB_PARTITIONS = {"deliver": "pipe"}

            def serialize(self):
                pass

            def deliver(self):
                pass

        box = Duplex()
        sim.schedule(1.0, box.serialize)
        sim.schedule(2.0, box.deliver)
        sim.run()
        sources = [r.source for r in trace.records(EV_SCHED_EXEC)]
        assert sources == ["duplex", "duplex/pipe"]

    def test_link_deliver_runs_on_the_pipe_entity(self):
        from repro.net.link import Link
        from repro.net.packet import Packet, PacketType

        class Sink:
            name = "sink"

            def receive(self, packet):
                pass

        sim, trace = provenance_sim()
        link = Link(sim, "a->b", Sink(), rate=1e6, delay=0.001)
        link.send(Packet("a", "b", flow_id=1, kind=PacketType.DATA,
                         size=1000, seq=0))
        sim.run()
        sources = {r.detail["callback"]: r.source
                   for r in trace.records(EV_SCHED_EXEC)}
        assert sources["Link._finish_transmission"] == "a->b"
        assert sources["Link._deliver"] == "a->b/pipe"


class TestTieBreakCounters:
    def test_counts_groups_and_max(self):
        sim = Simulator()
        for _ in range(3):
            sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        for _ in range(2):
            sim.schedule(3.0, lambda: None)
        sim.run()
        assert sim.tie_break_groups == 2
        assert sim.tie_break_max == 3

    def test_no_ties_no_groups(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.tie_break_groups == 0
        assert sim.tie_break_max == 0

    def test_process_totals_absorb_each_run_once(self):
        reset_tie_break_stats()
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.run()
        # A second run on the same simulator adds only its own delta.
        sim.schedule(5.0, lambda: None)
        sim.schedule(5.0, lambda: None)
        sim.run()
        stats = tie_break_stats()
        assert stats["groups"] == sim.tie_break_groups == 2
        assert stats["max_group"] == 2
        reset_tie_break_stats()
        assert tie_break_stats() == {"groups": 0, "max_group": 0}


class TestTiebreakPermutation:
    def test_ambient_salt_scoped_to_context(self):
        assert current_tiebreak_salt() is None
        with tiebreak_permutation(9) as salt:
            assert salt == 9
            assert current_tiebreak_salt() == 9
            assert isinstance(Simulator()._queue, PermutedEventScheduler)
        assert current_tiebreak_salt() is None
        assert isinstance(Simulator()._queue, EventScheduler)
        assert not isinstance(Simulator()._queue, PermutedEventScheduler)

    def test_permutes_same_time_order_deterministically(self):
        def orders(salt):
            out = []
            with tiebreak_permutation(salt):
                sim = Simulator()
                for i in range(16):
                    sim.schedule(1.0, out.append, i)
                sim.run()
            return out

        fifo = list(range(16))
        first, second = orders(3), orders(3)
        assert first == second  # deterministic under a fixed salt
        assert sorted(first) == fifo  # a permutation, nothing lost
        assert first != fifo  # and actually different from FIFO

    def test_priorities_still_dominate_the_permutation(self):
        out = []
        with tiebreak_permutation(3):
            sim = Simulator()
            for i in range(8):
                sim.schedule(1.0, out.append, i)
            sim.schedule(1.0, out.append, "first", priority=-1)
        # Deliberate ordering via priority survives any salt.
            sim.run()
        assert out[0] == "first"

    def test_permuted_scheduler_supports_cancellation(self):
        with tiebreak_permutation(5):
            sim = Simulator()
            keep = []
            handle = sim.schedule(1.0, keep.append, "dropped")
            sim.schedule(1.0, keep.append, "kept")
            handle.cancel()
            sim.run()
        assert keep == ["kept"]


class TestProvenanceDeterminism:
    def test_instrumentation_does_not_change_execution(self):
        def run(provenance):
            trace = TraceRecorder(enabled=True, provenance=provenance)
            sim = Simulator(seed=11, trace=trace)
            out = []

            def chain(n):
                out.append(n)
                if n:
                    sim.schedule(0.25, chain, n - 1)

            sim.schedule(1.0, chain, 5)
            sim.run()
            return out, sim.events_run

        assert run(False) == run(True)
