"""Unit tests for trace recording."""

import pytest

from repro.sim.trace import TraceRecorder


def test_disabled_recorder_drops_everything():
    trace = TraceRecorder(enabled=False)
    trace.record(1.0, "x", "src", a=1)
    assert len(trace) == 0


def test_records_are_kept_in_order_with_payload():
    trace = TraceRecorder()
    trace.record(1.0, "link.tx", "l1", size=100)
    trace.record(2.0, "queue.drop", "q1")
    assert len(trace) == 2
    first, second = list(trace)
    assert first.kind == "link.tx"
    assert first.detail == {"size": 100}
    assert second.time == 2.0


def test_kind_prefix_filtering_on_read():
    trace = TraceRecorder()
    trace.record(1.0, "queue.drop", "q")
    trace.record(2.0, "queue.enqueue", "q")
    trace.record(3.0, "link.tx", "l")
    assert len(trace.records("queue")) == 2
    assert len(trace.records("queue.drop")) == 1
    assert len(trace.records()) == 3


def test_kind_whitelist_filters_on_write():
    trace = TraceRecorder(kinds=["halfback"])
    trace.record(1.0, "halfback.phase", "s")
    trace.record(2.0, "link.tx", "l")
    assert len(trace) == 1


def test_clear_resets():
    trace = TraceRecorder()
    trace.record(1.0, "x", "s")
    trace.clear()
    assert len(trace) == 0


class TestRingBuffer:
    def test_keeps_only_the_newest_records(self):
        trace = TraceRecorder(max_records=3)
        for i in range(10):
            trace.record(float(i), "link.tx", "l", i=i)
        assert len(trace) == 3
        assert [r.detail["i"] for r in trace] == [7, 8, 9]

    def test_dropped_records_are_counted(self):
        trace = TraceRecorder(max_records=3)
        for i in range(10):
            trace.record(float(i), "link.tx", "l")
        assert trace.dropped_records == 7
        assert trace.max_records == 3

    def test_unbounded_recorder_never_drops(self):
        trace = TraceRecorder()
        for i in range(100):
            trace.record(float(i), "x", "s")
        assert trace.dropped_records == 0
        assert trace.max_records is None

    def test_filtered_records_do_not_count_as_dropped(self):
        trace = TraceRecorder(kinds=["halfback"], max_records=2)
        trace.record(1.0, "link.tx", "l")  # filtered, not dropped
        assert trace.dropped_records == 0
        assert len(trace) == 0

    def test_clear_resets_drop_counter(self):
        trace = TraceRecorder(max_records=1)
        trace.record(1.0, "x", "s")
        trace.record(2.0, "x", "s")
        assert trace.dropped_records == 1
        trace.clear()
        assert trace.dropped_records == 0

    def test_non_positive_bound_rejected(self):
        with pytest.raises(ValueError):
            TraceRecorder(max_records=0)
        with pytest.raises(ValueError):
            TraceRecorder(max_records=-5)


class RecordingSink:
    def __init__(self):
        self.seen = []

    def write(self, record):
        self.seen.append(record)


class TestSink:
    def test_sink_sees_every_accepted_record(self):
        sink = RecordingSink()
        trace = TraceRecorder(sink=sink)
        trace.record(1.0, "a", "s")
        trace.record(2.0, "b", "s")
        assert [r.kind for r in sink.seen] == ["a", "b"]

    def test_sink_sees_records_the_ring_evicts(self):
        sink = RecordingSink()
        trace = TraceRecorder(max_records=2, sink=sink)
        for i in range(5):
            trace.record(float(i), "x", "s")
        assert len(trace) == 2
        assert len(sink.seen) == 5  # the on-disk trace stays complete

    def test_sink_respects_enabled_and_kind_filters(self):
        sink = RecordingSink()
        trace = TraceRecorder(kinds=["halfback"], sink=sink)
        trace.record(1.0, "link.tx", "l")
        trace.record(2.0, "halfback.phase", "h", flow=1, phase="ropr")
        assert [r.kind for r in sink.seen] == ["halfback.phase"]
        trace.enabled = False
        trace.record(3.0, "halfback.phase", "h", flow=1, phase="drain")
        assert len(sink.seen) == 1

    def test_stream_only_mode_keeps_nothing_in_memory(self):
        sink = RecordingSink()
        trace = TraceRecorder(sink=sink, keep_records=False)
        trace.record(1.0, "x", "s")
        assert len(trace) == 0
        assert trace.dropped_records == 0
        assert len(sink.seen) == 1


class TestSubscriptions:
    def test_observers_see_records_the_kind_filter_discards(self):
        trace = TraceRecorder(kinds=["flow."])
        seen = []
        trace.subscribe(seen.append, frozenset({"pkt.tx"}))
        trace.record(1.0, "pkt.tx", "l")
        assert [r.kind for r in seen] == ["pkt.tx"] and len(trace) == 0

    @pytest.mark.parametrize("kinds,flags", [
        (None, (True, True)),
        (frozenset({"pkt.tx", "flow.start"}), (True, False)),
        (frozenset({"sched.exec"}), (False, True)),
        (frozenset({"flow.start"}), (False, False)),
    ])
    def test_flags_follow_what_subscriptions_consume(self, kinds, flags):
        trace = TraceRecorder()
        trace.subscribe(print, kinds)
        assert (trace.lineage, trace.provenance) == flags
        trace.unsubscribe(print)
        assert (trace.lineage, trace.provenance) == (False, False)

    def test_unsubscribing_a_stranger_leaves_the_owners_wish(self):
        trace = TraceRecorder()
        trace.lineage = True
        trace.unsubscribe(print)
        assert trace.lineage
