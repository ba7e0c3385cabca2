"""Unit and property tests for SACK bookkeeping — the most invariant-
heavy data structures in the transport."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TransportError
from repro.transport.sacks import (
    IntervalSet,
    ReceiveTracker,
    SegmentState,
    SendScoreboard,
)


class TestIntervalSet:
    def test_add_and_contains(self):
        s = IntervalSet()
        assert s.add(5)
        assert not s.add(5)
        assert 5 in s
        assert 4 not in s

    def test_adjacent_values_merge(self):
        s = IntervalSet()
        for v in (3, 5, 4):
            s.add(v)
        assert s.ranges() == [(3, 6)]

    def test_disjoint_ranges_stay_separate(self):
        s = IntervalSet()
        for v in (1, 2, 10, 11):
            s.add(v)
        assert s.ranges() == [(1, 3), (10, 12)]

    def test_prune_below(self):
        s = IntervalSet()
        for v in (1, 2, 3, 8, 9):
            s.add(v)
        s.prune_below(3)
        assert s.ranges() == [(3, 4), (8, 10)]
        s.prune_below(100)
        assert s.ranges() == []

    def test_range_containing(self):
        s = IntervalSet()
        for v in (4, 5, 6):
            s.add(v)
        assert s.range_containing(5) == (4, 7)
        assert s.range_containing(9) is None

    @given(st.lists(st.integers(min_value=0, max_value=60),
                    min_size=1, max_size=120))
    def test_matches_set_semantics(self, values):
        s = IntervalSet()
        reference = set()
        for v in values:
            assert s.add(v) == (v not in reference)
            reference.add(v)
        assert len(s) == len(reference)
        covered = {x for start, end in s.ranges() for x in range(start, end)}
        assert covered == reference
        # Ranges are sorted and disjoint with gaps between them.
        ranges = s.ranges()
        for (s0, e0), (s1, e1) in zip(ranges, ranges[1:]):
            assert e0 < s1


class TestSendScoreboard:
    def test_initial_state(self):
        sb = SendScoreboard(5)
        assert sb.cum_ack == 0
        assert sb.pipe == 0
        assert not sb.all_acked
        assert sb.next_unsent() == 0

    def test_mark_sent_advances_pipe_and_next(self):
        sb = SendScoreboard(5)
        sb.mark_sent(0)
        sb.mark_sent(1)
        assert sb.pipe == 2
        assert sb.next_unsent() == 2

    def test_next_unsent_offers_holes_after_out_of_order_send(self):
        # A tail probe can transmit above a never-sent segment; the
        # hole must still be offered or the flow wedges (the reactive
        # PTO deadlock regression).
        sb = SendScoreboard(4)
        sb.mark_sent(0)
        sb.mark_sent(2)
        assert sb.next_unsent() == 1
        sb.mark_sent(1)
        assert sb.next_unsent() == 3
        sb.mark_sent(3)
        assert sb.next_unsent() is None

    def test_cumulative_ack_moves_frontier(self):
        sb = SendScoreboard(5)
        for i in range(3):
            sb.mark_sent(i)
        newly = sb.on_ack(2)
        assert newly == [0, 1]
        assert sb.cum_ack == 2
        assert sb.pipe == 1

    def test_sack_ranges_ack_out_of_order(self):
        sb = SendScoreboard(10)
        for i in range(6):
            sb.mark_sent(i)
        newly = sb.on_ack(0, sack=((3, 6),))
        assert newly == [3, 4, 5]
        assert sb.highest_sacked == 5
        assert sb.cum_ack == 0

    def test_cum_ack_jumps_over_sacked_prefix(self):
        sb = SendScoreboard(5)
        for i in range(5):
            sb.mark_sent(i)
        sb.on_ack(0, sack=((1, 3),))
        sb.on_ack(1)  # cum to 1, then 1-2 already acked -> 3
        assert sb.cum_ack == 3

    def test_all_acked(self):
        sb = SendScoreboard(3)
        for i in range(3):
            sb.mark_sent(i)
        sb.on_ack(3)
        assert sb.all_acked
        assert sb.pipe == 0

    def test_detect_lost_requires_dupthresh_gap(self):
        sb = SendScoreboard(10)
        for i in range(6):
            sb.mark_sent(i)
        sb.on_ack(0, sack=((1, 3),))      # highest_sacked = 2 < 0+3
        assert sb.detect_lost() == []
        sb.on_ack(0, sack=((1, 4),))      # highest_sacked = 3 >= 0+3
        assert sb.detect_lost() == [0]
        assert sb.state(0) == SegmentState.LOST

    def test_retransmission_not_remarked_on_stale_evidence(self):
        sb = SendScoreboard(10)
        for i in range(6):
            sb.mark_sent(i)
        sb.on_ack(0, sack=((1, 6),))
        assert sb.detect_lost() == [0]
        sb.mark_sent(0)  # retransmit; sack mark now 5
        assert sb.detect_lost() == []  # no new evidence
        sb.on_ack(0, sack=((6, 9),))
        for i in range(6, 9):
            sb.mark_sent(i)
        # highest_sacked=8 >= mark(5)+3 -> re-marked now.
        assert 0 in sb.detect_lost()

    def test_naive_mode_remarks_after_round(self):
        sb = SendScoreboard(10)
        for i in range(6):
            sb.mark_sent(i, time=0.0)
        sb.on_ack(0, sack=((1, 6),))
        assert sb.detect_lost(track_retransmissions=False, now=0.0,
                              rtx_round=0.06) == [0]
        sb.mark_sent(0, time=0.1)
        # Too fresh to re-mark...
        assert sb.detect_lost(track_retransmissions=False, now=0.12,
                              rtx_round=0.06) == []
        # ...but one round later the naive rule re-declares it lost.
        assert sb.detect_lost(track_retransmissions=False, now=0.2,
                              rtx_round=0.06) == [0]

    def test_rto_marks_all_in_flight(self):
        sb = SendScoreboard(6)
        for i in range(4):
            sb.mark_sent(i)
        sb.on_ack(1)
        marked = sb.mark_all_in_flight_lost()
        assert marked == 3
        assert sb.pipe == 0
        assert sb.lost_segments() == [1, 2, 3]
        assert sb.first_lost() == 1

    def test_retransmit_of_lost_restores_pipe(self):
        sb = SendScoreboard(4)
        sb.mark_sent(0)
        sb.mark_all_in_flight_lost()
        sb.mark_sent(0)
        assert sb.pipe == 1
        assert sb.state(0) == SegmentState.SENT

    def test_mark_sent_on_acked_is_noop(self):
        sb = SendScoreboard(3)
        sb.mark_sent(0)
        sb.on_ack(1)
        sb.mark_sent(0)  # late proactive copy
        assert sb.state(0) == SegmentState.ACKED
        assert sb.pipe == 0

    def test_unacked_segments(self):
        sb = SendScoreboard(5)
        for i in range(5):
            sb.mark_sent(i)
        sb.on_ack(1, sack=((3, 4),))
        assert sb.unacked_segments() == [1, 2, 4]

    def test_bad_inputs_rejected(self):
        sb = SendScoreboard(3)
        with pytest.raises(TransportError):
            sb.mark_sent(3)
        with pytest.raises(TransportError):
            sb.on_ack(4)
        with pytest.raises(TransportError):
            sb.on_ack(0, sack=((2, 1),))
        with pytest.raises(TransportError):
            SendScoreboard(0)

    @settings(max_examples=60)
    @given(st.data())
    def test_pipe_and_ack_invariants_under_random_operations(self, data):
        n = data.draw(st.integers(min_value=1, max_value=30))
        sb = SendScoreboard(n)
        sent = set()
        for _ in range(data.draw(st.integers(min_value=1, max_value=60))):
            action = data.draw(st.sampled_from(["send", "ack", "rto"]))
            if action == "send":
                nxt = sb.next_unsent()
                if nxt is not None:
                    sb.mark_sent(nxt)
                    sent.add(nxt)
            elif action == "ack":
                if not sent:
                    continue
                cum = data.draw(st.integers(min_value=0,
                                            max_value=min(max(sent) + 1, n)))
                sb.on_ack(cum)
            else:
                sb.mark_all_in_flight_lost()
            # Invariants.
            states = [sb.state(i) for i in range(n)]
            assert sb.pipe == sum(1 for s in states if s == SegmentState.SENT)
            assert sb.acked_count == sum(1 for s in states
                                         if s == SegmentState.ACKED)
            assert 0 <= sb.cum_ack <= n
            for i in range(sb.cum_ack):
                assert states[i] == SegmentState.ACKED
        assert sb.all_acked == (sb.acked_count == n)


class _ModelScoreboard:
    """O(window)-per-operation reference for ``SendScoreboard``.

    Re-implements the documented semantics with plain lists and full
    rescans; the property test below drives it in lockstep with the
    find-based implementation and demands identical observable state
    after every operation.
    """

    DUPTHRESH = SendScoreboard.DUPTHRESH

    def __init__(self, n_segments):
        self.n = n_segments
        self.state = [SegmentState.UNSENT] * n_segments
        self.cum_ack = 0
        self.highest_sent = -1
        self.highest_sacked = -1
        self.sack_mark = [0] * n_segments
        self.sent_time = [0.0] * n_segments

    def mark_sent(self, seq, time=0.0):
        if self.state[seq] == SegmentState.ACKED:
            return
        self.state[seq] = SegmentState.SENT
        self.sack_mark[seq] = max(seq, self.highest_sacked)
        self.sent_time[seq] = time
        self.highest_sent = max(self.highest_sent, seq)

    def on_ack(self, cum, sack=(), now=0.0):
        newly = []
        for seq in range(self.cum_ack, cum):
            if self.state[seq] != SegmentState.ACKED:
                self.state[seq] = SegmentState.ACKED
                newly.append(seq)
        self.cum_ack = max(self.cum_ack, cum)
        for start, end in sack:
            for seq in range(start, end):
                if self.state[seq] != SegmentState.ACKED:
                    self.state[seq] = SegmentState.ACKED
                    newly.append(seq)
            self.highest_sacked = max(self.highest_sacked, end - 1)
        while (self.cum_ack < self.n
               and self.state[self.cum_ack] == SegmentState.ACKED):
            self.cum_ack += 1
        self.highest_sacked = max(self.highest_sacked, cum - 1)
        return sorted(newly)

    def detect_lost(self, track_retransmissions=True, now=0.0,
                    rtx_round=None):
        newly = []
        if track_retransmissions:
            for seq in range(self.n):
                if (self.state[seq] == SegmentState.SENT
                        and self.highest_sacked
                        >= self.sack_mark[seq] + self.DUPTHRESH):
                    newly.append(seq)
        else:
            ceiling = self.highest_sacked - self.DUPTHRESH + 1
            for seq in range(self.cum_ack, max(self.cum_ack, ceiling)):
                if self.state[seq] != SegmentState.SENT:
                    continue
                fresh = (self.highest_sacked
                         >= self.sack_mark[seq] + self.DUPTHRESH)
                stale = (rtx_round is not None
                         and now - self.sent_time[seq] >= rtx_round)
                if fresh or stale:
                    newly.append(seq)
        for seq in newly:
            self.state[seq] = SegmentState.LOST
        return newly

    def mark_all_in_flight_lost(self):
        count = 0
        for seq in range(self.cum_ack,
                         min(self.highest_sent + 1, self.n)):
            if self.state[seq] == SegmentState.SENT:
                self.state[seq] = SegmentState.LOST
                count += 1
        return count

    def pipe(self):
        return sum(1 for s in self.state if s == SegmentState.SENT)

    def next_unsent(self):
        for seq in range(self.n):
            if self.state[seq] == SegmentState.UNSENT:
                return seq
        return None

    def lost_segments(self):
        return [i for i, s in enumerate(self.state)
                if s == SegmentState.LOST]


class TestScoreboardModelEquivalence:
    @settings(max_examples=80)
    @given(st.data())
    def test_incremental_paths_match_reference_model(self, data):
        n = data.draw(st.integers(min_value=1, max_value=24))
        sb = SendScoreboard(n)
        model = _ModelScoreboard(n)
        clock = 0.0
        for _ in range(data.draw(st.integers(min_value=1, max_value=80))):
            clock += 1.0
            action = data.draw(st.sampled_from(
                ["send", "send_out_of_order", "resend_lost", "ack",
                 "sack", "detect", "detect_naive", "rto"]))
            if action == "send":
                nxt = sb.next_unsent()
                if nxt is not None:
                    sb.mark_sent(nxt, time=clock)
                    model.mark_sent(nxt, time=clock)
            elif action == "send_out_of_order":
                # A tail probe may first-transmit above a hole.
                unsent = [i for i in range(n)
                          if model.state[i] == SegmentState.UNSENT]
                if unsent:
                    seq = data.draw(st.sampled_from(unsent))
                    sb.mark_sent(seq, time=clock)
                    model.mark_sent(seq, time=clock)
            elif action == "resend_lost":
                seq = sb.first_lost()
                if seq is not None:
                    sb.mark_sent(seq, time=clock)
                    model.mark_sent(seq, time=clock)
            elif action in ("ack", "sack"):
                cum = data.draw(st.integers(min_value=0, max_value=n))
                sack = ()
                if action == "sack":
                    start = data.draw(st.integers(min_value=0,
                                                  max_value=n - 1))
                    end = data.draw(st.integers(min_value=start + 1,
                                                max_value=n))
                    sack = ((start, end),)
                assert sb.on_ack(cum, sack=sack, now=clock) == \
                    model.on_ack(cum, sack=sack, now=clock)
            elif action == "detect":
                assert sb.detect_lost() == model.detect_lost()
            elif action == "detect_naive":
                assert sb.detect_lost(track_retransmissions=False,
                                      now=clock, rtx_round=2.0) == \
                    model.detect_lost(track_retransmissions=False,
                                      now=clock, rtx_round=2.0)
            else:
                assert sb.mark_all_in_flight_lost() == \
                    model.mark_all_in_flight_lost()
            # Full observable-state equivalence after every operation.
            assert [sb.state(i) for i in range(n)] == model.state
            assert sb.cum_ack == model.cum_ack
            assert sb.highest_sent == model.highest_sent
            assert sb.highest_sacked == model.highest_sacked
            assert sb.pipe == model.pipe()
            assert sb.next_unsent() == model.next_unsent()
            assert sb.lost_segments() == model.lost_segments()
            assert sb.first_lost() == (model.lost_segments() or [None])[0]
            assert sb.all_acked == all(s == SegmentState.ACKED
                                       for s in model.state)
            # The send-time column in lockstep with the boxed model.
            assert [sb.send_time(i) for i in range(n)] == model.sent_time


class TestReceiveTracker:
    def test_in_order_delivery_advances_cum(self):
        tr = ReceiveTracker(5)
        for i in range(5):
            assert tr.add(i)
        assert tr.complete
        assert tr.cum == 5
        assert tr.sack_blocks() == ()

    def test_out_of_order_generates_sack_blocks(self):
        tr = ReceiveTracker(10)
        tr.add(0)
        tr.add(3)
        tr.add(4)
        blocks = tr.sack_blocks()
        assert (3, 5) in blocks
        assert tr.cum == 1

    def test_most_recent_block_reported_first(self):
        tr = ReceiveTracker(20)
        tr.add(10)
        tr.add(11)
        tr.add(5)
        blocks = tr.sack_blocks()
        assert blocks[0] == (5, 6)   # contains the latest arrival
        assert (10, 12) in blocks

    def test_block_limit(self):
        tr = ReceiveTracker(30)
        for seq in (2, 5, 8, 11, 14):
            tr.add(seq)
        assert len(tr.sack_blocks(max_blocks=3)) == 3

    def test_duplicates_counted_not_restored(self):
        tr = ReceiveTracker(4)
        assert tr.add(1)
        assert not tr.add(1)
        assert tr.duplicates == 1
        assert tr.count == 1

    def test_hole_fill_merges_into_cum(self):
        tr = ReceiveTracker(5)
        for seq in (0, 2, 3):
            tr.add(seq)
        tr.add(1)
        assert tr.cum == 4
        assert tr.sack_blocks() == ()

    def test_missing_list(self):
        tr = ReceiveTracker(5)
        tr.add(0)
        tr.add(2)
        assert tr.missing() == [1, 3, 4]

    def test_out_of_range_rejected(self):
        tr = ReceiveTracker(3)
        with pytest.raises(TransportError):
            tr.add(3)

    @given(st.permutations(list(range(12))))
    def test_any_arrival_order_completes(self, order):
        tr = ReceiveTracker(12)
        for seq in order:
            tr.add(seq)
            # cum always points at the first gap.
            assert all(tr._received[i] for i in range(tr.cum))
            if tr.cum < 12:
                assert not tr._received[tr.cum]
        assert tr.complete
        assert tr.cum == 12
        assert tr.duplicates == 0
