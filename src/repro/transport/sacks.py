"""Selective-acknowledgment bookkeeping.

Two sides:

* :class:`SendScoreboard` — per-segment state at the sender
  (UNSENT / SENT / ACKED / LOST), cumulative-ACK frontier, SACK marking,
  RFC 6675-style loss inference and the ``pipe`` (in-flight) estimate.
* :class:`ReceiveTracker` — received-segment tracking at the receiver,
  cumulative frontier and SACK-block generation (up to three ranges, the
  block containing the most recent arrival first, as real stacks do).

Both are pure data structures with no simulator dependency, so they are
property-tested heavily (see ``tests/transport/test_sacks.py``).

Per-segment state is a ``bytearray`` of :class:`SegmentState` values
plus two flat typed columns (last send time, SACK mark) indexed by
sequence number — stdlib :mod:`array`, 8 bytes per slot, no per-segment
Python objects.  Every scan (next un-ACKed, next SENT below the SACK
frontier, first LOST) is a ``bytearray.find`` bounded by the window, so
nothing else is kept per flow.
"""

from __future__ import annotations

from array import array
from enum import IntEnum
from typing import List, Optional, Sequence, Tuple

from repro.errors import TransportError

__all__ = ["SegmentState", "SendScoreboard", "ReceiveTracker", "IntervalSet"]

Range = Tuple[int, int]  # half-open [start, end)


class SegmentState(IntEnum):
    """Sender-side per-segment state."""

    UNSENT = 0
    SENT = 1
    ACKED = 2
    LOST = 3


# Plain ints for the bytearray hot paths: comparing a bytearray element
# against an IntEnum member goes through Enum.__eq__; these do not.
_UNSENT = int(SegmentState.UNSENT)
_SENT = int(SegmentState.SENT)
_ACKED = int(SegmentState.ACKED)
_LOST = int(SegmentState.LOST)


class IntervalSet:
    """A set of integers stored as sorted disjoint half-open ranges."""

    def __init__(self) -> None:
        self._ranges: List[List[int]] = []

    def add(self, value: int) -> bool:
        """Insert ``value``; returns False if it was already present."""
        ranges = self._ranges
        lo, hi = 0, len(ranges)
        while lo < hi:
            mid = (lo + hi) // 2
            if ranges[mid][1] < value:
                lo = mid + 1
            else:
                hi = mid
        # ranges[lo] is the first range with end >= value.
        if lo < len(ranges) and ranges[lo][0] <= value < ranges[lo][1]:
            return False
        # Try to extend the range ending exactly at value.
        if lo < len(ranges) and ranges[lo][0] == value + 1:
            ranges[lo][0] = value
            self._merge_left(lo)
            return True
        if lo < len(ranges) and ranges[lo][1] == value:
            ranges[lo][1] = value + 1
            self._merge_right(lo)
            return True
        ranges.insert(lo, [value, value + 1])
        return True

    def _merge_left(self, index: int) -> None:
        if index > 0 and self._ranges[index - 1][1] == self._ranges[index][0]:
            self._ranges[index - 1][1] = self._ranges[index][1]
            del self._ranges[index]

    def _merge_right(self, index: int) -> None:
        if (index + 1 < len(self._ranges)
                and self._ranges[index][1] == self._ranges[index + 1][0]):
            self._ranges[index][1] = self._ranges[index + 1][1]
            del self._ranges[index + 1]

    def __contains__(self, value: int) -> bool:
        for start, end in self._ranges:
            if start <= value < end:
                return True
            if start > value:
                return False
        return False

    def prune_below(self, floor: int) -> None:
        """Drop all members smaller than ``floor``."""
        ranges = self._ranges
        while ranges and ranges[0][1] <= floor:
            ranges.pop(0)
        if ranges and ranges[0][0] < floor:
            ranges[0][0] = floor

    def ranges(self) -> List[Range]:
        """The disjoint ranges, ascending."""
        return [(s, e) for s, e in self._ranges]

    def range_containing(self, value: int) -> Optional[Range]:
        """The range holding ``value``, if any."""
        for start, end in self._ranges:
            if start <= value < end:
                return (start, end)
        return None

    def __len__(self) -> int:
        return sum(e - s for s, e in self._ranges)


class SendScoreboard:
    """Sender-side segment state machine.

    ``n_segments`` is fixed at construction.  ``cum_ack`` is the lowest
    unacknowledged segment index (the "next expected" the receiver
    reports); the flow is fully acknowledged when ``cum_ack == n_segments``.

    The per-ACK paths scan at C speed: segments already ACKed are
    skipped by a ``bytearray.find`` over the not-yet-acked mask, loss
    inference visits only the SENT segments between ``cum_ack`` and
    DUPTHRESH below the SACK frontier (a ``find`` over the state bytes),
    and ``first_lost`` is a ``find`` for LOST that a clean flow never
    starts (``_lost_count`` is zero).
    """

    #: Duplicate-ACK / reordering threshold for SACK loss inference.
    DUPTHRESH = 3

    def __init__(self, n_segments: int) -> None:
        if n_segments <= 0:
            raise TransportError("scoreboard needs at least one segment")
        self.n_segments = n_segments
        self._state = bytearray(n_segments)  # SegmentState values
        self.cum_ack = 0
        self.highest_sent = -1
        self.highest_sacked = -1
        self.acked_count = 0
        self._pipe = 0
        # SACK frontier observed when each segment was last (re)sent.
        # Loss inference demands DUPTHRESH segments SACKed *beyond* this
        # mark, so a retransmission is not instantly re-declared lost on
        # stale evidence (the RFC 6675 retransmission-tracking rule; see
        # detect_lost).
        self._sack_mark = array("q", bytes(8 * n_segments))
        # Simulated time of each segment's last (re)transmission, for
        # the round-based naive re-marking rule (see detect_lost).
        self._sent_time = array("d", bytes(8 * n_segments))
        # 1 for every segment not yet ACKED.  ``bytearray.find(1, ...)``
        # skips arbitrarily long acked runs at memchr speed, which is
        # what makes re-announced SACK ranges and the cum-ack advance
        # O(newly-acked) instead of O(range).
        self._unacked = bytearray(b"\x01") * n_segments
        # Segments currently LOST; lets first_lost answer a clean flow
        # without scanning.
        self._lost_count = 0
        # Monotone scan pointer for next_unsent: no state ever reverts
        # to UNSENT, so skipping non-UNSENT segments is amortized O(1)
        # even when an out-of-order send leaves a hole below
        # highest_sent.
        self._next_unsent = 0

    # -- queries --------------------------------------------------------

    def state(self, seq: int) -> SegmentState:
        """State of segment ``seq``."""
        return SegmentState(self._state[seq])

    def is_acked(self, seq: int) -> bool:
        """True once ``seq`` has been cumulatively or selectively ACKed."""
        return self._state[seq] == SegmentState.ACKED

    @property
    def all_acked(self) -> bool:
        """True when every segment is acknowledged."""
        return self.acked_count == self.n_segments

    @property
    def pipe(self) -> int:
        """Segments believed in flight (SENT and neither ACKED nor LOST)."""
        return self._pipe

    def next_unsent(self) -> Optional[int]:
        """Lowest UNSENT segment, or None.

        First transmissions are normally in order, but a tail probe may
        transmit above a not-yet-sent segment; the hole below
        ``highest_sent`` must still be offered here or the flow wedges
        (nothing in flight, nothing LOST, "nothing" unsent).
        """
        state = self._state
        seq = self._next_unsent
        n = self.n_segments
        while seq < n and state[seq] != _UNSENT:
            seq += 1
        self._next_unsent = seq
        return seq if seq < n else None

    def lost_segments(self) -> List[int]:
        """Segments currently marked LOST, ascending."""
        state = self._state
        return [seq for seq in range(self.cum_ack, self.highest_sent + 1)
                if state[seq] == _LOST]

    def first_lost(self) -> Optional[int]:
        """Lowest segment currently marked LOST, or None."""
        if not self._lost_count:
            return None
        return self._state.find(_LOST, self.cum_ack, self.highest_sent + 1)

    def unacked_segments(self) -> List[int]:
        """All segments not yet ACKed (any non-ACKED state), ascending."""
        return [i for i in range(self.cum_ack, self.n_segments)
                if self._state[i] != SegmentState.ACKED]

    def send_time(self, seq: int) -> float:
        """Simulated time of ``seq``'s last (re)transmission (0.0 if
        never sent)."""
        return float(self._sent_time[seq])

    # -- transitions ----------------------------------------------------

    def mark_sent(self, seq: int, time: float = 0.0) -> None:
        """Record a (re)transmission of ``seq`` at simulated ``time``."""
        if not 0 <= seq < self.n_segments:
            raise TransportError(f"segment {seq} out of range")
        state = self._state[seq]
        if state == _ACKED:
            # Proactive retransmission may race an ACK; keep ACKED.
            return
        if state != _SENT:
            self._pipe += 1
        if state == _LOST:
            self._lost_count -= 1
        self._state[seq] = _SENT
        mark = self.highest_sacked
        if seq > mark:
            mark = seq
        self._sack_mark[seq] = mark
        self._sent_time[seq] = time
        if seq > self.highest_sent:
            self.highest_sent = seq

    def _mark_acked(self, seq: int) -> None:
        state = self._state[seq]
        if state == _SENT:
            self._pipe -= 1
        elif state == _LOST:
            self._lost_count -= 1
        self._state[seq] = _ACKED
        self._unacked[seq] = 0
        self.acked_count += 1

    def on_ack(self, cum: int, sack: Sequence[Range] = (),
               now: float = 0.0) -> List[int]:
        """Apply one ACK.  ``cum`` is the next-expected segment index;
        ``now`` (the simulated arrival instant) is accepted for callers
        that have it and not stored — RTT samples come from the echoed
        send time on the packet.

        Returns the segments newly acknowledged by this ACK, ascending.

        Already-acked spans — a cumulative ACK re-covering old ground,
        or SACK ranges re-announced on every ACK until the frontier
        passes them — are skipped via ``bytearray.find`` over the
        not-yet-acked mask, so the cost is O(newly-acked), not O(range).
        """
        if cum > self.n_segments:
            raise TransportError(f"cumulative ack {cum} beyond flow end")
        newly: List[int] = []
        find_unacked = self._unacked.find
        seq = find_unacked(1, self.cum_ack, cum)
        while seq != -1:
            self._mark_acked(seq)
            newly.append(seq)
            seq = find_unacked(1, seq + 1, cum)
        if cum > self.cum_ack:
            self.cum_ack = cum
        for start, end in sack:
            if start < 0 or end > self.n_segments or start >= end:
                raise TransportError(f"bad SACK range ({start}, {end})")
            seq = find_unacked(1, start, end)
            while seq != -1:
                self._mark_acked(seq)
                newly.append(seq)
                seq = find_unacked(1, seq + 1, end)
            if end - 1 > self.highest_sacked:
                self.highest_sacked = end - 1
        # Advance cum_ack over the selectively-acked prefix (the next
        # not-yet-acked segment, found at C speed).
        frontier = find_unacked(1, self.cum_ack)
        self.cum_ack = frontier if frontier != -1 else self.n_segments
        if cum - 1 > self.highest_sacked:
            self.highest_sacked = cum - 1
        newly.sort()
        return newly

    def _declare_lost(self, seq: int) -> None:
        self._state[seq] = _LOST
        self._pipe -= 1
        self._lost_count += 1

    def detect_lost(
        self,
        track_retransmissions: bool = True,
        now: float = 0.0,
        rtx_round: Optional[float] = None,
    ) -> List[int]:
        """Infer losses from SACK information.

        Baseline rule (RFC 6675-style retransmission tracking): a SENT
        segment is deemed LOST once at least DUPTHRESH segments *beyond
        its last-transmission SACK mark* have been SACKed
        (``highest_sacked >= mark + DUPTHRESH``; for first transmissions
        the mark is the sequence number itself).  The mark requirement
        prevents the classic storm where a fresh retransmission is
        instantly re-declared lost on stale SACK evidence.

        With ``track_retransmissions=False`` the naive round-based rule
        applies additionally: a SENT segment DUPTHRESH below the SACK
        frontier whose last transmission is older than ``rtx_round``
        (callers pass ~1 SRTT) is re-declared lost even without fresh
        evidence — one recovery round per RTT, so "each lost packet may
        require multiple retransmissions" (the paper's JumpStart
        behaviour).

        Both rules are one walk over the SENT segments in
        ``[cum_ack, highest_sacked - DUPTHRESH]``: a mark is never below
        its sequence number, so no segment above that range can qualify,
        and ``bytearray.find`` skips the ACKED and LOST runs in between.

        Returns the segments newly marked LOST, ascending.
        """
        newly: List[int] = []
        threshold = self.highest_sacked - self.DUPTHRESH
        stop = min(threshold, self.highest_sent) + 1
        if stop <= self.cum_ack:
            return newly
        find_sent = self._state.find
        sack_mark = self._sack_mark
        sent_time = self._sent_time
        aged = not track_retransmissions and rtx_round is not None
        seq = find_sent(_SENT, self.cum_ack, stop)
        while seq != -1:
            if (sack_mark[seq] <= threshold
                    or (aged and now - sent_time[seq] >= rtx_round)):
                self._declare_lost(seq)
                newly.append(seq)
            seq = find_sent(_SENT, seq + 1, stop)
        return newly

    def mark_all_in_flight_lost(self) -> int:
        """RTO: consider everything unacked lost.  Returns count marked."""
        count = 0
        for seq in range(self.cum_ack, min(self.highest_sent + 1, self.n_segments)):
            if self._state[seq] == _SENT:
                self._declare_lost(seq)
                count += 1
        return count


class ReceiveTracker:
    """Receiver-side reassembly state."""

    def __init__(self, n_segments: int) -> None:
        if n_segments <= 0:
            raise TransportError("tracker needs at least one segment")
        self.n_segments = n_segments
        self._received = bytearray(n_segments)
        self._out_of_order = IntervalSet()
        self.cum = 0  # next expected segment
        self.count = 0
        self.duplicates = 0
        self._last_new: Optional[int] = None

    def add(self, seq: int, now: float = 0.0) -> bool:
        """Record arrival of segment ``seq``; False for duplicates.
        ``now`` (the arrival instant) is accepted and not stored."""
        if not 0 <= seq < self.n_segments:
            raise TransportError(f"segment {seq} out of range")
        if self._received[seq]:
            self.duplicates += 1
            return False
        self._received[seq] = 1
        self.count += 1
        self._last_new = seq
        if seq == self.cum:
            while self.cum < self.n_segments and self._received[self.cum]:
                self.cum += 1
            self._out_of_order.prune_below(self.cum)
        else:
            self._out_of_order.add(seq)
        return True

    @property
    def complete(self) -> bool:
        """True once every segment has arrived."""
        return self.count == self.n_segments

    def missing(self) -> List[int]:
        """Segments not yet received, ascending."""
        return [i for i in range(self.n_segments) if not self._received[i]]

    def sack_blocks(self, max_blocks: int = 3) -> Tuple[Range, ...]:
        """Up to ``max_blocks`` SACK ranges above the cumulative point.

        The block containing the most recent new arrival is reported
        first (mirroring real stacks), then the highest remaining blocks.
        """
        self._out_of_order.prune_below(self.cum)
        ranges = self._out_of_order.ranges()
        if not ranges:
            return ()
        ordered: List[Range] = []
        if self._last_new is not None and self._last_new >= self.cum:
            first = self._out_of_order.range_containing(self._last_new)
            if first is not None:
                ordered.append(first)
        for candidate in reversed(ranges):  # highest first
            if candidate not in ordered:
                ordered.append(candidate)
            if len(ordered) >= max_blocks:
                break
        return tuple(ordered[:max_blocks])
