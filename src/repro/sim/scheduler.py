"""The event queue backing the simulator.

A thin wrapper around :mod:`heapq` that understands lazily-cancelled
events.  Separated from :class:`~repro.sim.simulator.Simulator` so the
queue can be unit- and property-tested in isolation.

The heap stores ``(time, priority, lpush, seq, event)`` tuples rather
than the :class:`~repro.sim.event.Event` objects themselves.  The
``seq`` tiebreaker is unique, so sift comparisons always resolve within
the scalar slots and never fall through to the event — every comparison
is a C-level tuple compare instead of a Python-level ``Event.__lt__``
call, which is where timer-heavy workloads spend most of their
scheduler time.  ``lpush`` (logical push time — see
:mod:`repro.sim.event`) equals the scheduling instant for ordinary
events, where it is redundant with ``seq``; the batched link datapath
back-dates it on train-planned deliveries so same-timestamp collisions
order exactly as the per-packet execution would have ordered them.

A seeded **tie-break permutation** mode backs the schedule-perturbation
harness (:mod:`repro.hb.perturb`): :class:`PermutedEventScheduler`
replaces the FIFO ``seq`` tie-break with a deterministic bijective
scramble of it, so same-``(time, priority)`` events fire in a permuted
(but still reproducible) order.  Such a permutation is always a *valid*
causal execution — an event scheduled by another cannot exist in the
heap before its parent fired — so any behavioural difference it exposes
is a genuine execution-order sensitivity.  The ambient salt
(:func:`tiebreak_permutation`) is picked up by ``Simulator`` at
construction; the default scheduler's hot path is untouched.

Cancellation is lazy (O(1)): cancelled events stay in the heap until
popped.  Timer-heavy workloads — an RTO timer restarted on every ACK —
can therefore grow a large backlog of dead entries that every push/pop
still pays log-time for.  The scheduler *compacts* the heap (filter +
re-heapify, O(n)) once the cancelled backlog is both large in absolute
terms and the majority of the heap; amortized against the cancellations
that created the backlog this is O(1) per cancellation.  The backlog is
published through :attr:`backlog_gauge` (``scheduler.cancelled_backlog``
when a telemetry session is active) so a ``--telemetry`` run shows the
churn.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from repro.sim.event import Event
from repro.telemetry.context import ambient, scope

__all__ = ["EventScheduler", "PermutedEventScheduler",
           "tiebreak_permutation", "current_tiebreak_salt"]

#: Never compact below this many cancelled entries (a small heap's
#: rebuild cost is not worth saving, and tiny heaps skew the fraction).
DEFAULT_COMPACT_MIN = 256

#: Compact when cancelled entries exceed this fraction of the heap.
DEFAULT_COMPACT_FRACTION = 0.5

#: Argument reprs longer than this are elided in diagnostic dumps so a
#: StallError carrying full-payload packets stays readable.
MAX_ARG_REPR = 120

#: Heap entry layout: ``(time, priority, lpush, seq, event)``; the
#: permuted scheduler stores ``(time, priority, mixed, seq, event)``.
#: The event is always the *last* slot, and every slot before it is a
#: scalar, so sift comparisons never fall through to ``Event.__lt__``.
_Entry = Tuple[float, int, float, int, Event]


# ----------------------------------------------------------------------
# Ambient tie-break permutation (schedule-perturbation harness)
# ----------------------------------------------------------------------

# The salt is the ``tiebreak_salt`` slot of the run context; ``Simulator``
# reads it at construction, None means the canonical FIFO tie-break.


def current_tiebreak_salt() -> Optional[int]:
    """The ambient tie-break permutation salt (None = FIFO order)."""
    return ambient.tiebreak_salt


def tiebreak_permutation(salt: int):
    """Make simulators built inside the context permute same-timestamp
    tie-breaks with ``salt`` (see :class:`PermutedEventScheduler`)."""
    return scope(tiebreak_salt=int(salt))


_MASK64 = (1 << 64) - 1


def _mix(seq: int, salt: int) -> int:
    """Deterministic 64-bit scramble of ``seq`` under ``salt``
    (splitmix64 finalizer) — the permuted tie-break key."""
    x = (seq ^ (salt * 0x9E3779B97F4A7C15)) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class EventScheduler:
    """A min-heap of events ordered by (time, priority, lpush, seq).

    Parameters
    ----------
    compact_min / compact_fraction:
        Compaction triggers when the cancelled backlog is at least
        ``compact_min`` entries *and* more than ``compact_fraction`` of
        the raw heap.  ``compact_min=0`` disables compaction.
    """

    def __init__(self, compact_min: int = DEFAULT_COMPACT_MIN,
                 compact_fraction: float = DEFAULT_COMPACT_FRACTION) -> None:
        self._heap: List[_Entry] = []
        self._live = 0
        self._cancelled = 0
        self.compact_min = compact_min
        self.compact_fraction = compact_fraction
        #: Number of compaction passes performed (diagnostic).
        self.compactions = 0
        #: Telemetry gauge for the cancelled backlog; the simulator
        #: binds ``scheduler.cancelled_backlog`` here when a metrics
        #: registry is enabled.  None (telemetry off) makes the churn
        #: path call nothing.
        self.backlog_gauge = None

    def push(self, event: Event) -> None:
        """Insert an event into the queue."""
        heapq.heappush(
            self._heap,
            (event.time, event.priority, event.lpush, event.seq, event),
        )
        self._live += 1

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or None if empty.

        Cancelled events encountered on the way are discarded.
        """
        discarded = 0
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[-1]
            if event.cancelled:
                discarded += 1
                continue
            if discarded:
                self._note_discarded(discarded)
            self._live -= 1
            return event
        self._live = 0
        if discarded:
            self._note_discarded(discarded)
        return None

    def pop_due(self, until: Optional[float]) -> Optional[Event]:
        """The event loop's whole turn in one call: :meth:`peek_time`,
        the ``until`` cut-off and :meth:`pop` fused.

        Returns the next live event, or None when the queue is empty or
        that event is due after ``until`` — it then stays queued.
        """
        discarded = 0
        heap = self._heap
        while heap and heap[0][-1].cancelled:
            heapq.heappop(heap)
            discarded += 1
        if discarded:
            self._note_discarded(discarded)
        if not heap:
            self._live = 0
            return None
        if until is not None and heap[0][0] > until:
            return None
        self._live -= 1
        return heapq.heappop(heap)[-1]

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next live event without popping."""
        discarded = 0
        heap = self._heap
        while heap and heap[0][-1].cancelled:
            heapq.heappop(heap)
            discarded += 1
        if discarded:
            self._note_discarded(discarded)
        if not heap:
            self._live = 0
            return None
        return heap[0][0]

    def head_time(self) -> Optional[float]:
        """The firing time of the heap's head, cancelled or not (None
        when empty).  Unlike :meth:`peek_time` it sheds nothing, so
        asking never changes the queue."""
        heap = self._heap
        return heap[0][0] if heap else None

    def note_cancelled(self) -> None:
        """Record that one queued event was cancelled (for __len__ and
        the backlog accounting); may trigger compaction."""
        if self._live > 0:
            self._live -= 1
        self._cancelled += 1
        if self.backlog_gauge is not None:
            self.backlog_gauge.set(self._cancelled)
        self._maybe_compact()

    def clear(self) -> None:
        """Drop every queued event."""
        self._heap.clear()
        self._live = 0
        self._cancelled = 0
        if self.backlog_gauge is not None:
            self.backlog_gauge.set(0)

    # ------------------------------------------------------------------
    # Cancelled-backlog accounting and compaction
    # ------------------------------------------------------------------

    def _note_discarded(self, n: int) -> None:
        """Account ``n`` cancelled entries leaving the heap via pop/peek."""
        self._cancelled = max(0, self._cancelled - n)
        if self.backlog_gauge is not None:
            self.backlog_gauge.set(self._cancelled)

    def _maybe_compact(self) -> None:
        if self.compact_min <= 0 or self._cancelled < self.compact_min:
            return
        if self._cancelled <= self.compact_fraction * len(self._heap):
            return
        self._heap = [entry for entry in self._heap
                      if not entry[-1].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0
        self.compactions += 1
        if self.backlog_gauge is not None:
            self.backlog_gauge.set(0)

    @staticmethod
    def render_event(event) -> str:
        """One diagnostic line for ``event`` (shared with the stall dump).

        Argument reprs are elided beyond :data:`MAX_ARG_REPR` characters
        so a pending-event dump with full-payload packets stays readable.
        """
        name = getattr(event.callback, "__qualname__",
                       repr(event.callback))
        parts = []
        for arg in event.args:
            text = repr(arg)
            if len(text) > MAX_ARG_REPR:
                text = text[:MAX_ARG_REPR - 3] + "..."
            parts.append(text)
        args = ", ".join(parts)
        return f"t={event.time:.9f} prio={event.priority} {name}({args})"

    def snapshot(self, limit: int = 10) -> List[str]:
        """Render the next ``limit`` live events (for stall diagnostics).

        O(n log n) over the raw heap — diagnostic-path only, never called
        while the simulator is healthy.
        """
        live = sorted(e for e in self._heap if not e[-1].cancelled)
        out = [self.render_event(entry[-1]) for entry in live[:limit]]
        remaining = len(live) - limit
        if remaining > 0:
            out.append(f"... and {remaining} more")
        return out

    @property
    def cancelled_backlog(self) -> int:
        """Lazily-cancelled entries still sitting in the heap (exact if
        callers use :meth:`note_cancelled` for every cancellation, as
        Simulator does)."""
        return self._cancelled

    @property
    def heap_depth(self) -> int:
        """Raw heap size including lazily-cancelled entries — the number
        that matters for per-operation cost (telemetry profiling)."""
        return len(self._heap)

    def __len__(self) -> int:
        """Approximate number of live events (exact if callers use
        :meth:`note_cancelled` for every cancellation, as Simulator does)."""
        return self._live

    def __bool__(self) -> bool:
        return self.peek_time() is not None


class PermutedEventScheduler(EventScheduler):
    """An :class:`EventScheduler` with a seeded same-timestamp tie-break.

    Orders same-``(time, priority)`` events by a salted bijective
    scramble of their sequence number instead of FIFO.  Used by the
    schedule-perturbation harness (:mod:`repro.hb.perturb`) to prove
    that the canonical FIFO tie-break carries no hidden ordering
    dependence: a permuted run must produce a bit-identical report
    fingerprint.

    Heap entries are ``(time, priority, mixed, seq, event)`` — ``seq``
    stays as a final scalar tie-break so comparisons never reach the
    event even in the astronomically unlikely case of a mixed-key
    collision.  ``lpush`` is deliberately *not* part of the key: the
    whole point of a perturbed run is to scramble same-timestamp order,
    and restricting the scramble to equal-``lpush`` groups would weaken
    the harness.
    """

    def __init__(self, salt: int,
                 compact_min: int = DEFAULT_COMPACT_MIN,
                 compact_fraction: float = DEFAULT_COMPACT_FRACTION) -> None:
        super().__init__(compact_min=compact_min,
                         compact_fraction=compact_fraction)
        #: The permutation salt (exposed for diagnostics and manifests).
        self.salt = int(salt)
        # Event.seq is a process-global counter; anchoring the scramble
        # to the first seq this scheduler sees makes a salted run
        # reproducible regardless of how many events earlier simulators
        # in the process already consumed.
        self._seq_base: Optional[int] = None

    def push(self, event: Event) -> None:
        """Insert an event, keyed by the salted tie-break scramble."""
        if self._seq_base is None:
            self._seq_base = event.seq
        heapq.heappush(
            self._heap,
            (event.time, event.priority,
             _mix(event.seq - self._seq_base, self.salt),
             event.seq, event),
        )
        self._live += 1
