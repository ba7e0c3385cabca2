"""Structured trace recording.

Components emit trace records (packet sent, packet dropped, queue depth,
phase transitions) through ``sim.trace``.  Tracing defaults to disabled
and costs a single attribute check per call site; experiments that need
per-packet detail (the Fig. 3 walk-through, the Fig. 15 throughput
timelines) enable it and filter afterwards.

Two additions keep large workloads honest:

* ``max_records`` turns the in-memory store into a ring buffer — per-
  packet tracing cannot grow without bound, and every record lost to the
  ring is counted in :attr:`TraceRecorder.dropped_records`;
* ``sink`` streams every accepted record to an exporter (see
  :mod:`repro.telemetry.export`) before it touches the ring, so the
  on-disk trace stays complete even when the ring wraps.  Pass
  ``keep_records=False`` to stream only.

Two extension points serve the observation planes (:mod:`repro.audit`,
:mod:`repro.obs`, :mod:`repro.hb`):

* observers attached via :meth:`TraceRecorder.subscribe` see every
  record *before* kind filtering, so a runtime invariant auditor can
  watch the full event stream while the in-memory/sink view stays
  filtered to what the user asked for;
* ``lineage`` (per-packet ``pkt.*`` hop events) and ``provenance``
  (``sched.exec`` scheduler stamps) are emitted only when the
  recorder's owner asked for them or a live subscription consumes
  them; emission sites guard on the two plain attributes, so the
  default tracing cost is unchanged when nobody is watching.

The documented event-kind/detail-key contract lives in
:mod:`repro.telemetry.schema`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional

from repro.telemetry.schema import EV_SCHED_EXEC, LINEAGE_EVENT_KINDS

__all__ = ["TraceRecord", "TraceRecorder"]


class TraceRecord:
    """One trace event.

    A hand-written ``__slots__`` class (not a dataclass): per-packet
    tracing allocates one per hop event, so construction cost and
    instance footprint matter.  Value equality is preserved for tests
    and replay comparisons.

    Attributes
    ----------
    time:
        Simulated time of the event.
    kind:
        Event category, e.g. ``"link.tx"``, ``"queue.drop"``,
        ``"halfback.phase"``.
    source:
        Name of the emitting component.
    detail:
        Free-form key/value payload.
    """

    __slots__ = ("time", "kind", "source", "detail")

    def __init__(self, time: float, kind: str, source: str,
                 detail: Optional[Dict[str, Any]] = None) -> None:
        self.time = time
        self.kind = kind
        self.source = source
        self.detail = detail if detail is not None else {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (self.time == other.time and self.kind == other.kind
                and self.source == other.source
                and self.detail == other.detail)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceRecord(time={self.time!r}, kind={self.kind!r}, "
                f"source={self.source!r}, detail={self.detail!r})")


class TraceRecorder:
    """Collects :class:`TraceRecord` objects in memory and/or a sink.

    Parameters
    ----------
    enabled:
        When False every :meth:`record` call is a cheap no-op.
    kinds:
        Optional whitelist of ``kind`` prefixes to keep; records whose kind
        does not start with any prefix are discarded.
    max_records:
        When set, keep only the newest ``max_records`` records in memory
        (ring-buffer mode); older records are dropped and counted in
        :attr:`dropped_records`.
    sink:
        Optional streaming exporter with a ``write(record)`` method; it
        sees every accepted record regardless of the ring bound.
    keep_records:
        When False nothing is stored in memory (stream-only mode;
        requires a sink to be useful).
    lineage:
        When True, packet-level lineage emission sites (``pkt.*`` hop
        events in links/hosts/receivers) fire; they stay silent
        otherwise so per-packet tracing remains opt-in.
    provenance:
        When True, the simulator stamps every scheduled event with its
        scheduling parent and emits ``sched.exec`` records for each
        executed event (the happens-before provenance plane consumed by
        :mod:`repro.hb`).  Off by default — the simulator hot loop pays
        nothing when this is False.

    ``lineage`` and ``provenance`` are plain attributes: the owner's
    wish (constructor argument or assignment) while nothing is
    subscribed, that wish *or* what a subscription consumes while one
    is — recomputed by :meth:`subscribe` / :meth:`unsubscribe`, and back
    to the owner's wish when the last subscriber leaves.
    """

    def __init__(self, enabled: bool = True, kinds: Optional[List[str]] = None,
                 max_records: Optional[int] = None, sink=None,
                 keep_records: bool = True, lineage: bool = False,
                 provenance: bool = False) -> None:
        if max_records is not None and max_records <= 0:
            raise ValueError("max_records must be positive (or None)")
        self.enabled = enabled
        self.lineage = lineage
        self.provenance = provenance
        self._kinds = tuple(kinds) if kinds else None
        self._max_records = max_records
        self._records: Deque[TraceRecord] = deque(maxlen=max_records)
        self.sink = sink
        self._keep = keep_records
        # observer -> the kinds it declared; the owner's own
        # (lineage, provenance) wish is parked while any are live.
        self._subscriptions: Dict[Callable, Any] = {}
        self._asked = (lineage, provenance)
        #: Records evicted from the ring buffer (ring mode only).
        self.dropped_records = 0

    @property
    def max_records(self) -> Optional[int]:
        """The ring-buffer bound, or None when unbounded."""
        return self._max_records

    def subscribe(self, observer: Callable[[TraceRecord], None],
                  kinds) -> None:
        """Attach a callable receiving every :class:`TraceRecord`.

        Observers run before the kind filter so stream consumers (the
        audit subsystem) see events the user's filter would discard.
        ``kinds`` declares the exact kinds the observer consumes (None =
        every record): consuming a ``pkt.*`` lineage kind turns
        :attr:`lineage` on, consuming ``sched.exec`` :attr:`provenance`.
        It is a declaration, not a filter — the observer still sees
        every record and routes for itself.
        """
        if not self._subscriptions:
            self._asked = (self.lineage, self.provenance)
        self._subscriptions[observer] = kinds
        self._derive_flags()

    def unsubscribe(self, observer) -> None:
        """Detach a subscribed observer (no-op if absent)."""
        if observer in self._subscriptions:
            del self._subscriptions[observer]
            self._derive_flags()

    def _derive_flags(self) -> None:
        lineage, provenance = self._asked
        for kinds in self._subscriptions.values():
            lineage = (lineage or kinds is None
                       or not LINEAGE_EVENT_KINDS.isdisjoint(kinds))
            provenance = provenance or kinds is None or EV_SCHED_EXEC in kinds
        self.lineage = lineage
        self.provenance = provenance

    def record(self, time: float, kind: str, source: str, **detail: Any) -> None:
        """Record one event (no-op when disabled or filtered out)."""
        if not self.enabled:
            return
        rec = TraceRecord(time, kind, source, detail)
        for observer in self._subscriptions:
            observer(rec)
        if self._kinds is not None and not kind.startswith(self._kinds):
            return
        if self.sink is not None:
            self.sink.write(rec)
        if self._keep:
            if (self._max_records is not None
                    and len(self._records) == self._max_records):
                self.dropped_records += 1
            self._records.append(rec)

    def records(self, kind: Optional[str] = None) -> List[TraceRecord]:
        """All in-memory records, optionally restricted to a kind prefix."""
        if kind is None:
            return list(self._records)
        return [r for r in self._records if r.kind.startswith(kind)]

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def clear(self) -> None:
        """Drop all collected records (the drop counter too)."""
        self._records.clear()
        self.dropped_records = 0
