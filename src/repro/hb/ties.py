"""Causal edges and tie-group analysis: one reading of "a race".

Two consumers decide the same question — within a group of
same-timestamp executed events, is every pair that runs against the
same entity connected by a causal happens-before path? — the streaming
audit checker (:mod:`repro.hb.detect`) and the graph / ``hb races`` CLI
(:mod:`repro.hb.graph`, :mod:`repro.hb.cli`).  Both read it here:

* :class:`CausalEdges` turns the record stream into causal edges
  (scheduling parent → child, timer set → fire, ``pkt.tx`` →
  ``pkt.deliver``, data delivery → ``pkt.ack_gen``);
* :class:`TieGroup` is one same-instant group with its in-group causal
  edges; :meth:`TieGroup.unordered_pairs` is the race rule;
* :class:`TieGroupScanner` cuts a record stream into tie groups one at a
  time.  Causal edges never go backward in simulated time, so a path
  between two same-timestamp events stays inside their group: the
  scanner forgets everything at each instant boundary and its memory is
  bounded by the largest same-instant burst.

Program order is deliberately *not* a causal edge: among same-timestamp
events it is the tie-break artifact under audit.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.telemetry.schema import (
    EV_PKT_ACK_GEN,
    EV_PKT_DELIVER,
    EV_PKT_TX,
    EV_SCHED_EXEC,
)

__all__ = ["CAUSAL_KINDS", "CausalEdges", "TieGroup", "TieGroupScanner",
           "label"]

#: The record kinds the edge rules read: what a recorder must emit
#: (provenance stamps + packet lineage) for the analysis to see a run.
CAUSAL_KINDS = frozenset({EV_SCHED_EXEC, EV_PKT_TX, EV_PKT_DELIVER,
                          EV_PKT_ACK_GEN})

#: The timer-expiry callback qualname; parent edges into it are the
#: timer set → fire relation.
_TIMER_FIRE = "Timer._fire"

#: One executed event of a tie group: (seq, entity, callback).
Event = Tuple[int, str, str]


def label(entity: str, callback: str, seq: int) -> str:
    """Short human-readable identity of an executed event."""
    return f"{entity}:{callback}@{seq}"


class CausalEdges:
    """The edge rules, applied to a record stream in order.

    Packet-level records carry no event seq of their own; they belong
    to the ``sched.exec`` event whose callback emitted them — the
    simulator emits the exec record immediately before firing the
    callback, so every record between two exec records is the first's.
    """

    __slots__ = ("current", "_tx", "_deliver")

    def __init__(self) -> None:
        #: seq of the executing event (None before the first).
        self.current: Optional[int] = None
        # Packet uid -> exec seq of its tx / final delivery.
        self._tx: Dict[int, int] = {}
        self._deliver: Dict[int, int] = {}

    def observe(self, record) -> Optional[Tuple[int, str]]:
        """Fold one record in; the causal edge it closes *into the
        executing event*, as ``(source seq, edge kind)``, or None.  The
        source may be an event the caller no longer (or never) knew."""
        kind = record.kind
        detail = record.detail
        if kind == EV_SCHED_EXEC:
            self.current = detail["seq"]
            parent = detail.get("parent")
            if parent is not None:
                return parent, ("timer" if detail["callback"] == _TIMER_FIRE
                                else "sched")
        elif self.current is not None:
            if kind == EV_PKT_TX:
                self._tx[detail["uid"]] = self.current
            elif kind == EV_PKT_DELIVER:
                src = self._tx.pop(detail["uid"], None)
                self._deliver[detail["uid"]] = self.current
                if src is not None:
                    return src, "msg"
            elif kind == EV_PKT_ACK_GEN:
                src = self._deliver.get(detail.get("parent"))
                if src is not None:
                    return src, "ack"
        return None

    def forget(self) -> None:
        """Drop every packet endpoint and the executing event (an
        instant boundary: nothing earlier can pair inside a later tie
        group)."""
        self.current = None
        self._tx.clear()
        self._deliver.clear()


class TieGroup:
    """Same-timestamp events in execution order, with the causal edges
    among them (``forward`` may hold edges of other groups too; paths
    cannot leave a group, so they are never followed)."""

    __slots__ = ("time", "events", "forward")

    def __init__(self, time: float, events: List[Event],
                 forward: Dict[int, List[int]]) -> None:
        self.time = time
        self.events = events
        self.forward = forward

    def unordered_pairs(self) -> Iterator[Tuple[str, int, str, int, str]]:
        """``(entity, seq_a, callback_a, seq_b, callback_b)`` for every
        consecutive same-entity pair with no causal path a → b.

        Consecutive pairs suffice: if every consecutive pair on an
        entity is causally ordered, the whole per-entity sequence is.
        """
        buckets: Dict[str, List[Tuple[int, str]]] = {}
        for seq, entity, callback in self.events:
            buckets.setdefault(entity, []).append((seq, callback))
        forward = self.forward
        for entity, events in buckets.items():
            for (seq_a, cb_a), (seq_b, cb_b) in zip(events, events[1:]):
                if not _reaches(forward, seq_a, seq_b):
                    yield entity, seq_a, cb_a, seq_b, cb_b

    def races(self) -> List[Dict[str, Any]]:
        """:meth:`unordered_pairs` as report rows."""
        return [{"time": self.time, "entity": entity,
                 "first": label(entity, cb_a, seq_a),
                 "second": label(entity, cb_b, seq_b)}
                for entity, seq_a, cb_a, seq_b, cb_b
                in self.unordered_pairs()]


class TieGroupScanner:
    """Cut a record stream into tie groups, one in memory at a time."""

    def __init__(self) -> None:
        self._edges = CausalEdges()
        self._time: Optional[float] = None
        self._events: List[Event] = []
        self._members: set = set()
        self._forward: Dict[int, List[int]] = {}

    def observe(self, record) -> Optional[TieGroup]:
        """Fold one record in; the group it closed (two or more events
        at one instant), if any."""
        closed = None
        edges = self._edges
        if record.kind == EV_SCHED_EXEC:
            if record.time != self._time:
                closed = self.close()
                self._time = record.time
            edge = edges.observe(record)
            seq = edges.current
            self._events.append((seq, record.source,
                                 record.detail["callback"]))
            self._members.add(seq)
        else:
            edge = edges.observe(record)
        if edge is not None and edge[0] in self._members:
            self._forward.setdefault(edge[0], []).append(edges.current)
        return closed

    def close(self) -> Optional[TieGroup]:
        """End the buffered instant (also the end of the stream); the
        group if it had two or more events."""
        events = self._events
        self._edges.forget()
        self._members.clear()
        if len(events) < 2:
            # The common instant: one event, nothing to hand out.
            events.clear()
            self._forward.clear()
            return None
        group = TieGroup(self._time, events, self._forward)
        self._events = []
        self._forward = {}
        return group


def _reaches(forward: Dict[int, List[int]], src: int, dst: int) -> bool:
    """True when ``dst`` is reachable from ``src`` over ``forward``."""
    if src == dst:
        return True
    stack = [src]
    visited = {src}
    while stack:
        for nxt in forward.get(stack.pop(), ()):
            if nxt == dst:
                return True
            if nxt not in visited:
                visited.add(nxt)
                stack.append(nxt)
    return False
