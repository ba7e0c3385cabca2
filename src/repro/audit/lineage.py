"""Packet lineage: spans, hop events, and causal chains.

Every packet gets a *span* opened by its ``pkt.send`` event and extended
by each hop event the network layers emit (enqueue, serialization
start, in-flight loss, queue drop, delivery).  Spans link to causal
parents:

* an ACK's parent is the data packet that triggered it
  (``pkt.ack_gen``'s ``parent`` uid);
* a retransmission's parent is the *previous* transmission of the same
  ``(flow, seq)`` — walking the parent links therefore yields the full
  retransmission history down to the original send.

The tracer is stream-only and bounded: spans are kept in insertion
order and the oldest are evicted past ``max_spans``, so auditing a long
workload cannot grow without bound.  Causal chains are resolved against
whatever is still retained — by construction the packets involved in a
fresh violation are the most recent ones.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.telemetry.schema import (
    EV_CHAOS_CLONE,
    EV_LINK_LOSS,
    EV_PKT_ACK_GEN,
    EV_PKT_DELIVER,
    EV_PKT_SEND,
    EV_QUEUE_DROP,
    LINEAGE_EVENT_KINDS,
)

__all__ = ["HopEvent", "PacketSpan", "LineageTracer"]

#: Retained uids per flow for timeline rendering (spans themselves are
#: bounded separately by ``max_spans``).
FLOW_INDEX_BOUND = 4096

#: Causal-chain walk depth cap (a retransmission storm deeper than this
#: is itself diagnostic; the chain is truncated, not wrong).
MAX_CHAIN_DEPTH = 32


@dataclass
class HopEvent:
    """One hop in a packet's life."""

    time: float
    kind: str
    where: str

    def render(self) -> str:
        return f"t={self.time:.6f}  {self.kind:<12s} @ {self.where}"


@dataclass
class PacketSpan:
    """The recorded life of one packet."""

    uid: int
    flow: int
    created: float
    kind: str = "?"
    seq: int = -1
    ack: int = -1
    src: str = ""
    dst: str = ""
    retransmit: bool = False
    proactive: bool = False
    #: Causal parent uid (triggering data packet for ACKs, previous
    #: transmission for retransmits); None for original sends.
    parent: Optional[int] = None
    fate: str = "in-flight"
    events: List[HopEvent] = field(default_factory=list)

    def label(self) -> str:
        """Compact identity, e.g. ``data seq=7 (proactive-rtx)``."""
        parts = [self.kind]
        if self.seq >= 0:
            parts.append(f"seq={self.seq}")
        if self.ack >= 0:
            parts.append(f"ack={self.ack}")
        if self.retransmit:
            parts.append("(proactive-rtx)" if self.proactive else "(rtx)")
        return " ".join(parts)

    def render(self) -> List[str]:
        """Multi-line rendering: header, hops, fate."""
        lines = [f"uid={self.uid} flow={self.flow} {self.label()}"]
        lines.extend(f"  {event.render()}" for event in self.events)
        lines.append(f"  fate: {self.fate}")
        return lines


class LineageTracer:
    """Builds packet spans and per-flow causal trees from the stream."""

    #: The kinds the tracer folds in (every other record is ignored):
    #: the lineage family plus the packet-keyed drop and loss events.
    #: The auditor routes records to the tracer by this same set.
    kinds = LINEAGE_EVENT_KINDS | {EV_QUEUE_DROP, EV_LINK_LOSS}

    def __init__(self, max_spans: int = 200_000) -> None:
        if max_spans <= 0:
            raise ValueError("max_spans must be positive")
        self._max_spans = max_spans
        self._spans: "OrderedDict[int, PacketSpan]" = OrderedDict()
        self._flows: Dict[int, Deque[int]] = {}
        # flow -> seq -> uid of the latest transmission (parent links).
        self._latest_tx: Dict[int, Dict[int, int]] = {}
        #: Spans evicted past the retention bound (diagnostic).
        self.evicted_spans = 0

    # ------------------------------------------------------------------
    # Stream intake
    # ------------------------------------------------------------------

    def observe(self, record) -> None:
        """Fold one trace record into the lineage state."""
        kind = record.kind
        if kind not in self.kinds:
            return
        detail = record.detail
        uid = detail.get("uid")
        if uid is None:
            return
        if kind == EV_PKT_SEND:
            span = self._open_span(record, uid, detail)
            self._link_transmission(span)
            span.events.append(HopEvent(record.time, kind, record.source))
            return
        if kind == EV_CHAOS_CLONE:
            span = self._open_clone_span(record, uid, detail)
            span.events.append(HopEvent(record.time, kind, record.source))
            return
        span = self._spans.get(uid)
        if span is None:
            # A packet born outside Host.send (e.g. an in-network
            # duplicate): open an orphan span so its hops still trace.
            span = PacketSpan(uid=uid, flow=detail.get("flow", -1),
                              created=record.time, kind="orphan")
            self._retain(span)
        span.events.append(HopEvent(record.time, kind, record.source))
        if kind == EV_PKT_DELIVER:
            if not span.dst or detail.get("dst") == span.dst:
                span.fate = "delivered"
        elif kind == EV_QUEUE_DROP:
            span.fate = f"dropped @ {record.source}"
        elif kind == EV_LINK_LOSS:
            span.fate = f"lost @ {record.source}"
        elif kind == EV_PKT_ACK_GEN:
            span.parent = detail.get("parent")
            span.ack = detail.get("ack", span.ack)

    def _open_span(self, record, uid: int, detail) -> PacketSpan:
        span = PacketSpan(
            uid=uid,
            flow=detail.get("flow", -1),
            created=record.time,
            kind=detail.get("type", "?"),
            seq=detail.get("seq", -1),
            ack=detail.get("ack", -1),
            src=record.source,
            dst=detail.get("dst", ""),
            retransmit=bool(detail.get("retransmit")),
            proactive=bool(detail.get("proactive")),
        )
        self._retain(span)
        return span

    def _open_clone_span(self, record, uid: int, detail) -> PacketSpan:
        """Span for an in-network duplicate (``chaos.clone``).

        The clone wears the original's headers, so the span copies them
        from the parent when it is still retained; ``parent`` is the
        causal edge back to the copied packet.  Clones are *not* linked
        into ``_latest_tx`` — they are middlebox artifacts, not sender
        transmissions.
        """
        parent_uid = detail.get("clone_of")
        parent = self._spans.get(parent_uid) if parent_uid is not None else None
        span = PacketSpan(
            uid=uid,
            flow=detail.get("flow", -1),
            created=record.time,
            kind=f"dup:{parent.kind}" if parent is not None else "dup",
            seq=parent.seq if parent is not None else -1,
            ack=parent.ack if parent is not None else -1,
            src=record.source,
            dst=parent.dst if parent is not None else "",
            parent=parent_uid,
        )
        self._retain(span)
        return span

    def _link_transmission(self, span: PacketSpan) -> None:
        if span.kind not in ("data", "probe") or span.seq < 0:
            return
        per_flow = self._latest_tx.setdefault(span.flow, {})
        previous = per_flow.get(span.seq)
        if span.retransmit and previous is not None:
            span.parent = previous
        per_flow[span.seq] = span.uid

    def _retain(self, span: PacketSpan) -> None:
        self._spans[span.uid] = span
        index = self._flows.get(span.flow)
        if index is None:
            index = self._flows[span.flow] = deque(maxlen=FLOW_INDEX_BOUND)
        index.append(span.uid)
        while len(self._spans) > self._max_spans:
            self._spans.popitem(last=False)
            self.evicted_spans += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._spans)

    def span(self, uid: int) -> Optional[PacketSpan]:
        """The retained span for ``uid``, if any."""
        return self._spans.get(uid)

    def span_for_seq(self, flow: int, seq: int) -> Optional[PacketSpan]:
        """The latest retained transmission span of ``(flow, seq)``."""
        uid = self._latest_tx.get(flow, {}).get(seq)
        return self._spans.get(uid) if uid is not None else None

    def flow_spans(self, flow: int) -> List[PacketSpan]:
        """Retained spans of ``flow``, oldest first."""
        return [self._spans[uid] for uid in self._flows.get(flow, ())
                if uid in self._spans]

    def causal_chain(self, uid: int) -> List[PacketSpan]:
        """The span's ancestry, root (original cause) first."""
        chain: List[PacketSpan] = []
        seen = set()
        current = self._spans.get(uid)
        while (current is not None and current.uid not in seen
                and len(chain) < MAX_CHAIN_DEPTH):
            chain.append(current)
            seen.add(current.uid)
            current = (self._spans.get(current.parent)
                       if current.parent is not None else None)
        chain.reverse()
        return chain

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def render_chain(self, uid: int) -> List[str]:
        """The causal chain as text lines (root first, hops indented)."""
        chain = self.causal_chain(uid)
        if not chain:
            return [f"uid={uid}: no retained lineage"]
        lines: List[str] = []
        for depth, span in enumerate(chain):
            prefix = "  " * depth
            caused = "" if depth == 0 else "caused "
            rendered = span.render()
            lines.append(f"{prefix}{caused}{rendered[0]}")
            lines.extend(f"{prefix}{line}" for line in rendered[1:])
        return lines

    def render_flow(self, flow: int, limit: int = 60) -> str:
        """Chronological ASCII causal timeline of one flow's packets."""
        entries = []
        for span in self.flow_spans(flow):
            for event in span.events:
                entries.append((event.time, span.uid, span.label(),
                                event.kind, event.where))
        entries.sort(key=lambda e: (e[0], e[1]))
        shown = entries[-limit:]
        lines = [f"flow {flow} causal timeline "
                 f"({len(shown)} of {len(entries)} hop events)"]
        for time, uid, label, kind, where in shown:
            lines.append(
                f"  t={time:.6f}  [uid {uid:>6d} {label:<24s}] "
                f"{kind:<12s} @ {where}")
        return "\n".join(lines)
