"""Mergeable FCT-breakdown statistics and the ambient breakdown session.

:mod:`repro.obs.spans` turns one flow's event stream into a
:class:`~repro.obs.spans.FlowBreakdown`; this module turns *many* of
them into the per-protocol time-in-component tables the ``--breakdown``
flag prints, and provides the context-manager wiring
(:class:`BreakdownSession`) that attaches a span builder to whatever
trace recorder is ambient — the same one call as
:class:`repro.audit.AuditSession`.

The aggregate state is per protocol, per component: a float running sum
(for exact means) plus a PR 6 :class:`~repro.obs.sketch.QuantileSketch`
(for p50/p99).  Both merge associatively and serialize
order-independently, so the per-cell sessions of a ``--jobs N`` run fold
into a ``== breakdown ==`` section byte-identical with a serial run's.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.net.packet import packet_uid_mark
from repro.obs.sketch import (
    DEFAULT_RELATIVE_ACCURACY,
    QuantileSketch,
    canonical_json,
)
from repro.obs.spans import COMPONENTS, FlowBreakdown, FlowSpanBuilder
from repro.sim.trace import TraceRecorder
from repro.telemetry import context
from repro.telemetry.context import active_session, take_breakdown
from repro.telemetry.hub import ring_recorder
from repro.transport.flow import flow_id_mark

__all__ = [
    "BreakdownAggregator",
    "BreakdownSession",
    "BreakdownStats",
    "active_session",
    "id_marks",
    "take_breakdown",
]

BREAKDOWN_SCHEMA = "repro.obs.breakdown/1"

#: Bound on per-session pending (completed, not yet collected) flow
#: breakdowns: protects long runs whose harness never drains them.
MAX_PENDING = 100_000


class BreakdownStats:
    """Streaming per-protocol component statistics."""

    __slots__ = ("protocol", "flows", "fct_sum", "component_sums",
                 "component_sketches", "max_conservation_error")

    def __init__(self, protocol: str) -> None:
        self.protocol = protocol
        self.flows = 0
        self.fct_sum = 0.0
        self.component_sums: Dict[str, float] = {}
        self.component_sketches: Dict[str, QuantileSketch] = {}
        self.max_conservation_error = 0.0

    def observe(self, breakdown: FlowBreakdown) -> None:
        """Fold one completed flow's breakdown in."""
        self.flows += 1
        self.fct_sum += breakdown.fct
        if breakdown.conservation_error > self.max_conservation_error:
            self.max_conservation_error = breakdown.conservation_error
        for component in COMPONENTS:
            value = breakdown.components.get(component, 0.0)
            self.component_sums[component] = (
                self.component_sums.get(component, 0.0) + value)
            sketch = self.component_sketches.get(component)
            if sketch is None:
                sketch = self.component_sketches[component] = QuantileSketch(
                    DEFAULT_RELATIVE_ACCURACY)
            sketch.insert(max(value, 0.0))

    def merge(self, other: "BreakdownStats") -> "BreakdownStats":
        """Fold ``other`` in (in place; returns self)."""
        if other.protocol != self.protocol:
            raise ConfigurationError(
                f"cannot merge breakdown stats for {other.protocol!r} "
                f"into {self.protocol!r}")
        self.flows += other.flows
        self.fct_sum += other.fct_sum
        if other.max_conservation_error > self.max_conservation_error:
            self.max_conservation_error = other.max_conservation_error
        for component, value in other.component_sums.items():
            self.component_sums[component] = (
                self.component_sums.get(component, 0.0) + value)
        for component, sketch in other.component_sketches.items():
            mine = self.component_sketches.get(component)
            if mine is None:
                self.component_sketches[component] = QuantileSketch.from_dict(
                    sketch.to_dict())
            else:
                mine.merge(sketch)
        return self

    def mean(self, component: str) -> float:
        """Mean time-in-``component`` per flow (0.0 when empty)."""
        if not self.flows:
            return 0.0
        return self.component_sums.get(component, 0.0) / self.flows

    def share(self, component: str) -> float:
        """``component``'s share of total FCT across flows, in [0, 1]."""
        if self.fct_sum <= 0.0:
            return 0.0
        return self.component_sums.get(component, 0.0) / self.fct_sum

    def quantile(self, component: str, q: float) -> float:
        sketch = self.component_sketches.get(component)
        if sketch is None or sketch.count == 0:
            return 0.0
        return sketch.quantile(q)

    def to_dict(self) -> Dict[str, Any]:
        """Merge-order-independent JSON shape."""
        return {
            "schema": BREAKDOWN_SCHEMA,
            "protocol": self.protocol,
            "flows": self.flows,
            "fct_sum": self.fct_sum,
            "max_conservation_error": self.max_conservation_error,
            "components": {
                name: {
                    "sum": self.component_sums.get(name, 0.0),
                    "sketch": self.component_sketches[name].to_dict(),
                }
                for name in sorted(self.component_sketches)
            },
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "BreakdownStats":
        if doc.get("schema") != BREAKDOWN_SCHEMA:
            raise ConfigurationError(
                f"not a breakdown document (schema={doc.get('schema')!r})")
        stats = cls(str(doc["protocol"]))
        stats.flows = int(doc["flows"])
        stats.fct_sum = float(doc["fct_sum"])
        stats.max_conservation_error = float(doc["max_conservation_error"])
        for name, entry in doc["components"].items():
            stats.component_sums[name] = float(entry["sum"])
            stats.component_sketches[name] = QuantileSketch.from_dict(
                entry["sketch"])
        return stats


class BreakdownAggregator:
    """Per-protocol :class:`BreakdownStats`, mergeable across shards."""

    def __init__(self) -> None:
        self.by_protocol: Dict[str, BreakdownStats] = {}

    # -- ingest --------------------------------------------------------

    def observe(self, breakdown: FlowBreakdown) -> None:
        """Fold one flow's breakdown into its protocol's stats."""
        stats = self.by_protocol.get(breakdown.protocol)
        if stats is None:
            stats = self.by_protocol[breakdown.protocol] = BreakdownStats(
                breakdown.protocol)
        stats.observe(breakdown)

    def observe_all(self, breakdowns: Iterable[FlowBreakdown]
                    ) -> "BreakdownAggregator":
        for breakdown in breakdowns:
            self.observe(breakdown)
        return self

    def merge(self, other: "BreakdownAggregator") -> "BreakdownAggregator":
        """Fold another aggregator in (in place; returns self)."""
        for protocol, stats in other.by_protocol.items():
            mine = self.by_protocol.get(protocol)
            if mine is None:
                self.by_protocol[protocol] = BreakdownStats.from_dict(
                    stats.to_dict())
            else:
                mine.merge(stats)
        return self

    # -- queries -------------------------------------------------------

    @property
    def flows(self) -> int:
        return sum(s.flows for s in self.by_protocol.values())

    @property
    def max_conservation_error(self) -> float:
        if not self.by_protocol:
            return 0.0
        return max(s.max_conservation_error
                   for s in self.by_protocol.values())

    def protocols(self) -> List[str]:
        return sorted(self.by_protocol)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": BREAKDOWN_SCHEMA,
            "protocols": {name: stats.to_dict()
                          for name, stats in sorted(self.by_protocol.items())},
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "BreakdownAggregator":
        if doc.get("schema") != BREAKDOWN_SCHEMA:
            raise ConfigurationError(
                f"not a breakdown document (schema={doc.get('schema')!r})")
        agg = cls()
        for name, entry in doc["protocols"].items():
            agg.by_protocol[name] = BreakdownStats.from_dict(entry)
        return agg

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON serialization; bit-identical
        regardless of shard count or merge order."""
        return hashlib.sha256(
            canonical_json(self.to_dict()).encode("utf-8")).hexdigest()

    # -- rendering -----------------------------------------------------

    def render(self, title: str = "time in component (per flow)") -> str:
        """Per-protocol mean/p50/p99/share table over every component."""
        if not self.by_protocol:
            return f"{title}\n  (no completed flows observed)"
        headers = ["scheme", "component", "mean", "p50", "p99", "share"]
        rows: List[List[str]] = []
        for protocol in self.protocols():
            stats = self.by_protocol[protocol]
            for component in COMPONENTS:
                mean = stats.mean(component)
                share = stats.share(component)
                if stats.component_sums.get(component, 0.0) <= 0.0:
                    continue
                rows.append([
                    protocol, component,
                    _fmt_ms(mean),
                    _fmt_ms(stats.quantile(component, 0.50)),
                    _fmt_ms(stats.quantile(component, 0.99)),
                    f"{share * 100:5.1f}%",
                ])
            rows.append([
                protocol, "= FCT",
                _fmt_ms(stats.fct_sum / stats.flows if stats.flows else 0.0),
                "", "", f"flows={stats.flows}",
            ])
        table = _render_table(headers, rows, title=title)
        return (f"{table}\n  max conservation error: "
                f"{self.max_conservation_error:.3e}s")

    def render_halfback_vs_tcp(self, baseline: str = "tcp",
                               challenger: str = "halfback") -> Optional[str]:
        """The "where Halfback wins" table: recovery-side components of
        ``baseline`` vs ``challenger``.  None when either is absent."""
        base = self.by_protocol.get(baseline)
        chall = self.by_protocol.get(challenger)
        if base is None or chall is None or not base.flows or not chall.flows:
            return None
        rows = []
        for component in ("loss-detection", "rto-idle", "retransmission"):
            b, c = base.mean(component), chall.mean(component)
            rows.append([component, _fmt_ms(b), _fmt_ms(c),
                         _fmt_ms(c - b, signed=True)])
        rows.append(["total FCT",
                     _fmt_ms(base.fct_sum / base.flows),
                     _fmt_ms(chall.fct_sum / chall.flows),
                     _fmt_ms(chall.fct_sum / chall.flows
                             - base.fct_sum / base.flows, signed=True)])
        return _render_table(
            ["component", f"{baseline} mean", f"{challenger} mean", "delta"],
            rows, title=f"where {challenger} wins (vs {baseline})")

    def report(self) -> str:
        """The ``== breakdown ==`` section a run prints: the table, the
        "where Halfback wins" table when both schemes ran, and the
        fingerprint."""
        if not self.flows:
            return "no flows observed by the run-level session"
        parts = [self.render(title="FCT attribution (time in component)")]
        wins = self.render_halfback_vs_tcp()
        if wins is not None:
            parts.append(wins)
        parts.append(f"breakdown fingerprint: {self.fingerprint()}")
        return "\n".join(parts)


def _fmt_ms(seconds: float, signed: bool = False) -> str:
    sign = "+" if signed else ""
    return f"{seconds * 1000:{sign}.2f}ms"


def _render_table(headers, rows, title: str = "") -> str:
    cells = [[str(h) for h in headers]] + [[str(c) for c in r] for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = [title] if title else []
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Ambient session (the ``breakdown`` slot of the run context, so the
# runner's per-flow take_breakdown check never imports this module)
# ----------------------------------------------------------------------


class BreakdownSession:
    """Context manager attaching a span builder to the ambient trace.

    Wired like :class:`repro.audit.AuditSession`
    (:func:`repro.telemetry.context.attached`): with a telemetry hub (or
    audit session) active the builder observes its recorder, otherwise
    the session brings a ring-bounded one (cleared on exit), so
    ``--breakdown`` alone works without ``--telemetry``.  The builder's
    kinds turn lineage events on for the duration.  :attr:`trace` is
    the recorder observed (None until entered).

    Completed breakdowns land in two places: folded into the session's
    :class:`BreakdownAggregator` (``session.aggregate``), and parked in
    ``session.pending`` until the harness claims them per flow via
    :func:`take_breakdown` (bounded by :data:`MAX_PENDING`).

    Sessions nest (:func:`~repro.telemetry.context.attached` suspends
    the enclosing one), so every flow completing inside belongs to the
    inner session alone: :func:`repro.parallel.fanout_map` runs each
    cell in its own session and merges what :meth:`shipped` returns
    through :meth:`absorb`.
    """

    def __init__(self, keep_spans: bool = False) -> None:
        # ``on_complete`` is bound while the session is entered only: a
        # standing builder <-> session cycle would leave every finished
        # session to the cycle collector.
        self.builder = FlowSpanBuilder(keep_spans=keep_spans)
        self.aggregate = BreakdownAggregator()
        self.pending: Dict[int, FlowBreakdown] = {}
        self.completed: List[FlowBreakdown] = []
        self.keep_spans = keep_spans
        self.trace: Optional[TraceRecorder] = None

    def _on_complete(self, breakdown: FlowBreakdown) -> None:
        self.aggregate.observe(breakdown)
        if len(self.pending) < MAX_PENDING:
            self.pending[breakdown.flow] = breakdown
        if self.keep_spans:
            self.completed.append(breakdown)

    def __enter__(self) -> "BreakdownSession":
        self.builder.on_complete = self._on_complete
        self._attachment = context.attached(
            "breakdown", self.builder.observe, self.builder.kinds,
            ring_recorder, session=self)
        self.trace = self._attachment.__enter__()
        self._marks = id_marks() if self.keep_spans else None
        return self

    def __exit__(self, *exc) -> None:
        self._attachment.__exit__(*exc)
        self.builder.on_complete = None

    # -- fan-out cells -------------------------------------------------

    def shipped(self) -> Tuple[Dict[str, Any], Optional[tuple]]:
        """What a fan-out cell hands back of its session: the aggregate
        document, and with ``keep_spans`` the retained breakdowns —
        flow ids and packet uids made cell-local — plus how many of each
        the cell allocated."""
        doc = self.aggregate.to_dict()
        if self._marks is None:
            return doc, None
        (flow0, uid0), (flow1, uid1) = self._marks, id_marks()
        _rebase(self.completed, -flow0, -uid0)
        return doc, (self.completed, flow1 - flow0, uid1 - uid0)

    def absorb(self, shipped: Iterable[tuple],
               marks: Optional[Tuple[int, int]]) -> None:
        """Merge cells' :meth:`shipped` observations in cell order.

        ``marks`` are the :func:`id_marks` taken when the fan-out began
        (None without ``keep_spans``): spans get the ids they would have
        had had every cell run in this process, one after another, and
        the counters move past them, so ``--jobs N`` changes no id.
        """
        for doc, spans in shipped:
            self.aggregate.merge(BreakdownAggregator.from_dict(doc))
            if spans is not None:
                completed, n_flows, n_uids = spans
                _rebase(completed, *marks)
                self.completed.extend(completed)
                marks = (marks[0] + n_flows, marks[1] + n_uids)
        if marks is not None:
            id_marks(marks)


def id_marks(at_least: Tuple[int, int] = (0, 0)) -> Tuple[int, int]:
    """This process's next flow id and packet uid, allocating neither;
    both counters first skip forward to ``at_least``."""
    return flow_id_mark(at_least[0]), packet_uid_mark(at_least[1])


def _rebase(breakdowns: List[FlowBreakdown], flows: int, uids: int) -> None:
    for breakdown in breakdowns:
        breakdown.flow += flows
        for packet in breakdown.packets:
            packet["uid"] += uids
