"""Streaming flow aggregation: figure statistics without record lists.

Today every sweep accumulates :class:`~repro.transport.flow.FlowRecord`
objects and post-processes the lists; at a million flows that is both
memory-unbounded and unwatchable.  :class:`FlowStats` folds one record
at a time into constant-size state (counters, a
:class:`~repro.obs.sketch.QuantileSketch` of FCTs, exact retransmit
histograms), and :class:`StreamingFlowAggregator` keys those groups the
way figures do (by protocol, or any caller-supplied key).

Exactness contract
------------------
Counters, histograms and the sketch are merge-order-independent.  The
FCT *sums* (used for exact figure means) are floats accumulated in
observation order, so a parallel run matches a serial one bit for bit
**when shards are merged in the serial shard order** — exactly what
:func:`repro.parallel.fanout_map` guarantees.  Mean/penalty semantics
mirror :class:`repro.metrics.fct.FctCollector` operation for operation
so a streamed figure table equals the record-list one.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Iterable, List, Optional

from repro.errors import ConfigurationError
from repro.obs.sketch import (
    DEFAULT_RELATIVE_ACCURACY,
    CountHistogram,
    QuantileSketch,
    canonical_json,
)
from repro.transport.flow import FlowRecord

__all__ = ["FlowStats", "StreamingFlowAggregator", "REPORT_QUANTILES"]

AGGREGATE_SCHEMA = "repro.obs.aggregate/1"

#: The quantiles every streamed report carries (p50/p90/p99/p99.9).
REPORT_QUANTILES = (0.50, 0.90, 0.99, 0.999)


class FlowStats:
    """Constant-size statistics over a stream of flow records.

    Parameters
    ----------
    relative_accuracy:
        Relative error bound for the FCT quantile sketch.
    penalty:
        When set, incomplete flows contribute this FCT (seconds) to the
        penalized mean — the Fig. 12 collapse-detection convention
        (:data:`repro.experiments.fig12_utilization.INCOMPLETE_PENALTY`).
    """

    __slots__ = ("relative_accuracy", "penalty", "flows", "completed",
                 "failed", "fct_sum", "penalized_sum", "fct_sketch",
                 "normal_retx", "proactive_retx", "timeouts", "drops")

    def __init__(self, relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
                 penalty: Optional[float] = None) -> None:
        self.relative_accuracy = relative_accuracy
        self.penalty = penalty
        self.flows = 0
        self.completed = 0
        self.failed = 0
        #: Sum of completed flows' FCTs, accumulated in observation order.
        self.fct_sum = 0.0
        #: Sum with ``penalty`` substituted for incomplete flows.
        self.penalized_sum = 0.0
        self.fct_sketch = QuantileSketch(relative_accuracy)
        self.normal_retx = CountHistogram()
        self.proactive_retx = CountHistogram()
        self.timeouts = 0
        self.drops = 0

    # ------------------------------------------------------------------
    # Ingest / merge
    # ------------------------------------------------------------------

    def observe(self, record: FlowRecord) -> None:
        """Fold one flow record in; the record is not retained."""
        self.flows += 1
        fct = record.fct
        if fct is not None:
            self.completed += 1
            self.fct_sum += fct
            self.penalized_sum += fct
            self.fct_sketch.insert(fct)
        else:
            if record.failed:
                self.failed += 1
            if self.penalty is not None:
                self.penalized_sum += self.penalty
        self.normal_retx.insert(record.normal_retransmissions)
        self.proactive_retx.insert(record.proactive_retransmissions)
        self.timeouts += record.timeouts
        self.drops += record.extra.get("drops", 0)

    def observe_all(self, records: Iterable[FlowRecord]) -> "FlowStats":
        """Fold an iterable of records (returns self)."""
        for record in records:
            self.observe(record)
        return self

    def merge(self, other: "FlowStats") -> "FlowStats":
        """Fold another shard's stats in (in place; returns self).

        Requires matching sketch accuracy and penalty configuration —
        merging differently-configured shards would silently change
        figure semantics.
        """
        if (other.relative_accuracy != self.relative_accuracy
                or other.penalty != self.penalty):
            raise ConfigurationError(
                "cannot merge FlowStats with different configuration "
                f"(accuracy {self.relative_accuracy}/{other.relative_accuracy},"
                f" penalty {self.penalty}/{other.penalty})")
        self.flows += other.flows
        self.completed += other.completed
        self.failed += other.failed
        self.fct_sum += other.fct_sum
        self.penalized_sum += other.penalized_sum
        self.fct_sketch.merge(other.fct_sketch)
        self.normal_retx.merge(other.normal_retx)
        self.proactive_retx.merge(other.proactive_retx)
        self.timeouts += other.timeouts
        self.drops += other.drops
        return self

    # ------------------------------------------------------------------
    # Queries (FctCollector-compatible semantics)
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Flows neither completed nor failed."""
        return self.flows - self.completed - self.failed

    def mean_fct(self, penalized: bool = False) -> float:
        """Mean FCT in seconds; ``penalized=True`` charges the
        configured penalty to incomplete flows (requires one)."""
        if penalized:
            if self.penalty is None:
                raise ConfigurationError(
                    "penalized mean requested but no penalty configured")
            if not self.flows:
                raise ConfigurationError("no flows observed")
            return self.penalized_sum / self.flows
        if not self.completed:
            raise ConfigurationError("no completed flows to average")
        return self.fct_sum / self.completed

    def completion_rate(self) -> float:
        """Fraction of observed flows that completed."""
        return self.completed / self.flows if self.flows else 0.0

    def quantile(self, q: float) -> float:
        """FCT quantile from the sketch (completed flows only)."""
        return self.fct_sketch.quantile(q)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Compact JSON shape (sums rounded to stay repr-stable across
        JSON round-trips; the sketch/histograms serialize exactly)."""
        return {
            "schema": AGGREGATE_SCHEMA,
            "relative_accuracy": self.relative_accuracy,
            "penalty": self.penalty,
            "flows": self.flows,
            "completed": self.completed,
            "failed": self.failed,
            "fct_sum": self.fct_sum,
            "penalized_sum": self.penalized_sum,
            "fct_sketch": self.fct_sketch.to_dict(),
            "normal_retx": self.normal_retx.to_dict(),
            "proactive_retx": self.proactive_retx.to_dict(),
            "timeouts": self.timeouts,
            "drops": self.drops,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "FlowStats":
        """Rebuild from :meth:`to_dict` output."""
        if doc.get("schema") != AGGREGATE_SCHEMA:
            raise ConfigurationError(
                f"not a FlowStats document (schema={doc.get('schema')!r})")
        stats = cls(float(doc["relative_accuracy"]),
                    penalty=(None if doc["penalty"] is None
                             else float(doc["penalty"])))
        stats.flows = int(doc["flows"])
        stats.completed = int(doc["completed"])
        stats.failed = int(doc["failed"])
        stats.fct_sum = float(doc["fct_sum"])
        stats.penalized_sum = float(doc["penalized_sum"])
        stats.fct_sketch = QuantileSketch.from_dict(doc["fct_sketch"])
        stats.normal_retx = CountHistogram.from_dict(doc["normal_retx"])
        stats.proactive_retx = CountHistogram.from_dict(doc["proactive_retx"])
        stats.timeouts = int(doc["timeouts"])
        stats.drops = int(doc["drops"])
        return stats

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON serialization."""
        return hashlib.sha256(
            canonical_json(self.to_dict()).encode("utf-8")).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FlowStats(flows={self.flows}, completed={self.completed}, "
                f"failed={self.failed})")


class StreamingFlowAggregator:
    """Routes a stream of flow records into keyed :class:`FlowStats`.

    The default key is the flow's protocol — the grouping every figure
    table uses — but any ``key_fn(record) -> str`` works (flow kind,
    path class, shard label).  Groups are created on first sight, so the
    aggregator needs no upfront schema.

    ::

        agg = StreamingFlowAggregator()
        for record in runner.drain_records():   # memory stays flat
            agg.observe(record)
        print(agg.render())                      # p50/p90/p99/p99.9 table
    """

    def __init__(self, relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
                 penalty: Optional[float] = None,
                 key_fn: Optional[Callable[[FlowRecord], str]] = None) -> None:
        self.relative_accuracy = relative_accuracy
        self.penalty = penalty
        self._key_fn = key_fn or (lambda record: record.spec.protocol)
        self.groups: Dict[str, FlowStats] = {}

    # ------------------------------------------------------------------

    def group(self, key: str) -> FlowStats:
        """The (created-on-demand) stats group for ``key``."""
        stats = self.groups.get(key)
        if stats is None:
            stats = FlowStats(self.relative_accuracy, penalty=self.penalty)
            self.groups[key] = stats
        return stats

    def observe(self, record: FlowRecord) -> None:
        """Fold one record into its group."""
        self.group(self._key_fn(record)).observe(record)

    def observe_all(self, records: Iterable[FlowRecord]
                    ) -> "StreamingFlowAggregator":
        """Fold an iterable of records (returns self)."""
        for record in records:
            self.observe(record)
        return self

    def merge(self, other: "StreamingFlowAggregator"
              ) -> "StreamingFlowAggregator":
        """Fold another shard's aggregator in, group by group."""
        for key, stats in other.groups.items():
            mine = self.groups.get(key)
            if mine is None:
                # Adopt a copy via round-trip so later merges into this
                # aggregator never mutate the donor shard's state.
                self.groups[key] = FlowStats.from_dict(stats.to_dict())
            else:
                mine.merge(stats)
        return self

    # ------------------------------------------------------------------

    @property
    def flows(self) -> int:
        """Total flows observed across every group."""
        return sum(stats.flows for stats in self.groups.values())

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON shape: groups sorted by key."""
        return {
            "schema": AGGREGATE_SCHEMA,
            "relative_accuracy": self.relative_accuracy,
            "penalty": self.penalty,
            "groups": {key: self.groups[key].to_dict()
                       for key in sorted(self.groups)},
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object],
                  key_fn: Optional[Callable[[FlowRecord], str]] = None
                  ) -> "StreamingFlowAggregator":
        """Rebuild from :meth:`to_dict` output."""
        agg = cls(float(doc["relative_accuracy"]),
                  penalty=(None if doc["penalty"] is None
                           else float(doc["penalty"])),
                  key_fn=key_fn)
        agg.groups = {key: FlowStats.from_dict(sub)
                      for key, sub in doc["groups"].items()}
        return agg

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON of every group."""
        return hashlib.sha256(
            canonical_json(self.to_dict()).encode("utf-8")).hexdigest()

    def render(self, title: str = "streamed FCT quantiles",
               unit: float = 1e3, unit_label: str = "ms") -> str:
        """The p50/p90/p99/p99.9 table every streamed run reports."""
        lines = [f"{title} (sketch alpha="
                 f"{self.relative_accuracy}, {unit_label})"]
        if not self.groups:
            lines.append("  (no flows observed)")
            return "\n".join(lines)
        width = max(len(key) for key in self.groups)
        header = (f"  {'group':<{width}s} {'flows':>7s} {'done':>7s} "
                  + "".join(f"{'p' + format(q * 100, 'g'):>10s}"
                            for q in REPORT_QUANTILES))
        lines.append(header)
        for key in sorted(self.groups):
            stats = self.groups[key]
            if stats.completed:
                cells = "".join(
                    f"{stats.quantile(q) * unit:>10.1f}"
                    for q in REPORT_QUANTILES)
            else:
                cells = "".join(f"{'-':>10s}" for _ in REPORT_QUANTILES)
            lines.append(f"  {key:<{width}s} {stats.flows:>7d} "
                         f"{stats.completed:>7d} {cells}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.groups)
