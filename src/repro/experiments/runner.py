"""Shared experiment machinery.

Two layers:

* :func:`launch_flow` — wire up one (sender, receiver) pair for a flow
  on an existing topology and return its :class:`FlowRecord`.
* :class:`TrafficRunner` — schedule a whole workload (arrivals, sizes,
  protocol mix) over one access network, run it, and hand back the
  records.  Pair assignment is round-robin so concurrent flows spread
  across sender hosts while sharing the bottleneck, as in the paper's
  Emulab setup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.errors import ExperimentError
from repro.net.topology import AccessNetwork
from repro.protocols.registry import ProtocolContext, create_sender
from repro.sim.simulator import Simulator
from repro.telemetry.context import alive, take_breakdown
from repro.telemetry.schema import EV_FLOW_COMPLETE, EV_FLOW_START
from repro.transport.config import TransportConfig
from repro.transport.flow import FlowRecord, FlowSpec, next_flow_id
from repro.transport.receiver import Receiver

if TYPE_CHECKING:
    from repro.net.monitor import FlowThroughputMonitor

__all__ = ["launch_flow", "ScheduledFlow", "TrafficRunner"]


def launch_flow(
    sim: Simulator,
    net: AccessNetwork,
    protocol: str,
    size: int,
    pair_index: int = 0,
    start_time: Optional[float] = None,
    kind: str = "short",
    config: Optional[TransportConfig] = None,
    context: Optional[ProtocolContext] = None,
    throughput_monitor: Optional[FlowThroughputMonitor] = None,
    on_complete: Optional[Callable[[FlowRecord], None]] = None,
) -> FlowRecord:
    """Create sender+receiver for one flow and start it immediately.

    ``start_time`` defaults to ``sim.now`` and must not be in the past;
    the handshake begins at that instant.  Returns the flow's record,
    which the receiver completes in place; ``on_complete`` (if given) is
    called with the record at that moment.
    """
    when = sim.now if start_time is None else start_time
    if when < sim.now:
        raise ExperimentError("flow start time is in the past")
    sender_host, receiver_host = net.pair(pair_index % len(net.senders))
    spec = FlowSpec(
        flow_id=next_flow_id(),
        src=sender_host.name,
        dst=receiver_host.name,
        size=size,
        protocol=protocol,
        start_time=when,
        kind=kind,
    )
    record = FlowRecord(spec)

    def finish(receiver: Receiver) -> None:
        record.complete_time = sim.now
        record.duplicate_receptions = receiver.duplicates
        sim.metrics.inc("flows.completed")
        sim.trace.record(sim.now, EV_FLOW_COMPLETE, "runner",
                         flow=spec.flow_id, fct=record.fct)
        # Trace observers run synchronously inside record(), so an
        # ambient breakdown session has finalized this flow's FCT
        # attribution by now; one falsy check when no session is active.
        breakdown = take_breakdown(spec.flow_id)
        if breakdown is not None:
            record.extra["breakdown"] = breakdown
        # A fan-out worker tells its supervisor it is still alive
        # (throttled; one attribute check anywhere else).
        alive()
        if on_complete is not None:
            on_complete(record)

    def begin() -> None:
        sim.metrics.inc("flows.launched")
        sim.trace.record(sim.now, EV_FLOW_START, "runner",
                         flow=spec.flow_id, protocol=protocol, size=size)
        Receiver(sim, receiver_host, spec.flow_id, config=config,
                 on_complete=finish, throughput_monitor=throughput_monitor)
        sender = create_sender(sim, sender_host, spec, record=record,
                               config=config, context=context)
        sender.start()

    if when <= sim.now:
        begin()
    else:
        sim.schedule_at(when, begin)
    return record


@dataclass(frozen=True)
class ScheduledFlow:
    """One entry of a workload schedule."""

    time: float
    size: int
    protocol: str
    kind: str = "short"


@dataclass
class TrafficRunner:
    """Runs a schedule of flows over one access network.

    Parameters
    ----------
    sim, net:
        The simulator and topology to run on.
    config:
        Transport configuration shared by all flows.
    context:
        Protocol context (window cache etc.) shared by all flows.
    drain_time:
        Extra simulated seconds after the last scheduled arrival during
        which in-flight flows may finish before the run stops.
    """

    sim: Simulator
    net: AccessNetwork
    config: Optional[TransportConfig] = None
    context: Optional[ProtocolContext] = None
    drain_time: float = 30.0
    throughput_monitor: Optional[FlowThroughputMonitor] = None
    records: List[FlowRecord] = field(default_factory=list)
    _next_pair: int = 0
    _last_arrival: float = 0.0

    def __post_init__(self) -> None:
        if self.context is None:
            self.context = ProtocolContext()
        if self.config is None:
            self.config = TransportConfig()

    # ------------------------------------------------------------------

    def schedule(self, flows: Sequence[ScheduledFlow]) -> List[FlowRecord]:
        """Schedule every flow (round-robin across pairs); returns their
        records (also appended to :attr:`records`)."""
        new_records = []
        for item in flows:
            record = launch_flow(
                self.sim, self.net, item.protocol, item.size,
                pair_index=self._next_pair,
                start_time=item.time,
                kind=item.kind,
                config=self.config,
                context=self.context,
                throughput_monitor=self.throughput_monitor,
            )
            self._next_pair += 1
            self._last_arrival = max(self._last_arrival, item.time)
            new_records.append(record)
        self.records.extend(new_records)
        return new_records

    def run(self, extra_horizon: float = 0.0) -> List[FlowRecord]:
        """Run until every scheduled arrival plus the drain window has
        elapsed; returns all records (with ground-truth drop counts
        stamped into ``record.extra["drops"]``)."""
        horizon = self._last_arrival + self.drain_time + extra_horizon
        self.sim.run(until=horizon)
        for record in self.records:
            record.extra["drops"] = self.sim.flow_drops.get(
                record.spec.flow_id, 0
            )
        return self.records

    def drain_records(self) -> List[FlowRecord]:
        """Hand the accumulated records over and forget them.

        The streaming-aggregation hook: callers fold the returned
        records into a :class:`~repro.obs.aggregate.FlowStats` and let
        them go, so the runner holds no per-flow state between batches.
        """
        records, self.records = self.records, []
        return records

    # ------------------------------------------------------------------

    def completion_rate(self) -> float:
        """Fraction of scheduled flows that completed."""
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.completed) / len(self.records)
